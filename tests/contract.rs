//! The corrector's contract, the slices no per-feature file carries:
//! the repaired-snapshot, out-of-core and base-mode serve sources on
//! both engines, and the seeded random draws over every axis. The
//! matrix itself — fixture, case type, generator and columns — is
//! `support`.

mod support;

use support::Grid;

#[test]
fn repaired_ooc_and_serve_sources_match_the_oracle() {
    support::check_grid(Grid::Sources);
}

#[test]
fn seeded_draws_match_the_oracle() {
    support::check_random();
}
