//! An in-process MPI-like message-passing runtime.
//!
//! The paper's implementation is an MPI program for IBM BlueGene/Q. This
//! crate provides the message-passing substrate the reproduction runs on:
//! ranks are OS threads inside one process, connected by mailboxes that
//! implement MPI's point-to-point semantics (tags, `ANY_SOURCE` /
//! `ANY_TAG`, per-pair FIFO ordering) and the
//! collectives the paper uses (`MPI_Barrier`, `MPI_Alltoallv`,
//! `MPI_Allgatherv`, `MPI_Allreduce` — the paper's `MPI_Reduce(MAX)` on
//! batch counts is an allreduce here since every rank needs the result).
//!
//! Because ranks share one address space, "messages" move by `Vec`
//! ownership transfer, which keeps the runtime honest (no shared-state
//! shortcuts in the algorithm code: everything goes through [`Comm`]) and
//! fast enough to run hundreds of ranks in tests.
//!
//! The [`cost`] module provides the BlueGene/Q analytic cost model used by
//! the large-scale virtual engine (see `reptile-dist`) to translate
//! counted work and traffic into modeled seconds; [`topology`] describes
//! the node/rank layout (ranks per node, intra- vs inter-node links);
//! [`fault`] provides deterministic seeded fault injection (message drop /
//! duplicate / reorder / delay, rank stall and kill) on the
//! point-to-point plane, installed per-universe via
//! [`Universe::with_fault_plan`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod message;
pub mod stats;
pub mod topology;
pub mod universe;

pub use collectives::PendingAlltoallv;
pub use comm::{Comm, Source, TagSel};
pub use cost::CostModel;
pub use fault::{chop_file, parse_duration, FaultPlan, KillSpec, SnapshotChopSpec, StallSpec};
pub use message::Message;
pub use stats::RankStatsSnapshot;
pub use topology::Topology;
pub use universe::Universe;
