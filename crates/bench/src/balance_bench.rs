//! Static vs adaptive load balancing on skewed and uniform workloads.
//!
//! The adaptive layer (hot-shard replication + read-chunk stealing,
//! `HeuristicConfig::adaptive`) earns its place only if it (a) wins big
//! on the skew it was built for and (b) costs nothing when the workload
//! is already balanced. This bench races the two policies on the
//! [`balance_pair`] workloads — the same profile generated with and
//! without a repeat run — on the virtual engine (deterministic modeled
//! time) with the commodity-cluster cost model: the environment where
//! remote lookups are dearest and skew hurts most.
//!
//! Its record is written to `BENCH_balance.json` by
//! `figures -- bench-json`, whose `balance-floor` rows assert the two
//! floors:
//!
//! * **skewed**: adaptive ≥ 1.5× faster than static;
//! * **uniform**: adaptive within ±5% of static (both the hot-shard gate
//!   and the steal gate must hold closed, so the adaptive run executes
//!   exactly the static protocol plus one bounded histogram sample and
//!   one tiny allgather).
//!
//! [`balance_pair`]: crate::workloads::balance_pair

use crate::workloads::{balance_pair, smoke_params};
use crate::{group, Metrics};
use mpisim::CostModel;
use reptile_dist::{Engine, EngineConfig, HeuristicConfig, RunOutput, VirtualEngine};

/// Rank count for both races. Small enough that the smoke workloads keep
/// hundreds of reads per rank, large enough that a hot owner's fair
/// share (1/NP) leaves room above the 1.5× skew gate.
pub const NP: usize = 8;
/// Hot-shard budget for the adaptive runs.
pub const HOT_K: usize = 2;

/// One policy × workload cell of the race.
#[derive(Clone, Copy, Debug, Default)]
pub struct BalanceCell {
    /// Modeled end-to-end makespan, seconds.
    pub makespan_secs: f64,
    /// Remote lookups summed over ranks (messages the policy must pay).
    pub remote_lookups: u64,
    /// Lookups served by a hot-shard replica.
    pub hot_shard_hits: u64,
    /// Read chunks moved by the steal protocol.
    pub chunks_stolen: u64,
    /// `(max − min) / mean` of per-rank correction time.
    pub straggler_spread: f64,
}

/// The full static-vs-adaptive race result; [`BalanceBenchReport::metrics`]
/// is its record.
#[derive(Clone, Copy, Debug, Default)]
pub struct BalanceBenchReport {
    /// Reads in each workload.
    pub reads: usize,
    /// Static policy (paper baseline: hash shuffle only) on skew.
    pub skewed_static: BalanceCell,
    /// Adaptive policy on skew.
    pub skewed_adaptive: BalanceCell,
    /// Static policy on the uniform control.
    pub uniform_static: BalanceCell,
    /// Adaptive policy on the uniform control.
    pub uniform_adaptive: BalanceCell,
}

impl BalanceBenchReport {
    /// How many times faster the adaptive policy is on the skewed
    /// workload (the headline floor: ≥ 1.5).
    pub fn skewed_speedup(&self) -> f64 {
        self.skewed_static.makespan_secs / self.skewed_adaptive.makespan_secs.max(f64::MIN_POSITIVE)
    }

    /// Adaptive-over-static makespan ratio on the uniform control
    /// (the no-regression floor: within ±5% of 1.0).
    pub fn uniform_ratio(&self) -> f64 {
        self.uniform_adaptive.makespan_secs
            / self.uniform_static.makespan_secs.max(f64::MIN_POSITIVE)
    }

    /// Fraction of the static policy's remote lookups the adaptive
    /// policy eliminated on the skewed workload.
    pub fn remote_reduction(&self) -> f64 {
        let s = self.skewed_static.remote_lookups;
        if s == 0 {
            return 0.0;
        }
        1.0 - self.skewed_adaptive.remote_lookups as f64 / s as f64
    }

    /// The `BENCH_balance.json` record.
    pub fn metrics(&self) -> Metrics {
        let cell = |name: &str, c: &BalanceCell| {
            group(
                name,
                &[
                    ("makespan_secs", c.makespan_secs),
                    ("remote_lookups", c.remote_lookups as f64),
                    ("hot_shard_hits", c.hot_shard_hits as f64),
                    ("chunks_stolen", c.chunks_stolen as f64),
                    ("straggler_spread", c.straggler_spread),
                ],
            )
        };
        [
            group(
                "workload",
                &[("reads", self.reads as f64), ("np", NP as f64), ("hot_k", HOT_K as f64)],
            ),
            cell("skewed.static", &self.skewed_static),
            cell("skewed.adaptive", &self.skewed_adaptive),
            cell("uniform.static", &self.uniform_static),
            cell("uniform.adaptive", &self.uniform_adaptive),
            group(
                "ratios",
                &[
                    ("skewed_speedup", self.skewed_speedup()),
                    ("uniform_ratio", self.uniform_ratio()),
                    ("remote_reduction", self.remote_reduction()),
                ],
            ),
        ]
        .concat()
    }
}

fn cell(out: &RunOutput) -> BalanceCell {
    BalanceCell {
        makespan_secs: out.report.makespan_secs(),
        remote_lookups: out.report.remote_lookups(),
        hot_shard_hits: out.report.hot_shard_hits(),
        chunks_stolen: out.report.chunks_stolen(),
        straggler_spread: out.report.straggler_spread(),
    }
}

fn race(
    reads: &[dnaseq::Read],
) -> (BalanceCell, BalanceCell, Vec<dnaseq::Read>, Vec<dnaseq::Read>) {
    let cfg = |heur: HeuristicConfig| EngineConfig {
        heuristics: heur,
        cost: CostModel::commodity_cluster(),
        chunk_size: 32,
        ..EngineConfig::virtual_cluster(NP, smoke_params())
    };
    let stat = VirtualEngine.run(&cfg(HeuristicConfig::default()), reads);
    let adap = VirtualEngine.run(&cfg(HeuristicConfig::adaptive(HOT_K)), reads);
    (cell(&stat), cell(&adap), stat.corrected, adap.corrected)
}

/// Run the four-cell race. Panics if either policy changes the corrected
/// output — speed from wrong answers doesn't count.
pub fn run() -> BalanceBenchReport {
    let (uni, skew) = balance_pair();
    let (skewed_static, skewed_adaptive, s_out, s_out2) = race(&skew.reads);
    assert_eq!(s_out, s_out2, "adaptive balancing must be output-invariant (skewed)");
    let (uniform_static, uniform_adaptive, u_out, u_out2) = race(&uni.reads);
    assert_eq!(u_out, u_out2, "adaptive balancing must be output-invariant (uniform)");
    BalanceBenchReport {
        reads: skew.reads.len(),
        skewed_static,
        skewed_adaptive,
        uniform_static,
        uniform_adaptive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI floors, enforced at the source as well: the adaptive layer
    /// must win ≥1.5× on the skew it exists for, stay within ±5% on a
    /// balanced workload, and actually remove remote traffic (not just
    /// shuffle modeled time around).
    #[test]
    fn adaptive_beats_static_on_skew_and_ties_on_uniform() {
        let r = run();
        assert!(
            r.skewed_speedup() >= 1.5,
            "adaptive speedup on skew {:.3}x below the 1.5x floor\n{r:?}",
            r.skewed_speedup()
        );
        assert!(
            (0.95..=1.05).contains(&r.uniform_ratio()),
            "adaptive makespan on uniform drifted {:.3}x from static\n{r:?}",
            r.uniform_ratio()
        );
        assert!(
            r.remote_reduction() > 0.0,
            "hot-shard replication removed no remote lookups\n{r:?}"
        );
        // the mechanisms must both engage on the skewed workload…
        assert!(r.skewed_adaptive.hot_shard_hits > 0, "hot shards never hit");
        assert!(r.skewed_adaptive.chunks_stolen > 0, "no chunks stolen");
        // …and the gates must hold both of them closed on the uniform one
        assert_eq!(r.uniform_adaptive.hot_shard_hits, 0, "uniform workload tripped the hot gate");
        assert_eq!(r.uniform_adaptive.chunks_stolen, 0, "uniform workload tripped the steal gate");
        // stealing must level the stragglers, not merely shift them
        assert!(r.skewed_adaptive.straggler_spread < r.skewed_static.straggler_spread);
    }
}
