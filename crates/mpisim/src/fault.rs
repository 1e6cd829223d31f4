//! Deterministic fault injection for the point-to-point plane.
//!
//! A [`FaultPlan`] describes which messages the runtime should drop,
//! duplicate, reorder, or delay, plus whole-rank failure modes (kill and
//! stall). Decisions are **deterministic**: each is a pure function of
//! the plan's seed and the message's `(src, dst, per-edge index)`, so a
//! run with a given plan misbehaves identically every time — faults are
//! reproducible test inputs, not noise. The plan is installed on the
//! [`crate::Universe`] and applied per message inside
//! [`crate::Comm::send_many`] (which [`crate::Comm::send`] is one frame
//! of), so every consumer of the p2p plane inherits it without opting
//! in.
//!
//! Scope: the probabilistic faults and rank kill apply to the mailbox
//! (point-to-point) plane only. Collectives stay reliable — they are the
//! barrier-synchronized control plane (a dropped barrier is not a fault
//! model, it is a deadlock) — but a *stalled* rank also stalls its
//! collectives, modeling a slow node. This mirrors how the large-scale
//! k-mer pipelines (diBELLA and kin) treat the request/response lookup
//! traffic as the reliability-critical path while bulk-synchronous
//! exchanges are checkpointed or retried wholesale.

use std::time::Duration;

/// Which rank to kill: its point-to-point plane goes silent (messages to
/// and from it are discarded), modeling a crashed service. Collectives
/// still complete (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// The killed rank.
    pub rank: usize,
}

/// Snapshot-file truncation: before rank `rank` loads its spectrum
/// shard, the file is chopped down to `keep_bytes` — modeling an
/// interrupted snapshot write or a partially transferred file. The
/// snapshot layer must surface this as a typed error, never as garbage
/// corrections; the fault matrix verifies that end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotChopSpec {
    /// The rank whose shard is truncated.
    pub rank: usize,
    /// Bytes to keep (0 = empty file).
    pub keep_bytes: u64,
}

/// Chop `path` down to `keep_bytes` — the snapshot truncation
/// injection. Lives here, behind the fault plan, so production snapshot
/// code has no truncation entry point to reach by accident. A no-op
/// when the file is already shorter.
pub fn chop_file(path: &std::path::Path, keep_bytes: u64) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    if keep_bytes < len {
        file.set_len(keep_bytes)?;
    }
    Ok(())
}

/// Which rank to stall: every `every`-th operation (send or collective)
/// on that rank sleeps for `pause`, modeling a slow or oversubscribed
/// node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallSpec {
    /// The stalled rank.
    pub rank: usize,
    /// Stall every n-th operation (1 = every operation).
    pub every: u64,
    /// How long each stall lasts.
    pub pause: Duration,
}

/// A seeded, deterministic fault schedule for one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-message decision.
    pub seed: u64,
    /// Probability a p2p message is silently dropped.
    pub drop_p: f64,
    /// Probability a p2p message is delivered twice.
    pub dup_p: f64,
    /// Probability a p2p message is enqueued ahead of the previous
    /// pending message (a deterministic adjacent swap).
    pub reorder_p: f64,
    /// Probability a p2p message is delayed by [`delay`](Self::delay).
    pub delay_p: f64,
    /// The delay applied when the delay fault fires.
    pub delay: Duration,
    /// Optional rank kill.
    pub kill: Option<KillSpec>,
    /// Optional rank stall.
    pub stall: Option<StallSpec>,
    /// Optional snapshot-shard truncation (applied by the engines'
    /// snapshot-load path, not by the message plane).
    pub snapshot_chop: Option<SnapshotChopSpec>,
}

/// Per-message fault decision, derived deterministically from the plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Discard the message.
    pub dropped: bool,
    /// Enqueue the message twice.
    pub duplicated: bool,
    /// Enqueue ahead of the previously queued message.
    pub reordered: bool,
    /// Sleep for the plan's delay before enqueueing.
    pub delayed: bool,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// splitmix64: the standard 64-bit finalizer; good avalanche, no state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to [0, 1) with 53 bits of precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// The fault-free plan (every probability zero, nobody killed).
    pub const fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            delay_p: 0.0,
            delay: Duration::ZERO,
            kill: None,
            stall: None,
            snapshot_chop: None,
        }
    }

    /// Whether this plan injects nothing (fast-path check in `send`).
    pub fn is_none(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.reorder_p == 0.0
            && self.delay_p == 0.0
            && self.kill.is_none()
            && self.stall.is_none()
            && self.snapshot_chop.is_none()
    }

    /// Bytes to truncate `rank`'s snapshot shard to, when the plan chops
    /// that rank.
    pub fn snapshot_chop_for(&self, rank: usize) -> Option<u64> {
        self.snapshot_chop.filter(|c| c.rank == rank).map(|c| c.keep_bytes)
    }

    /// Whether `rank` is killed under this plan.
    pub fn kills(&self, rank: usize) -> bool {
        self.kill.is_some_and(|k| k.rank == rank)
    }

    /// Whether the p2p edge `src -> dst` is severed (either endpoint is
    /// killed).
    pub fn severed(&self, src: usize, dst: usize) -> bool {
        self.kills(src) || self.kills(dst)
    }

    /// The deterministic fault decision for the `n`-th message on the
    /// edge `src -> dst`. Each fault class draws from an independent
    /// derived stream, so e.g. `drop_p = 1.0` does not starve the
    /// duplicate counter in tests.
    pub fn decide(&self, src: usize, dst: usize, n: u64) -> FaultDecision {
        let base = mix(self.seed ^ mix((src as u64) << 32 | dst as u64).wrapping_add(mix(n)));
        FaultDecision {
            dropped: unit(mix(base ^ 0x1)) < self.drop_p,
            duplicated: unit(mix(base ^ 0x2)) < self.dup_p,
            reordered: unit(mix(base ^ 0x3)) < self.reorder_p,
            delayed: unit(mix(base ^ 0x4)) < self.delay_p,
        }
    }

    /// Parse a plan from its CLI spec: comma-separated clauses
    /// `seed=N`, `drop=P`, `dup=P`, `reorder=P`, `delay=P:DUR`,
    /// `kill=RANK`, `stall=RANK:EVERY:DUR`, `chop=RANK:BYTES` (truncate
    /// that rank's snapshot shard to BYTES before it loads), where `DUR`
    /// is an integer with a `us`/`ms`/`s` suffix (e.g. `500us`, `2ms`).
    ///
    /// ```
    /// use mpisim::FaultPlan;
    /// let p = FaultPlan::parse("seed=7,drop=0.1,delay=0.05:500us,kill=2").unwrap();
    /// assert_eq!(p.seed, 7);
    /// assert!(p.kills(2));
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(',').filter(|c| !c.is_empty()) {
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault plan clause '{clause}' is not key=value"))?;
            match key {
                "seed" => plan.seed = parse_num(key, val)?,
                "drop" => plan.drop_p = parse_prob(key, val)?,
                "dup" => plan.dup_p = parse_prob(key, val)?,
                "reorder" => plan.reorder_p = parse_prob(key, val)?,
                "delay" => {
                    let (p, dur) = val
                        .split_once(':')
                        .ok_or_else(|| format!("delay needs P:DUR, got '{val}'"))?;
                    plan.delay_p = parse_prob(key, p)?;
                    plan.delay = parse_duration(dur)?;
                }
                "kill" => plan.kill = Some(KillSpec { rank: parse_num::<usize>(key, val)? }),
                "stall" => {
                    let mut it = val.split(':');
                    let rank = parse_num("stall rank", it.next().unwrap_or(""))?;
                    let every = parse_num::<u64>(
                        "stall every",
                        it.next().ok_or("stall needs RANK:EVERY:DUR")?,
                    )?;
                    let pause = parse_duration(it.next().ok_or("stall needs RANK:EVERY:DUR")?)?;
                    if every == 0 {
                        return Err("stall every must be >= 1".into());
                    }
                    plan.stall = Some(StallSpec { rank, every, pause });
                }
                "chop" => {
                    let (rank, bytes) = val
                        .split_once(':')
                        .ok_or_else(|| format!("chop needs RANK:BYTES, got '{val}'"))?;
                    plan.snapshot_chop = Some(SnapshotChopSpec {
                        rank: parse_num("chop rank", rank)?,
                        keep_bytes: parse_num("chop bytes", bytes)?,
                    });
                }
                other => return Err(format!("unknown fault plan key '{other}'")),
            }
        }
        Ok(plan)
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse().map_err(|_| format!("{key}: '{val}' is not a valid number"))
}

fn parse_prob(key: &str, val: &str) -> Result<f64, String> {
    let p: f64 = parse_num(key, val)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{key}: probability {p} outside [0, 1]"));
    }
    Ok(p)
}

/// Parse `123us` / `5ms` / `2s` into a [`Duration`].
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, unit): (&str, fn(u64) -> Duration) = if let Some(n) = s.strip_suffix("us") {
        (n, Duration::from_micros)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, Duration::from_millis)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, Duration::from_secs)
    } else {
        return Err(format!("duration '{s}' needs a us/ms/s suffix"));
    };
    let v: u64 = num.parse().map_err(|_| format!("duration '{s}': bad number"))?;
    Ok(unit(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan { seed: 42, drop_p: 0.3, dup_p: 0.2, ..FaultPlan::none() };
        for n in 0..100 {
            assert_eq!(plan.decide(0, 1, n), plan.decide(0, 1, n));
        }
        // different seed changes at least one decision over the window
        let other = FaultPlan { seed: 43, ..plan };
        assert!((0..100).any(|n| plan.decide(0, 1, n) != other.decide(0, 1, n)));
        // different edges draw independent streams
        assert!((0..100).any(|n| plan.decide(0, 1, n) != plan.decide(1, 0, n)));
    }

    #[test]
    fn probabilities_hit_roughly_at_rate() {
        let plan = FaultPlan { seed: 9, drop_p: 0.25, ..FaultPlan::none() };
        let hits = (0..10_000).filter(|&n| plan.decide(2, 5, n).dropped).count();
        assert!((2_000..3_000).contains(&hits), "{hits} drops at p=0.25");
        // independent classes: no duplicates at dup_p = 0
        assert!((0..10_000).all(|n| !plan.decide(2, 5, n).duplicated));
    }

    #[test]
    fn extreme_probabilities() {
        let all = FaultPlan { seed: 1, drop_p: 1.0, ..FaultPlan::none() };
        assert!((0..100).all(|n| all.decide(0, 1, n).dropped));
        let none = FaultPlan::none();
        assert!(none.is_none());
        assert!((0..100).all(|n| none.decide(0, 1, n) == FaultDecision::default()));
    }

    #[test]
    fn kill_severs_both_directions() {
        let plan = FaultPlan { kill: Some(KillSpec { rank: 2 }), ..FaultPlan::none() };
        assert!(plan.kills(2));
        assert!(!plan.kills(1));
        assert!(plan.severed(2, 0) && plan.severed(0, 2));
        assert!(!plan.severed(0, 1));
        assert!(!plan.is_none());
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=11,drop=0.1,dup=0.2,reorder=0.3,delay=0.4:500us,kill=3,stall=1:10:2ms",
        )
        .unwrap();
        assert_eq!(p.seed, 11);
        assert_eq!(p.drop_p, 0.1);
        assert_eq!(p.dup_p, 0.2);
        assert_eq!(p.reorder_p, 0.3);
        assert_eq!(p.delay_p, 0.4);
        assert_eq!(p.delay, Duration::from_micros(500));
        assert_eq!(p.kill, Some(KillSpec { rank: 3 }));
        assert_eq!(
            p.stall,
            Some(StallSpec { rank: 1, every: 10, pause: Duration::from_millis(2) })
        );
    }

    #[test]
    fn snapshot_chop_parses_and_targets_one_rank() {
        let p = FaultPlan::parse("chop=2:150").unwrap();
        assert_eq!(p.snapshot_chop, Some(SnapshotChopSpec { rank: 2, keep_bytes: 150 }));
        assert!(!p.is_none());
        assert_eq!(p.snapshot_chop_for(2), Some(150));
        assert_eq!(p.snapshot_chop_for(1), None);
        assert_eq!(FaultPlan::none().snapshot_chop_for(0), None);
        assert!(FaultPlan::parse("chop=2").is_err(), "chop needs RANK:BYTES");
        assert!(FaultPlan::parse("chop=x:10").is_err());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("drop=x").is_err());
        assert!(FaultPlan::parse("unknown=1").is_err());
        assert!(FaultPlan::parse("delay=0.5").is_err());
        assert!(FaultPlan::parse("delay=0.5:10").is_err(), "duration without suffix");
        assert!(FaultPlan::parse("stall=1:0:1ms").is_err(), "every must be >= 1");
        assert!(FaultPlan::parse("seed").is_err(), "clause without =");
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
    }

    #[test]
    fn parse_durations() {
        assert_eq!(parse_duration("7us").unwrap(), Duration::from_micros(7));
        assert_eq!(parse_duration("3ms").unwrap(), Duration::from_millis(3));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert!(parse_duration("abcms").is_err());
        assert!(parse_duration("12m").is_err());
    }
}
