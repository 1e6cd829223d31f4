//! YCSB-style open-loop workload generation for the serve plane.
//!
//! Closed-loop drivers (submit, wait, submit) measure a system at the
//! throughput *it* chooses; an **open-loop** driver fixes the offered
//! load instead — requests arrive on a Poisson process at `rate`
//! requests/second whether or not the service keeps up — which is the
//! only way to see queueing latency grow toward saturation and
//! backpressure engage past it (the YCSB/"coordinated omission"
//! methodology).
//!
//! A [`RequestMix`] holds one or more weighted read pools (different
//! read lengths / error rates, typically generated from
//! [`DatasetProfile`](crate::DatasetProfile)s over the same genome so
//! one spectrum covers them all). [`OpenLoopGen`] then yields
//! deterministic, seeded [`Arrival`]s: a cumulative arrival offset plus
//! a read sampled from the mix. Timestamps are offsets, not wall-clock
//! — pacing against a clock is the driver's job, so the schedule is
//! reproducible byte-for-byte across runs and machines.

use dnaseq::Read;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One weighted component of a request mix.
#[derive(Clone, Debug)]
pub struct MixComponent {
    /// Relative weight (any positive scale; normalized internally).
    pub weight: f64,
    /// The reads this component samples from (with replacement).
    pub reads: Vec<Read>,
}

/// A weighted set of read pools to sample requests from.
#[derive(Clone, Debug)]
pub struct RequestMix {
    components: Vec<MixComponent>,
    /// Cumulative normalized weights, last = 1.0.
    cumulative: Vec<f64>,
}

impl RequestMix {
    /// Build a mix from weighted pools. Panics if no component has a
    /// positive weight and a non-empty pool.
    pub fn new(components: Vec<MixComponent>) -> RequestMix {
        let components: Vec<MixComponent> =
            components.into_iter().filter(|c| c.weight > 0.0 && !c.reads.is_empty()).collect();
        assert!(!components.is_empty(), "request mix needs a non-empty weighted component");
        let total: f64 = components.iter().map(|c| c.weight).sum();
        let mut acc = 0.0;
        let cumulative = components
            .iter()
            .map(|c| {
                acc += c.weight / total;
                acc
            })
            .collect();
        RequestMix { components, cumulative }
    }
}

/// One generated request: when it arrives and what it asks to correct.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Monotonic trace id, `0..n_requests`.
    pub trace_id: u64,
    /// Arrival offset from the start of the run, seconds.
    pub at_secs: f64,
    /// Index of the mix component the read was drawn from.
    pub component: usize,
    /// The read to correct.
    pub read: Read,
}

/// Deterministic Poisson-arrival request generator over a [`RequestMix`].
///
/// Inter-arrival gaps are exponential with mean `1/rate`, so arrival
/// counts in any window are Poisson — the standard open-loop model.
/// Iteration is infinite; the driver decides how many to take.
pub struct OpenLoopGen {
    mix: RequestMix,
    rate: f64,
    rng: StdRng,
    clock_secs: f64,
    next_id: u64,
}

impl OpenLoopGen {
    /// Offered load `rate` (requests/second, > 0), seeded for
    /// determinism.
    pub fn new(mix: RequestMix, rate: f64, seed: u64) -> OpenLoopGen {
        assert!(rate > 0.0 && rate.is_finite(), "offered load must be positive");
        OpenLoopGen { mix, rate, rng: StdRng::seed_from_u64(seed), clock_secs: 0.0, next_id: 0 }
    }

    /// The next arrival in schedule order.
    pub fn next_arrival(&mut self) -> Arrival {
        // Inverse-transform exponential sampling; 1-u keeps ln() away
        // from zero.
        let u: f64 = self.rng.gen_range(0.0..1.0);
        self.clock_secs += -(1.0 - u).ln() / self.rate;
        let pick: f64 = self.rng.gen_range(0.0..1.0);
        let component = self
            .mix
            .cumulative
            .iter()
            .position(|&c| pick < c)
            .unwrap_or(self.mix.components.len() - 1);
        let pool = &self.mix.components[component].reads;
        let read = pool[self.rng.gen_range(0..pool.len())].clone();
        let trace_id = self.next_id;
        self.next_id += 1;
        Arrival { trace_id, at_secs: self.clock_secs, component, read }
    }

    /// Generate the next `n` arrivals.
    pub fn generate(&mut self, n: usize) -> Vec<Arrival> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

impl Iterator for OpenLoopGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        Some(self.next_arrival())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize, len: usize, tag: u8) -> Vec<Read> {
        (0..n)
            .map(|i| {
                Read::new(
                    i as u64 + 1,
                    vec![[b'A', b'C', b'G', b'T'][tag as usize % 4]; len],
                    vec![30u8; len],
                )
            })
            .collect()
    }

    /// A single-pool mix.
    fn single(reads: Vec<Read>) -> RequestMix {
        RequestMix::new(vec![MixComponent { weight: 1.0, reads }])
    }

    #[test]
    fn deterministic_given_seed() {
        let mix = || single(pool(50, 40, 0));
        let a: Vec<Arrival> = OpenLoopGen::new(mix(), 1000.0, 42).generate(200);
        let b: Vec<Arrival> = OpenLoopGen::new(mix(), 1000.0, 42).generate(200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace_id, y.trace_id);
            assert_eq!(x.at_secs, y.at_secs);
            assert_eq!(x.read, y.read);
        }
        let c: Vec<Arrival> = OpenLoopGen::new(mix(), 1000.0, 43).generate(200);
        assert!(a.iter().zip(&c).any(|(x, y)| x.at_secs != y.at_secs), "seed must matter");
    }

    #[test]
    fn arrivals_are_monotone_at_the_offered_rate() {
        let mix = single(pool(10, 30, 1));
        let n = 20_000;
        let arrivals = OpenLoopGen::new(mix, 500.0, 7).generate(n);
        let mut last = 0.0;
        for a in &arrivals {
            assert!(a.at_secs >= last, "arrival times must be nondecreasing");
            last = a.at_secs;
        }
        // mean inter-arrival ≈ 1/rate: the whole schedule spans ≈ n/rate
        let span = arrivals.last().unwrap().at_secs;
        let expect = n as f64 / 500.0;
        assert!(
            (span / expect - 1.0).abs() < 0.05,
            "Poisson schedule span {span:.2}s far from expected {expect:.2}s"
        );
        assert!((0..n as u64).eq(arrivals.iter().map(|a| a.trace_id)));
    }

    #[test]
    fn mix_fractions_follow_weights() {
        let mix = RequestMix::new(vec![
            MixComponent { weight: 3.0, reads: pool(20, 60, 0) },
            MixComponent { weight: 1.0, reads: pool(20, 100, 1) },
        ]);
        assert_eq!(mix.components.len(), 2);
        let arrivals = OpenLoopGen::new(mix, 100.0, 11).generate(40_000);
        let short = arrivals.iter().filter(|a| a.component == 0).count() as f64;
        let frac = short / arrivals.len() as f64;
        assert!((frac - 0.75).abs() < 0.02, "75/25 mix drifted to {frac:.3}");
        // the component index matches the read actually drawn
        for a in arrivals.iter().take(500) {
            let want = if a.component == 0 { 60 } else { 100 };
            assert_eq!(a.read.seq.len(), want);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty weighted component")]
    fn empty_mix_panics() {
        RequestMix::new(vec![MixComponent { weight: 0.0, reads: pool(5, 10, 0) }]);
    }
}
