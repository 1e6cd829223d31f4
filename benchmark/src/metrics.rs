//! The metric tables: names, units, directions. `BENCHMARK.json` repeats
//! them for the driver; a test keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "reads_per_s", unit: "reads/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "lat_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count made by the program that must repeat bit for bit.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 40] = [
    layer("genio.ingest_mb_s", "MB/s", Higher),
    layer("genio.write_mb_s", "MB/s", Higher),
    layer("dnaseq.extract_ns_per_key", "ns", Lower),
    layer("reptile.build_ns_per_key", "ns", Lower),
    layer("reptile.probe_hit_ns", "ns", Lower),
    layer("reptile.probe_miss_ns", "ns", Lower),
    layer("reptile.correct_us_per_read", "us", Lower),
    exact("reptile.lookups_per_read", "count", Lower),
    layer("reptile.prefetch_us_per_read", "us", Lower),
    exact("reptile.prefetch_keys_per_read", "count", Lower),
    exact("reptile.prefetch_useful_frac", "fraction", Higher),
    layer("mpisim.rtt_us", "us", Lower),
    layer("mpisim.rtt_us_min", "us", Lower),
    layer("mpisim.rtt_backlog64_us", "us", Lower),
    layer("mpisim.alltoallv_mb_s", "MB/s", Higher),
    layer("dist.protocol_ns_per_req", "ns", Lower),
    exact("dist.remote_lookups_per_read", "count", Lower),
    exact("dist.remote_messages_per_read", "count", Lower),
    exact("dist.keys_per_batch", "count", Higher),
    layer("dist.us_per_remote_lookup", "us", Lower),
    layer("dist.construct_s", "s", Lower),
    layer("dist.correct_s", "s", Lower),
    exact("dist.table_mb_max_rank", "MB", Lower),
    layer("serve.start_ms", "ms", Lower),
    layer("serve.lat_p50_ms", "ms", Lower),
    layer("serve.lat_p99_ms", "ms", Lower),
    layer("serve.queue_p50_ms", "ms", Lower),
    layer("serve.service_p50_ms", "ms", Lower),
    layer("serve.service_p99_ms", "ms", Lower),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.max_queue", "count", Lower),
    layer("serve.gen_late_p99_ms", "ms", Lower),
    layer("specstore.rs_encode_mb_s", "MB/s", Higher),
    layer("specstore.rs_reconstruct_mb_s", "MB/s", Higher),
    layer("specstore.save_mb_s", "MB/s", Higher),
    layer("specstore.load_mb_s", "MB/s", Higher),
    layer("specstore.repair_load_ms", "ms", Lower),
    layer("cli.startup_ms", "ms", Lower),
    layer("trace.coverage_frac", "fraction", Higher),
    layer("trace.overhead_frac", "fraction", Lower),
];

/// Measured values by metric name, in the order they were recorded.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!self.0.iter().any(|(n, _)| *n == name), "{name} recorded twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = crate::child::repo_root().join("BENCHMARK.json");
        json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let doc = benchmark_json();
        let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), crate::workloads::WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in metrics {
            assert!(ok(name, "_.-", 64) && name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let run_seconds = benchmark_json().get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(crate::run::DEFAULT_SECONDS));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.better == Better::Lower));
    }
}
