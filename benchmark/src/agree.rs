//! `agree A.json B.json`: do two result files of the same commit agree
//! within the benchmark's own bounds? The bounds are `BENCHMARK.json`'s: a
//! test in `metrics` keeps the table used here equal to that file.

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get(section)?.get(metric)?.get("value")?.as_f64()
}

fn failed(doc: &Json, workload: &str) -> f64 {
    ["untraced_gate", "traced_gate"]
        .iter()
        .filter_map(|g| doc.get("workloads")?.get(workload)?.get(g)?.get("failed")?.as_f64())
        .sum()
}

/// The gap between two runs of one commit, as a share of the better one:
/// either could have been drawn first, so the harsher reading is taken.
fn gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if a == b {
        0.0
    } else if base == 0.0 {
        f64::INFINITY
    } else {
        (a - b).abs() / base
    }
}

/// Prints one row per (workload, metric); returns the breaches.
pub fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut breaches = Vec::new();
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .map_or(Vec::new(), |ws| ws.iter().map(|(name, _)| name.as_str()).collect());
    if names.is_empty() {
        breaches.push("the first file lists no workloads".to_string());
    }
    for side in [a, b] {
        if side.get("comparable") != Some(&Json::Bool(true)) {
            breaches.push("a file is not marked comparable (a --smoke run?)".to_string());
        }
    }
    for (label, side) in [("A", a), ("B", b)] {
        let provenance = |key: &str| side.get("provenance").and_then(|p| p.get(key));
        println!(
            "{label}: commit {} seed {}",
            provenance("git_commit").and_then(Json::as_str).unwrap_or("unknown"),
            provenance("seed")
                .and_then(Json::as_f64)
                .map_or("unknown".to_string(), |s| s.to_string()),
        );
    }
    println!("{:<18} {:<32} {:>14} {:>14} {:>9}  verdict", "workload", "metric", "A", "B", "gap");
    for w in names {
        for side in [a, b] {
            if failed(side, w) != 0.0 {
                breaches.push(format!("{w}: outputs differed from the oracle"));
            }
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) =
                (value(a, w, "end_to_end", m.name), value(b, w, "end_to_end", m.name))
            else {
                breaches.push(format!("{w} {}: missing from a file", m.name));
                continue;
            };
            let g = gap(va, vb);
            let ok = g <= m.bound;
            let verdict =
                if ok { format!("within {}", m.bound) } else { format!("BREACH of {}", m.bound) };
            println!("{w:<18} {:<32} {va:>14.4} {vb:>14.4} {g:>9.4}  {verdict}", m.name);
            if !ok {
                breaches.push(format!("{w} {}: gap {g:.4}, {verdict}", m.name));
            }
        }
        for m in &PER_LAYER {
            let (Some(va), Some(vb)) =
                (value(a, w, "per_layer", m.name), value(b, w, "per_layer", m.name))
            else {
                continue; // a file of the untraced pass alone has no layers
            };
            let verdict = match (m.exact, va == vb) {
                (true, true) => "exact",
                (true, false) => "EXACT COUNT DIFFERS",
                (false, _) => "",
            };
            println!(
                "{w:<18} {:<32} {va:>14.4} {vb:>14.4} {:>9.4}  {verdict}",
                m.name,
                gap(va, vb)
            );
            if m.exact && va != vb {
                breaches.push(format!("{w} {}: exact count {va} vs {vb}", m.name));
            }
        }
    }
    breaches
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: agree A.json B.json".into());
    };
    let breaches = compare(&load(a)?, &load(b)?);
    for breach in &breaches {
        println!("breach: {breach}");
    }
    println!(
        "{}",
        if breaches.is_empty() { "the two sets agree" } else { "the two sets do NOT agree" }
    );
    Ok(breaches.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(reads_per_s: f64, lookups: f64, failed: f64) -> Json {
        let metric = |v: f64| Json::obj(vec![("value", Json::Num(v))]);
        let e2e = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    metric(if m.name == "reads_per_s" { reads_per_s } else { 1.0 }),
                )
            })
            .collect();
        let layers = vec![
            ("reptile.lookups_per_read".to_string(), metric(lookups)),
            ("mpisim.rtt_us".to_string(), metric(reads_per_s)),
        ];
        let w = Json::obj(vec![
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::Obj(layers)),
            ("untraced_gate", Json::obj(vec![("failed", Json::Num(failed))])),
        ]);
        Json::obj(vec![
            ("comparable", Json::Bool(true)),
            ("workloads", Json::obj(vec![("remote_base", w)])),
        ])
    }

    #[test]
    fn equal_and_close_sets_agree() {
        assert!(compare(&result(100.0, 47.0, 0.0), &result(100.0, 47.0, 0.0)).is_empty());
        let within = 100.0 * (1.0 + END_TO_END[0].bound / 2.0);
        assert!(compare(&result(100.0, 47.0, 0.0), &result(within, 47.0, 0.0)).is_empty());
    }

    #[test]
    fn an_end_to_end_gap_beyond_the_bound_is_a_breach() {
        let beyond = 100.0 * (1.0 + END_TO_END[0].bound * 1.5);
        let breaches = compare(&result(100.0, 47.0, 0.0), &result(beyond, 47.0, 0.0));
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(breaches[0].contains("reads_per_s"));
    }

    #[test]
    fn exact_counts_must_match_exactly_and_timings_need_not() {
        let breaches = compare(&result(100.0, 47.0, 0.0), &result(100.0, 47.5, 0.0));
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(breaches[0].contains("reptile.lookups_per_read"));
    }

    #[test]
    fn failures_missing_metrics_and_smoke_files_are_breaches() {
        assert!(!compare(&result(100.0, 47.0, 3.0), &result(100.0, 47.0, 0.0)).is_empty());
        let mut smoke = result(100.0, 47.0, 0.0);
        if let Json::Obj(fields) = &mut smoke {
            fields[0].1 = Json::Bool(false);
        }
        assert!(!compare(&smoke, &result(100.0, 47.0, 0.0)).is_empty());
        let empty =
            Json::obj(vec![("comparable", Json::Bool(true)), ("workloads", Json::Obj(Vec::new()))]);
        assert!(!compare(&empty, &empty).is_empty());
    }

    #[test]
    fn gap_is_symmetric_and_relative_to_the_smaller() {
        assert_eq!(gap(100.0, 110.0), gap(110.0, 100.0));
        assert!((gap(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert_eq!(gap(0.0, 0.0), 0.0);
        assert_eq!(gap(0.0, 1.0), f64::INFINITY);
    }
}
