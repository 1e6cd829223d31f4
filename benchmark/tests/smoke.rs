//! The whole harness at a twentieth of the size: every workload, both
//! passes, through the real binary (the serve workload re-executes it).

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;

fn names(benchmark: &Json, section: &str) -> Vec<String> {
    benchmark
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|entry| entry.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect()
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_run_reports_every_metric_and_is_not_comparable() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let started = std::time::Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_reptile-benchmark"))
        .args(["run", "--smoke", "--seed", "9001"])
        .output()
        .expect("run the harness");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // the CLI build is outside the 30 s; a cold one dominates this number
    println!("smoke run took {:.1} s", started.elapsed().as_secs_f64());

    let benchmark = load(&manifest_dir.join("../BENCHMARK.json"));
    let result = load(&manifest_dir.join("out/result-seed9001-smoke.json"));
    assert_eq!(result.get("comparable"), Some(&Json::Bool(false)));
    for key in ["git_commit", "rustc", "nproc", "llc", "seed"] {
        assert!(result.get("provenance").and_then(|p| p.get(key)).is_some(), "provenance.{key}");
    }
    for workload in names(&benchmark, "workloads") {
        let entry = result
            .get("workloads")
            .and_then(|ws| ws.get(&workload))
            .unwrap_or_else(|| panic!("{workload} missing from the result file"));
        for metric in names(&benchmark, "end_to_end") {
            let m = entry.get("end_to_end").and_then(|e| e.get(&metric));
            let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert!(value.is_some_and(|v| v > 0.0), "{workload} {metric}: {value:?}");
            let raw = m.and_then(|m| m.get("raw")).and_then(Json::as_arr).map_or(0, <[Json]>::len);
            assert!(raw >= 3, "{workload} {metric}: {raw} raw values");
            assert!(stdout.contains(&metric), "{metric} is printed by name");
        }
        for metric in names(&benchmark, "per_layer") {
            let value = entry
                .get("per_layer")
                .and_then(|l| l.get(&metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(value.is_some(), "{workload} {metric} missing");
            assert!(stdout.contains(&metric), "{metric} is printed by name");
        }
        for gate in ["untraced_gate", "traced_gate"] {
            let field = |key: &str| entry.get(gate).and_then(|g| g.get(key)).and_then(Json::as_f64);
            assert_eq!(field("failed"), Some(0.0), "{workload} {gate}");
            assert!(field("attempted").is_some_and(|n| n > 0.0), "{workload} {gate}");
        }
        let coverage = entry
            .get("per_layer")
            .and_then(|l| l.get("trace.coverage_frac"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        assert!(coverage >= 0.9, "{workload}: spans cover {coverage} of the root span");
    }
    let trace = load(&manifest_dir.join("out/trace.json"));
    let roots = trace
        .as_arr()
        .expect("a list of spans")
        .iter()
        .filter(|s| s.get("parent") == Some(&Json::Null));
    assert_eq!(roots.count(), 4, "one root span per workload");
}
