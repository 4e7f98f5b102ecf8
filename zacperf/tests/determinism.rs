//! Runs every workload twice on one seed, traced and untraced, and checks
//! that the metrics defined to be deterministic repeat exactly. Run with
//! `cargo test --release` from this package.

use std::process::Command;

/// Untraced and traced metrics that must repeat exactly for a fixed seed.
const UNTRACED: [&str; 2] = ["fidelity_geomean", "duration_geomean"];
const TRACED: [&str; 7] = [
    "place.reuse_ratio",
    "place.movement_cost",
    "schedule.jobs",
    "cache.hit_ratio",
    "cache.disk_hit_ratio",
    "cache.miss_ratio",
    "cache.segment_appends",
];

/// The benchmark's result line for one short run.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_zacperf"))
        .args(["--workload", workload, "--seed", "4242", "--seconds", "1", "--trace", trace])
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    last
}

/// The value of metric `name` in a result line, as printed.
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let len = line[start..].find(',').expect("value ends");
    &line[start..start + len]
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    for workload in ["compile-cold", "serve-hot", "serve-churn"] {
        for (trace, names) in [("0", &UNTRACED[..]), ("1", &TRACED[..])] {
            let (a, b) = (run(workload, trace), run(workload, trace));
            for name in names {
                assert_eq!(value(&a, name), value(&b, name), "{workload} --trace {trace}: {name}");
            }
        }
    }
}
