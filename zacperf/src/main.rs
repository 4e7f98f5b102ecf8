//! End-to-end and per-layer benchmark of the ZAC compiler and its compile
//! service.
//!
//! ```text
//! cargo run --release --manifest-path zacperf/Cargo.toml -- \
//!     --workload <compile-cold|serve-hot|serve-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (`BENCHMARK.json` records why each was chosen):
//!
//! * `compile-cold` — no cache: parse → stage → compile of the 27 circuits
//!   (paper suite + bundled corpus), each client thread with its own
//!   compiler and its own seeded order per pass.
//! * `serve-hot` — closed-loop clients against an in-process `Service`
//!   whose memory tier is pre-warmed with the same 27 circuits.
//! * `serve-churn` — the same loop over a populated segment store several
//!   times larger than the memory tier, with one entry in five a fresh
//!   circuit that misses, compiles and appends.
//!
//! Every workload runs two client threads (capped at the CPU count): on a
//! small shared host one busy thread's speed swings with what runs beside
//! it, while two busy threads measure more steadily.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the workload
//! with one client, every layer timed from outside, and reports the
//! per-layer metrics (`layers.json` names the end-to-end metric each should
//! move).
//! Throughput is the median of the run's per-window rates, and each latency
//! percentile the median of its values over windows of 1100 consecutive
//! ops, so a burst of interference moves a few windows, not the result.
//! Every output is checked outside the timed intervals; any failure prints
//! `"correct": false` and exits non-zero. The last stdout line is the JSON
//! result; a human-readable summary goes to stderr.

mod check;
mod gen;
mod layers;
mod stats;
mod workloads;

use stats::geomean;
use std::process::ExitCode;
use workloads::Run;

/// End-to-end metrics: name, unit, better.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("success_ratio", "ratio", "higher"),
    ("fidelity_geomean", "ratio", "higher"),
    // The compiled program's run time under the hardware timing model: a
    // deterministic property of the output, not a time the benchmark takes.
    ("duration_geomean", "model_us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics: name, unit, better.
pub const PER_LAYER: [(&str, &str, &str); 34] = [
    ("circuit.parse_us", "us", "lower"),
    ("circuit.stage_us", "us", "lower"),
    ("circuit.gates_2q", "count", "lower"),
    ("circuit.stages", "count", "lower"),
    ("place.sa_us", "us", "lower"),
    ("place.dynamic_us", "us", "lower"),
    ("place.reuse_ratio", "ratio", "higher"),
    ("place.movement_cost", "sqrt_um", "lower"),
    ("place.sa_accept_ratio", "ratio", "higher"),
    ("schedule.run_us", "us", "lower"),
    ("schedule.jobs", "count", "lower"),
    ("schedule.instructions", "count", "lower"),
    ("zair.analyze_us", "us", "lower"),
    ("fidelity.evaluate_us", "us", "lower"),
    ("zair.verify_us", "us", "lower"),
    ("cache.fingerprint_us", "us", "lower"),
    ("cache.get_us", "us", "lower"),
    ("cache.put_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.disk_hit_ratio", "ratio", "higher"),
    ("cache.miss_ratio", "ratio", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.segment_appends", "count", "lower"),
    ("cache.open_ms", "ms", "lower"),
    ("core.encode_bin_us", "us", "lower"),
    ("core.decode_bin_us", "us", "lower"),
    ("core.payload_bytes", "bytes", "lower"),
    ("serve.decode_us", "us", "lower"),
    ("serve.bind_us", "us", "lower"),
    ("serve.plan_us", "us", "lower"),
    ("serve.encode_us", "us", "lower"),
    ("serve.residual_us", "us", "lower"),
    ("trace.layer_sum_ratio", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileCold,
    ServeHot,
    ServeChurn,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "compile-cold" => Workload::CompileCold,
                    "serve-hot" => Workload::ServeHot,
                    "serve-churn" => Workload::ServeChurn,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The metrics of `run`, in table order; a metric that could not be
/// measured is reported as a failure.
fn metrics(args: &Args, run: &mut Run) -> Vec<(&'static str, f64, &'static str)> {
    let mut out = Vec::new();
    let mut missing = Vec::new();
    if args.trace {
        for (name, unit, _) in PER_LAYER {
            match run.layers.get(name) {
                Some(v) => out.push((name, v, unit)),
                None => missing.push(name),
            }
        }
    } else {
        let (fid, dur): (Vec<f64>, Vec<f64>) = run.produced.values().copied().unzip();
        for (name, unit, _) in END_TO_END {
            let value = match name {
                "throughput_ops_s" => (!run.rates.is_empty()).then(|| stats::median(&run.rates)),
                "latency_p50_us" => run.ops.percentile(50.0, workloads::MIN_OPS),
                "latency_p99_us" => run.ops.percentile(99.0, workloads::MIN_OPS),
                "success_ratio" => Some(1.0 - run.ops.error_rate()),
                "fidelity_geomean" => (!fid.is_empty()).then(|| geomean(&fid)),
                "duration_geomean" => (!dur.is_empty()).then(|| geomean(&dur)),
                "setup_s" => Some(run.setup_s),
                "peak_rss_mib" => peak_rss_mib(),
                _ => None,
            };
            match value {
                Some(v) if v.is_finite() => out.push((name, v, unit)),
                _ => missing.push(name),
            }
        }
    }
    for name in missing {
        run.failures.push(format!("metric {name} could not be measured"));
    }
    out
}

fn json(correct: bool, run: &Run, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.ops.attempted(),
        run.ops.failed(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zacperf: {e}");
            eprintln!(
                "usage: zacperf --workload <compile-cold|serve-hot|serve-churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Measure the recorder-off path whatever the environment says; traced
    // runs switch it on only around the SA call they read counters from.
    zac_telemetry::set_enabled(false);
    let result = match args.workload {
        Workload::CompileCold => workloads::compile_cold(&args),
        Workload::ServeHot => workloads::serve(&args, false),
        Workload::ServeChurn => workloads::serve(&args, true),
    };
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("zacperf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = metrics(&args, &mut run);
    let correct = run.failures.is_empty();
    for (name, value, unit) in &metrics {
        eprintln!("{name:<24} {value:>14.4} {unit}");
    }
    eprintln!(
        "ops attempted {}, failed {}; latency percentiles are medians over windows of {} ops",
        run.ops.attempted(),
        run.ops.failed(),
        workloads::MIN_OPS
    );
    for failure in run.failures.iter().take(10) {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", json(correct, &run, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve-churn --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::ServeChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serve-hot --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-hot --seconds 0")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    /// `BENCHMARK.json` lists exactly these metrics, and `layers.json` gives
    /// each per-layer metric its prediction.
    #[test]
    fn metric_tables_match_the_benchmark_files() {
        let bench = include_str!("../../BENCHMARK.json");
        let layers = include_str!("../layers.json");
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _, _) in PER_LAYER {
            assert!(layers.contains(&format!("\"{name}\"")), "layers.json lacks {name}");
        }
        let count = bench.matches("\"name\"").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len() + 3, "3 workloads + metrics");
    }
}
