//! Load generator for the `zac-serve` compile service: replays the bundled
//! QASM corpus (`tests/corpus/` at the workspace root) against an
//! in-process [`Service`] at a target client concurrency, through the same
//! wire entry point (`submit_line`) the binary uses.
//!
//! Two waves run back to back: a cold wave that populates the shared
//! cache, then — after a barrier — a warm wave that must be served from
//! it. Reported per wave: request latency percentiles (p50/p90/p99, in
//! microseconds), throughput, aggregate phase timings, and the cache hit
//! rate; the warm wave must hit on ≥ 90% of lookups (asserted — this
//! bench doubles as the serving-layer load test).
//!
//! Latency is timed by the client: from `submit_line` to the terminal
//! response, with every response line encoded on the way exactly as the
//! binary's writer thread encodes it (`serde_json::to_string`).
//!
//! Run with `cargo bench -p zac-bench --bench serve_load`. Environment:
//!
//! * `ZAC_LOAD_CONCURRENCY` — concurrent client threads (default 4);
//! * `ZAC_LOAD_REQUESTS`    — requests per client per wave (default 4);
//! * `ZAC_SERVE_WORKERS`    — service worker threads (default: CPUs ≤ 8);
//! * `ZAC_SERVE_LOAD_OUT`   — write the full report as JSON to this path.

use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;
use zac_bench::print_header;
use zac_serve::{CircuitEntry, Request, Response, Service, ServiceConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One request's observables.
struct Sample {
    /// Client-side microseconds from `submit_line` to the encoded terminal
    /// response.
    latency_us: u64,
    /// Phase totals reported by the terminal `Done`.
    place_ns: u64,
    schedule_ns: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Replays `requests` corpus batches per client across `clients` threads;
/// returns every request's sample.
fn wave(
    service: &Arc<Service>,
    corpus: &Arc<Vec<(String, String)>>,
    wave_name: &str,
    clients: usize,
    requests: usize,
) -> Vec<Sample> {
    let samples = Arc::new(Mutex::new(Vec::new()));
    let start = Arc::new(Barrier::new(clients));
    std::thread::scope(|scope| {
        for client in 0..clients {
            let service = Arc::clone(service);
            let corpus = Arc::clone(corpus);
            let samples = Arc::clone(&samples);
            let start = Arc::clone(&start);
            let wave_name = wave_name.to_string();
            scope.spawn(move || {
                start.wait();
                for seq in 0..requests {
                    let request = Request::new(
                        format!("{wave_name}-c{client}-r{seq}"),
                        "Zoned-ZAC",
                        corpus
                            .iter()
                            .map(|(name, qasm)| CircuitEntry {
                                name: name.clone(),
                                qasm: qasm.clone(),
                            })
                            .collect(),
                    );
                    // The wire entry point, exactly as the binary drives it.
                    let line = serde_json::to_string(&request).expect("request serializes");
                    let submitted = Instant::now();
                    for response in service.submit_line(&line) {
                        // Encode the line as the binary's writer thread does.
                        std::hint::black_box(
                            serde_json::to_string(&response).expect("response encodes"),
                        );
                        match response {
                            Response::Result { name, outcome, .. } => {
                                assert!(outcome.output().is_some(), "{name} must compile");
                            }
                            Response::Done(done) => {
                                let latency_us = u64::try_from(submitted.elapsed().as_micros())
                                    .unwrap_or(u64::MAX);
                                assert_eq!(done.ok, corpus.len(), "{}", done.id);
                                samples.lock().unwrap().push(Sample {
                                    latency_us,
                                    place_ns: done.phase_totals.place_ns,
                                    schedule_ns: done.phase_totals.schedule_ns,
                                });
                            }
                            other => panic!("unexpected response: {other:?}"),
                        }
                    }
                }
            });
        }
    });
    Arc::try_unwrap(samples).ok().expect("clients joined").into_inner().unwrap()
}

/// One wave's summary, as printed and as written to the JSON report.
struct WaveReport {
    requests: usize,
    wall_secs: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    place_ms_total: f64,
    schedule_ms_total: f64,
}

serde::impl_serde_struct!(WaveReport {
    requests,
    wall_secs,
    p50_us,
    p90_us,
    p99_us,
    place_ms_total,
    schedule_ms_total,
});

/// The whole run, written to `ZAC_SERVE_LOAD_OUT`.
struct LoadReport {
    concurrency: usize,
    requests_per_client: usize,
    corpus_circuits: usize,
    cold: WaveReport,
    warm: WaveReport,
    warm_hit_rate: f64,
}

serde::impl_serde_struct!(LoadReport {
    concurrency,
    requests_per_client,
    corpus_circuits,
    cold,
    warm,
    warm_hit_rate,
});

fn report_wave(name: &str, samples: &[Sample], wall_secs: f64) -> WaveReport {
    let mut latencies: Vec<u64> = samples.iter().map(|s| s.latency_us).collect();
    latencies.sort_unstable();
    let report = WaveReport {
        requests: samples.len(),
        wall_secs,
        p50_us: percentile(&latencies, 50.0),
        p90_us: percentile(&latencies, 90.0),
        p99_us: percentile(&latencies, 99.0),
        place_ms_total: samples.iter().map(|s| s.place_ns as f64 / 1e6).sum(),
        schedule_ms_total: samples.iter().map(|s| s.schedule_ns as f64 / 1e6).sum(),
    };
    println!(
        "{name:<6} {:>4} requests in {wall_secs:>6.3} s ({:>7.1} req/s)   \
         p50 {:>7} us  p90 {:>7} us  p99 {:>7} us   \
         phases: place {:>8.1} ms, schedule {:>7.1} ms",
        report.requests,
        report.requests as f64 / wall_secs,
        report.p50_us,
        report.p90_us,
        report.p99_us,
        report.place_ms_total,
        report.schedule_ms_total,
    );
    report
}

fn main() {
    print_header(
        "Serve load — corpus replay against the compile service",
        "(repo extension; load-tests the zac-serve worker pool and shared cache)",
    );

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("bundled corpus directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x.eq_ignore_ascii_case("qasm")))
        .collect();
    files.sort();
    let corpus: Arc<Vec<(String, String)>> = Arc::new(
        files
            .iter()
            .map(|p| {
                let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
                (stem, std::fs::read_to_string(p).expect("corpus file readable"))
            })
            .collect(),
    );

    let clients = env_usize("ZAC_LOAD_CONCURRENCY", 4);
    let requests = env_usize("ZAC_LOAD_REQUESTS", 4);
    let service = Arc::new(Service::new(ServiceConfig::default()));
    println!(
        "corpus: {} circuits × {} clients × {} requests per wave\n",
        corpus.len(),
        clients,
        requests
    );

    let t0 = Instant::now();
    let cold = wave(&service, &corpus, "cold", clients, requests);
    let cold_secs = t0.elapsed().as_secs_f64();
    let cold_stats = service.cache().stats();

    let t1 = Instant::now();
    let warm = wave(&service, &corpus, "warm", clients, requests);
    let warm_secs = t1.elapsed().as_secs_f64();
    let stats = service.cache().stats();

    // The warm wave performs one lookup per (request, circuit); its hits
    // are the delta over the cold wave.
    let warm_lookups = stats.lookups() - cold_stats.lookups();
    let warm_hits = (stats.hits + stats.disk_hits) - (cold_stats.hits + cold_stats.disk_hits);
    let warm_hit_rate = warm_hits as f64 / warm_lookups as f64;

    let cold = report_wave("cold", &cold, cold_secs);
    let warm = report_wave("warm", &warm, warm_secs);
    println!(
        "\nwarm wave: {warm_hits}/{warm_lookups} lookups served from cache \
         (hit rate {:.1}%)",
        warm_hit_rate * 100.0
    );
    assert!(
        warm_hit_rate >= 0.9,
        "warm wave must be served from cache (hit rate {warm_hit_rate:.3})"
    );

    if let Ok(path) = std::env::var("ZAC_SERVE_LOAD_OUT") {
        let report = LoadReport {
            concurrency: clients,
            requests_per_client: requests,
            corpus_circuits: corpus.len(),
            cold,
            warm,
            warm_hit_rate,
        };
        std::fs::write(&path, serde_json::to_string(&report).expect("report serializes"))
            .expect("write load report");
        println!("report written to {path}");
    }
}
