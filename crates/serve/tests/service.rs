//! In-process integration tests for the serving stack: the [`Service`]
//! API end to end — streaming, admission, deadlines, queue capacity,
//! priority ordering, warm cache waves, and telemetry attachments.
//!
//! All tests run with a reduced-SA `Zoned-ZAC` configuration (the same
//! pattern as `tests/telemetry.rs` at the workspace root) so the suite
//! stays fast; the bit-identity of full-config outputs against direct
//! `BatchRunner` runs is locked by `tests/serve.rs` at the root.

use std::sync::{Arc, Mutex};
use zac_arch::Architecture;
use zac_circuit::qasm::{parse_qasm, to_qasm};
use zac_circuit::{bench_circuits, preprocess};
use zac_core::{Compiler, Zac, ZacConfig};
use zac_serve::{
    AdmissionLimits, CircuitEntry, EntryOutcome, RejectReason, Request, Response, Service,
    ServiceConfig,
};

/// The reduced-SA configuration every test service uses.
fn test_zac_config() -> ZacConfig {
    let mut config = zac_bench::zac_config();
    config.placement.sa_iterations = 60;
    config
}

fn test_service(workers: usize) -> Service {
    Service::new(ServiceConfig { workers, zac_config: test_zac_config(), ..Default::default() })
}

fn entry(n: usize) -> CircuitEntry {
    let circuit = bench_circuits::ghz(n);
    CircuitEntry { name: circuit.name().to_string(), qasm: to_qasm(&circuit) }
}

/// What the service should produce for `entry(n)`: the same QASM
/// round-trip, staged and compiled directly with the same configuration.
fn direct_compile(n: usize) -> zac_core::CompileOutput {
    let e = entry(n);
    let circuit = parse_qasm(&e.qasm, &e.name).expect("test QASM parses");
    let zac = Zac::with_config(Architecture::reference(), test_zac_config());
    Compiler::compile(&zac, &preprocess(&circuit)).expect("direct compile succeeds")
}

/// Telemetry is process-global: the test that switches it on must not
/// overlap a test that asserts it is off.
static TELEMETRY_SWITCH: Mutex<()> = Mutex::new(());

fn telemetry_switch() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_SWITCH.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn drain(service: &Service, request: Request) -> Vec<Response> {
    service.submit(request).iter().collect()
}

#[test]
fn streams_every_entry_then_terminates_with_done() {
    let _off = telemetry_switch();
    let service = test_service(2);
    let sizes = [3usize, 4, 5];
    let responses = drain(
        &service,
        Request::new("batch", "Zoned-ZAC", sizes.iter().map(|&n| entry(n)).collect()),
    );
    assert_eq!(responses.len(), sizes.len() + 1, "one result per entry plus Done");

    let mut seen = [false; 3];
    for response in &responses[..sizes.len()] {
        match response {
            Response::Result { id, entry, name, outcome } => {
                assert_eq!(id, "batch");
                assert!(!seen[*entry], "entry {entry} reported twice");
                seen[*entry] = true;
                assert_eq!(name, &format!("ghz_n{}", sizes[*entry]));
                let out = outcome.output().expect("entry compiles");
                assert!(!out.from_cache);
                assert_eq!(
                    out.semantic_digest(),
                    direct_compile(sizes[*entry]).semantic_digest(),
                    "served output must be semantically identical to a direct compile"
                );
            }
            other => panic!("expected per-entry results first, got {other:?}"),
        }
    }
    match responses.last() {
        Some(Response::Done(done)) => {
            assert_eq!((done.ok, done.rejected, done.failed), (3, 0, 0));
            assert!(
                done.phase_totals.place_ns > 0 && done.phase_totals.schedule_ns > 0,
                "Zoned-ZAC entries carry phase timings: {:?}",
                done.phase_totals
            );
            assert!(done.metrics.is_none(), "telemetry off: no metrics block");
        }
        other => panic!("expected Done, got {other:?}"),
    }
}

#[test]
fn warm_wave_serves_from_cache_and_is_identical_modulo_the_hit_flag() {
    let service = test_service(2);
    let request = || Request::new("wave", "Zoned-ZAC", (3..=6).map(entry).collect());

    let cold: Vec<_> = drain(&service, request());
    let warm: Vec<_> = drain(&service, request());
    let output_of = |responses: &[Response], index: usize| {
        responses
            .iter()
            .find_map(|r| match r {
                Response::Result { entry, outcome, .. } if *entry == index => {
                    Some(outcome.output().expect("entry compiles").clone())
                }
                _ => None,
            })
            .expect("entry reported")
    };

    let stats = service.cache().stats();
    assert_eq!(stats.misses, 4, "cold wave misses once per entry");
    assert_eq!(stats.hits, 4, "warm wave hits once per entry");
    for index in 0..4 {
        let cold_out = output_of(&cold, index);
        let warm_out = output_of(&warm, index);
        assert!(!cold_out.from_cache && warm_out.from_cache);
        // Bit-identical modulo the hit flag: hits preserve the original
        // compile time and phase split, so only `from_cache` differs.
        let mut warm_as_cold = warm_out.clone();
        warm_as_cold.from_cache = false;
        assert_eq!(
            serde_json::to_string(&cold_out).unwrap(),
            serde_json::to_string(&warm_as_cold).unwrap(),
            "entry {index}: warm output must be byte-identical modulo from_cache"
        );
    }
}

#[test]
fn queue_overflow_rejects_the_request_whole() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        zac_config: test_zac_config(),
        ..Default::default()
    });

    let responses = drain(&service, Request::new("big", "Zoned-ZAC", (3..=5).map(entry).collect()));
    assert_eq!(responses.len(), 1);
    match &responses[0] {
        Response::Rejected { id, reason } => {
            assert_eq!(id, "big");
            assert_eq!(*reason, RejectReason::QueueFull { depth: 0, cap: 2 });
        }
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    // The service still works for requests that fit.
    let responses = drain(&service, Request::new("fits", "Zoned-ZAC", vec![entry(3)]));
    assert!(matches!(responses.last(), Some(Response::Done(d)) if d.ok == 1));
}

#[test]
fn deadline_expired_in_queue_rejects_with_the_measured_wait() {
    // One worker, occupied by a slow blocker: the deadline request's entry
    // expires while queued and must be rejected at dequeue, not compiled.
    let service = test_service(1);
    // A batch of distinct circuits keeps the single worker busy long
    // enough (well past 1 ms) for the urgent request's wait to register.
    let blocker_rx =
        service.submit(Request::new("blocker", "Zoned-ZAC", (14..=24).map(entry).collect()));

    let mut request = Request::new("urgent", "Zoned-ZAC", vec![entry(4)]);
    request.deadline_ms = Some(0);
    let responses = drain(&service, request);
    let _: Vec<_> = blocker_rx.iter().collect();

    match &responses[0] {
        Response::Result { outcome: EntryOutcome::Rejected(reason), .. } => match reason {
            RejectReason::DeadlineExpired { deadline_ms: 0, waited_ms } => {
                assert!(*waited_ms > 0, "the measured wait is reported");
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        },
        other => panic!("expected a rejected entry, got {other:?}"),
    }
    match responses.last() {
        Some(Response::Done(done)) => {
            assert_eq!((done.ok, done.rejected, done.failed), (0, 1, 0));
        }
        other => panic!("expected Done, got {other:?}"),
    }
}

#[test]
fn higher_priority_requests_overtake_queued_work() {
    let service = Arc::new(test_service(1));
    let order = Arc::new(Mutex::new(Vec::new()));

    // Occupy the single worker so both contenders queue behind it (the
    // multi-entry batch keeps it busy across the contenders' submissions).
    let blocker_rx =
        service.submit(Request::new("blocker", "Zoned-ZAC", (14..=24).map(entry).collect()));

    let mut contenders = Vec::new();
    for (id, priority, n) in [("low", 0, 5), ("high", 10, 6)] {
        let mut request = Request::new(id, "Zoned-ZAC", vec![entry(n)]);
        request.priority = priority;
        let rx = service.submit(request);
        let order = Arc::clone(&order);
        contenders.push(std::thread::spawn(move || {
            for response in rx {
                if let Response::Done(done) = response {
                    order.lock().unwrap().push(done.id);
                }
            }
        }));
    }
    let _: Vec<_> = blocker_rx.iter().collect();
    for contender in contenders {
        contender.join().unwrap();
    }

    assert_eq!(
        *order.lock().unwrap(),
        ["high", "low"],
        "priority 10 overtakes priority 0 submitted earlier"
    );
}

#[test]
fn oversized_entries_reject_individually_while_the_rest_compile() {
    let service = Service::new(ServiceConfig {
        workers: 2,
        zac_config: test_zac_config(),
        limits: AdmissionLimits { max_qubits: Some(8), ..Default::default() },
        ..Default::default()
    });

    let responses =
        drain(&service, Request::new("mixed", "Zoned-ZAC", vec![entry(4), entry(12), entry(6)]));
    let rejected = responses
        .iter()
        .find_map(|r| match r {
            Response::Result {
                entry: 1, name, outcome: EntryOutcome::Rejected(reason), ..
            } => Some((name.clone(), *reason)),
            _ => None,
        })
        .expect("entry 1 is rejected");
    assert_eq!(rejected.0, "ghz_n12");
    assert_eq!(rejected.1, RejectReason::TooLarge { needed: 12, available: 8 });
    match responses.last() {
        Some(Response::Done(done)) => {
            assert_eq!((done.ok, done.rejected, done.failed), (2, 1, 0));
        }
        other => panic!("expected Done, got {other:?}"),
    }
}

#[test]
fn bad_requests_come_back_as_error_responses() {
    let service = test_service(1);

    let responses = drain(&service, Request::new("who", "Quantum-Fantasy", vec![entry(3)]));
    match &responses[0] {
        Response::Error { id, reason } => {
            assert_eq!(id.as_deref(), Some("who"));
            assert!(reason.contains("unknown compiler"), "{reason}");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // Malformed line: id recovered best-effort when present, None otherwise.
    let responses: Vec<_> = service.submit_line("{\"id\":\"r9\",\"compiler\":42}").iter().collect();
    assert!(
        matches!(&responses[0], Response::Error { id: Some(id), .. } if id == "r9"),
        "{responses:?}"
    );
    let responses: Vec<_> = service.submit_line("not json at all").iter().collect();
    assert!(matches!(&responses[0], Response::Error { id: None, .. }), "{responses:?}");
}

#[test]
fn telemetry_attaches_metrics_delta_and_trace_to_done() {
    let _switch = telemetry_switch();
    zac_telemetry::set_enabled(true);
    let service = test_service(2);
    let mut request = Request::new("traced", "Zoned-ZAC", vec![entry(3), entry(4)]);
    request.trace = true;
    let responses = drain(&service, request);
    zac_telemetry::set_enabled(false);

    match responses.last() {
        Some(Response::Done(done)) => {
            let metrics = done.metrics.as_ref().expect("metrics delta attached");
            let text = serde_json::to_string(metrics).unwrap();
            assert!(text.contains("serve.entry.ok"), "serve counters in the delta: {text}");
            let trace = done.trace.as_ref().expect("trace attached on request");
            assert!(
                serde_json::to_string(trace).unwrap().contains("serve.exec.compile"),
                "compile spans appear in the Chrome trace"
            );
        }
        other => panic!("expected Done, got {other:?}"),
    }
}
