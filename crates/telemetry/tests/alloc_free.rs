//! Overhead guard: a disabled recorder is allocation-free.
//!
//! Every compile hot path carries `span!` guards and counter updates, so the
//! disabled state must cost nothing beyond one relaxed atomic load — in
//! particular, **zero heap allocations**. A counting global allocator makes
//! the claim checkable instead of asserted; a companion check confirms the
//! enabled path actually records (so the guard is not vacuous).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use zac_telemetry::metrics;

/// One iteration of a compile-loop-shaped instrumentation mix: nested
/// labeled spans plus every metric kind.
fn instrumented_work(round: u64, label: &str) {
    let _outer = zac_telemetry::span!("test.compile", label);
    {
        let _place = zac_telemetry::span!("test.place");
        metrics::PLACE_SA_ACCEPTED.add(round);
        metrics::PLACE_SA_REJECTED.incr();
        metrics::PLACE_ASSIGNMENT_MOVERS.observe(round % 97);
    }
    let _schedule = zac_telemetry::span!("test.schedule", label);
    metrics::SCHEDULE_JOBS_EMITTED.add(3);
    metrics::CACHE_SHARD_HITS.add((round % 16) as usize, 1);
    metrics::CACHE_RESIDENT.add(1);
    // The resilience fast paths ride the same hot loops: a disarmed fault
    // point and an uninstalled cancellation poll must both be free.
    assert!(zac_telemetry::fault_point!("test.alloc_free.point").is_none());
    assert!(!zac_telemetry::cancel::cancelled());
}

// One test with ordered phases: the recorder state is process-global, so
// parallel #[test] functions toggling it would race each other.
#[test]
fn disabled_recorder_is_allocation_free_and_enabled_recorder_records() {
    zac_telemetry::set_enabled(false);
    let label = String::from("ising_n42");

    // Warm-up (lets lazy statics like the env gate settle).
    instrumented_work(0, &label);

    for round in 1..=1_000u64 {
        let before = allocations();
        instrumented_work(round, &label);
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "round {round}: disabled telemetry allocated on the hot path"
        );
    }
    assert!(zac_telemetry::take_spans().is_empty());
    assert_eq!(metrics::SCHEDULE_JOBS_EMITTED.get(), 0);

    // The guard above is only meaningful if the same mix records when the
    // recorder is on.
    zac_telemetry::set_enabled(true);
    instrumented_work(5, "ghz_n4");
    zac_telemetry::set_enabled(false);

    let spans = zac_telemetry::take_spans();
    assert!(spans.iter().any(|s| s.name == "test.compile"));
    assert!(spans.iter().any(|s| s.name == "test.place" && s.parent == Some("test.compile")));
    assert_eq!(metrics::SCHEDULE_JOBS_EMITTED.get(), 3);
    assert_eq!(metrics::PLACE_ASSIGNMENT_MOVERS.count(), 1);
}
