//! Process-global metrics registry.
//!
//! Every metric in the workspace is declared here as a static, named
//! `<crate>.<subsystem>.<name>`, so the registry is closed and a snapshot
//! can enumerate it without any runtime registration machinery. Updates are
//! relaxed atomics; while the recorder is disabled every update is skipped
//! behind one relaxed load (and a `noop` build deletes it outright). Hot
//! loops (the SA inner loop, the readiness re-check loop) batch into plain
//! locals and flush once per phase, so even enabled runs pay no per-move
//! atomics.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonic event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter (used only for the statics below).
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// Metric name (`<crate>.<subsystem>.<name>`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events (dropped while the recorder is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() && n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous signed level (e.g. resident cache entries).
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicI64::new(0) }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Moves the level by `delta` (dropped while the recorder is disabled).
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::enabled() && delta != 0 {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Maximum number of finite bucket bounds a histogram may declare.
const MAX_BOUNDS: usize = 8;

/// Histogram over `u64` observations with static bucket upper bounds.
///
/// Bucket `i` counts observations `v <= bounds[i]`; one implicit overflow
/// bucket catches the rest.
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    buckets: [AtomicU64; MAX_BOUNDS + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        assert!(bounds.len() <= MAX_BOUNDS, "too many histogram buckets");
        Self {
            name,
            bounds,
            buckets: [const { AtomicU64::new(0) }; MAX_BOUNDS + 1],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation (dropped while the recorder is disabled).
    #[inline]
    pub fn observe(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// A counter broken down over a fixed set of integer-indexed slots (e.g.
/// per-shard cache hits).
pub struct CounterFamily<const N: usize> {
    name: &'static str,
    label: &'static str,
    slots: [AtomicU64; N],
}

impl<const N: usize> CounterFamily<N> {
    pub const fn new(name: &'static str, label: &'static str) -> Self {
        Self { name, label, slots: [const { AtomicU64::new(0) }; N] }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events to slot `index` (dropped while disabled; out-of-range
    /// indices are also dropped rather than panicking in release paths).
    #[inline]
    pub fn add(&self, index: usize, n: u64) {
        if crate::enabled() && n != 0 {
            if let Some(slot) = self.slots.get(index) {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// All slot values in index order.
    pub fn values(&self) -> Vec<u64> {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).collect()
    }

    /// Sum across slots.
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for s in &self.slots {
            s.store(0, Ordering::Relaxed);
        }
    }
}

// --- the registry -----------------------------------------------------------
// Shard count must match `zac_cache::lru::SHARDS`; the cache crate has a
// compile-time assertion tying the two together.

/// Cache shard fan-out mirrored by the per-shard counter families.
pub const CACHE_SHARDS: usize = 16;

/// `zac-core`: staged compilations run through `Zac::compile_staged`.
pub static CORE_COMPILES: Counter = Counter::new("core.pipeline.compiles");

/// `zac-circuit`: QASM statements parsed (post statement-splitting).
pub static QASM_STATEMENTS: Counter = Counter::new("circuit.qasm.statements_parsed");

/// `zac-place`: SA proposals accepted / rejected, and incremental-cost full
/// re-summations (the drift guard in `IncrementalCost`).
pub static PLACE_SA_ACCEPTED: Counter = Counter::new("place.sa.moves_accepted");
pub static PLACE_SA_REJECTED: Counter = Counter::new("place.sa.moves_rejected");
pub static PLACE_SA_RESYNCS: Counter = Counter::new("place.sa.cost_resyncs");

/// `zac-place`: rectangular-assignment solves (gate placement + Eq. 3
/// returns, both engines) and the size of each solve.
pub static PLACE_ASSIGNMENT_SOLVES: Counter = Counter::new("place.assignment.solves");
pub static PLACE_ASSIGNMENT_MOVERS: Histogram =
    Histogram::new("place.assignment.movers", &[1, 2, 4, 8, 16, 32, 64, 128]);

/// `zac-place`: windowed-engine window growth and quality-guard breaches.
pub static PLACE_WINDOW_GROWS: Counter = Counter::new("place.window.grows");
pub static PLACE_WINDOW_GUARD_BREACHES: Counter = Counter::new("place.window.guard_breaches");

/// `zac-schedule`: rearrangement jobs emitted and event-driven readiness
/// re-examinations (dirty-set rechecks after each commit).
pub static SCHEDULE_JOBS_EMITTED: Counter = Counter::new("schedule.emit.jobs_emitted");
pub static SCHEDULE_READINESS_REEXAMS: Counter = Counter::new("schedule.emit.readiness_reexams");

/// `zac-cache`: compile-cache outcomes, plus per-shard LRU breakdowns and
/// the resident-entry level across all in-process caches.
pub static CACHE_HITS: Counter = Counter::new("cache.lookup.hits");
pub static CACHE_DISK_HITS: Counter = Counter::new("cache.lookup.disk_hits");
pub static CACHE_MISSES: Counter = Counter::new("cache.lookup.misses");
pub static CACHE_INSERTIONS: Counter = Counter::new("cache.lookup.insertions");
pub static CACHE_EVICTIONS: Counter = Counter::new("cache.lru.evictions");
pub static CACHE_RESIDENT: Gauge = Gauge::new("cache.lru.resident");
pub static CACHE_SHARD_HITS: CounterFamily<CACHE_SHARDS> =
    CounterFamily::new("cache.lru.shard_hits", "shard");
pub static CACHE_SHARD_MISSES: CounterFamily<CACHE_SHARDS> =
    CounterFamily::new("cache.lru.shard_misses", "shard");
pub static CACHE_SHARD_EVICTIONS: CounterFamily<CACHE_SHARDS> =
    CounterFamily::new("cache.lru.shard_evictions", "shard");

/// `zac-serve`: request/entry lifecycle counters, queue depth, and
/// end-to-end request latency.
pub static SERVE_REQUESTS_SUBMITTED: Counter = Counter::new("serve.request.submitted");
pub static SERVE_REQUESTS_COMPLETED: Counter = Counter::new("serve.request.completed");
pub static SERVE_REQUESTS_REJECTED: Counter = Counter::new("serve.request.rejected");
pub static SERVE_ENTRIES_OK: Counter = Counter::new("serve.entry.ok");
pub static SERVE_ENTRIES_REJECTED: Counter = Counter::new("serve.entry.rejected");
pub static SERVE_ENTRIES_FAILED: Counter = Counter::new("serve.entry.failed");
pub static SERVE_QUEUE_DEPTH: Gauge = Gauge::new("serve.queue.depth");
pub static SERVE_REQUEST_LATENCY_MS: Histogram =
    Histogram::new("serve.request.latency_ms", &[1, 5, 25, 100, 500, 2_000, 10_000, 60_000]);

/// `zac-serve`: resilience — worker respawns after a panic, circuit-breaker
/// transitions and rejections, and queued entries shed under overload.
pub static SERVE_WORKER_RESPAWNS: Counter = Counter::new("serve.worker.respawns");
pub static SERVE_BREAKER_OPENED: Counter = Counter::new("serve.breaker.opened");
pub static SERVE_BREAKER_REJECTED: Counter = Counter::new("serve.breaker.rejected");
pub static SERVE_BREAKER_HALF_OPEN_PROBES: Counter = Counter::new("serve.breaker.half_open_probes");
pub static SERVE_QUEUE_SHED: Counter = Counter::new("serve.queue.shed");

/// `zac-cache`: crash-safety — disk records that no longer decode dropped
/// (quarantined), transient write errors retried, and failing read syscalls (which
/// degrade to clean misses) counted.
pub static CACHE_DISK_QUARANTINED: Counter = Counter::new("cache.disk.quarantined");
pub static CACHE_DISK_RETRIES: Counter = Counter::new("cache.disk.retries");
pub static CACHE_DISK_READ_ERRORS: Counter = Counter::new("cache.disk.read_errors");

/// `zac-cache`: the segment-log disk tier — records appended, active
/// segments sealed, garbage records dropped by compaction, and bytes of
/// torn tails / damaged spans recovered past at open or refresh. The gauge
/// tracks live index entries across every open store in the process.
pub static CACHE_SEGMENT_APPENDS: Counter = Counter::new("cache.segment.appends");
pub static CACHE_SEGMENT_SEALS: Counter = Counter::new("cache.segment.seals");
pub static CACHE_SEGMENT_COMPACTED_RECORDS: Counter =
    Counter::new("cache.segment.compacted_records");
pub static CACHE_SEGMENT_RECOVERED_BYTES: Counter = Counter::new("cache.segment.recovered_bytes");
pub static CACHE_SEGMENT_INDEX_ENTRIES: Gauge = Gauge::new("cache.segment.index_entries");

/// `zac-telemetry`: faults actually injected by an armed [`crate::fault`]
/// plan (the always-on mirror is [`crate::fault::injected`]).
pub static FAULT_INJECTED: Counter = Counter::new("fault.injected");

static COUNTERS: &[&Counter] = &[
    &CORE_COMPILES,
    &QASM_STATEMENTS,
    &PLACE_SA_ACCEPTED,
    &PLACE_SA_REJECTED,
    &PLACE_SA_RESYNCS,
    &PLACE_ASSIGNMENT_SOLVES,
    &PLACE_WINDOW_GROWS,
    &PLACE_WINDOW_GUARD_BREACHES,
    &SCHEDULE_JOBS_EMITTED,
    &SCHEDULE_READINESS_REEXAMS,
    &CACHE_HITS,
    &CACHE_DISK_HITS,
    &CACHE_MISSES,
    &CACHE_INSERTIONS,
    &CACHE_EVICTIONS,
    &SERVE_REQUESTS_SUBMITTED,
    &SERVE_REQUESTS_COMPLETED,
    &SERVE_REQUESTS_REJECTED,
    &SERVE_ENTRIES_OK,
    &SERVE_ENTRIES_REJECTED,
    &SERVE_ENTRIES_FAILED,
    &SERVE_WORKER_RESPAWNS,
    &SERVE_BREAKER_OPENED,
    &SERVE_BREAKER_REJECTED,
    &SERVE_BREAKER_HALF_OPEN_PROBES,
    &SERVE_QUEUE_SHED,
    &CACHE_DISK_QUARANTINED,
    &CACHE_DISK_RETRIES,
    &CACHE_DISK_READ_ERRORS,
    &CACHE_SEGMENT_APPENDS,
    &CACHE_SEGMENT_SEALS,
    &CACHE_SEGMENT_COMPACTED_RECORDS,
    &CACHE_SEGMENT_RECOVERED_BYTES,
    &FAULT_INJECTED,
];
static GAUGES: &[&Gauge] = &[&CACHE_RESIDENT, &SERVE_QUEUE_DEPTH, &CACHE_SEGMENT_INDEX_ENTRIES];
static HISTOGRAMS: &[&Histogram] = &[&PLACE_ASSIGNMENT_MOVERS, &SERVE_REQUEST_LATENCY_MS];
static FAMILIES: &[&CounterFamily<CACHE_SHARDS>] =
    &[&CACHE_SHARD_HITS, &CACHE_SHARD_MISSES, &CACHE_SHARD_EVICTIONS];

/// Resets every metric to zero. Meant for single-process tools (benches)
/// that want run-scoped totals; concurrent updates may interleave with the
/// reset.
pub fn reset() {
    for c in COUNTERS {
        c.reset();
    }
    for g in GAUGES {
        g.reset();
    }
    for h in HISTOGRAMS {
        h.reset();
    }
    for f in FAMILIES {
        f.reset();
    }
}

// --- snapshots --------------------------------------------------------------

/// Version tag of the snapshot JSON schema emitted by
/// [`MetricsSnapshot::to_json`].
pub const SNAPSHOT_FORMAT_VERSION: u64 = 1;

/// Point-in-time copy of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: &'static str,
    pub bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    pub buckets: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

/// Point-in-time copy of a counter family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    pub name: &'static str,
    /// What the slot index means (e.g. `"shard"`).
    pub label: &'static str,
    pub values: Vec<u64>,
}

/// Point-in-time copy of the whole registry, sorted by metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, i64)>,
    pub histograms: Vec<HistogramSnapshot>,
    pub families: Vec<FamilySnapshot>,
}

impl MetricsSnapshot {
    /// Reads every metric (relaxed; values from concurrent updates may be
    /// slightly torn across metrics, never within one).
    pub fn capture() -> Self {
        let mut counters: Vec<_> = COUNTERS.iter().map(|c| (c.name, c.get())).collect();
        counters.sort_by_key(|&(name, _)| name);
        let mut gauges: Vec<_> = GAUGES.iter().map(|g| (g.name, g.get())).collect();
        gauges.sort_by_key(|&(name, _)| name);
        let mut histograms: Vec<_> = HISTOGRAMS
            .iter()
            .map(|h| HistogramSnapshot {
                name: h.name,
                bounds: h.bounds.to_vec(),
                buckets: h.buckets[..=h.bounds.len()]
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                sum: h.sum.load(Ordering::Relaxed),
                count: h.count.load(Ordering::Relaxed),
            })
            .collect();
        histograms.sort_by_key(|h| h.name);
        let mut families: Vec<_> = FAMILIES
            .iter()
            .map(|f| FamilySnapshot { name: f.name, label: f.label, values: f.values() })
            .collect();
        families.sort_by_key(|f| f.name);
        Self { counters, gauges, histograms, families }
    }

    /// The increase of every monotonic metric since `earlier` (counters,
    /// histogram buckets, families subtract; gauges keep their current
    /// level, since levels are not monotonic).
    pub fn delta_since(&self, earlier: &Self) -> Self {
        let prev_counter =
            |name: &str| earlier.counters.iter().find(|&&(n, _)| n == name).map_or(0, |&(_, v)| v);
        let counters =
            self.counters.iter().map(|&(n, v)| (n, v.saturating_sub(prev_counter(n)))).collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let prev = earlier.histograms.iter().find(|p| p.name == h.name);
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        b.saturating_sub(prev.and_then(|p| p.buckets.get(i)).copied().unwrap_or(0))
                    })
                    .collect();
                HistogramSnapshot {
                    name: h.name,
                    bounds: h.bounds.clone(),
                    buckets,
                    sum: h.sum.saturating_sub(prev.map_or(0, |p| p.sum)),
                    count: h.count.saturating_sub(prev.map_or(0, |p| p.count)),
                }
            })
            .collect();
        let families = self
            .families
            .iter()
            .map(|f| {
                let prev = earlier.families.iter().find(|p| p.name == f.name);
                let values = f
                    .values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        v.saturating_sub(prev.and_then(|p| p.values.get(i)).copied().unwrap_or(0))
                    })
                    .collect();
                FamilySnapshot { name: f.name, label: f.label, values }
            })
            .collect();
        Self { counters, gauges: self.gauges.clone(), histograms, families }
    }

    /// Value of the named counter, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|&&(n, _)| n == name).map_or(0, |&(_, v)| v)
    }

    /// Sum over all counters whose name starts with `prefix` (handy for
    /// asserting that a whole subsystem reported activity).
    pub fn counter_sum_with_prefix(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(n, _)| n.starts_with(prefix)).map(|&(_, v)| v).sum()
    }

    /// Serializes to the stable snapshot schema (see DESIGN.md §8):
    ///
    /// ```json
    /// {
    ///   "version": 1,
    ///   "counters": {"<name>": <u64>, ...},
    ///   "gauges": {"<name>": <i64>, ...},
    ///   "histograms": {"<name>": {"bounds": [...], "buckets": [...],
    ///                              "sum": <u64>, "count": <u64>}, ...},
    ///   "families": {"<name>": {"label": "<slot meaning>",
    ///                            "values": [...]}, ...}
    /// }
    /// ```
    ///
    /// Keys are sorted, so equal snapshots serialize byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"version\":");
        out.push_str(&SNAPSHOT_FORMAT_VERSION.to_string());
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, h.name);
            out.push_str(":{\"bounds\":");
            push_u64_array(&mut out, &h.bounds);
            out.push_str(",\"buckets\":");
            push_u64_array(&mut out, &h.buckets);
            out.push_str(",\"sum\":");
            out.push_str(&h.sum.to_string());
            out.push_str(",\"count\":");
            out.push_str(&h.count.to_string());
            out.push('}');
        }
        out.push_str("},\"families\":{");
        for (i, f) in self.families.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, f.name);
            out.push_str(":{\"label\":");
            push_json_str(&mut out, f.label);
            out.push_str(",\"values\":");
            push_u64_array(&mut out, &f.values);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

fn push_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_metrics_stay_zero() {
        let _gate = GATE.lock().unwrap();
        crate::set_enabled(false);
        let before = CORE_COMPILES.get();
        CORE_COMPILES.incr();
        CACHE_RESIDENT.add(5);
        PLACE_ASSIGNMENT_MOVERS.observe(3);
        CACHE_SHARD_HITS.add(0, 7);
        assert_eq!(CORE_COMPILES.get(), before);
    }

    #[test]
    fn enabled_metrics_accumulate_and_delta() {
        let _gate = GATE.lock().unwrap();
        crate::set_enabled(true);
        let before = MetricsSnapshot::capture();
        PLACE_SA_ACCEPTED.add(3);
        PLACE_SA_REJECTED.incr();
        PLACE_ASSIGNMENT_MOVERS.observe(2);
        PLACE_ASSIGNMENT_MOVERS.observe(500); // overflow bucket
        CACHE_SHARD_HITS.add(2, 4);
        CACHE_SHARD_HITS.add(999, 1); // out of range: dropped
        let delta = MetricsSnapshot::capture().delta_since(&before);
        crate::set_enabled(false);
        assert_eq!(delta.counter("place.sa.moves_accepted"), 3);
        assert_eq!(delta.counter("place.sa.moves_rejected"), 1);
        assert_eq!(delta.counter_sum_with_prefix("place.sa."), 4);
        let h = delta.histograms.iter().find(|h| h.name == "place.assignment.movers").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 502);
        assert_eq!(h.buckets.len(), h.bounds.len() + 1);
        assert_eq!(*h.buckets.last().unwrap(), 1, "500 lands in overflow");
        let f = delta.families.iter().find(|f| f.name == "cache.lru.shard_hits").unwrap();
        assert_eq!(f.values.len(), CACHE_SHARDS);
        assert_eq!(f.values[2], 4);
        assert_eq!(f.values.iter().sum::<u64>(), 4);
    }

    #[test]
    fn snapshot_json_is_stable_and_escaped() {
        let _gate = GATE.lock().unwrap();
        crate::set_enabled(false);
        let snap = MetricsSnapshot::capture();
        let a = snap.to_json();
        let b = snap.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"version\":1,\"counters\":{"));
        assert!(a.contains("\"histograms\""));
        assert!(a.contains("\"families\""));
        // The segment-tier metrics are part of the registered schema: every
        // snapshot carries them even at zero.
        for name in [
            "cache.segment.appends",
            "cache.segment.seals",
            "cache.segment.compacted_records",
            "cache.segment.recovered_bytes",
            "cache.segment.index_entries",
        ] {
            assert!(a.contains(&format!("\"{name}\"")), "snapshot lacks {name}: {a}");
        }
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }
}
