//! Content-addressed compilation caching for the ZAC workspace.
//!
//! Every compiler behind [`zac_core::Compiler`] is deterministic given its
//! configuration (asserted in `tests/compiler_trait.rs`), so a compile
//! output is fully determined by the pair
//!
//! ```text
//! CacheKey = (StagedCircuit::fingerprint(), Compiler::fingerprint())
//! ```
//!
//! — the circuit's content digest and the compiler's (name, architecture,
//! config) digest, both stable 64-bit FNV-1a values (see
//! `zac_circuit::fingerprint` for the stability contract). This crate turns
//! that determinism into two cache layers:
//!
//! * [`lru::ShardedLru`] — an in-process, `Mutex`-per-shard LRU holding
//!   shared (`Arc`) [`CompileOutput`]s, sized in entries, with cost-aware
//!   eviction (cheap-to-recompute entries evict before expensive ones at
//!   comparable recency);
//! * a disk tier, [`segment::SegmentStore`] — an append-only segment log
//!   with an in-memory index, compaction, crash-safe tail recovery, and
//!   advisory cross-process sharing — consulted lazily on in-memory misses
//!   and shared across processes.
//!
//! [`CompileCache`] composes the layers behind one `get`/`put` API with
//! [`CacheStats`] counters, and [`CompileCache::get_or_compile`] is the one
//! get → compile → put sequence every caller uses: [`CachedCompiler`]
//! (which wraps any compiler so caching slots transparently into harness
//! code), `zac_bench::BatchRunner::with_cache` (one cache shared across a
//! whole suite × compiler sweep), and the `zac-serve` executor.
//!
//! Cache hits return the *original* `compile_time` (never the lookup time)
//! and are marked with [`CompileOutput::from_cache`]` == true`; everything
//! else about a hit is bit-identical to the cold output.
//!
//! # Example
//!
//! ```
//! use zac_arch::Architecture;
//! use zac_cache::{CachedCompiler, CompileCache};
//! use zac_circuit::{bench_circuits, preprocess};
//! use zac_core::{Compiler, Zac};
//!
//! let cache = CompileCache::in_memory(1024);
//! let zac = CachedCompiler::new(Zac::new(Architecture::reference()), cache.clone());
//! let staged = preprocess(&bench_circuits::ghz(8));
//!
//! let cold = zac.compile(&staged)?;          // compiles
//! let warm = zac.compile(&staged)?;          // served from the cache
//! assert!(!cold.from_cache && warm.from_cache);
//! assert_eq!(warm.report, cold.report);
//! assert_eq!(warm.compile_time, cold.compile_time); // original, not lookup
//! assert_eq!(cache.stats().hits, 1);
//! # Ok::<(), zac_core::CompileError>(())
//! ```

pub mod lru;
pub mod segment;

use lru::ShardedLru;
use segment::{LoadOutcome, SegmentStats, SegmentStore};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use zac_circuit::StagedCircuit;
use zac_core::{CompileError, CompileOutput, Compiler, CorpusManifest};
use zac_telemetry::metrics;

pub use zac_circuit::Fingerprint;

/// The content-addressed identity of one compilation cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`StagedCircuit::fingerprint`] of the input.
    pub circuit: u64,
    /// [`Compiler::fingerprint`] of the compiler (name + arch + config).
    pub compiler: u64,
}

impl CacheKey {
    /// Computes the key for running `compiler` on `staged`.
    pub fn compute(compiler: &dyn Compiler, staged: &StagedCircuit) -> Self {
        Self { circuit: staged.fingerprint(), compiler: compiler.fingerprint() }
    }
}

/// A monotonically counted snapshot of cache activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the in-memory LRU.
    pub hits: u64,
    /// Lookups that missed memory but loaded from the disk layer.
    pub disk_hits: u64,
    /// Lookups that found nothing in any layer.
    pub misses: u64,
    /// Entries stored via `put`.
    pub insertions: u64,
    /// Entries evicted from the LRU to make room.
    pub evictions: u64,
    /// Entries persisted to the disk layer.
    pub disk_writes: u64,
    /// Disk store/load failures ignored at the API surface (I/O errors,
    /// non-finite outputs) — nonzero values merit investigation.
    pub disk_errors: u64,
    /// Segment records whose checksummed bytes no longer decode, dropped
    /// from the index and treated as clean misses (see
    /// [`LoadOutcome::Quarantined`]).
    pub quarantined: u64,
    /// Transient disk-write failures absorbed by the store retry loop
    /// (successful writes only; exhausted budgets count in `disk_errors`).
    pub disk_retries: u64,
    /// Entries currently resident in memory.
    pub resident: usize,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.disk_hits + self.misses
    }

    /// Fraction of lookups served from any layer (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.disk_hits) as f64 / lookups as f64
        }
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    disk_writes: AtomicU64,
    disk_errors: AtomicU64,
    quarantined: AtomicU64,
    disk_retries: AtomicU64,
}

struct Inner {
    lru: ShardedLru,
    disk: Option<SegmentStore>,
    counters: Counters,
}

/// What [`CompileCache::warm_from_manifest`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmReport {
    /// Cells the manifest asked for.
    pub requested: usize,
    /// Cells found on disk and promoted into the memory tier.
    pub warmed: usize,
}

/// A two-layer (memory + optional disk) compilation cache.
///
/// Cloning is cheap (`Arc`) and clones share storage and counters — hand
/// one cache to every [`CachedCompiler`] and `BatchRunner` in a process so
/// sweeps share hits.
#[derive(Clone)]
pub struct CompileCache {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("stats", &self.stats())
            .field("disk", &self.inner.disk.as_ref().map(|d| d.dir().to_path_buf()))
            .field("segment", &self.segment_stats())
            .finish()
    }
}

impl CompileCache {
    /// A memory-only cache holding roughly `capacity` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn in_memory(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                lru: ShardedLru::new(capacity),
                disk: None,
                counters: Counters::default(),
            }),
        }
    }

    /// A cache backed by the segment-log store: misses fall through to the
    /// log's index, every `put` appends a record, and N processes opening
    /// the same `dir` share one store (each appends to its own active
    /// segment; readers pick up foreign records on miss), so a second
    /// process — or a second run — starts warm.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the directory cannot be created or the opening
    /// recovery/compaction scan fails.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_segment_store(capacity: usize, dir: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(Self {
            inner: Arc::new(Inner {
                lru: ShardedLru::new(capacity),
                disk: Some(SegmentStore::open(dir)?),
                counters: Counters::default(),
            }),
        })
    }

    /// Looks `key` up in memory, then (on miss) on disk. Hits come back
    /// with [`CompileOutput::from_cache`] set and their original
    /// `compile_time`; disk hits are promoted into memory.
    pub fn get(&self, key: CacheKey) -> Option<CompileOutput> {
        let c = &self.inner.counters;
        if let Some(shared) = self.inner.lru.get(key) {
            // The shard lock is already released; the deep copy happens here.
            let mut out = CompileOutput::clone(&shared);
            c.hits.fetch_add(1, Ordering::Relaxed);
            metrics::CACHE_HITS.incr();
            out.from_cache = true;
            return Some(out);
        }
        if let Some(disk) = &self.inner.disk {
            match disk.load_classified(key) {
                LoadOutcome::Hit(out) => {
                    c.disk_hits.fetch_add(1, Ordering::Relaxed);
                    metrics::CACHE_DISK_HITS.incr();
                    // Memory shares the decoded value; the caller gets a copy.
                    let shared = Arc::new(*out);
                    let evicted = self.inner.lru.insert(key, Arc::clone(&shared));
                    c.evictions.fetch_add(evicted, Ordering::Relaxed);
                    metrics::CACHE_EVICTIONS.add(evicted);
                    let mut out = CompileOutput::clone(&shared);
                    out.from_cache = true;
                    return Some(out);
                }
                LoadOutcome::Quarantined => {
                    c.quarantined.fetch_add(1, Ordering::Relaxed);
                    metrics::CACHE_DISK_QUARANTINED.incr();
                }
                LoadOutcome::ReadError => {
                    c.disk_errors.fetch_add(1, Ordering::Relaxed);
                    metrics::CACHE_DISK_READ_ERRORS.incr();
                }
                LoadOutcome::Miss => {}
            }
        }
        c.misses.fetch_add(1, Ordering::Relaxed);
        metrics::CACHE_MISSES.incr();
        None
    }

    /// Stores `key → output` in memory and, when configured, on disk.
    /// The stored copy is normalized to `from_cache == false` so each
    /// layer hands out pristine outputs and `get` alone marks hits.
    pub fn put(&self, key: CacheKey, output: &CompileOutput) {
        let c = &self.inner.counters;
        let mut pristine = output.clone();
        pristine.from_cache = false;
        if let Some(disk) = &self.inner.disk {
            match disk.append(key, &pristine) {
                Ok(retries) => {
                    c.disk_writes.fetch_add(1, Ordering::Relaxed);
                    c.disk_retries.fetch_add(retries, Ordering::Relaxed);
                    metrics::CACHE_DISK_RETRIES.add(retries);
                }
                Err(_) => {
                    c.disk_errors.fetch_add(1, Ordering::Relaxed);
                }
            };
        }
        let evicted = self.inner.lru.insert(key, Arc::new(pristine));
        c.evictions.fetch_add(evicted, Ordering::Relaxed);
        c.insertions.fetch_add(1, Ordering::Relaxed);
        metrics::CACHE_EVICTIONS.add(evicted);
        metrics::CACHE_INSERTIONS.incr();
    }

    /// Whether a disk layer is configured.
    pub fn has_disk(&self) -> bool {
        self.inner.disk.is_some()
    }

    /// A consistent-enough snapshot of the counters (individual counters
    /// are exact; cross-counter sums may be mid-update under concurrency).
    pub fn stats(&self) -> CacheStats {
        let c = &self.inner.counters;
        CacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            disk_hits: c.disk_hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            insertions: c.insertions.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            disk_writes: c.disk_writes.load(Ordering::Relaxed),
            disk_errors: c.disk_errors.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            disk_retries: c.disk_retries.load(Ordering::Relaxed),
            resident: self.inner.lru.len(),
        }
    }

    /// Segment-store counters (`None` for a memory-only cache).
    pub fn segment_stats(&self) -> Option<SegmentStats> {
        self.inner.disk.as_ref().map(SegmentStore::stats)
    }

    /// Preloads the manifest's cells from the disk tier into the memory
    /// tier, so the first client wave hits memory instead of paying disk
    /// rehydration per request. Cells absent from disk are skipped (they
    /// warm naturally on first compile). A memory-only cache warms nothing.
    ///
    /// The segment store services this with one sequential read per touched
    /// segment rather than one lookup per cell.
    pub fn warm_from_manifest(&self, manifest: &CorpusManifest) -> WarmReport {
        let mut report = WarmReport { requested: manifest.len(), warmed: 0 };
        let Some(store) = self.inner.disk.as_ref() else { return report };
        let keys: Vec<CacheKey> = manifest
            .entries
            .iter()
            .map(|e| CacheKey { circuit: e.circuit, compiler: e.compiler })
            .collect();
        let c = &self.inner.counters;
        for (key, out) in store.bulk_load(&keys) {
            let evicted = self.inner.lru.insert(key, Arc::new(out));
            c.evictions.fetch_add(evicted, Ordering::Relaxed);
            metrics::CACHE_EVICTIONS.add(evicted);
            report.warmed += 1;
        }
        report
    }

    /// Serves `compiler` on `staged` from the cache, compiling and storing
    /// the output on a miss. Only successful outputs are stored: a
    /// [`CompileError`] is returned as is and recomputed on the next call.
    /// Cancellation is the caller's business — install a cancel scope
    /// before calling and the compile observes it; the cache never polls.
    ///
    /// # Errors
    ///
    /// Whatever `compiler.compile` returns on a miss.
    pub fn get_or_compile(
        &self,
        compiler: &dyn Compiler,
        staged: &StagedCircuit,
    ) -> Result<CompileOutput, CompileError> {
        let key = CacheKey::compute(compiler, staged);
        if let Some(out) = self.get(key) {
            return Ok(out);
        }
        let out = compiler.compile(staged)?;
        self.put(key, &out);
        Ok(out)
    }
}

/// Wraps a compiler so every `compile` consults a [`CompileCache`] first.
///
/// Transparent by construction: `name`, `config_tokens` and `fingerprint`
/// all forward to the inner compiler, so a cached and an uncached instance
/// of the same compiler share cache entries — and a `CachedCompiler` can
/// replace its inner compiler anywhere (legend labels, sweep lineups)
/// without changing results.
///
/// Only successful outputs are cached; errors ([`CompileError`]) are
/// recomputed on every call — they fail fast, and caching them would mask
/// capacity-dependent behavior if the wrapped compiler is reconfigured.
pub struct CachedCompiler<C> {
    inner: C,
    cache: CompileCache,
}

impl<C: Compiler> CachedCompiler<C> {
    /// Wraps `inner` over `cache`.
    pub fn new(inner: C, cache: CompileCache) -> Self {
        Self { inner, cache }
    }

    /// The shared cache.
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Unwraps the inner compiler.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Compiler> Compiler for CachedCompiler<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config_tokens(&self, fp: &mut Fingerprint) {
        self.inner.config_tokens(fp);
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn compile(&self, staged: &StagedCircuit) -> Result<CompileOutput, CompileError> {
        self.cache.get_or_compile(&self.inner, staged)
    }
}

/// Shared helpers for this crate's unit tests.
#[cfg(test)]
pub(crate) mod test_support {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
    use zac_core::CompileOutput;
    use zac_fidelity::{evaluate_neutral_atom, ExecutionSummary, NeutralAtomParams};

    /// A unique, collision-free scratch directory under the system temp dir.
    pub fn temp_cache_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "zac-cache-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A small deterministic output distinguishable by `tag`/`g1`.
    pub fn sample_output(name: &str, g1: usize) -> CompileOutput {
        let summary = ExecutionSummary {
            name: name.into(),
            num_qubits: 2,
            duration_us: 10.0 + g1 as f64,
            g1,
            g2: 1,
            n_exc: 0,
            n_tran: 2,
            idle_us: vec![1.0, 2.5],
        };
        let report = evaluate_neutral_atom(&summary, &NeutralAtomParams::reference());
        CompileOutput::new(summary, report, Duration::from_micros(321), None)
            .with_phases(Duration::from_micros(200), Duration::from_micros(121))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{sample_output, temp_cache_dir};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use zac_arch::Architecture;
    use zac_circuit::{bench_circuits, preprocess};
    use zac_core::Zac;

    /// Counts `compile` calls reaching the wrapped compiler.
    struct Counting<C> {
        inner: C,
        calls: AtomicUsize,
    }

    impl<C> Counting<C> {
        fn new(inner: C) -> Self {
            Self { inner, calls: AtomicUsize::new(0) }
        }
    }

    impl<C: Compiler> Compiler for Counting<C> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn config_tokens(&self, fp: &mut Fingerprint) {
            self.inner.config_tokens(fp);
        }

        fn compile(&self, staged: &StagedCircuit) -> Result<CompileOutput, CompileError> {
            self.calls.fetch_add(1, AtomicOrdering::Relaxed);
            self.inner.compile(staged)
        }
    }

    fn quick_zac() -> Zac {
        let mut config = zac_core::ZacConfig::default();
        config.placement.sa_iterations = 100;
        Zac::with_config(Architecture::reference(), config)
    }

    #[test]
    fn hit_skips_inner_compile_and_preserves_output() {
        let cache = CompileCache::in_memory(64);
        let zac = CachedCompiler::new(Counting::new(quick_zac()), cache.clone());
        let staged = preprocess(&bench_circuits::ghz(10));
        let cold = zac.compile(&staged).unwrap();
        let warm = zac.compile(&staged).unwrap();
        assert_eq!(zac.into_inner().calls.into_inner(), 1, "second call served from cache");
        assert!(!cold.from_cache && warm.from_cache);
        assert_eq!(warm.summary, cold.summary);
        assert_eq!(warm.report, cold.report);
        assert_eq!(warm.counts, cold.counts);
        assert_eq!(warm.compile_time, cold.compile_time, "original compile time reported");
        assert_eq!(
            warm.program.as_ref().map(|p| p.to_json().unwrap()),
            cold.program.as_ref().map(|p| p.to_json().unwrap()),
            "ZAIR program survives the round trip bit-identically"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn distinct_circuits_and_compilers_do_not_collide() {
        let cache = CompileCache::in_memory(64);
        let full = CachedCompiler::new(quick_zac(), cache.clone());
        let vanilla = CachedCompiler::new(
            Zac::with_config(Architecture::reference(), zac_core::ZacConfig::vanilla()),
            cache.clone(),
        );
        let a = preprocess(&bench_circuits::ghz(10));
        let b = preprocess(&bench_circuits::bv(10, 9));
        let fa = full.compile(&a).unwrap();
        let fb = full.compile(&b).unwrap();
        let va = vanilla.compile(&a).unwrap();
        assert_eq!(cache.stats().insertions, 3, "three distinct cells, three entries");
        assert_ne!(fa.summary.name, fb.summary.name);
        // Same circuit, different config: cached separately, and the
        // vanilla arm really is a different compilation.
        assert!(!va.from_cache);
        assert_eq!(full.compile(&a).unwrap().report, fa.report);
    }

    #[test]
    fn cache_is_shared_across_clones_and_threads() {
        let cache = CompileCache::in_memory(256);
        let staged = preprocess(&bench_circuits::ghz(8));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                let staged = &staged;
                scope.spawn(move || {
                    let zac = CachedCompiler::new(quick_zac(), cache);
                    for _ in 0..3 {
                        zac.compile(staged).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 12);
        assert!(stats.hits >= 8, "at least the later lookups hit: {stats:?}");
        assert_eq!(stats.resident, 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = CompileCache::in_memory(8);
        let counting = Counting::new(Zac::new(Architecture::arch1_small()));
        let zac = CachedCompiler::new(counting, cache.clone());
        let mut big = zac_circuit::Circuit::new("big", 121);
        big.cz(0, 1);
        let staged = preprocess(&big);
        assert!(zac.compile(&staged).is_err());
        assert!(zac.compile(&staged).is_err());
        assert_eq!(zac.into_inner().calls.into_inner(), 2, "errors recomputed every call");
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn disk_layer_warms_a_fresh_cache() {
        let dir = temp_cache_dir("warm-restart");
        let staged = preprocess(&bench_circuits::ghz(9));
        let cold_report;
        {
            let cache = CompileCache::with_segment_store(32, &dir).unwrap();
            let zac = CachedCompiler::new(quick_zac(), cache.clone());
            cold_report = zac.compile(&staged).unwrap().report;
            assert_eq!(cache.stats().disk_writes, 1);
        }
        // A brand-new process-like cache over the same directory.
        let cache = CompileCache::with_segment_store(32, &dir).unwrap();
        let zac = CachedCompiler::new(Counting::new(quick_zac()), cache.clone());
        let warm = zac.compile(&staged).unwrap();
        assert_eq!(zac.into_inner().calls.into_inner(), 0, "served entirely from disk");
        assert!(warm.from_cache);
        assert_eq!(warm.report, cold_report);
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.hits, stats.resident), (1, 0, 1));
        // A second lookup now hits memory (the disk hit was promoted).
        assert!(cache.get(CacheKey::compute(&quick_zac(), &staged)).is_some());
        assert_eq!(cache.stats().hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_track_evictions() {
        let cache = CompileCache::in_memory(lru::SHARDS); // one slot per shard
        for i in 0..4 {
            // Keys folded into one shard.
            let key = CacheKey { circuit: (i * lru::SHARDS) as u64, compiler: 0 };
            cache.put(key, &sample_output("s", i));
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 4);
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.resident, 1);
    }

    /// Regression (PR 7): warm rows must report the place/schedule phase
    /// split — a memory hit may not drop `PhaseTimings`.
    #[test]
    fn memory_hit_preserves_phase_timings() {
        let cache = CompileCache::in_memory(64);
        let zac = CachedCompiler::new(quick_zac(), cache);
        let staged = preprocess(&bench_circuits::ghz(10));
        let cold = zac.compile(&staged).unwrap();
        let phases = cold.phases.expect("a Zac compile reports phase timings");
        let warm = zac.compile(&staged).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.phases, Some(phases), "memory hit kept the phase split");
    }

    /// Regression (PR 7): the phase split survives the disk record too, so
    /// a fresh process warming from disk still reports phases.
    #[test]
    fn disk_hit_preserves_phase_timings() {
        let dir = temp_cache_dir("phase-roundtrip");
        let staged = preprocess(&bench_circuits::ghz(9));
        let phases;
        {
            let cache = CompileCache::with_segment_store(32, &dir).unwrap();
            let zac = CachedCompiler::new(quick_zac(), cache);
            phases = zac.compile(&staged).unwrap().phases.expect("phases on the cold compile");
        }
        let cache = CompileCache::with_segment_store(32, &dir).unwrap();
        let zac = CachedCompiler::new(Counting::new(quick_zac()), cache.clone());
        let warm = zac.compile(&staged).unwrap();
        assert_eq!(zac.into_inner().calls.into_inner(), 0, "served entirely from disk");
        assert_eq!(warm.phases, Some(phases), "disk record round-tripped the phase split");
        // The promoted in-memory copy keeps them as well.
        let remembered = cache.get(CacheKey::compute(&quick_zac(), &staged)).unwrap();
        assert_eq!(remembered.phases, Some(phases));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (PR 7): hit-rate reporting must not divide by zero.
    #[test]
    fn hit_rate_is_zero_on_an_untouched_cache() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let cache = CompileCache::in_memory(8);
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 0);
        assert_eq!(stats.hit_rate(), 0.0, "untouched cache reports 0.0, not NaN");
        assert!(stats.hit_rate().is_finite());
    }

    #[test]
    fn hit_rate_counts_all_layers_once_touched() {
        // Single-shard usage: every key folds into shard 0, so one shard
        // sees all traffic and the other fifteen stay empty.
        let cache = CompileCache::in_memory(lru::SHARDS);
        let key = CacheKey { circuit: 0, compiler: 0 };
        assert!(cache.get(key).is_none());
        assert_eq!(cache.stats().hit_rate(), 0.0, "all-miss history is 0.0");
        cache.put(key, &sample_output("s", 1));
        assert!(cache.get(key).is_some());
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 2);
        assert_eq!(stats.hit_rate(), 0.5);
    }
}
