//! Concurrent `CompileCache` hammering — the serving workload's shape.
//!
//! `zac-serve` shares one cache across a worker pool, so N threads racing
//! get/put on overlapping keys is the *normal* regime, not an edge case.
//! These tests lock the three invariants that regime depends on:
//!
//! * counters sum consistently — every lookup is exactly one of hit,
//!   disk hit, or miss, no matter how the threads interleave;
//! * the segment store never publishes a torn record, even with many
//!   writers racing on one store;
//! * a warm second wave over a populated cache is 100% hits;
//! * two segment stores sharing one directory (the multi-service
//!   topology) serve each other's writes without torn reads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use zac_cache::segment::{LoadOutcome, SegmentStore, RECORD_HEADER_LEN};
use zac_cache::{CacheKey, CompileCache};
use zac_core::CompileOutput;
use zac_fidelity::{evaluate_neutral_atom, ExecutionSummary, NeutralAtomParams};

const THREADS: usize = 8;
const KEYS: usize = 24;
const ROUNDS: usize = 4;

fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "zac-cache-conc-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn key(i: usize) -> CacheKey {
    CacheKey { circuit: 0x5eed_0000 + i as u64, compiler: 0xc0_ffee }
}

/// A small deterministic output whose identity is recoverable from `i`.
fn output(i: usize) -> CompileOutput {
    let summary = ExecutionSummary {
        name: format!("conc-{i}"),
        num_qubits: 2,
        duration_us: 10.0 + i as f64,
        g1: i,
        g2: 1,
        n_exc: 0,
        n_tran: 2,
        idle_us: vec![1.0, 2.5],
    };
    let report = evaluate_neutral_atom(&summary, &NeutralAtomParams::reference());
    CompileOutput::new(summary, report, Duration::from_micros(321), None)
        .with_phases(Duration::from_micros(200), Duration::from_micros(121))
}

/// Spawns `THREADS` threads, each sweeping all keys `ROUNDS` times with the
/// serving pattern (get → on miss, "compile" and put). Returns how many
/// misses the threads observed.
fn hammer(cache: &CompileCache) -> usize {
    let observed_misses = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = cache.clone();
            let observed_misses = Arc::clone(&observed_misses);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for j in 0..KEYS {
                        // Stagger the sweep per thread so the interleaving
                        // actually overlaps distinct keys.
                        let i = (j + t * 3 + round) % KEYS;
                        match cache.get(key(i)) {
                            Some(out) => {
                                assert_eq!(out.summary.name, format!("conc-{i}"));
                                assert_eq!(out.counts.g1, i);
                            }
                            None => {
                                observed_misses.fetch_add(1, Ordering::Relaxed);
                                cache.put(key(i), &output(i));
                            }
                        }
                    }
                }
            });
        }
    });
    observed_misses.load(Ordering::Relaxed)
}

fn assert_counters_consistent(cache: &CompileCache, observed_misses: usize) {
    let stats = cache.stats();
    assert_eq!(
        stats.lookups(),
        stats.hits + stats.disk_hits + stats.misses,
        "every lookup is exactly one of hit / disk hit / miss: {stats:?}"
    );
    assert_eq!(
        stats.lookups() as usize,
        THREADS * ROUNDS * KEYS,
        "no lookup lost or double-counted: {stats:?}"
    );
    assert_eq!(
        stats.misses as usize, observed_misses,
        "the cache's miss counter matches what the threads observed: {stats:?}"
    );
    assert!(
        stats.misses as usize >= KEYS,
        "each key misses at least once on a cold cache: {stats:?}"
    );
    assert_eq!(stats.disk_errors, 0, "{stats:?}");
}

#[test]
fn concurrent_memory_cache_counters_sum_consistently() {
    let cache = CompileCache::in_memory(KEYS);
    let observed = hammer(&cache);
    assert_counters_consistent(&cache, observed);
    assert_eq!(cache.stats().resident, KEYS, "all keys resident afterwards");
}

#[test]
fn concurrent_disk_cache_is_consistent_and_untorn() {
    let dir = temp_cache_dir("hammer");
    // Memory capacity below the key count forces evictions mid-hammer, so
    // the disk path serves hits while writers are still racing appends.
    let cache = CompileCache::with_segment_store(KEYS / 3, &dir).unwrap();
    let observed = hammer(&cache);
    assert_counters_consistent(&cache, observed);

    // No torn records: the directory holds only segment files, and a fresh
    // store over it indexes every key with nothing to recover.
    for file in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
        let name = file.file_name().to_string_lossy().into_owned();
        assert!(name.starts_with("seg-") && name.ends_with(".log"), "stray file {name}");
    }
    let store = SegmentStore::open(&dir).unwrap();
    for i in 0..KEYS {
        let LoadOutcome::Hit(out) = store.load_classified(key(i)) else {
            panic!("key {i} must load intact");
        };
        assert_eq!(out.summary.name, format!("conc-{i}"));
    }
    let seg = store.stats();
    assert_eq!(seg.index_entries, KEYS, "one live record per key: {seg:?}");
    assert_eq!(seg.recovered_bytes, 0, "{seg:?}");
    drop(store);

    // Warm second wave through a *fresh* cache over the same directory —
    // empty memory, so every hit is a disk hit — must be 100% hits.
    let warm = CompileCache::with_segment_store(KEYS, &dir).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let warm = warm.clone();
            scope.spawn(move || {
                for i in 0..KEYS {
                    let out = warm.get(key(i)).expect("warm wave never misses");
                    assert_eq!(out.summary.name, format!("conc-{i}"));
                    assert!(out.from_cache);
                }
            });
        }
    });
    let stats = warm.stats();
    assert_eq!(stats.misses, 0, "{stats:?}");
    assert!((stats.hit_rate() - 1.0).abs() < f64::EPSILON, "{stats:?}");
    assert_eq!(stats.lookups() as usize, THREADS * KEYS, "{stats:?}");
    assert!(stats.disk_hits >= KEYS as u64, "first touch of each key comes from disk: {stats:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Eight threads hammering two segment stores that share one directory —
/// the shape of two `zac-serve` processes on one `ZAC_CACHE_DIR`, run
/// in-process so the thread interleaving is as hostile as the scheduler
/// allows. Each store only sees half the puts firsthand; the warm wave
/// proves the other half arrives through the shared log, untorn.
#[test]
fn concurrent_segment_stores_share_one_directory() {
    let dir = temp_cache_dir("segment-shared");
    // Memory capacity below the key count forces evictions mid-hammer, so
    // cross-store reads exercise the log, not just each store's LRU.
    let stores = [
        CompileCache::with_segment_store(KEYS / 3, &dir).unwrap(),
        CompileCache::with_segment_store(KEYS / 3, &dir).unwrap(),
    ];
    let observed_misses = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = stores[t % stores.len()].clone();
            let observed_misses = Arc::clone(&observed_misses);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for j in 0..KEYS {
                        let i = (j + t * 3 + round) % KEYS;
                        match cache.get(key(i)) {
                            Some(out) => {
                                assert_eq!(out.summary.name, format!("conc-{i}"));
                                assert_eq!(out.counts.g1, i);
                            }
                            None => {
                                observed_misses.fetch_add(1, Ordering::Relaxed);
                                cache.put(key(i), &output(i));
                            }
                        }
                    }
                }
            });
        }
    });
    let mut lookups = 0;
    let mut misses = 0;
    for store in &stores {
        let stats = store.stats();
        assert_eq!(
            stats.lookups(),
            stats.hits + stats.disk_hits + stats.misses,
            "per-store counter identity: {stats:?}"
        );
        assert_eq!(stats.disk_errors, 0, "{stats:?}");
        assert_eq!(stats.quarantined, 0, "shared appends never tear: {stats:?}");
        lookups += stats.lookups() as usize;
        misses += stats.misses as usize;
    }
    assert_eq!(lookups, THREADS * ROUNDS * KEYS, "no lookup lost or double-counted");
    assert_eq!(misses, observed_misses.load(Ordering::Relaxed));
    drop(stores); // clean close seals both stores' active segments

    // A third "process" over the same directory starts fully warm: every
    // key serves from the shared log regardless of which store wrote it.
    let warm = CompileCache::with_segment_store(KEYS, &dir).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let warm = warm.clone();
            scope.spawn(move || {
                for i in 0..KEYS {
                    let out = warm.get(key(i)).expect("warm wave never misses");
                    assert_eq!(out.summary.name, format!("conc-{i}"));
                    assert!(out.from_cache);
                }
            });
        }
    });
    let stats = warm.stats();
    assert_eq!(stats.misses, 0, "{stats:?}");
    assert!((stats.hit_rate() - 1.0).abs() < f64::EPSILON, "{stats:?}");
    let seg = warm.segment_stats().expect("segment-backed cache reports stats");
    assert_eq!(seg.index_entries, KEYS, "one live record per key after supersession: {seg:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Damage inside a sealed segment — bytes rotted after the segment was
/// written — is handled safely: every record from the damaged one onward is
/// unreachable and reads as a clean miss (never a read error), the skipped
/// span is counted as recovered bytes, and re-putting the lost keys makes
/// them hit again after a reopen.
#[test]
fn damaged_sealed_segment_reads_as_misses_then_recompiles_cleanly() {
    const DAMAGED: usize = 6;
    let dir = temp_cache_dir("damaged");
    {
        let cache = CompileCache::with_segment_store(KEYS, &dir).unwrap();
        for i in 0..KEYS {
            cache.put(key(i), &output(i));
        }
    } // clean close seals the one segment, records in put order

    // Flip one payload byte of the first damaged key's record.
    let sealed: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".seg.log"))
        .collect();
    assert_eq!(sealed.len(), 1, "{sealed:?}");
    let mut bytes = std::fs::read(&sealed[0]).unwrap();
    let mut pos = 0;
    for _ in 0..KEYS - DAMAGED {
        let len = std::str::from_utf8(&bytes[pos + 5..pos + 13]).unwrap();
        pos += RECORD_HEADER_LEN + usize::from_str_radix(len, 16).unwrap() + 1;
    }
    bytes[pos + RECORD_HEADER_LEN] ^= 0xff;
    std::fs::write(&sealed[0], bytes).unwrap();

    let cache = CompileCache::with_segment_store(KEYS, &dir).unwrap();
    let seg = cache.segment_stats().unwrap();
    assert!(seg.recovered_bytes > 0, "the damaged span is skipped and counted: {seg:?}");
    for i in 0..KEYS {
        match cache.get(key(i)) {
            None => assert!(i >= KEYS - DAMAGED, "intact key {i} must hit"),
            Some(out) => {
                assert!(i < KEYS - DAMAGED, "damaged key {i} must miss");
                assert_eq!(out.counts.g1, i);
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, DAMAGED as u64, "{stats:?}");
    assert_eq!(stats.disk_errors, 0, "damage is a clean miss, not a read error: {stats:?}");
    assert_eq!(stats.quarantined, 0, "{stats:?}");
    assert_eq!(
        stats.lookups(),
        stats.hits + stats.disk_hits + stats.misses,
        "counter identity holds through damage: {stats:?}"
    );

    // Recompile the lost keys, then hammer a fresh cache (empty memory)
    // over the repaired directory: every key is back on disk, so the
    // hammer never misses and nothing reads as damaged.
    for i in KEYS - DAMAGED..KEYS {
        cache.put(key(i), &output(i));
    }
    drop(cache);
    let repaired = CompileCache::with_segment_store(KEYS / 3, &dir).unwrap();
    let observed = hammer(&repaired);
    let stats = repaired.stats();
    assert_eq!(observed, 0, "the repaired directory serves everything: {stats:?}");
    assert_eq!(
        stats.lookups(),
        stats.hits + stats.disk_hits + stats.misses,
        "counter identity holds over the repaired directory: {stats:?}"
    );
    assert_eq!(stats.lookups() as usize, THREADS * ROUNDS * KEYS, "{stats:?}");
    assert_eq!((stats.quarantined, stats.disk_errors), (0, 0), "{stats:?}");

    std::fs::remove_dir_all(&dir).ok();
}
