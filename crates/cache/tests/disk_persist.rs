//! Disk round-trip determinism, designed to run twice against one
//! persisted cache directory (CI runs it cold then warm; see
//! `.github/workflows/ci.yml`):
//!
//! * **cold pass** — the directory is empty, every cell compiles and is
//!   appended to the segment store;
//! * **warm pass** — every cell is served from the records the cold pass
//!   wrote (asserted via `from_cache` whenever the entry pre-existed).
//!
//! In both passes each served output is compared field-by-field — summary,
//! report, counts, ZAIR program JSON — against a fresh, uncached compile,
//! proving the disk record round trip reproduces `CompileOutput` exactly.
//!
//! The directory comes from `ZAC_CACHE_DIR` when set (the CI step points it
//! at a temp dir shared by both passes) and falls back to a per-target
//! scratch directory locally, where the second local run exercises the warm
//! path the same way.

use std::path::PathBuf;
use zac_arch::Architecture;
use zac_cache::{CacheKey, CachedCompiler, CompileCache};
use zac_circuit::{bench_circuits, preprocess};
use zac_core::{Compiler, Zac};

fn persist_dir() -> PathBuf {
    std::env::var_os("ZAC_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("zac-cache-persist"))
}

#[test]
fn disk_round_trip_reproduces_outputs_cold_and_warm() {
    let dir = persist_dir();
    let cache = CompileCache::with_segment_store(64, &dir).expect("cache dir creates");
    let cached = CachedCompiler::new(Zac::new(Architecture::reference()), cache.clone());

    for circuit in [bench_circuits::ghz(10), bench_circuits::bv(8, 7)] {
        let staged = preprocess(&circuit);
        let key = CacheKey::compute(&Zac::new(Architecture::reference()), &staged);
        // "Pre-existing" means a *loadable* entry: a file left by an older
        // cache format is legitimately a miss, not a warm hit. The
        // probing get() also warms the in-memory layer, which is exactly
        // what serving the entry means.
        let preexisting = cache.get(key).is_some();

        let served = cached.compile(&staged).expect("compiles");
        assert_eq!(
            served.from_cache, preexisting,
            "{}: pre-existing entries must be served from disk, fresh cells compiled",
            staged.name
        );

        // Reference: a fresh compile that never touches the cache. The
        // compilers are deterministic, so any divergence can only come
        // from the disk round trip.
        let fresh =
            Compiler::compile(&Zac::new(Architecture::reference()), &staged).expect("compiles");
        assert_eq!(served.summary, fresh.summary, "{}", staged.name);
        assert_eq!(served.report, fresh.report, "{}", staged.name);
        assert_eq!(served.counts, fresh.counts, "{}", staged.name);
        assert_eq!(
            served.program.as_ref().map(|p| p.to_json().unwrap()),
            fresh.program.as_ref().map(|p| p.to_json().unwrap()),
            "{}: ZAIR program must round-trip bit-identically",
            staged.name
        );

        // And the persisted entry itself re-serves the same output.
        let reread = cache.get(key).expect("entry resident after compile");
        assert_eq!(reread.summary, fresh.summary);
        assert_eq!(reread.report, fresh.report);
        assert_eq!(reread.compile_time, served.compile_time, "original compile time persisted");
    }

    let stats = cache.stats();
    println!(
        "disk_persist: dir={} hits={} disk_hits={} misses={} disk_writes={}",
        dir.display(),
        stats.hits,
        stats.disk_hits,
        stats.misses,
        stats.disk_writes
    );
    assert_eq!(stats.disk_errors, 0);
}

/// A directory left by the retired per-file layer (one
/// `<circuit-hex>-<compiler-hex>.json` file per entry) opens under the
/// segment store as clean cold misses: nothing is read from the legacy
/// files, nothing counts as damage or an error, and the files are left
/// exactly as they were.
#[test]
fn legacy_per_file_entries_open_as_clean_cold_misses() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("zac-cache-legacy-upgrade");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("cache dir creates");
    let zac = || Zac::new(Architecture::reference());

    // An "old deployment": one versioned JSON envelope per entry.
    let mut legacy = Vec::new();
    for circuit in [bench_circuits::ghz(9), bench_circuits::bv(8, 7)] {
        let staged = preprocess(&circuit);
        let key = CacheKey::compute(&zac(), &staged);
        let out = Compiler::compile(&zac(), &staged).expect("compiles");
        let path = dir.join(format!("{:016x}-{:016x}.json", key.circuit, key.compiler));
        let body = format!(
            r#"{{"version":2,"circuit_fp":"{:016x}","compiler_fp":"{:016x}","output":{}}}"#,
            key.circuit,
            key.compiler,
            out.to_json().expect("serializes")
        );
        std::fs::write(&path, &body).expect("legacy entry writes");
        legacy.push((key, staged, path, body));
    }

    let cache = CompileCache::with_segment_store(64, &dir).expect("segment tier opens");
    let cached = CachedCompiler::new(zac(), cache.clone());
    for (key, staged, _, _) in &legacy {
        assert!(cache.get(*key).is_none(), "{}: legacy entry is a cold miss", staged.name);
        let served = cached.compile(staged).expect("compiles");
        assert!(!served.from_cache, "{}: recompiled, not read from JSON", staged.name);
    }
    let stats = cache.stats();
    assert_eq!((stats.disk_errors, stats.quarantined), (0, 0), "{stats:?}");
    let seg = cache.segment_stats().expect("segment stats");
    assert_eq!(seg.recovered_bytes, 0, "legacy files are not damage: {seg:?}");
    drop(cached);
    drop(cache);

    for (_, staged, path, body) in &legacy {
        let now = std::fs::read_to_string(path).expect("legacy file still present");
        assert_eq!(&now, body, "{}: legacy file left untouched", staged.name);
    }
    std::fs::remove_dir_all(&dir).ok();
}
