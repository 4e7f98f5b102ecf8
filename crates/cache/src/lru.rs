//! The in-process layer: a sharded LRU map over shared [`CompileOutput`]s.
//!
//! Lock granularity is one `Mutex` per shard (no external dependencies, no
//! lock-free cleverness): a rayon sweep's worker threads hash to different
//! shards with high probability, so contention stays negligible next to
//! compile times. Entries are `Arc`s, so a lookup holds its shard only to
//! bump a reference count; the caller's deep copy happens after unlock.
//! Keys are already uniform 64-bit fingerprints, so shard selection is a
//! simple XOR-fold — no re-hashing needed.
//!
//! Eviction is cost-aware (a GreedyDual-style twist on LRU): each entry
//! carries a bonus of `8 × log2(recompile-µs)` logical ticks, derived from
//! its recorded [`zac_core::PhaseTimings`] (placement + scheduling — the
//! dominant, deterministic recompute cost) with `compile_time` as the
//! fallback. The victim minimizes `tick + bonus`, so at equal recency the
//! cheap-to-recompute entry goes first, while a merely-expensive entry
//! cannot pin itself forever: every access to anything else advances the
//! clock, and a stale entry's finite bonus is eventually outrun. Entries
//! with equal cost tie-break on `tick` alone — classic LRU.

use crate::CacheKey;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use zac_core::CompileOutput;
use zac_telemetry::metrics;

/// Number of independently locked shards. A power of two so the modulo
/// compiles to a mask; 16 comfortably exceeds typical rayon pool widths.
pub const SHARDS: usize = 16;

// The per-shard telemetry families are sized once, in zac-telemetry; keep
// the two constants from drifting apart.
const _: () = assert!(SHARDS == metrics::CACHE_SHARDS);

struct Entry {
    output: Arc<CompileOutput>,
    /// Logical access time within the owning shard (monotonic per shard).
    tick: u64,
    /// Cost-aware eviction credit, in ticks (see module docs).
    bonus: u64,
}

/// Ticks of eviction credit per doubling of recompute cost.
const BONUS_PER_DOUBLING: u64 = 8;

/// Eviction credit for `output`: `8 × log2(recompile-µs)` ticks.
fn cost_bonus(output: &CompileOutput) -> u64 {
    let recompute = match &output.phases {
        Some(p) => p.place + p.schedule,
        None => output.compile_time,
    };
    let micros = u64::try_from(recompute.as_micros()).unwrap_or(u64::MAX).max(1);
    BONUS_PER_DOUBLING * u64::from(micros.ilog2())
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A fixed-capacity, sharded least-recently-used map.
///
/// Capacity is enforced per shard (`ceil(capacity / SHARDS)`, minimum 1),
/// so the total resident entry count can exceed the requested capacity by
/// at most `SHARDS - 1` under adversarial key distributions — an accepted
/// trade for per-shard locking.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ShardedLru {
    /// A map holding roughly `capacity` entries (at least one per shard).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
        }
    }

    /// Shard index for `key` (exposed so per-shard statistics line up with
    /// the actual placement of entries).
    pub fn shard_index(key: CacheKey) -> usize {
        // Fingerprints are uniform; fold the two halves and mask.
        (key.circuit ^ key.compiler) as usize % SHARDS
    }

    fn shard(&self, key: CacheKey) -> &Mutex<Shard> {
        &self.shards[Self::shard_index(key)]
    }

    /// Looks up `key`, refreshing its recency. Returns the shared entry.
    pub fn get(&self, key: CacheKey) -> Option<Arc<CompileOutput>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let tick = shard.touch();
        let Some(entry) = shard.map.get_mut(&key) else {
            metrics::CACHE_SHARD_MISSES.add(Self::shard_index(key), 1);
            return None;
        };
        entry.tick = tick;
        metrics::CACHE_SHARD_HITS.add(Self::shard_index(key), 1);
        Some(Arc::clone(&entry.output))
    }

    /// Inserts (or refreshes) `key`, evicting the shard's lowest-value
    /// entry (recency + recompute-cost bonus; see module docs) when full.
    /// Returns the number of evictions (0 or 1).
    pub fn insert(&self, key: CacheKey, output: Arc<CompileOutput>) -> u64 {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let tick = shard.touch();
        let mut evicted = 0;
        let is_new = !shard.map.contains_key(&key);
        if is_new && shard.map.len() >= self.per_shard_capacity {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| (e.tick.saturating_add(e.bonus), e.tick))
                .map(|(&k, _)| k);
            if let Some(lru) = victim {
                shard.map.remove(&lru);
                evicted = 1;
                metrics::CACHE_SHARD_EVICTIONS.add(Self::shard_index(key), 1);
            }
        }
        let bonus = cost_bonus(&output);
        shard.map.insert(key, Entry { output, tick, bonus });
        if is_new && evicted == 0 {
            metrics::CACHE_RESIDENT.add(1);
        }
        evicted
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// Resident entries per shard, in shard-index order.
    pub fn shard_lens(&self) -> [usize; SHARDS] {
        let mut lens = [0usize; SHARDS];
        for (len, shard) in lens.iter_mut().zip(&self.shards) {
            *len = shard.lock().expect("cache shard poisoned").map.len();
        }
        lens
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use zac_fidelity::{evaluate_neutral_atom, ExecutionSummary, NeutralAtomParams};

    fn output(tag: usize) -> Arc<CompileOutput> {
        let summary = ExecutionSummary {
            name: format!("c{tag}"),
            num_qubits: 2,
            duration_us: tag as f64,
            g1: tag,
            g2: 0,
            n_exc: 0,
            n_tran: 0,
            idle_us: vec![0.0, 0.0],
        };
        let report = evaluate_neutral_atom(&summary, &NeutralAtomParams::reference());
        Arc::new(CompileOutput::new(summary, report, Duration::from_millis(1), None))
    }

    /// Keys landing in one shard, so per-shard LRU order is observable.
    fn same_shard_key(i: u64) -> CacheKey {
        // circuit ^ compiler ≡ 0 mod SHARDS for every i.
        CacheKey { circuit: i * SHARDS as u64, compiler: 0 }
    }

    /// An output whose recorded recompute cost (place + schedule) is
    /// `micros` microseconds.
    fn output_with_cost(tag: usize, micros: u64) -> Arc<CompileOutput> {
        Arc::new(Arc::unwrap_or_clone(output(tag)).with_phases(
            Duration::from_micros(micros / 2),
            Duration::from_micros(micros - micros / 2),
        ))
    }

    #[test]
    fn get_refreshes_recency() {
        let lru = ShardedLru::new(3 * SHARDS); // 3 slots in the target shard
        for i in 0..3 {
            lru.insert(same_shard_key(i), output(i as usize));
        }
        // Touch key 0 so key 1 becomes the LRU.
        assert!(lru.get(same_shard_key(0)).is_some());
        assert_eq!(lru.insert(same_shard_key(3), output(3)), 1);
        assert!(lru.get(same_shard_key(0)).is_some(), "refreshed entry survives");
        assert!(lru.get(same_shard_key(1)).is_none(), "LRU entry evicted");
        assert!(lru.get(same_shard_key(2)).is_some());
        assert!(lru.get(same_shard_key(3)).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let lru = ShardedLru::new(2 * SHARDS);
        lru.insert(same_shard_key(0), output(0));
        lru.insert(same_shard_key(1), output(1));
        assert_eq!(lru.insert(same_shard_key(0), output(7)), 0, "refresh evicts nothing");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(same_shard_key(0)).unwrap().summary.g1, 7);
    }

    #[test]
    fn capacity_is_at_least_one_per_shard() {
        let lru = ShardedLru::new(1);
        lru.insert(CacheKey { circuit: 1, compiler: 2 }, output(1));
        lru.insert(CacheKey { circuit: 3, compiler: 4 }, output(2));
        assert!(!lru.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        ShardedLru::new(0);
    }

    /// Cost-aware eviction: at comparable recency, the cheap-to-recompute
    /// entry is the victim even though the expensive one is older.
    #[test]
    fn expensive_entry_outlives_cheaper_newer_one() {
        let lru = ShardedLru::new(2 * SHARDS); // 2 slots in the target shard
        lru.insert(same_shard_key(0), output_with_cost(0, 1_000_000)); // ~10 ms phases
        lru.insert(same_shard_key(1), output_with_cost(1, 1)); // trivially cheap
        assert_eq!(lru.insert(same_shard_key(2), output_with_cost(2, 1)), 1);
        assert!(lru.get(same_shard_key(0)).is_some(), "expensive entry survives");
        assert!(lru.get(same_shard_key(1)).is_none(), "cheap newer entry was the victim");
    }

    /// At equal cost the policy degenerates to classic LRU: recency alone
    /// picks the victim.
    #[test]
    fn recency_decides_at_equal_cost() {
        let lru = ShardedLru::new(2 * SHARDS);
        lru.insert(same_shard_key(0), output_with_cost(0, 500));
        lru.insert(same_shard_key(1), output_with_cost(1, 500));
        assert!(lru.get(same_shard_key(0)).is_some(), "refresh key 0; key 1 becomes LRU");
        lru.insert(same_shard_key(2), output_with_cost(2, 500));
        assert!(lru.get(same_shard_key(0)).is_some());
        assert!(lru.get(same_shard_key(1)).is_none(), "least-recent equal-cost entry evicted");
    }

    /// The bonus is finite: a stale expensive entry cannot pin its slot
    /// forever once cheaper entries accumulate enough recency.
    #[test]
    fn stale_expensive_entry_is_eventually_outrun() {
        let lru = ShardedLru::new(2 * SHARDS);
        lru.insert(same_shard_key(0), output_with_cost(0, 1 << 30)); // bonus 8 × 30 = 240 ticks
        lru.insert(same_shard_key(1), output_with_cost(1, 1));
        // Touch the cheap entry until its recency outruns the bonus.
        for _ in 0..300 {
            assert!(lru.get(same_shard_key(1)).is_some());
        }
        assert_eq!(lru.insert(same_shard_key(2), output_with_cost(2, 1)), 1);
        assert!(lru.get(same_shard_key(0)).is_none(), "stale expensive entry finally evicted");
        assert!(lru.get(same_shard_key(1)).is_some());
    }

    /// Per-shard occupancy is observable, and empty shards report zero
    /// (the empty-shard side of the hit-rate regression: statistics over a
    /// shard with no traffic must be well-defined, never a division).
    #[test]
    fn shard_lens_reports_empty_shards_as_zero() {
        let lru = ShardedLru::new(4 * SHARDS);
        assert_eq!(lru.shard_lens(), [0; SHARDS], "fresh map: every shard empty");
        for i in 0..3 {
            lru.insert(same_shard_key(i), output(i as usize));
        }
        let lens = lru.shard_lens();
        let target = ShardedLru::shard_index(same_shard_key(0));
        assert_eq!(lens[target], 3, "all keys fold into one shard");
        assert_eq!(lens.iter().sum::<usize>(), lru.len());
        assert_eq!(lens.iter().filter(|&&l| l == 0).count(), SHARDS - 1);
    }
}
