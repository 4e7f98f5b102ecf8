//! Allocation bound for response encoding: `serde_json::to_string` of an
//! `ok` [`Response::Result`] writes straight into one growing buffer, so
//! its heap traffic is the buffer's growth and nothing else — no
//! intermediate tree, no per-key or per-number allocation. A counting
//! global allocator makes the claim checkable (the same technique as the
//! workspace's `alloc_free.rs` tests).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use zac_arch::Architecture;
use zac_circuit::{bench_circuits, preprocess};
use zac_core::{Compiler, Zac};
use zac_place::PlacementEngine;
use zac_serve::{EntryOutcome, Response};

/// Doubling growth from empty to a few hundred KB takes under 20 steps;
/// 32 leaves room for the allocator's growth policy, never for per-node
/// allocations (the tree-building encoder made about 10^4 here).
const MAX_ALLOCATIONS: usize = 32;

#[test]
fn encoding_the_largest_suite_result_only_grows_its_buffer() {
    let mut cfg = zac_bench::zac_config();
    cfg.placement.engine = PlacementEngine::Exhaustive;
    let zac = Zac::with_config(Architecture::reference(), cfg);
    let largest = bench_circuits::paper_suite()
        .iter()
        .map(|bench| Compiler::compile(&zac, &preprocess(&bench.circuit)).expect("suite compiles"))
        .max_by_key(|out| out.program.as_ref().map_or(0, |p| p.instructions.len()))
        .expect("non-empty suite");
    let name = largest.summary.name.clone();
    let response = Response::Result {
        id: "alloc-bound".into(),
        entry: 0,
        name: name.clone(),
        outcome: EntryOutcome::Ok(Box::new(largest)),
    };

    let before = allocations();
    let json = serde_json::to_string(&response).expect("responses serialize");
    let made = allocations() - before;
    println!("{name}: {} bytes in {made} allocations", json.len());

    assert!(json.len() > 10_000, "{name}: a real program ({} bytes)", json.len());
    assert!(
        made <= MAX_ALLOCATIONS,
        "{name}: encoding {} bytes made {made} allocations (bound {MAX_ALLOCATIONS})",
        json.len()
    );
}
