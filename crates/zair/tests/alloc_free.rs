//! Steady-state allocation test for workspace-backed job planning.
//!
//! The scheduler plans every candidate rearrangement job while bundling a
//! transition's moves — hundreds of small [`JobBuilder::plan`] calls per
//! compilation, most of which never materialize a job (deadlock dissolution
//! discards and re-plans bundles). With the builder's buffers warmed, every
//! later `plan` must perform **zero** heap allocations; a counting global
//! allocator makes the claim checkable instead of asserted (the same
//! technique as `zac-graph/tests/alloc_free.rs`).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use zac_arch::{Architecture, Loc};
use zac_zair::machine::{JobBuilder, MoveSpec};

/// A fetch bundle of `k` order-preserving storage→site moves (row-major
/// monotone, so they always form one valid job).
fn fetch_bundle(out: &mut Vec<MoveSpec>, k: usize, row: usize) {
    out.clear();
    for i in 0..k {
        out.push(MoveSpec::new(
            i,
            Loc::Storage { zone: 0, row, col: 3 * i },
            Loc::Site { zone: 0, row: 0, col: i, slot: 0 },
        ));
    }
}

#[test]
fn steady_state_plans_do_not_allocate() {
    let arch = Architecture::reference();
    let mut builder = JobBuilder::new();
    let mut moves: Vec<MoveSpec> = Vec::with_capacity(16);

    // Warm-up: grow every buffer to the largest shape in the mix, including
    // a multi-row job (parking simulation buffers). Row order must be
    // preserved: storage row 98 sits below row 99, so its target site row
    // must also sit below (site rows grow upward from the storage zone).
    moves.clear();
    for i in 0..8 {
        moves.push(MoveSpec::new(
            i,
            Loc::Storage { zone: 0, row: 99, col: 3 * i },
            Loc::Site { zone: 0, row: 1, col: i, slot: 0 },
        ));
    }
    moves.push(MoveSpec::new(
        8,
        Loc::Storage { zone: 0, row: 98, col: 0 },
        Loc::Site { zone: 0, row: 0, col: 0, slot: 0 },
    ));
    builder.plan(&arch, &moves, 15.0).expect("warm-up bundle is a valid job");

    for round in 0..60usize {
        let k = 1 + round % 8;
        fetch_bundle(&mut moves, k, 99 - (round % 3));
        let before = allocations();
        let timing = builder.plan(&arch, &moves, 15.0).expect("valid bundle");
        let after = allocations();
        assert!(timing.total() > 0.0);
        assert_eq!(after - before, 0, "round {round} (k={k}): plan allocated in steady state");
    }
}

/// The planned timing always matches the materialized job's anatomy.
#[test]
fn plan_matches_build_timing() {
    let arch = Architecture::reference();
    let mut builder = JobBuilder::new();
    let mut moves: Vec<MoveSpec> = Vec::new();
    for k in 1..=6 {
        fetch_bundle(&mut moves, k, 99);
        let timing = builder.plan(&arch, &moves, 15.0).unwrap();
        let job = builder.build(&arch, &moves, 15.0).unwrap();
        assert_eq!(timing.pick_duration.to_bits(), job.pick_duration.to_bits());
        assert_eq!(timing.move_duration.to_bits(), job.move_duration.to_bits());
        assert_eq!(timing.drop_duration.to_bits(), job.drop_duration.to_bits());
        assert_eq!(timing.total().to_bits(), (job.end_time - job.begin_time).to_bits());
        // And the builder path is exactly the free function.
        assert_eq!(job, zac_zair::build_job(&arch, &moves, 15.0).unwrap());
    }
}
