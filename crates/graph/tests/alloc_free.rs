//! Steady-state allocation test for the assignment solver.
//!
//! ZAC's per-stage placement solves hundreds of min-weight matchings of
//! similar shape over one compilation. With a reused [`AssignmentWorkspace`]
//! and a [`CostMatrix`] recycled via `reset`, every solve after the first
//! must perform **zero heap allocations** — the acceptance criterion of the
//! workspace-reuse optimization. A counting global allocator makes the claim
//! checkable instead of asserted.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use zac_graph::{AssignmentWorkspace, CostMatrix};

/// A dense synthetic instance with deterministic pseudo-random costs.
fn fill(cost: &mut CostMatrix, rows: usize, cols: usize, salt: u64) {
    cost.reset(rows, cols, f64::INFINITY);
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for r in 0..rows {
        for c in 0..cols {
            // xorshift64*: cheap, allocation-free determinism.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let v = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            cost.set(r, c, v * 100.0);
        }
    }
}

#[test]
fn steady_state_solves_do_not_allocate() {
    let mut ws = AssignmentWorkspace::new();
    let mut cost = CostMatrix::new(0, 0, 0.0);

    // Warm-up: grow every buffer to the largest shape in the mix.
    fill(&mut cost, 24, 40, 0);
    ws.solve(&cost).expect("feasible warm-up instance");

    // Steady state: same-or-smaller shapes must be allocation-free.
    let shapes = [(24usize, 40usize), (10, 32), (24, 40), (1, 7), (16, 16)];
    for round in 0..50u64 {
        let (rows, cols) = shapes[(round as usize) % shapes.len()];
        fill(&mut cost, rows, cols, round + 1);
        let before = allocations();
        let total = ws.solve(&cost).expect("feasible instance");
        let after = allocations();
        assert!(total.is_finite());
        assert_eq!(
            after - before,
            0,
            "round {round} ({rows}x{cols}): solver allocated in steady state"
        );
    }
}

/// The workspace produces correct assignments under reuse (cross-checked
/// against the allocating entry point on the same instances).
#[test]
fn reused_workspace_matches_one_shot_solver() {
    let mut ws = AssignmentWorkspace::new();
    let mut cost = CostMatrix::new(0, 0, 0.0);
    for round in 0..10u64 {
        fill(&mut cost, 8, 12, round);
        let total = ws.solve(&cost).expect("feasible");
        let (assign, expect) = zac_graph::min_weight_full_matching(&cost).expect("feasible");
        assert_eq!(ws.assignment(), &assign[..], "round {round}");
        assert_eq!(total.to_bits(), expect.to_bits(), "round {round}");
    }
}
