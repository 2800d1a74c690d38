//! Helpers shared between the stream crate's integration-test binaries.
//! Each binary uses a subset, so unused ones are not dead code.
#![allow(dead_code)]

use anmat_table::{RowId, RowOp, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Local proptest case count, overridable by `PROPTEST_CASES` (the CI
/// equivalence, churn-compaction and reclamation steps elevate it);
/// in-repo defaults stay small because each case runs discovery plus
/// several full engines.
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A random interleaving: every source row arrives as an insert; after
/// each arrival, with probability `churn` (repeatedly), a random live
/// slot is deleted or updated in place.
pub fn random_ops(source: &Table, seed: u64, churn: f64) -> Vec<RowOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut live: Vec<RowId> = Vec::new();
    for r in 0..source.row_count() {
        // Inserts allocate slot ids densely in order, so the r-th
        // source row lands in slot r regardless of interleaved ops.
        ops.push(RowOp::Insert(source.row(r)));
        live.push(r);
        while !live.is_empty() && rng.random_bool(churn) {
            let pick = rng.random_range(0..live.len());
            let row = live[pick];
            if rng.random_bool(0.5) {
                live.remove(pick);
                ops.push(RowOp::Delete(row));
            } else {
                let donor = rng.random_range(0..source.row_count());
                ops.push(RowOp::Update(row, source.row(donor)));
            }
        }
    }
    ops
}
