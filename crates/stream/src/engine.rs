//! The incremental violation engine.
//!
//! Ingest is *interned end-to-end*: [`StreamEngine::push_row`] interns
//! each cell once into the global `ValuePool` (and
//! [`StreamEngine::push_id_row`] skips even that), after which every
//! per-rule check operates on `Copy` `ValueId`s — agreement checks are
//! id comparisons and pattern matching is memoized per distinct value,
//! so per-row marginal cost depends on the column's *distinct-value*
//! profile, not its row count.
//!
//! Per-rule state mirrors the batch detector's dispatch:
//!
//! * each **constant** tableau tuple keeps its (embedded) LHS pattern
//!   behind a per-`(pattern, ValueId)` [`MatchMemo`] and its expected RHS
//!   as an interned id — a new row is checked with the same
//!   [`violation_at`] primitive the batch scan uses, costing a pattern
//!   evaluation only on the first sighting of a distinct LHS value;
//! * each **variable** tableau tuple keeps an incremental
//!   [`BlockingPartition`] keyed by the constrained captures (extracted
//!   at most once per distinct LHS value) — a new row joins exactly one
//!   block, and the block's asserted violations are updated along one of
//!   three transition paths (see the private `BlockState`): `O(1)` for
//!   the common arrivals, `O(affected block)` only on a majority flip,
//!   with retractions flowing through the [`ViolationLedger`].
//!
//! Per-insert cost is `O(tableau)` for constant tuples plus `O(1)`
//! amortized for variable tuples — never `O(table)`.

use crate::drift::{DriftMonitor, DriftReport, RuleHealth};
use anmat_core::detect::constant::violation_at;
use anmat_core::detect::variable::{flag_block_minority, minority_violation, MAX_WITNESSES};
use anmat_core::discovery::DiscoveryConfig;
use anmat_core::{LedgerEvent, LhsCell, Pfd, RhsCell, Violation, ViolationKind, ViolationLedger};
use anmat_index::{BlockingPartition, KeyBlock, Placement};
use anmat_obs as obs;
use anmat_pattern::{CompiledPattern, MatchMemo};
use anmat_table::{
    ReclaimStats, RowId, RowIdRemap, RowOp, Schema, Table, TableError, Value, ValueId, ValuePool,
};
use fxhash::{FxHashMap, FxHashSet};
use std::collections::HashSet;

/// Engine thresholds (the drift monitor's discovery-style knobs) plus
/// the compaction and reclamation modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Rows a rule must match before drift is judged.
    pub min_support: usize,
    /// Allowed violation ratio before a rule counts as drifted (mirrors
    /// `DiscoveryConfig::max_violation_ratio`).
    pub max_violation_ratio: f64,
    /// Tombstone ratio (`dead slots / total slots`) above which the
    /// engine compacts automatically at the end of a mutation entry
    /// point (never mid-batch: op batches are validated against one id
    /// space). `<= 0.0` (the default) disables auto-compaction;
    /// [`StreamEngine::compact`] stays available manually either way.
    pub compact_ratio: f64,
    /// Tie string reclamation to the compaction epochs: the engine
    /// enables batch-granular [`ValuePool`] refcounting on its table and,
    /// at the end of every compaction barrier, frees interned strings no
    /// longer referenced by any live cell, blocking key, memo, or rule
    /// state. `false` (the default) keeps the classic append-only pool
    /// behaviour — nothing is ever freed. Opting in asserts that no
    /// other pool user in the process resolves a string after this
    /// engine's rows stop referencing it (see the safety contract of
    /// [`ValuePool::reclaim`]).
    pub reclaim: bool,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            min_support: 8,
            max_violation_ratio: 0.3,
            compact_ratio: 0.0,
            reclaim: false,
        }
    }
}

impl StreamConfig {
    /// Adopt the thresholds the rules were discovered with.
    #[must_use]
    pub fn from_discovery(config: &DiscoveryConfig) -> StreamConfig {
        StreamConfig {
            min_support: config.min_support,
            max_violation_ratio: config.max_violation_ratio,
            ..StreamConfig::default()
        }
    }
}

/// Lifetime compaction counters — what the CLI summary reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Compaction epochs run (manual and automatic).
    pub epochs: usize,
    /// Tombstoned slots reclaimed across all epochs.
    pub reclaimed_slots: usize,
}

/// One violation assertion change produced by a rule's incremental
/// state. Rule processing emits deltas into a [`DeltaSink`]; the engine
/// then applies them to the refcounting [`ViolationLedger`] (which
/// dedupes across rules), so rule state never touches the ledger.
/// Boxed, so a pending batch costs one pointer per delta and a create's
/// box becomes the ledger's key as is.
#[derive(Debug, Clone)]
enum Delta {
    /// The rule now asserts this violation.
    Create(Box<Violation>),
    /// The rule withdraws this (previously asserted) violation.
    Retract(Box<Violation>),
}

/// Pending deltas that make a batch run its ledger pass early. Batches
/// of CLI size (a few thousand rows, a few hundred deltas) never reach
/// it and keep one pass per batch. Without it, a 200k-op batch would
/// hold every violation it retracts until its end: 17 MB more peak RSS
/// on the benchmark's `churn` workload.
const MAX_PENDING_DELTAS: usize = 1024;

/// One entry point's deltas in production order (rule order within each
/// op), plus the current rule's assertion counts for the drift monitor
/// (counted per rule, independent of the ledger's cross-rule
/// refcounting).
#[derive(Debug, Default)]
struct DeltaSink {
    deltas: Vec<Delta>,
    created: usize,
    retracted: usize,
}

impl DeltaSink {
    fn create(&mut self, v: Violation) {
        self.created += 1;
        self.deltas.push(Delta::Create(Box::new(v)));
    }

    fn retract(&mut self, v: Violation) {
        self.retracted += 1;
        self.deltas.push(Delta::Retract(Box::new(v)));
    }

    /// The `(created, retracted)` counts since the last call, reset for
    /// the next rule.
    fn take_counts(&mut self) -> (usize, usize) {
        (
            std::mem::take(&mut self.created),
            std::mem::take(&mut self.retracted),
        )
    }
}

/// Validate a whole op batch against a simulation of `table`'s live set
/// (arity of every insert/update, liveness of every addressed row *at
/// its point in the sequence*) before any op executes — the atomicity
/// guarantee [`StreamEngine::apply`] gives: a malformed op-log leaves
/// the engine untouched. A failure is a [`TableError::InvalidOp`]
/// naming the offending op's index in `ops`.
///
/// `O(ops)`, whatever the table's size: the simulation is the table
/// itself, the running slot count (slots the batch inserted are live)
/// and the set of slots the batch deleted. That set keeps the default
/// hasher, since its row ids come from an op-log.
fn validate_ops(table: &Table, ops: &[RowOp]) -> Result<(), TableError> {
    let arity = table.schema().arity();
    let base = table.row_count();
    let mut slots = base;
    let mut deleted: HashSet<RowId> = HashSet::new();
    let live_ignoring_deletes = |row: RowId, slots: usize| {
        if row < base {
            table.is_live(row)
        } else {
            row < slots
        }
    };
    for (index, op) in ops.iter().enumerate() {
        let invalid = |error| TableError::InvalidOp {
            op: index,
            error: Box::new(error),
        };
        match op {
            RowOp::Insert(cells) => {
                if cells.len() != arity {
                    return Err(invalid(TableError::ArityMismatch {
                        row: slots,
                        found: cells.len(),
                        expected: arity,
                    }));
                }
                slots += 1;
            }
            RowOp::Delete(row) => {
                if !live_ignoring_deletes(*row, slots) || !deleted.insert(*row) {
                    return Err(invalid(TableError::NoSuchRow { row: *row }));
                }
            }
            RowOp::Update(row, cells) => {
                if cells.len() != arity {
                    return Err(invalid(TableError::ArityMismatch {
                        row: *row,
                        found: cells.len(),
                        expected: arity,
                    }));
                }
                if !live_ignoring_deletes(*row, slots) || deleted.contains(row) {
                    return Err(invalid(TableError::NoSuchRow { row: *row }));
                }
            }
        }
    }
    Ok(())
}

/// Incremental state for one constant tableau tuple.
#[derive(Debug)]
struct ConstantTuple {
    /// The LHS pattern compiled to bytecode (`None` = wildcard: every
    /// non-null LHS).
    compiled: Option<CompiledPattern>,
    /// Per-`(pattern, ValueId)` match memo: the pattern is evaluated at
    /// most once per distinct LHS value, not once per row.
    memo: MatchMemo,
    /// Display form for violation evidence (matches batch output).
    display: String,
    /// The expected RHS constant, interned (agreement checks are id
    /// comparisons).
    expected: ValueId,
}

/// Incremental state for one variable tableau tuple.
#[derive(Debug)]
struct VariableTuple {
    /// Blocks keyed by constrained capture (whole value for wildcard LHS).
    partition: BlockingPartition,
    /// Display form for violation evidence.
    display: String,
    /// Per key: what this tuple currently asserts about the block.
    blocks: FxHashMap<ValueId, BlockState>,
}

/// The violations a variable tuple currently asserts for one block, plus
/// the majority/witness context they were built under.
///
/// Invariant: `violations` always equals what `flag_block_minority` would
/// return for the block — maintained by symmetric transition paths for
/// inserts and removals:
///
/// 1. **majority flip** (or first non-null RHS): every violation embeds
///    the majority value, so none survives — retract all, re-derive,
///    re-create ([`BlockState::rederive`], `O(block)`, rare after
///    warm-up);
/// 2. **witness churn** (a majority row enters the first-`MAX_WITNESSES`
///    window, or a witness is deleted): every violation's witness list
///    changes — rewrite each ([`BlockState::rewrite_witnesses`],
///    `O(live violations)`);
/// 3. **minority arrival**: append one violation (`O(1)` — the hot
///    path); **minority departure**: retract exactly that row's
///    violation (`O(live violations)` lookup);
/// 4. **off-window majority churn**: a majority row beyond the witness
///    window arrives or leaves — nothing moves (`O(1)`).
#[derive(Debug, Default)]
struct BlockState {
    majority: Option<ValueId>,
    witnesses: Vec<RowId>,
    violations: Vec<Violation>,
}

impl BlockState {
    /// Retract every asserted violation and re-derive the block from
    /// scratch via the shared batch primitive — the `O(block)` path for
    /// transitions that invalidate all context (majority flips, drained
    /// blocks, deleted witnesses).
    #[allow(clippy::too_many_arguments)]
    fn rederive(
        &mut self,
        table: &Table,
        pfd: &Pfd,
        lhs: usize,
        rhs: usize,
        display: &str,
        key: ValueId,
        block: &KeyBlock,
        sink: &mut DeltaSink,
    ) {
        for v in self.violations.drain(..) {
            sink.retract(v);
        }
        self.majority = block.majority_id();
        self.witnesses = match self.majority {
            Some(m) => block
                .rows_with_rhs_ids()
                .filter(|&(_, v)| v == m)
                .map(|(r, _)| r)
                .take(MAX_WITNESSES)
                .collect(),
            None => Vec::new(),
        };
        if block.len() >= 2 {
            self.violations =
                flag_block_minority(table, pfd, lhs, rhs, display, key.render(), block.rows());
            for v in &self.violations {
                sink.create(v.clone());
            }
        }
    }

    /// Swap in a new witness list, rewriting every asserted violation
    /// (each is retracted and re-created, since witnesses are part of
    /// its identity).
    fn rewrite_witnesses(&mut self, witnesses: Vec<RowId>, sink: &mut DeltaSink) {
        self.witnesses = witnesses;
        for v in &mut self.violations {
            sink.retract(v.clone());
            if let ViolationKind::Variable { witnesses, .. } = &mut v.kind {
                witnesses.clone_from(&self.witnesses);
            }
            sink.create(v.clone());
        }
    }

    /// Retract the single violation asserted for `row`, if any — the
    /// minority-departure fast path.
    fn retract_row(&mut self, row: RowId, sink: &mut DeltaSink) {
        if let Some(pos) = self.violations.iter().position(|v| v.row == row) {
            let v = self.violations.swap_remove(pos);
            sink.retract(v);
        }
    }

    /// Retract everything (the block drained to empty).
    fn drain(&mut self, sink: &mut DeltaSink) {
        for v in self.violations.drain(..) {
            sink.retract(v);
        }
    }

    /// Rewrite the asserted context into a new id space — witnesses and
    /// every asserted violation translate together, silently (no
    /// deltas: nothing changed liveness). The majority value is
    /// row-id-free and stays put.
    fn apply_remap(&mut self, remap: &RowIdRemap) {
        remap.remap_sorted_in_place(&mut self.witnesses);
        for v in &mut self.violations {
            v.remap(remap);
        }
    }
}

impl ConstantTuple {
    /// One row against this tuple: the memoized pattern gate plus the
    /// same `violation_at` primitive batch detection uses. Returns
    /// whether the LHS matched; on a match with a disagreeing RHS the
    /// violation is created (arrivals) or retracted (removals) into
    /// `sink`. Drift counts this rule's own assertion even when another
    /// rule already implied the same violation (the ledger refcounts
    /// those).
    #[allow(clippy::too_many_arguments)]
    fn process(
        &mut self,
        table: &Table,
        pfd: &Pfd,
        lhs: usize,
        rhs: usize,
        lhs_id: ValueId,
        row: RowId,
        removal: bool,
        sink: &mut DeltaSink,
    ) -> bool {
        let Some(value) = lhs_id.as_str() else {
            return false;
        };
        if let Some(c) = &self.compiled {
            if !self.memo.matches(c, lhs_id.raw(), value) {
                return false;
            }
        }
        if let Some(v) = violation_at(table, pfd, &self.display, self.expected, lhs, rhs, row) {
            if removal {
                sink.retract(v);
            } else {
                sink.create(v);
            }
        }
        true
    }
}

impl VariableTuple {
    /// Post-placement insert transition: `row` has just joined `key`'s
    /// block; update the block's asserted majority/witness/violation
    /// context.
    #[allow(clippy::too_many_arguments)]
    fn insert_transition(
        &mut self,
        table: &Table,
        pfd: &Pfd,
        lhs: usize,
        rhs: usize,
        rhs_id: ValueId,
        key: ValueId,
        row: RowId,
        sink: &mut DeltaSink,
    ) {
        let block = self.partition.block(key).expect("row just joined");
        let new_majority = block.majority_id();
        let state = self.blocks.entry(key).or_default();
        if new_majority != state.majority {
            // Majority flip (or first non-null RHS): every asserted
            // violation embeds the old majority, so none survives.
            state.rederive(table, pfd, lhs, rhs, &self.display, key, block, sink);
        } else if let Some(majority) = state.majority {
            if rhs_id == majority {
                // New majority row: does it enter the
                // first-`MAX_WITNESSES` window? Appends only grow a
                // non-full list, but an update can re-insert a *smaller*
                // row id that displaces the window's tail.
                let enters = state.witnesses.len() < MAX_WITNESSES
                    || state.witnesses.last().is_some_and(|&last| row < last);
                if enters {
                    let mut witnesses = state.witnesses.clone();
                    let pos = witnesses.partition_point(|&r| r < row);
                    witnesses.insert(pos, row);
                    witnesses.truncate(MAX_WITNESSES);
                    state.rewrite_witnesses(witnesses, sink);
                }
            } else if block.len() >= 2 {
                // Minority arrival — the hot path: one new violation,
                // nothing else moves.
                let v = minority_violation(
                    table,
                    pfd,
                    lhs,
                    rhs,
                    &self.display,
                    key.render(),
                    majority.render(),
                    &state.witnesses,
                    row,
                );
                sink.create(v.clone());
                state.violations.push(v);
            }
        }
        // new majority == old == None: all-null block, nothing to assert.
    }

    /// Post-placement removal transition: `row` has just left `key`'s
    /// block — the exact inverse of
    /// [`VariableTuple::insert_transition`].
    #[allow(clippy::too_many_arguments)]
    fn removal_transition(
        &mut self,
        table: &Table,
        pfd: &Pfd,
        lhs: usize,
        rhs: usize,
        rhs_id: ValueId,
        key: ValueId,
        row: RowId,
        sink: &mut DeltaSink,
    ) {
        let Some(state) = self.blocks.get_mut(&key) else {
            return; // row never asserted into this block
        };
        match self.partition.block(key) {
            None => {
                // The block drained: nothing left to flag, forget its
                // state entirely.
                state.drain(sink);
                self.blocks.remove(&key);
            }
            Some(block) => {
                let new_majority = block.majority_id();
                if new_majority != state.majority {
                    // Majority flip (or last non-null RHS gone): full
                    // re-derive, exactly like the insert-side flip.
                    state.rederive(table, pfd, lhs, rhs, &self.display, key, block, sink);
                } else if let Some(majority) = state.majority {
                    if state.witnesses.binary_search(&row).is_ok() {
                        // A witness left: the next majority row in block
                        // order (if any) takes its slot.
                        let witnesses = block
                            .rows_with_rhs_ids()
                            .filter(|&(_, v)| v == majority)
                            .map(|(r, _)| r)
                            .take(MAX_WITNESSES)
                            .collect();
                        state.rewrite_witnesses(witnesses, sink);
                    } else if rhs_id != majority {
                        // Minority departure — the fast path: exactly the
                        // row's own violation goes.
                        state.retract_row(row, sink);
                    }
                    // Majority row beyond the witness window: nothing
                    // moves.
                }
                // Both majorities None: all-null block, nothing was
                // asserted.
            }
        }
    }
}

#[derive(Debug)]
enum TupleState {
    Constant(ConstantTuple),
    /// Boxed: the partition + block maps dwarf the constant variant.
    Variable(Box<VariableTuple>),
}

/// One seeded rule with its resolved columns and per-tuple state.
///
/// Rule state is self-contained (no ledger, no drift counters):
/// [`RuleState::process_insert`] / [`RuleState::process_removal`] read a
/// table and emit deltas, and the engine owns the shared bookkeeping.
#[derive(Debug)]
struct RuleState {
    pfd: Pfd,
    /// `(lhs, rhs)` column indexes; `None` if the schema lacks either
    /// attribute (the rule is inert, exactly like batch detection).
    cols: Option<(usize, usize)>,
    tuples: Vec<TupleState>,
}

impl RuleState {
    /// Seed a rule: resolve its columns against `schema` and compile
    /// every tableau tuple's LHS program once, up front.
    fn seed(pfd: Pfd, schema: &Schema) -> RuleState {
        let cols = match (
            schema.index_of(&pfd.lhs_attr),
            schema.index_of(&pfd.rhs_attr),
        ) {
            (Some(lhs), Some(rhs)) => Some((lhs, rhs)),
            _ => None,
        };
        let tuples = pfd
            .tableau
            .iter()
            .map(|t| {
                let (display, pattern) = match &t.lhs {
                    LhsCell::Pattern(q) => (q.to_string(), Some(q)),
                    LhsCell::Wildcard => ("⊥".to_string(), None),
                };
                match &t.rhs {
                    RhsCell::Constant(expected) => TupleState::Constant(ConstantTuple {
                        compiled: pattern.map(|q| CompiledPattern::compile(q.embedded())),
                        memo: MatchMemo::new(),
                        display,
                        expected: ValuePool::intern(expected),
                    }),
                    RhsCell::Wildcard => TupleState::Variable(Box::new(VariableTuple {
                        partition: BlockingPartition::new(pattern.cloned()),
                        display,
                        blocks: FxHashMap::default(),
                    })),
                }
            })
            .collect();
        RuleState { pfd, cols, tuples }
    }

    /// Batch-classify: warm every tuple's per-distinct-value cache over
    /// the LHS cells of a batch's insert/update rows in one tight pass,
    /// before any per-row work runs. Each *new* distinct id costs
    /// exactly the one evaluation the lazy path would have paid on first
    /// sighting, so [`RuleState::pattern_evals`] is invariant — priming
    /// is a locality optimization (one program, one cache, no per-row
    /// dispatch between evals), never extra work.
    fn prime_batch(&mut self, rows: &[&[ValueId]]) {
        let Some((lhs, _)) = self.cols else {
            return;
        };
        for tuple in &mut self.tuples {
            match tuple {
                TupleState::Constant(ct) => {
                    if let Some(c) = &ct.compiled {
                        ct.memo.prime(
                            c,
                            rows.iter().filter_map(|r| {
                                let id = r[lhs];
                                id.as_str().map(|s| (id.raw(), s))
                            }),
                        );
                    }
                }
                TupleState::Variable(vt) => {
                    vt.partition.prime(rows.iter().map(|r| r[lhs]));
                }
            }
        }
    }

    /// Incorporate one arrived row, emitting the violation deltas it
    /// causes for this rule. Returns whether the row's LHS matched any
    /// tableau tuple (the drift monitor's denominator bit); inert rules
    /// (missing columns) return `false` without touching the sink.
    fn process_insert(&mut self, table: &Table, row: RowId, sink: &mut DeltaSink) -> bool {
        let Some((lhs, rhs)) = self.cols else {
            return false;
        };
        let lhs_id = table.cell_id(row, lhs);
        let rhs_id = table.cell_id(row, rhs);
        let mut matched = false;
        for tuple in &mut self.tuples {
            match tuple {
                TupleState::Constant(ct) => {
                    matched |= ct.process(table, &self.pfd, lhs, rhs, lhs_id, row, false, sink);
                }
                TupleState::Variable(vt) => {
                    let Placement::Block(key) = vt.partition.insert(row, lhs_id, rhs_id) else {
                        continue;
                    };
                    matched = true;
                    vt.insert_transition(table, &self.pfd, lhs, rhs, rhs_id, key, row, sink);
                }
            }
        }
        matched
    }

    /// Withdraw one row from this rule's incremental state — the exact
    /// inverse of [`RuleState::process_insert`]. Must run *before* the
    /// table slot is tombstoned (or overwritten), while the row's cells
    /// are still the ones its violations were built from, so every
    /// retraction is structurally identical to the delta it cancels.
    fn process_removal(&mut self, table: &Table, row: RowId, sink: &mut DeltaSink) -> bool {
        let Some((lhs, rhs)) = self.cols else {
            return false;
        };
        let lhs_id = table.cell_id(row, lhs);
        let rhs_id = table.cell_id(row, rhs);
        let mut matched = false;
        for tuple in &mut self.tuples {
            match tuple {
                TupleState::Constant(ct) => {
                    // Rebuild the violation the arrival created (the
                    // check is the same id comparison; the memo makes
                    // the pattern free) and retract it.
                    matched |= ct.process(table, &self.pfd, lhs, rhs, lhs_id, row, true, sink);
                }
                TupleState::Variable(vt) => {
                    let Placement::Block(key) = vt.partition.remove(row, lhs_id) else {
                        continue;
                    };
                    matched = true;
                    vt.removal_transition(table, &self.pfd, lhs, rhs, rhs_id, key, row, sink);
                }
            }
        }
        matched
    }

    /// Apply a compaction [`RowIdRemap`] to this rule's incremental
    /// state — the rule's side of the remap protocol.
    ///
    /// Constant tuples hold no row references (their memo is keyed by
    /// value id) and are untouched. Variable tuples remap their
    /// partition's row lists and every block's asserted
    /// witnesses/violations in place. Nothing is re-derived and no
    /// pattern or capture evaluation runs, so
    /// [`RuleState::pattern_evals`] is invariant under remap — the
    /// protocol's cheapness guarantee, pinned by tests.
    fn apply_remap(&mut self, remap: &RowIdRemap) {
        for tuple in &mut self.tuples {
            match tuple {
                TupleState::Constant(_) => {}
                TupleState::Variable(vt) => {
                    vt.partition.apply_remap(remap);
                    for state in vt.blocks.values_mut() {
                        state.apply_remap(remap);
                    }
                }
            }
        }
    }

    /// Collect every [`ValueId`] this rule's incremental state holds
    /// *beyond* the table's live cells — ids that must survive a pool
    /// sweep even when no live cell references them:
    ///
    /// * constant tuples' interned `expected` RHS (rule metadata — it
    ///   may never appear in the data at all, or only in since-deleted
    ///   rows);
    /// * variable tuples' block keys (derived captures: `"90001" →
    ///   "900"` interns a string no cell holds) and asserted majority
    ///   ids (transitively live via block rows today, listed
    ///   belt-and-braces so the invariant doesn't depend on it).
    ///
    /// Memoized *negative* entries (keys for values that since left, the
    /// match memo's misses) are deliberately not protected — they are
    /// caches, purged by [`RuleState::purge_values`] instead.
    fn collect_protected(&self, out: &mut FxHashSet<u32>) {
        for tuple in &self.tuples {
            match tuple {
                TupleState::Constant(ct) => {
                    out.insert(ct.expected.raw());
                }
                TupleState::Variable(vt) => {
                    for key in vt.partition.block_keys() {
                        out.insert(key.raw());
                    }
                    for state in vt.blocks.values() {
                        if let Some(majority) = state.majority {
                            out.insert(majority.raw());
                        }
                    }
                }
            }
        }
    }

    /// Drop every memoized entry keyed on (or caching) an id in `dead`,
    /// ahead of the pool recycling those ids for different strings. See
    /// [`MatchMemo::purge`] and
    /// [`BlockingPartition::purge_cached_keys`] for why stale entries
    /// would otherwise answer for the wrong value. Counters stay put —
    /// a purge performs no pattern work.
    fn purge_values(&mut self, dead: &FxHashSet<u32>) {
        for tuple in &mut self.tuples {
            match tuple {
                TupleState::Constant(ct) => ct.memo.purge(|id| dead.contains(&id)),
                TupleState::Variable(vt) => vt
                    .partition
                    .purge_cached_keys(|id| dead.contains(&id.raw())),
            }
        }
    }

    /// Pattern evaluations this rule's memoized state performed —
    /// constant tuples' match memos plus variable tuples' capture
    /// extractions.
    fn pattern_evals(&self) -> usize {
        self.tuples
            .iter()
            .map(|t| match t {
                TupleState::Constant(ct) => ct.memo.evals(),
                TupleState::Variable(vt) => vt.partition.key_evals(),
            })
            .sum()
    }

    /// Memo consultations (hits + misses) across this rule's tuples —
    /// the denominator that turns [`RuleState::pattern_evals`] into the
    /// hit rate the observability layer reports.
    fn pattern_lookups(&self) -> usize {
        self.tuples
            .iter()
            .map(|t| match t {
                TupleState::Constant(ct) => ct.memo.lookups(),
                TupleState::Variable(vt) => vt.partition.key_lookups(),
            })
            .sum()
    }

    /// Blocks this rule currently maintains (the `engine.blocks` gauge).
    fn block_count(&self) -> usize {
        self.tuples
            .iter()
            .map(|t| match t {
                TupleState::Constant(_) => 0,
                TupleState::Variable(vt) => vt.partition.block_count(),
            })
            .sum()
    }
}

/// The incremental PFD violation engine (see the crate docs).
#[derive(Debug)]
pub struct StreamEngine {
    table: Table,
    rules: Vec<RuleState>,
    ledger: ViolationLedger,
    drift: DriftMonitor,
    /// Auto-compaction threshold (see [`StreamConfig::compact_ratio`]).
    compact_ratio: f64,
    compaction: CompactionStats,
    /// Epoch-tied string reclamation (see [`StreamConfig::reclaim`]).
    reclaim: bool,
    /// Lifetime pool reclamation by this engine's sweeps.
    reclaim_stats: ReclaimStats,
}

impl StreamEngine {
    /// An engine over `schema`, seeded with `rules`, default thresholds.
    #[must_use]
    pub fn new(schema: Schema, rules: Vec<Pfd>) -> StreamEngine {
        StreamEngine::with_config(schema, rules, StreamConfig::default())
    }

    /// An engine with explicit drift thresholds.
    #[must_use]
    pub fn with_config(schema: Schema, rules: Vec<Pfd>, config: StreamConfig) -> StreamEngine {
        let drift = DriftMonitor::new(rules.len(), config.min_support, config.max_violation_ratio);
        let states = rules
            .into_iter()
            .map(|pfd| RuleState::seed(pfd, &schema))
            .collect();
        let mut table = Table::empty(schema);
        if config.reclaim {
            // Batch-granular refcounting: the table retains each cell id
            // on insert and releases on delete/overwrite, recording ids
            // whose count hit zero as sweep candidates for the next
            // compaction barrier.
            table.enable_refcounts();
        }
        StreamEngine {
            table,
            rules: states,
            ledger: ViolationLedger::new(),
            drift,
            compact_ratio: config.compact_ratio,
            compaction: CompactionStats::default(),
            reclaim: config.reclaim,
            reclaim_stats: ReclaimStats::default(),
        }
    }

    /// Compact the engine's table and thread the resulting
    /// [`RowIdRemap`] through every consumer — the remap protocol,
    /// end to end:
    ///
    /// 1. [`Table::compact`] drops tombstoned slots and opens a new
    ///    epoch;
    /// 2. every rule's blocking partition and asserted block context
    ///    translate in place (`RuleState::apply_remap` — no pattern
    ///    re-evaluation, [`StreamEngine::pattern_evals`] is invariant);
    /// 3. the ledger rewrites its live violations and adopts the epoch
    ///    (event history stays verbatim; see
    ///    [`LedgerEvent::epoch`](anmat_core::LedgerEvent)).
    ///
    /// Silent by design: no events are emitted, no drift counter moves —
    /// only coordinates change. Callers holding pre-compaction `RowId`s
    /// must translate them through the returned remap.
    pub fn compact(&mut self) -> RowIdRemap {
        let remap = self.table.compact();
        for rule in &mut self.rules {
            rule.apply_remap(&remap);
        }
        self.ledger.remap(&remap);
        self.compaction.epochs += 1;
        self.compaction.reclaimed_slots += remap.reclaimed();
        self.sweep_reclaimable();
        remap
    }

    /// The string-reclamation half of the compaction barrier (no-op
    /// unless [`StreamConfig::reclaim`]): free every interned string
    /// whose last table reference died since the previous sweep, unless
    /// rule state still needs it.
    ///
    /// The candidate set is exactly the ids the refcounting table
    /// recorded at their last release, filtered twice at the barrier:
    ///
    /// 1. **refcount recheck** — the string may have been re-inserted
    ///    (same id: interning is idempotent) after the release that
    ///    queued it;
    /// 2. **protection** — rule state holds ids beyond live cells
    ///    (constant RHS constants, derived block keys); see
    ///    [`RuleState::collect_protected`].
    ///
    /// Survivors are purged from every memo/key cache *before*
    /// [`ValuePool::reclaim`] queues them for recycling, so no cache can
    /// answer for a recycled id.
    fn sweep_reclaimable(&mut self) {
        if !self.reclaim {
            return;
        }
        let candidates = self.table.take_reclaim_candidates();
        if candidates.is_empty() {
            return;
        }
        let mut protected = FxHashSet::default();
        for rule in &self.rules {
            rule.collect_protected(&mut protected);
        }
        let doomed: Vec<(ValueId, u32)> = candidates
            .into_iter()
            .filter(|(id, _)| ValuePool::refcount(*id) == 0 && !protected.contains(&id.raw()))
            .collect();
        if doomed.is_empty() {
            return;
        }
        let dead: FxHashSet<u32> = doomed.iter().map(|(id, _)| id.raw()).collect();
        for rule in &mut self.rules {
            rule.purge_values(&dead);
        }
        // SAFETY: every candidate's last table reference died (refcount
        // rechecked above, at a post-compaction barrier with no
        // tombstones), rule state's own ids are protected, and the memo
        // and key caches were just purged of them — so nothing in this
        // engine resolves them again, and the ledger's violations hold
        // owned strings, never pool borrows. `reclaim: true` engines own
        // a value space disjoint from other pool users (the
        // `StreamConfig::reclaim` contract).
        let stats = unsafe { ValuePool::reclaim(doomed) };
        self.reclaim_stats.strings += stats.strings;
        self.reclaim_stats.bytes += stats.bytes;
    }

    /// Lifetime pool reclamation this engine's sweeps performed.
    #[must_use]
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.reclaim_stats
    }

    /// Auto-compaction hook: runs at the end of tombstoning entry
    /// points (never mid-batch — a validated op batch addresses one id
    /// space) when the tombstone ratio crosses
    /// [`StreamConfig::compact_ratio`].
    fn maybe_compact(&mut self) {
        let total = self.table.row_count();
        let dead = total - self.table.live_rows();
        let over_ratio = dead > 0 && dead as f64 >= self.compact_ratio * total as f64;
        if self.compact_ratio > 0.0 && over_ratio {
            self.compact();
        }
    }

    /// The engine's compaction epoch (0 until the first compaction).
    /// Callers that cache `RowId`s can watch this to know when to
    /// refresh them.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Lifetime compaction counters (epochs run, slots reclaimed).
    #[must_use]
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction
    }

    /// Ingest one row; returns the violation events it caused (creations
    /// and retractions), in rule/tableau order with retractions first
    /// within each affected block.
    ///
    /// Each cell is interned exactly once here; everything downstream
    /// (blocking, memoized matching, agreement checks) operates on `Copy`
    /// ids.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<Vec<LedgerEvent>, TableError> {
        let row_id = self.table.push_row(row)?;
        let mut sink = DeltaSink::default();
        self.process_row(row_id, &mut sink);
        Ok(self.settle(sink))
    }

    /// Ingest one row of already-interned ids — the clone-free ingest
    /// path (no string is copied, hashed, or even read).
    pub fn push_id_row(&mut self, row: Vec<ValueId>) -> Result<Vec<LedgerEvent>, TableError> {
        let mut sink = DeltaSink::default();
        self.insert_id_row(row, &mut sink)?;
        Ok(self.settle(sink))
    }

    /// Append one interned row to the table and run every rule over it,
    /// leaving the deltas in `sink` for the caller's ledger pass.
    fn insert_id_row(&mut self, row: Vec<ValueId>, sink: &mut DeltaSink) -> Result<(), TableError> {
        let row_id = self.table.push_id_row(row)?;
        self.process_row(row_id, sink);
        Ok(())
    }

    /// Ingest one row of raw strings (fields go through
    /// [`Value::from_field`]).
    pub fn push_str_row<'a>(
        &mut self,
        row: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.push_row(row.into_iter().map(Value::from_field).collect())
    }

    /// Validate every row's arity before any row of a batch is ingested,
    /// so a malformed batch leaves the engine untouched and no emitted
    /// event is ever lost to an `Err`.
    fn validate_batch_arity<T>(&self, rows: &[Vec<T>]) -> Result<(), TableError> {
        let arity = self.table.schema().arity();
        for (offset, row) in rows.iter().enumerate() {
            if row.len() != arity {
                return Err(TableError::ArityMismatch {
                    row: self.table.row_count() + offset,
                    found: row.len(),
                    expected: arity,
                });
            }
        }
        Ok(())
    }

    /// Ingest a batch of rows; returns the concatenated events.
    ///
    /// Atomic with respect to errors: every row's arity is validated
    /// before any row is ingested, so a malformed batch leaves the
    /// engine untouched and no emitted event is ever lost to an `Err`.
    pub fn push_batch(
        &mut self,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        let _batch = obs::span!("engine.batch_ns");
        let rows: Vec<Vec<Value>> = rows.into_iter().collect();
        {
            let _validate = obs::span!("engine.validate_ns");
            self.validate_batch_arity(&rows)?;
        }
        let _apply = obs::span!("engine.apply_ns");
        let rows = rows
            .iter()
            .map(|r| ValuePool::intern_value_batch(r))
            .collect();
        Ok(self.ingest_id_rows(rows))
    }

    /// Ingest a batch of already-interned rows; returns the concatenated
    /// events. Atomic with respect to errors like
    /// [`StreamEngine::push_batch`].
    pub fn push_id_batch(
        &mut self,
        rows: impl IntoIterator<Item = Vec<ValueId>>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        let _batch = obs::span!("engine.batch_ns");
        let rows: Vec<Vec<ValueId>> = rows.into_iter().collect();
        {
            let _validate = obs::span!("engine.validate_ns");
            self.validate_batch_arity(&rows)?;
        }
        let _apply = obs::span!("engine.apply_ns");
        Ok(self.ingest_id_rows(rows))
    }

    /// The body of both push-batch entry points, after validation:
    /// batch-classify each rule's caches over the batch's new distinct
    /// ids, run every row through the rules, then make one ledger pass.
    fn ingest_id_rows(&mut self, rows: Vec<Vec<ValueId>>) -> Vec<LedgerEvent> {
        obs::counter!("engine.ops").add(rows.len() as u64);
        self.prime_rules(&rows);
        let mut sink = DeltaSink::default();
        let mut events = Vec::new();
        for row in rows {
            self.insert_id_row(row, &mut sink)
                .expect("arity pre-validated");
            self.bound_pending(&mut sink, &mut events);
        }
        self.ledger_pass(&mut sink, &mut events);
        obs::counter!("engine.events").add(events.len() as u64);
        events
    }

    /// Batch-classify: prime every rule's per-distinct-value caches over
    /// a batch's insert rows in one pass, ahead of the per-row loop (see
    /// [`RuleState::prime_batch`] — count-neutral by construction).
    fn prime_rules(&mut self, rows: &[Vec<ValueId>]) {
        let refs: Vec<&[ValueId]> = rows.iter().map(Vec::as_slice).collect();
        for rule in &mut self.rules {
            rule.prime_batch(&refs);
        }
    }

    /// Replay an existing table's *live* rows in row order (the table's
    /// schema must match the engine's; tombstoned slots are skipped, so
    /// the replayed state matches batch detection on the survivors —
    /// note the engine assigns fresh, dense slot ids). Clone-free: rows
    /// are carried over as interned ids.
    pub fn replay_table(&mut self, table: &Table) -> Result<Vec<LedgerEvent>, TableError> {
        let mut sink = DeltaSink::default();
        let mut events = Vec::new();
        for r in table.iter_live() {
            // Every row has the table's arity, so only the first can
            // fail, before any delta is pending.
            self.insert_id_row(table.row_ids(r), &mut sink)?;
            self.bound_pending(&mut sink, &mut events);
        }
        self.ledger_pass(&mut sink, &mut events);
        Ok(events)
    }

    /// Run every rule over the freshly written `row`, leaving the deltas
    /// in `sink`.
    fn process_row(&mut self, row: RowId, sink: &mut DeltaSink) {
        for (rule_idx, rule) in self.rules.iter_mut().enumerate() {
            let matched = rule.process_insert(&self.table, row, sink);
            let (created, retracted) = sink.take_counts();
            self.drift.observe(rule_idx, matched, created, retracted);
        }
    }

    /// Withdraw one row from every rule's incremental state — the exact
    /// inverse of `process_row`. Called *before* the table slot is
    /// tombstoned (or overwritten), while the row's cells are still the
    /// ones its violations were built from, so every retraction is
    /// structurally identical to the event it cancels.
    fn process_removal(&mut self, row: RowId, sink: &mut DeltaSink) {
        for (rule_idx, rule) in self.rules.iter_mut().enumerate() {
            let matched = rule.process_removal(&self.table, row, sink);
            let (created, retracted) = sink.take_counts();
            self.drift.retire(rule_idx, matched, created, retracted);
        }
    }

    /// The ledger pass: replay `sink`'s deltas into the ledger in the
    /// order they were produced, appending the events it emits to
    /// `events` (refcount-only changes emit nothing). Rule state never
    /// reads the ledger, so deferring the pass to the end of an entry
    /// point leaves every event unchanged. Timed as one
    /// `engine.ledger_ns` span per pass.
    fn ledger_pass(&mut self, sink: &mut DeltaSink, events: &mut Vec<LedgerEvent>) {
        let _ledger = obs::span!("engine.ledger_ns");
        events.reserve(sink.deltas.len());
        for delta in sink.deltas.drain(..) {
            events.extend(match delta {
                Delta::Create(v) => self.ledger.create(v),
                Delta::Retract(v) => self.ledger.retract(&v),
            });
        }
    }

    /// Run the ledger pass early, between two ops, once a batch has
    /// [`MAX_PENDING_DELTAS`] pending. A retracted violation stays
    /// allocated until its pass, so without the bound one huge batch
    /// would hold every violation it retracts at once.
    fn bound_pending(&mut self, sink: &mut DeltaSink, events: &mut Vec<LedgerEvent>) {
        if sink.deltas.len() >= MAX_PENDING_DELTAS {
            self.ledger_pass(sink, events);
        }
    }

    /// The ledger pass of a single-op entry point.
    fn settle(&mut self, mut sink: DeltaSink) -> Vec<LedgerEvent> {
        let mut events = Vec::new();
        self.ledger_pass(&mut sink, &mut events);
        events
    }

    /// Delete one live row; returns the retractions it causes (plus any
    /// creations where a block's majority flipped). Cost is
    /// `O(tableau)` for constant tuples and `O(affected block)` for
    /// variable tuples — never `O(table)`. The slot is tombstoned, so
    /// every other `RowId` stays valid — until auto-compaction (if
    /// enabled) crosses its threshold at the end of this call and
    /// renumbers; watch [`StreamEngine::epoch`].
    pub fn delete_row(&mut self, row: RowId) -> Result<Vec<LedgerEvent>, TableError> {
        let mut sink = DeltaSink::default();
        self.delete_row_inner(row, &mut sink)?;
        let events = self.settle(sink);
        self.maybe_compact();
        Ok(events)
    }

    /// The delete without the ledger pass or the auto-compaction check —
    /// what batch replay uses, so compaction can never strike in the
    /// middle of a pre-validated op sequence.
    fn delete_row_inner(&mut self, row: RowId, sink: &mut DeltaSink) -> Result<(), TableError> {
        if !self.table.is_live(row) {
            return Err(TableError::NoSuchRow { row });
        }
        self.process_removal(row, sink);
        self.table.delete_row(row).expect("liveness checked");
        Ok(())
    }

    /// Update one live row in place — delete + insert *fused on one
    /// slot*, so the caller gets a single event batch (old assertions
    /// retracted, new ones created) and the row keeps its `RowId`.
    pub fn update_row(
        &mut self,
        row: RowId,
        cells: Vec<Value>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.update_id_row(row, cells.iter().map(ValuePool::intern_value).collect())
    }

    /// Update one live row with already-interned ids (the clone-free
    /// counterpart of [`StreamEngine::update_row`]).
    pub fn update_id_row(
        &mut self,
        row: RowId,
        cells: Vec<ValueId>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        let mut sink = DeltaSink::default();
        self.update_id_row_inner(row, cells, &mut sink)?;
        Ok(self.settle(sink))
    }

    /// The update without the ledger pass.
    fn update_id_row_inner(
        &mut self,
        row: RowId,
        cells: Vec<ValueId>,
        sink: &mut DeltaSink,
    ) -> Result<(), TableError> {
        if cells.len() != self.table.schema().arity() {
            return Err(TableError::ArityMismatch {
                row,
                found: cells.len(),
                expected: self.table.schema().arity(),
            });
        }
        if !self.table.is_live(row) {
            return Err(TableError::NoSuchRow { row });
        }
        self.process_removal(row, sink);
        self.table
            .update_id_row(row, cells)
            .expect("arity and liveness checked");
        self.process_row(row, sink);
        Ok(())
    }

    /// Apply a batch of [`RowOp`]s; returns the concatenated events.
    ///
    /// Atomic with respect to errors, like the push-batch entry points:
    /// the whole batch is validated against a simulation of the
    /// engine's live set (arity of every insert/update, liveness of
    /// every addressed row *at its point in the sequence*) before any
    /// op executes, so a malformed op-log leaves the engine untouched.
    /// The error is a [`TableError::InvalidOp`] carrying the index of
    /// the offending op.
    pub fn apply(
        &mut self,
        ops: impl IntoIterator<Item = RowOp>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        let _batch = obs::span!("engine.batch_ns");
        let ops: Vec<RowOp> = ops.into_iter().collect();
        {
            let _validate = obs::span!("engine.validate_ns");
            validate_ops(&self.table, &ops)?;
        }
        let _apply = obs::span!("engine.apply_ns");
        obs::counter!("engine.ops").add(ops.len() as u64);
        // Intern every insert/update row once, batch-classify over them,
        // then hand each op its ids: no cell is interned twice.
        let arriving: Vec<Vec<ValueId>> = ops
            .iter()
            .filter_map(|op| match op {
                RowOp::Insert(cells) | RowOp::Update(_, cells) => {
                    Some(ValuePool::intern_value_batch(cells))
                }
                RowOp::Delete(_) => None,
            })
            .collect();
        self.prime_rules(&arriving);
        let mut arriving = arriving.into_iter();
        let mut sink = DeltaSink::default();
        let mut events = Vec::new();
        for op in ops {
            // Inner variants: the whole batch addresses one id space, so
            // the auto-compaction check waits until after the loop.
            let done = match op {
                RowOp::Insert(_) => {
                    self.insert_id_row(arriving.next().expect("one id row per insert"), &mut sink)
                }
                RowOp::Delete(row) => self.delete_row_inner(row, &mut sink),
                RowOp::Update(row, _) => self.update_id_row_inner(
                    row,
                    arriving.next().expect("one id row per update"),
                    &mut sink,
                ),
            };
            done.expect("ops pre-validated");
            self.bound_pending(&mut sink, &mut events);
        }
        self.ledger_pass(&mut sink, &mut events);
        self.maybe_compact();
        obs::counter!("engine.events").add(events.len() as u64);
        Ok(events)
    }

    /// The ledger of live violations.
    #[must_use]
    pub fn ledger(&self) -> &ViolationLedger {
        &self.ledger
    }

    /// The accumulated table.
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Row *slots* ingested so far (tombstoned ones included).
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.table.row_count()
    }

    /// Rows currently live (ingested minus deleted) — what summaries
    /// should report.
    #[must_use]
    pub fn live_rows(&self) -> usize {
        self.table.live_rows()
    }

    /// The seeded rules, in index order.
    pub fn rules(&self) -> impl Iterator<Item = &Pfd> {
        self.rules.iter().map(|r| &r.pfd)
    }

    /// Total pattern evaluations performed across all rules — constant
    /// tuples' memoized matches plus variable tuples' capture
    /// extractions. Bounded by `Σ_tuple distinct(LHS column)` regardless
    /// of row count: the call-counting hook behind the "at most one
    /// evaluation per (pattern, distinct value)" guarantee.
    #[must_use]
    pub fn pattern_evals(&self) -> usize {
        self.rules.iter().map(RuleState::pattern_evals).sum()
    }

    /// Total memo consultations (hits + misses) across all rules — the
    /// denominator for the memoization hit rate:
    /// `1 − pattern_evals / pattern_lookups`.
    #[must_use]
    pub fn pattern_lookups(&self) -> usize {
        self.rules.iter().map(RuleState::pattern_lookups).sum()
    }

    /// Publish the engine's derived state into the global metrics
    /// registry as gauges: table slots/live/bytes, pool bytes/strings,
    /// memo lookup/eval totals, block counts, ledger totals, and
    /// compaction counters.
    ///
    /// Pull-based by design: per-row hot paths never touch these — the
    /// caller (CLI summary, `--stats-every` ticks, benches) decides the
    /// refresh cadence. A no-op while the recorder is disabled.
    pub fn publish_metrics(&self) {
        if !obs::enabled() {
            return;
        }
        let table = self.table.mem_footprint();
        obs::gauge!("table.slots").set(table.total_slots as i64);
        obs::gauge!("table.live").set(table.live_slots as i64);
        obs::gauge!("table.bytes").set(table.bytes as i64);
        let pool = ValuePool::mem_footprint();
        obs::gauge!("pool.bytes").set(pool.bytes as i64);
        obs::gauge!("pool.strings").set(pool.strings as i64);
        obs::gauge!("pool.string_bytes").set(pool.string_bytes as i64);
        obs::gauge!("engine.rules").set(self.rules.len() as i64);
        obs::gauge!("engine.blocks")
            .set(self.rules.iter().map(RuleState::block_count).sum::<usize>() as i64);
        obs::gauge!("memo.evals").set(self.pattern_evals() as i64);
        obs::gauge!("memo.lookups").set(self.pattern_lookups() as i64);
        obs::gauge!("ledger.live").set(self.ledger.live_count() as i64);
        obs::gauge!("ledger.created_total").set(self.ledger.created_total() as i64);
        obs::gauge!("ledger.retracted_total").set(self.ledger.retracted_total() as i64);
        obs::gauge!("engine.compaction_epochs").set(self.compaction.epochs as i64);
        obs::gauge!("engine.reclaimed_slots").set(self.compaction.reclaimed_slots as i64);
        // Reclamation: live vs cumulatively-freed pool state (gauges —
        // the matching `pool.reclaims`/`pool.reclaimed_*` *counters*
        // move inside `ValuePool::reclaim` itself), plus what this
        // engine's sweeps freed.
        obs::gauge!("pool.live_strings").set(ValuePool::live_strings() as i64);
        let (freed_strings, freed_bytes) = ValuePool::reclaimed();
        obs::gauge!("pool.freed_strings").set(freed_strings as i64);
        obs::gauge!("pool.freed_bytes").set(freed_bytes as i64);
        obs::gauge!("engine.reclaimed_strings").set(self.reclaim_stats.strings as i64);
        obs::gauge!("engine.reclaimed_bytes").set(self.reclaim_stats.bytes as i64);
    }

    /// Streaming health counters for one rule.
    #[must_use]
    pub fn rule_health(&self, rule: usize) -> RuleHealth {
        self.drift.health(rule)
    }

    /// Rules whose live confidence decayed below the discovery threshold
    /// — candidates for demotion to `RuleStatus::Pending`.
    ///
    /// Rule-index order is part of the API contract (consumers key the
    /// `anmat rules` listing off it), so it is enforced with an explicit
    /// sort rather than left as a side effect of how the reports happen
    /// to be gathered.
    #[must_use]
    pub fn drift_report(&self) -> Vec<DriftReport> {
        let mut reports: Vec<DriftReport> = self
            .rules
            .iter()
            .enumerate()
            .filter_map(|(i, r)| self.drift.judge(i, r.pfd.embedded_fd()))
            .collect();
        reports.sort_by_key(|r| r.rule);
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_core::{detect_all, PatternTuple, ViolationKind};
    use anmat_pattern::ConstrainedPattern;

    fn q(s: &str) -> ConstrainedPattern {
        s.parse().unwrap()
    }

    fn zip_variable_pfd() -> Pfd {
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable(q("[\\D{3}]\\D{2}"))],
        )
    }

    fn zip_constant_pfd() -> Pfd {
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                "Los Angeles",
            )],
        )
    }

    fn schema() -> Schema {
        Schema::new(["zip", "city"]).unwrap()
    }

    #[test]
    fn constant_violation_on_arrival() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        assert!(engine
            .push_str_row(["90001", "Los Angeles"])
            .unwrap()
            .is_empty());
        let events = engine.push_str_row(["90004", "New York"]).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_created());
        assert_eq!(events[0].violation().row, 1);
        // Non-matching zips are ignored.
        assert!(engine
            .push_str_row(["10001", "New York"])
            .unwrap()
            .is_empty());
        assert_eq!(engine.ledger().live_count(), 1);
    }

    #[test]
    fn variable_violation_needs_a_block_peer() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        assert!(engine
            .push_str_row(["90001", "Los Angeles"])
            .unwrap()
            .is_empty());
        // Second row disagrees: 1–1 tie, lexicographic majority wins and
        // the other row is flagged.
        let events = engine.push_str_row(["90002", "New York"]).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_created());
    }

    #[test]
    fn majority_flip_retracts_and_reflags() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90002", "New York"]).unwrap();
        // Tie broken lexicographically: majority "Los Angeles", row 1
        // flagged.
        assert_eq!(engine.ledger().snapshot()[0].row, 1);
        // Two more New York rows flip the majority: row 1's violation is
        // retracted, row 0 becomes the minority.
        let events = engine.push_str_row(["90003", "New York"]).unwrap();
        let retractions: Vec<_> = events.iter().filter(|e| !e.is_created()).collect();
        assert_eq!(retractions.len(), 1);
        assert_eq!(retractions[0].violation().row, 1);
        let live = engine.ledger().snapshot();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].row, 0);
        match &live[0].kind {
            ViolationKind::Variable { majority, .. } => assert_eq!(majority, "New York"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(engine.ledger().retracted_total() >= 1);
    }

    #[test]
    fn final_state_matches_batch_detection() {
        let rules = vec![zip_constant_pfd(), zip_variable_pfd()];
        let rows = [
            ["90001", "Los Angeles"],
            ["90002", "Los Angeles"],
            ["90003", "Los Angeles"],
            ["90004", "New York"],
            ["10001", "New York"],
            ["10002", "Boston"],
        ];
        let mut engine = StreamEngine::new(schema(), rules.clone());
        for row in rows {
            engine.push_str_row(row).unwrap();
        }
        let batch = detect_all(engine.table(), &rules);
        let mut streamed = engine.ledger().snapshot();
        let mut batch = batch;
        let key = |v: &Violation| serde_json::to_string(v).unwrap();
        streamed.sort_by_key(|v| key(v));
        batch.sort_by_key(|v| key(v));
        batch.dedup();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn missing_columns_leave_rule_inert() {
        let pfd = Pfd::new(
            "R",
            "nope",
            "city",
            vec![PatternTuple::variable(q("[\\A*]"))],
        );
        let mut engine = StreamEngine::new(schema(), vec![pfd]);
        assert!(engine.push_str_row(["90001", "LA"]).unwrap().is_empty());
        assert_eq!(engine.rule_health(0).matched_rows, 0);
    }

    #[test]
    fn config_adopts_discovery_thresholds() {
        let discovery = anmat_core::DiscoveryConfig {
            min_support: 5,
            max_violation_ratio: 0.05,
            ..anmat_core::DiscoveryConfig::default()
        };
        let config = StreamConfig::from_discovery(&discovery);
        assert_eq!(config.min_support, 5);
        assert!((config.max_violation_ratio - 0.05).abs() < 1e-12);
    }

    #[test]
    fn drift_flags_decayed_rule() {
        let config = StreamConfig {
            min_support: 4,
            max_violation_ratio: 0.3,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::with_config(schema(), vec![zip_constant_pfd()], config);
        for i in 0..10 {
            let zip = format!("900{i:02}");
            engine.push_str_row([zip.as_str(), "San Diego"]).unwrap();
        }
        let report = engine.drift_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].dependency, "zip → city");
        assert_eq!(report[0].live_violations, 10);
        assert!(report[0].confidence < report[0].min_confidence);
    }

    #[test]
    fn duplicate_rules_keep_symmetric_drift_health() {
        // Two identical rules imply the same violations; the ledger
        // refcounts them to one live copy, but each rule's drift health
        // must count its own assertions — and stay balanced when a
        // majority flip retracts them.
        let rules = vec![zip_variable_pfd(), zip_variable_pfd()];
        let mut engine = StreamEngine::new(schema(), rules);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90002", "New York"]).unwrap();
        engine.push_str_row(["90003", "New York"]).unwrap();
        engine.push_str_row(["90004", "New York"]).unwrap();
        assert_eq!(engine.ledger().live_count(), 1);
        let (h0, h1) = (engine.rule_health(0), engine.rule_health(1));
        assert_eq!(h0, h1, "identical rules must report identical health");
        assert_eq!(h0.live_violations, 1);
        assert!(h0.confidence() > 0.7);
    }

    #[test]
    fn push_batch_is_atomic_on_arity_error() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        let bad_batch = vec![
            vec![Value::from_field("90001"), Value::from_field("New York")],
            vec![Value::from_field("oops")], // wrong arity
        ];
        assert!(engine.push_batch(bad_batch).is_err());
        // Nothing from the batch was ingested: no rows, no silent events.
        assert_eq!(engine.row_count(), 0);
        assert!(engine.ledger().is_empty());
    }

    #[test]
    fn push_batch_concatenates_events() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        let rows: Vec<Vec<Value>> = [["90001", "New York"], ["90002", "Boston"]]
            .iter()
            .map(|r| r.iter().map(|s| Value::from_field(s)).collect())
            .collect();
        let events = engine.push_batch(rows).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(engine.row_count(), 2);
    }

    #[test]
    fn delete_retracts_constant_violation() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90004", "New York"]).unwrap();
        assert_eq!(engine.ledger().live_count(), 1);
        let events = engine.delete_row(1).unwrap();
        assert_eq!(events.len(), 1);
        assert!(!events[0].is_created());
        assert_eq!(events[0].violation().row, 1);
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 1);
        assert_eq!(engine.row_count(), 2);
        // The rule's drift health shrank with the stream.
        assert_eq!(engine.rule_health(0).matched_rows, 1);
        assert_eq!(engine.rule_health(0).live_violations, 0);
    }

    #[test]
    fn delete_of_majority_rows_flips_the_block() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90002", "New York"]).unwrap();
        engine.push_str_row(["90003", "New York"]).unwrap();
        // Majority "New York"; row 0 is the minority.
        assert_eq!(engine.ledger().snapshot()[0].row, 0);
        // Deleting both New York rows flips the majority to Los
        // Angeles: row 0's violation retracts, nothing remains to flag.
        engine.delete_row(1).unwrap();
        let events = engine.delete_row(2).unwrap();
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 1);
    }

    #[test]
    fn delete_errors_are_safe() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        assert!(matches!(
            engine.delete_row(7),
            Err(TableError::NoSuchRow { row: 7 })
        ));
        engine.delete_row(0).unwrap();
        assert!(matches!(
            engine.delete_row(0),
            Err(TableError::NoSuchRow { row: 0 })
        ));
        assert!(matches!(
            engine.update_row(0, vec![Value::text("x"), Value::text("y")]),
            Err(TableError::NoSuchRow { row: 0 })
        ));
    }

    #[test]
    fn update_fuses_delete_and_insert_on_one_slot() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90002", "Los Angeles"]).unwrap();
        engine.push_str_row(["90003", "New York"]).unwrap();
        // Row 2 is the minority.
        assert_eq!(engine.ledger().snapshot()[0].row, 2);
        // Correcting it in place retracts the violation in the same
        // event batch; the slot keeps its id.
        let events = engine
            .update_row(2, vec![Value::text("90003"), Value::text("Los Angeles")])
            .unwrap();
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.row_count(), 3);
        assert_eq!(engine.live_rows(), 3);
        assert_eq!(engine.table().cell_str(2, 1), Some("Los Angeles"));
        // And making it wrong again re-creates a fresh violation.
        let events = engine
            .update_row(2, vec![Value::text("90003"), Value::text("Boston")])
            .unwrap();
        assert!(events.iter().any(LedgerEvent::is_created));
        assert_eq!(engine.ledger().live_count(), 1);
    }

    #[test]
    fn apply_replays_an_op_log() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        let ops = vec![
            RowOp::Insert(vec![Value::text("90001"), Value::text("Los Angeles")]),
            RowOp::Insert(vec![Value::text("90002"), Value::text("Los Angeles")]),
            RowOp::Insert(vec![Value::text("90003"), Value::text("New York")]),
            RowOp::Update(2, vec![Value::text("90003"), Value::text("Los Angeles")]),
            RowOp::Delete(0),
        ];
        let events = engine.apply(ops).unwrap();
        // Row 2 was flagged on arrival and cleared by the update.
        assert!(events.iter().any(LedgerEvent::is_created));
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 2);
        assert_eq!(engine.row_count(), 3);
    }

    #[test]
    fn apply_is_atomic_on_invalid_ops() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        // The second op deletes a row the first op already deleted.
        let bad = vec![RowOp::Delete(0), RowOp::Delete(0)];
        // The error names the offending op by its index in the batch.
        match engine.apply(bad) {
            Err(TableError::InvalidOp { op: 1, error }) => {
                assert!(matches!(*error, TableError::NoSuchRow { row: 0 }));
            }
            other => panic!("expected op 1 to be rejected, got {other:?}"),
        }
        assert_eq!(engine.live_rows(), 1, "nothing applied");
        // An insert makes a later delete of the fresh slot valid.
        let good = vec![
            RowOp::Insert(vec![Value::text("90002"), Value::text("Los Angeles")]),
            RowOp::Delete(1),
        ];
        engine.apply(good).unwrap();
        assert_eq!(engine.live_rows(), 1);
        // Arity of an update is validated before anything runs.
        let bad_arity = vec![
            RowOp::Delete(0),
            RowOp::Update(0, vec![Value::text("just-one")]),
        ];
        match engine.apply(bad_arity) {
            Err(TableError::InvalidOp { op: 1, error }) => {
                assert!(matches!(*error, TableError::ArityMismatch { found: 1, .. }));
            }
            other => panic!("expected op 1 to be rejected, got {other:?}"),
        }
        assert_eq!(engine.live_rows(), 1);
        // An update of a row deleted earlier in the same batch is
        // rejected…
        let update_deleted = vec![
            RowOp::Delete(0),
            RowOp::Update(0, vec![Value::text("90003"), Value::text("Los Angeles")]),
        ];
        match engine.apply(update_deleted) {
            Err(TableError::InvalidOp { op: 1, error }) => {
                assert!(matches!(*error, TableError::NoSuchRow { row: 0 }));
            }
            other => panic!("expected op 1 to be rejected, got {other:?}"),
        }
        assert_eq!(engine.live_rows(), 1);
        // …while an update of a slot inserted earlier in the batch is
        // accepted.
        let update_inserted = vec![
            RowOp::Insert(vec![Value::text("90004"), Value::text("Boston")]),
            RowOp::Update(2, vec![Value::text("90004"), Value::text("Los Angeles")]),
        ];
        engine.apply(update_inserted).unwrap();
        assert_eq!(engine.live_rows(), 2);
        assert_eq!(engine.table().cell_str(2, 1), Some("Los Angeles"));
    }

    #[test]
    fn compact_remaps_live_violations_and_keeps_detection_exact() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd(), zip_constant_pfd()]);
        for (zip, city) in [
            ("90001", "Los Angeles"),
            ("90002", "Los Angeles"),
            ("90003", "Los Angeles"),
            ("90004", "New York"), // flagged by both rules
        ] {
            engine.push_str_row([zip, city]).unwrap();
        }
        engine.delete_row(0).unwrap();
        engine.delete_row(2).unwrap();
        let evals_before = engine.pattern_evals();
        let remap = engine.compact();
        // Survivors 1, 3 → 0, 1; no pattern work was repeated.
        assert_eq!(remap.reclaimed(), 2);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.ledger().epoch(), 1);
        assert_eq!(
            engine.pattern_evals(),
            evals_before,
            "compaction must not re-evaluate patterns"
        );
        assert_eq!(engine.compaction_stats().epochs, 1);
        assert_eq!(engine.compaction_stats().reclaimed_slots, 2);
        let snap = engine.ledger().snapshot();
        assert!(snap.iter().all(|v| v.row == 1), "flagged row remapped");
        // The remapped ledger equals batch detection over the compacted
        // table — the protocol's correctness contract.
        let rules: Vec<Pfd> = engine.rules().cloned().collect();
        let mut batch = detect_all(engine.table(), &rules);
        let key = |v: &Violation| serde_json::to_string(v).unwrap();
        batch.sort_by_key(|v| key(v));
        batch.dedup();
        let mut streamed = snap;
        streamed.sort_by_key(|v| key(v));
        assert_eq!(streamed, batch);
        // The engine keeps working in the new id space: deleting the
        // remapped minority row retracts both rules' violations.
        let events = engine.delete_row(1).unwrap();
        assert!(events.iter().all(|e| !e.is_created()));
        assert_eq!(events.iter().map(|e| e.epoch).max(), Some(1));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 1);
    }

    #[test]
    fn auto_compaction_triggers_on_the_configured_ratio() {
        let config = StreamConfig {
            compact_ratio: 0.5,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::with_config(schema(), vec![zip_variable_pfd()], config);
        for i in 0..8 {
            let zip = format!("900{i:02}");
            engine.push_str_row([zip.as_str(), "Los Angeles"]).unwrap();
        }
        // Three deletes: 3/8 < 0.5, no compaction yet.
        for row in 0..3 {
            engine.delete_row(row).unwrap();
        }
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.row_count(), 8);
        // Fourth delete crosses 4/8 >= 0.5: compaction runs at the end
        // of the call, slots shrink to the live rows.
        engine.delete_row(3).unwrap();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.row_count(), 4);
        assert_eq!(engine.live_rows(), 4);
        assert_eq!(engine.compaction_stats().reclaimed_slots, 4);
        // Slots stay bounded by live rows for the rest of the run.
        assert!(engine.row_count() <= 2 * engine.live_rows());
    }

    #[test]
    fn auto_compaction_waits_for_the_batch_boundary() {
        let config = StreamConfig {
            compact_ratio: 0.3,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::with_config(schema(), vec![zip_variable_pfd()], config);
        let mut ops: Vec<RowOp> = (0..6)
            .map(|i| RowOp::Insert(vec![Value::text(format!("900{i:02}")), Value::text("LA")]))
            .collect();
        // Deletes address pre-batch id space even though the ratio
        // crosses the threshold partway through.
        ops.extend([RowOp::Delete(0), RowOp::Delete(2), RowOp::Delete(4)]);
        engine.apply(ops).unwrap();
        // One compaction, after the whole batch.
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.compaction_stats().epochs, 1);
        assert_eq!(engine.row_count(), 3);
        assert_eq!(engine.live_rows(), 3);
        assert_eq!(
            engine.table().cell_str(0, 0),
            Some("90001"),
            "survivors renumbered densely"
        );
    }

    #[test]
    fn deleted_witness_is_replaced_in_evidence() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        for (zip, city) in [
            ("90001", "Los Angeles"),
            ("90002", "Los Angeles"),
            ("90003", "New York"),
        ] {
            engine.push_str_row([zip, city]).unwrap();
        }
        let before = engine.ledger().snapshot();
        match &before[0].kind {
            ViolationKind::Variable { witnesses, .. } => assert_eq!(witnesses, &vec![0, 1]),
            other => panic!("unexpected {other:?}"),
        }
        // Deleting witness row 0 must rewrite the evidence, not dangle.
        let events = engine.delete_row(0).unwrap();
        assert_eq!(events.len(), 2, "retract + re-create with new witnesses");
        let after = engine.ledger().snapshot();
        assert_eq!(after.len(), 1);
        match &after[0].kind {
            ViolationKind::Variable { witnesses, .. } => assert_eq!(witnesses, &vec![1]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
