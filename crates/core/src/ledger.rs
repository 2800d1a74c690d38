//! Live violation bookkeeping with retraction support.
//!
//! Batch detection recomputes the full violation set per call; an
//! append-only stream instead maintains a *ledger* of live violations.
//! New rows can both **create** violations and **retract** earlier ones —
//! a late burst of agreeing rows can flip a block's majority RHS, turning
//! yesterday's "error" into today's consensus — so the ledger tracks
//! every live violation with a reference count (two rules can imply the
//! same violation; it stays live until the last implier retracts it) and
//! running created/retracted totals for monitoring.
//!
//! Identity is *structural*: two violations are the same ledger entry iff
//! they are equal field for field (dependency, row, evidence, witnesses,
//! repair — everything). The live set is a hash map keyed by the boxed
//! violation itself, so a create or retract costs one structural hash
//! and one probe; nothing is serialized. The incremental engine retracts
//! exactly the objects it previously created, so structural identity is
//! both precise and cheap. Only [`ViolationLedger::snapshot`] imposes an
//! order, and it matches batch detection's output order.
//!
//! The ledger also participates in the **compaction remap protocol**:
//! when the backing table compacts (renumbering `RowId`s),
//! [`ViolationLedger::remap`] rewrites every live violation's row
//! references in place and adopts the remap's epoch. Event *history* is
//! never rewritten — each [`LedgerEvent`] carries the
//! [`epoch`](LedgerEvent::epoch) it was emitted in, so a consumer
//! replaying an event log knows which id space every row reference
//! lives in, and replay stays bit-exact across compactions.

use crate::detect::Violation;
use anmat_obs as obs;
use anmat_table::RowIdRemap;
use fxhash::FxHashMap;
use std::collections::hash_map::Entry;

/// What happened to a violation's liveness.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerChange {
    /// A violation became live.
    Created(Violation),
    /// A previously live violation was withdrawn (e.g. the block majority
    /// flipped, or its witnesses changed).
    Retracted(Violation),
}

/// A change to the set of live violations, stamped with the compaction
/// epoch it was emitted in.
///
/// Row ids inside the change are meaningful relative to `epoch`: a
/// compaction renumbers rows, remaps the *live* set silently (no
/// events), and bumps the ledger's epoch — so already-emitted events
/// keep their original ids and their original epoch stamp, verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    /// The ledger's compaction epoch at emission time (0 before any
    /// compaction).
    pub epoch: u64,
    /// The liveness change itself.
    pub change: LedgerChange,
}

impl LedgerEvent {
    /// The violation the event concerns.
    #[must_use]
    pub fn violation(&self) -> &Violation {
        match &self.change {
            LedgerChange::Created(v) | LedgerChange::Retracted(v) => v,
        }
    }

    /// Is this a creation?
    #[must_use]
    pub fn is_created(&self) -> bool {
        matches!(self.change, LedgerChange::Created(_))
    }
}

/// The set of currently live violations, keyed structurally, with
/// reference counts and lifetime counters.
#[derive(Debug, Default, Clone)]
pub struct ViolationLedger {
    /// Violation → refcount. Keys are boxed so an entry stays 16 bytes
    /// whatever the violation's size, and probed through `&Violation`.
    live: FxHashMap<Box<Violation>, usize>,
    created_total: usize,
    retracted_total: usize,
    /// Compaction epoch stamped onto emitted events; follows the backing
    /// table's epoch via [`ViolationLedger::remap`].
    epoch: u64,
}

impl ViolationLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> ViolationLedger {
        ViolationLedger::default()
    }

    /// Record a violation. Returns the `Created` event if it was not
    /// already live (otherwise only the reference count grows). Takes
    /// the violation boxed or unboxed; a box becomes the map key as is.
    pub fn create(&mut self, violation: impl Into<Box<Violation>>) -> Option<LedgerEvent> {
        match self.live.entry(violation.into()) {
            Entry::Occupied(mut entry) => {
                *entry.get_mut() += 1;
                None
            }
            Entry::Vacant(entry) => {
                let created = (**entry.key()).clone();
                entry.insert(1);
                self.created_total += 1;
                obs::counter!("ledger.created").incr();
                Some(LedgerEvent {
                    epoch: self.epoch,
                    change: LedgerChange::Created(created),
                })
            }
        }
    }

    /// Withdraw a violation. Returns the `Retracted` event once the last
    /// reference is gone; `None` if other rules still imply it (or it was
    /// never live).
    pub fn retract(&mut self, violation: &Violation) -> Option<LedgerEvent> {
        let (retracted, refcount) = self.live.remove_entry(violation)?;
        if refcount > 1 {
            // Another implier still holds it.
            self.live.insert(retracted, refcount - 1);
            return None;
        }
        self.retracted_total += 1;
        obs::counter!("ledger.retracted").incr();
        Some(LedgerEvent {
            epoch: self.epoch,
            change: LedgerChange::Retracted(*retracted),
        })
    }

    /// The ledger's current compaction epoch (0 before any
    /// [`ViolationLedger::remap`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Apply a compaction [`RowIdRemap`]: rewrite every *live*
    /// violation's row references (flagged row, witnesses, repair
    /// target) into the new id space and adopt the remap's epoch.
    ///
    /// Deliberately silent — no `Created`/`Retracted` events are
    /// emitted and the lifetime counters do not move, because no
    /// violation's liveness changed; only its coordinates did. Event
    /// history stays verbatim (see [`LedgerEvent::epoch`]). Reference
    /// counts survive: the remap is injective on live rows and touches
    /// nothing else, so distinct entries stay distinct.
    pub fn remap(&mut self, remap: &RowIdRemap) {
        self.epoch = remap.epoch();
        let old = std::mem::take(&mut self.live);
        self.live.reserve(old.len());
        for (mut v, refcount) in old {
            v.remap(remap);
            let prev = self.live.insert(v, refcount);
            debug_assert!(prev.is_none(), "remap is injective on live violations");
        }
    }

    /// The live violations, in unspecified order (see
    /// [`ViolationLedger::snapshot`] for a sorted copy).
    pub fn live(&self) -> impl Iterator<Item = &Violation> {
        self.live.keys().map(|v| &**v)
    }

    /// The live violations sorted like [`crate::detect_all`] output:
    /// `(row, dependency)` first, then the canonical JSON form for a
    /// total order. The JSON is computed only for entries that tie on
    /// `(row, dependency)`.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Violation> {
        let mut out: Vec<&Violation> = self.live().collect();
        out.sort_unstable_by(|a, b| (a.row, &a.dependency).cmp(&(b.row, &b.dependency)));
        for tied in out.chunk_by_mut(|a, b| a.row == b.row && a.dependency == b.dependency) {
            if tied.len() > 1 {
                tied.sort_by_cached_key(|v| {
                    serde_json::to_string(v).expect("violations serialize infallibly")
                });
            }
        }
        out.into_iter().cloned().collect()
    }

    /// Number of currently live violations.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Is the ledger empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Violations ever created (distinct live transitions).
    #[must_use]
    pub fn created_total(&self) -> usize {
        self.created_total
    }

    /// Violations ever retracted.
    #[must_use]
    pub fn retracted_total(&self) -> usize {
        self.retracted_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{Violation, ViolationKind};
    use proptest::prelude::*;

    fn violation(row: usize, expected: &str) -> Violation {
        Violation {
            dependency: "zip → city".into(),
            lhs_attr: "zip".into(),
            rhs_attr: "city".into(),
            row,
            lhs_value: "90004".into(),
            kind: ViolationKind::Constant {
                pattern: "900\\D{2}".into(),
                expected: expected.into(),
                found: Some("New York".into()),
            },
            repair: None,
        }
    }

    #[test]
    fn create_and_retract_roundtrip() {
        let mut ledger = ViolationLedger::new();
        let v = violation(3, "Los Angeles");
        let created = ledger.create(v.clone()).expect("fresh violation");
        assert!(created.is_created());
        assert_eq!(created.epoch, 0, "pre-compaction events carry epoch 0");
        assert_eq!(ledger.live_count(), 1);
        let retracted = ledger.retract(&v).expect("was live");
        assert!(!retracted.is_created());
        assert!(matches!(retracted.change, LedgerChange::Retracted(_)));
        assert!(ledger.is_empty());
        assert_eq!(ledger.created_total(), 1);
        assert_eq!(ledger.retracted_total(), 1);
    }

    #[test]
    fn refcount_suppresses_duplicate_events() {
        let mut ledger = ViolationLedger::new();
        let v = variable_violation(4, vec![1, 3]);
        assert!(ledger.create(v.clone()).is_some());
        // A second rule implying the identical violation (boxed, as the
        // stream engine hands it over): no new event.
        assert!(ledger.create(Box::new(v.clone())).is_none());
        assert_eq!(ledger.live_count(), 1);
        // Two creates need two retracts: the first leaves it live, the
        // second removes it and carries the violation.
        assert!(ledger.retract(&v).is_none());
        assert_eq!(ledger.live_count(), 1);
        let event = ledger.retract(&v).expect("last reference");
        assert_eq!(event.change, LedgerChange::Retracted(v));
        assert!(ledger.is_empty());
        assert_eq!(ledger.created_total(), 1);
        assert_eq!(ledger.retracted_total(), 1);
    }

    #[test]
    fn retract_unknown_is_noop() {
        let mut ledger = ViolationLedger::new();
        assert!(ledger.retract(&violation(9, "X")).is_none());
        assert_eq!(ledger.retracted_total(), 0);
    }

    #[test]
    fn double_retract_is_a_noop() {
        let mut ledger = ViolationLedger::new();
        let v = violation(3, "Los Angeles");
        ledger.create(v.clone());
        assert!(ledger.retract(&v).is_some());
        // A second retraction of the same violation must change nothing:
        // no event, no counter movement, no underflow.
        assert!(ledger.retract(&v).is_none());
        assert!(ledger.retract(&v).is_none());
        assert_eq!(ledger.retracted_total(), 1);
        assert_eq!(ledger.created_total(), 1);
        assert!(ledger.is_empty());
    }

    #[test]
    fn retract_then_recreate_yields_a_fresh_event() {
        let mut ledger = ViolationLedger::new();
        let v = violation(3, "Los Angeles");
        assert!(ledger.create(v.clone()).is_some_and(|e| e.is_created()));
        ledger.retract(&v).unwrap();
        // Re-creating after a full retraction is a new lifecycle: a
        // fresh Created event, and both lifetime counters advance.
        assert!(ledger.create(v.clone()).is_some_and(|e| e.is_created()));
        assert_eq!(ledger.created_total(), 2);
        assert_eq!(ledger.retracted_total(), 1);
        assert_eq!(ledger.live_count(), 1);
    }

    #[test]
    fn snapshot_sorted_by_row_then_dependency() {
        let mut ledger = ViolationLedger::new();
        ledger.create(violation(5, "A"));
        ledger.create(violation(1, "B"));
        ledger.create(violation(1, "A"));
        let rows: Vec<usize> = ledger.snapshot().iter().map(|v| v.row).collect();
        assert_eq!(rows, vec![1, 1, 5]);
    }

    #[test]
    fn distinct_violations_tracked_separately() {
        let mut ledger = ViolationLedger::new();
        ledger.create(violation(3, "Los Angeles"));
        ledger.create(violation(3, "San Diego"));
        assert_eq!(ledger.live_count(), 2);
    }

    /// A remap built from a real table compaction: slots 0 and 2 die, so
    /// survivors 1, 3, 4 become 0, 1, 2.
    fn sample_remap() -> anmat_table::RowIdRemap {
        use anmat_table::{Schema, Table, Value};
        let mut t = Table::empty(Schema::new(["a"]).unwrap());
        for i in 0..5 {
            t.push_row(vec![Value::text(format!("r{i}"))]).unwrap();
        }
        t.delete_row(0).unwrap();
        t.delete_row(2).unwrap();
        t.compact()
    }

    fn variable_violation(row: usize, witnesses: Vec<usize>) -> Violation {
        Violation {
            dependency: "zip → city".into(),
            lhs_attr: "zip".into(),
            rhs_attr: "city".into(),
            row,
            lhs_value: "90004".into(),
            kind: ViolationKind::Variable {
                pattern: "[\\D{3}]\\D{2}".into(),
                key: "900".into(),
                majority: "Los Angeles".into(),
                found: Some("New York".into()),
                witnesses,
            },
            repair: Some(crate::detect::Repair {
                row,
                attr: "city".into(),
                from: Some("New York".into()),
                to: "Los Angeles".into(),
            }),
        }
    }

    #[test]
    fn remap_rewrites_live_rows_witnesses_and_repairs() {
        let mut ledger = ViolationLedger::new();
        ledger.create(variable_violation(4, vec![1, 3]));
        ledger.create(violation(3, "Los Angeles"));
        ledger.remap(&sample_remap());
        assert_eq!(ledger.epoch(), 1);
        let snap = ledger.snapshot();
        assert_eq!(snap.len(), 2);
        // Constant violation on old row 3 → new row 1.
        assert_eq!(snap[0].row, 1);
        // Variable violation on old row 4 → new row 2, witnesses 1,3 →
        // 0,1, repair follows the flagged row.
        assert_eq!(snap[1].row, 2);
        match &snap[1].kind {
            ViolationKind::Variable { witnesses, .. } => assert_eq!(witnesses, &vec![0, 1]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(snap[1].repair.as_ref().unwrap().row, 2);
        // Liveness bookkeeping untouched: remap is silent.
        assert_eq!(ledger.created_total(), 2);
        assert_eq!(ledger.retracted_total(), 0);
        assert_eq!(ledger.live_count(), 2);
    }

    #[test]
    fn remap_preserves_refcounts_and_stamps_later_events() {
        let mut ledger = ViolationLedger::new();
        let v = violation(3, "Los Angeles");
        ledger.create(v.clone());
        ledger.create(v.clone()); // second implier: refcount 2
        ledger.remap(&sample_remap());
        // Retracting once keeps it live (refcount survived the remap) …
        let mut moved = violation(1, "Los Angeles");
        moved.repair = v.repair.clone();
        assert!(ledger.retract(&moved).is_none());
        assert_eq!(ledger.live_count(), 1);
        // … and the final retraction's event carries the new epoch.
        let ev = ledger.retract(&moved).expect("last refcount");
        assert_eq!(ev.epoch, 1);
        assert!(!ev.is_created());
        // New creations are stamped with the adopted epoch too.
        let ev = ledger.create(violation(0, "X")).expect("fresh");
        assert_eq!(ev.epoch, 1);
    }

    /// Violations over a small space, so that `(row, dependency)` ties
    /// (same row and rule, different evidence) are common.
    fn tied_violation() -> impl Strategy<Value = Violation> {
        (
            0usize..3,
            any::<bool>(),
            0u8..3,
            any::<bool>(),
            prop::collection::vec(0usize..4, 0..3),
            any::<bool>(),
        )
            .prop_map(|(row, state, value, variable, witnesses, repaired)| {
                let mut v = if variable {
                    variable_violation(row, witnesses)
                } else {
                    violation(row, &format!("city-{value}"))
                };
                if state {
                    v.dependency = "zip → state".into();
                    v.rhs_attr = "state".into();
                }
                v.lhs_value = format!("9000{value}");
                if !repaired {
                    v.repair = None;
                }
                v
            })
    }

    proptest! {
        /// `snapshot()` keeps the order of the JSON-keyed ledger it
        /// replaced: sorted by `(row, dependency, canonical JSON)`, with
        /// each distinct violation once however often it was created.
        #[test]
        fn snapshot_keeps_the_serialized_order(
            violations in prop::collection::vec(tied_violation(), 0..24)
        ) {
            let mut ledger = ViolationLedger::new();
            for v in &violations {
                ledger.create(v.clone());
            }
            let json = |v: &Violation| serde_json::to_string(v).unwrap();
            let mut expected: Vec<(String, Violation)> =
                violations.into_iter().map(|v| (json(&v), v)).collect();
            expected.sort_by(|(ka, a), (kb, b)| {
                a.row
                    .cmp(&b.row)
                    .then_with(|| a.dependency.cmp(&b.dependency))
                    .then_with(|| ka.cmp(kb))
            });
            expected.dedup_by(|a, b| a.0 == b.0);
            let expected: Vec<Violation> = expected.into_iter().map(|(_, v)| v).collect();
            prop_assert_eq!(ledger.snapshot(), expected);
        }
    }
}
