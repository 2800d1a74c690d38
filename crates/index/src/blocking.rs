//! Blocking for variable-PFD detection (§3 of the paper).
//!
//! A variable PFD (`tp[B] = ⊥`) is violated by a *pair* of tuples that
//! match `tp[A]`, agree on its constrained captures, and differ on `B`.
//! The brute-force check is quadratic; the paper avoids it "using
//! blocking" (citing BigDansing). Because
//! [`ConstrainedPattern::key`](anmat_pattern::ConstrainedPattern::key)
//! characterizes `≡_Q` exactly, grouping rows by key is a *lossless*
//! blocking scheme: every violating pair lies within one block, and the
//! pair enumeration cost drops from `O(n²)` to `Σ |block|²` — and further
//! to `O(n)` for the common case where each block's RHS is checked by
//! value counts rather than explicit pairs.
//!
//! Blocking keys and RHS values are interned [`ValueId`]s: capture
//! extraction (the hot cost) runs at most once per *distinct* LHS value
//! — the per-`(pattern, ValueId)` memo the incremental engine relies on —
//! and every map in this module hashes a 4-byte id instead of a string.

use crate::inverted::{sort_rhs_counts, EntryStats};
use anmat_obs as obs;
use anmat_pattern::{CompiledConstrained, ConstrainedPattern};
use anmat_table::{RowId, RowIdRemap, Table, ValueId, ValuePool};
use fxhash::FxHashMap;

/// Rows grouped by constrained-capture key.
#[derive(Debug)]
pub struct Blocks {
    /// Key → rows, sorted by resolved key string for determinism.
    pub blocks: Vec<(ValueId, Vec<RowId>)>,
    /// Rows whose LHS did not match the pattern at all.
    pub unmatched: Vec<RowId>,
    /// Rows with a null LHS.
    pub null_rows: Vec<RowId>,
}

impl Blocks {
    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total rows across blocks.
    #[must_use]
    pub fn matched_rows(&self) -> usize {
        self.blocks.iter().map(|(_, r)| r.len()).sum()
    }

    /// Number of within-block pairs (the work blocking actually does).
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|(_, r)| r.len() * (r.len().saturating_sub(1)) / 2)
            .sum()
    }

    /// Number of pairs brute force would enumerate over matched rows.
    #[must_use]
    pub fn brute_force_pair_count(&self) -> usize {
        let n = self.matched_rows();
        n * n.saturating_sub(1) / 2
    }
}

/// Builder for [`Blocks`].
#[derive(Debug)]
pub struct BlockingIndex;

impl BlockingIndex {
    /// Group the rows of column `col` by their constrained-capture key
    /// under `q`.
    #[must_use]
    pub fn block(table: &Table, col: usize, q: &ConstrainedPattern) -> Blocks {
        // The compiled keyer pays one compile for at most
        // `distinct(column)` span-VM extractions.
        let compiled = CompiledConstrained::compile(q);
        let mut key_buf = String::new();
        let mut map: FxHashMap<ValueId, Vec<RowId>> = FxHashMap::default();
        let mut unmatched = Vec::new();
        let mut null_rows = Vec::new();
        // Capture extraction runs once per distinct LHS value id.
        let mut key_cache: FxHashMap<ValueId, Option<ValueId>> = FxHashMap::default();
        for (row, v) in table.iter_column(col) {
            let Some(s) = v.as_str() else {
                null_rows.push(row);
                continue;
            };
            let key = key_cache.entry(v).or_insert_with(|| {
                compiled
                    .key_into(s, &mut key_buf)
                    .then(|| ValuePool::intern(&key_buf))
            });
            match key {
                Some(k) => map.entry(*k).or_default().push(row),
                None => unmatched.push(row),
            }
        }
        let mut blocks: Vec<(ValueId, Vec<RowId>)> = map.into_iter().collect();
        blocks.sort_by_cached_key(|(k, _)| k.render());
        Blocks {
            blocks,
            unmatched,
            null_rows,
        }
    }
}

/// One block of an incrementally maintained partition: the rows sharing a
/// key, their RHS values, and a delta-maintained RHS distribution.
///
/// Blocks are *mutable*: a removal (via
/// [`BlockingPartition::remove`]) is the exact inverse of an insert —
/// `O(1)` count decrements, with the majority re-derived (same
/// count-desc/string-asc tie-break, so interning-order-independent) only
/// when the removed value was the leader.
#[derive(Debug, Clone, Default)]
pub struct KeyBlock {
    /// Rows in ascending `RowId` order (updates can re-insert an old id,
    /// so inserts place at the sorted position — `O(1)` for the common
    /// append case where the id is the largest yet).
    rows: Vec<RowId>,
    /// RHS cell per row, parallel to `rows` ([`ValueId::NULL`] = null RHS).
    rhs: Vec<ValueId>,
    /// RHS value → row count (null tracked separately).
    counts: FxHashMap<ValueId, usize>,
    /// Rows whose RHS is null.
    null_rhs: usize,
    /// Incrementally maintained `(majority value, its count)`. Only the
    /// value whose count just grew can displace the current leader, so
    /// each insert updates this in `O(1)`; a removal re-derives it in
    /// `O(distinct RHS)` only when the leader's own count shrank.
    majority: Option<(ValueId, usize)>,
}

impl KeyBlock {
    /// The rows of this block, in ascending row order.
    #[must_use]
    pub fn rows(&self) -> &[RowId] {
        &self.rows
    }

    /// `(row, rhs)` pairs in ascending row order.
    pub fn rows_with_rhs(&self) -> impl Iterator<Item = (RowId, Option<&'static str>)> + '_ {
        self.rows_with_rhs_ids().map(|(r, v)| (r, v.as_str()))
    }

    /// `(row, rhs id)` pairs in ascending row order (the `Copy` hot path).
    pub fn rows_with_rhs_ids(&self) -> impl Iterator<Item = (RowId, ValueId)> + '_ {
        self.rows.iter().zip(&self.rhs).map(|(&r, &v)| (r, v))
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the block empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The majority RHS value (most rows; ties break to the
    /// lexicographically smallest value, matching batch detection). Null
    /// RHS cells never win the vote. `O(1)`: maintained per insert.
    #[must_use]
    pub fn majority(&self) -> Option<&'static str> {
        self.majority_id().and_then(ValueId::as_str)
    }

    /// The majority RHS value as an interned id.
    #[must_use]
    pub fn majority_id(&self) -> Option<ValueId> {
        self.majority.as_ref().map(|(v, _)| *v)
    }

    /// Does every non-null RHS cell agree (and no nulls dissent)?
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.counts.len() <= 1 && self.null_rhs == 0
    }

    /// The block's aggregate statistics, assembled from the maintained
    /// deltas in `O(distinct RHS values)`.
    #[must_use]
    pub fn stats(&self) -> EntryStats {
        let mut rhs_counts: Vec<(ValueId, usize)> =
            self.counts.iter().map(|(v, c)| (*v, *c)).collect();
        sort_rhs_counts(&mut rhs_counts);
        EntryStats {
            support: self.rows.len(),
            rhs_counts,
        }
    }

    fn push(&mut self, row: RowId, rhs: ValueId) {
        // Keep `rows` in ascending id order: appends land at the end in
        // `O(1)`; an update re-inserting an older id pays a binary
        // search + shift (`O(block)`, the same bound as a removal).
        match self.rows.last() {
            Some(&last) if last >= row => {
                let pos = self.rows.partition_point(|&r| r < row);
                self.rows.insert(pos, row);
                self.rhs.insert(pos, rhs);
            }
            _ => {
                self.rows.push(row);
                self.rhs.push(rhs);
            }
        }
        if rhs.is_null() {
            self.null_rhs += 1;
            return;
        }
        let count = self.counts.entry(rhs).or_insert(0);
        *count += 1;
        let count = *count;
        // Only `rhs` gained a row, so only `rhs` can displace the
        // leader; ties go to the lexicographically smaller value.
        match &mut self.majority {
            Some((leader, leader_count)) => {
                if count > *leader_count
                    || (count == *leader_count && rhs.render() < leader.render())
                {
                    *leader = rhs;
                    *leader_count = count;
                }
            }
            None => self.majority = Some((rhs, count)),
        }
    }

    /// Remove one row; returns its RHS id, or `None` if the row was not
    /// in this block. Count decrements are `O(1)`; the majority is
    /// re-derived (in `O(distinct RHS)`, with the same deterministic
    /// count-desc/string-asc tie-break as inserts and batch detection)
    /// only when the removed value was the current leader.
    fn remove(&mut self, row: RowId) -> Option<ValueId> {
        let pos = self.rows.binary_search(&row).ok()?;
        self.rows.remove(pos);
        let rhs = self.rhs.remove(pos);
        if rhs.is_null() {
            self.null_rhs -= 1;
            return Some(rhs);
        }
        let count = self
            .counts
            .get_mut(&rhs)
            .expect("non-null rhs was counted on insert");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&rhs);
        }
        // A non-leader losing a row can never change the vote; a leader
        // losing one can now be tied or beaten, so re-derive.
        if self.majority.map(|(leader, _)| leader) == Some(rhs) {
            self.majority = self
                .counts
                .iter()
                .map(|(v, c)| (*v, *c))
                .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.render().cmp(va.render())));
        }
        Some(rhs)
    }

    /// Rewrite the block's row ids through a compaction remap. The RHS
    /// column, counts, and majority are row-id-free and stay untouched;
    /// monotonicity keeps `rows` ascending (and `rhs` stays parallel
    /// because nothing is reordered).
    fn remap(&mut self, remap: &RowIdRemap) {
        remap.remap_sorted_in_place(&mut self.rows);
    }
}

/// Insert `row` into an ascending id list (`O(1)` for the append case).
fn insert_sorted(rows: &mut Vec<RowId>, row: RowId) {
    match rows.last() {
        Some(&last) if last >= row => {
            let pos = rows.partition_point(|&r| r < row);
            rows.insert(pos, row);
        }
        _ => rows.push(row),
    }
}

/// Remove `row` from an ascending id list (no-op if absent).
fn remove_sorted(rows: &mut Vec<RowId>, row: RowId) {
    if let Ok(pos) = rows.binary_search(&row) {
        rows.remove(pos);
    }
}

/// Where an inserted row landed in a [`BlockingPartition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The LHS matched; the row joined the block with this key.
    Block(ValueId),
    /// The LHS value did not match the pattern.
    Unmatched,
    /// The LHS cell was null.
    NullLhs,
}

/// An incrementally updatable blocking partition — the streaming
/// counterpart of [`BlockingIndex::block`].
///
/// Rows arrive one at a time via [`BlockingPartition::insert`] and leave
/// via [`BlockingPartition::remove`]; each op touches exactly one block
/// (`O(1)` amortized for appends, `O(affected block)` for removals and
/// out-of-order re-inserts — never `O(partition)`), and per-key
/// [`EntryStats`] deltas are maintained as rows come and go. `None` as
/// the keyer blocks on the whole LHS value (the wildcard-LHS fallback of
/// variable detection).
#[derive(Debug)]
pub struct BlockingPartition {
    /// The keyer, pre-compiled to span bytecode; `None` blocks on the
    /// whole LHS value.
    keyer: Option<CompiledConstrained>,
    /// Key-string scratch reused across extractions, so a cache miss
    /// allocates nothing beyond interning a genuinely new key.
    key_buf: String,
    blocks: FxHashMap<ValueId, KeyBlock>,
    unmatched: Vec<RowId>,
    null_rows: Vec<RowId>,
    /// LHS value id → key memo: the per-`(pattern, ValueId)` memo that
    /// bounds capture extraction to once per distinct LHS value.
    key_cache: FxHashMap<ValueId, Option<ValueId>>,
    /// Number of actual capture extractions performed (cache misses) —
    /// the call-counting test hook for the memoization guarantee.
    key_evals: usize,
    /// Number of key-cache consultations (hits + misses) — the
    /// denominator that turns `key_evals` into a hit rate.
    key_lookups: usize,
}

impl BlockingPartition {
    /// An empty partition keyed by the constrained captures of `q`, or by
    /// the whole LHS value when `q` is `None`.
    #[must_use]
    pub fn new(q: Option<ConstrainedPattern>) -> BlockingPartition {
        BlockingPartition {
            keyer: q.map(|q| CompiledConstrained::compile(&q)),
            key_buf: String::new(),
            blocks: FxHashMap::default(),
            unmatched: Vec::new(),
            null_rows: Vec::new(),
            key_cache: FxHashMap::default(),
            key_evals: 0,
            key_lookups: 0,
        }
    }

    /// Derive the blocking key for `lhs`. Counts one eval (in the
    /// program's `pattern.*_evals` tier counter) either way.
    fn derive_key(q: &CompiledConstrained, key_buf: &mut String, lhs: ValueId) -> Option<ValueId> {
        q.key_into(lhs.render(), key_buf)
            .then(|| ValuePool::intern(key_buf))
    }

    /// The memoized key of a non-null `lhs`: one lookup per call on a
    /// keyed partition, one extraction per distinct uncached value.
    /// `None` means the value does not match the pattern.
    fn key_of(&mut self, lhs: ValueId) -> Option<ValueId> {
        let Some(q) = &self.keyer else {
            return Some(lhs);
        };
        self.key_lookups += 1;
        *self.key_cache.entry(lhs).or_insert_with(|| {
            self.key_evals += 1;
            BlockingPartition::derive_key(q, &mut self.key_buf, lhs)
        })
    }

    /// Insert one row (interned cells). Appends (nondecreasing `RowId`)
    /// are `O(1)` amortized; re-inserting an older id — an update
    /// landing back on its slot — pays the affected block's shift cost.
    pub fn insert(&mut self, row: RowId, lhs: ValueId, rhs: ValueId) -> Placement {
        if lhs.is_null() {
            insert_sorted(&mut self.null_rows, row);
            return Placement::NullLhs;
        }
        match self.key_of(lhs) {
            Some(k) => {
                self.blocks.entry(k).or_default().push(row, rhs);
                Placement::Block(k)
            }
            None => {
                insert_sorted(&mut self.unmatched, row);
                Placement::Unmatched
            }
        }
    }

    /// Remove one row, given the LHS id it was inserted under — the exact
    /// inverse of [`BlockingPartition::insert`], same `Placement` answer.
    /// Cost is `O(affected block)`; empty blocks are dropped so
    /// [`BlockingPartition::freeze`] keeps agreeing with batch blocking.
    /// Each call counts one `index.remove`.
    pub fn remove(&mut self, row: RowId, lhs: ValueId) -> Placement {
        obs::counter!("index.remove").incr();
        if lhs.is_null() {
            remove_sorted(&mut self.null_rows, row);
            return Placement::NullLhs;
        }
        // The key cache is per distinct LHS value, so the entry from the
        // row's insert is still warm; a miss (possible only if the caller
        // never inserted this value) re-derives it.
        match self.key_of(lhs) {
            Some(k) => {
                if let Some(block) = self.blocks.get_mut(&k) {
                    block.remove(row);
                    if block.is_empty() {
                        self.blocks.remove(&k);
                    }
                }
                Placement::Block(k)
            }
            None => {
                remove_sorted(&mut self.unmatched, row);
                Placement::Unmatched
            }
        }
    }

    /// Batch-classify: derive and cache the blocking key for every
    /// *uncached* non-null LHS id in one tight pass, ahead of per-row
    /// inserts. Each new distinct id costs exactly the one extraction
    /// the lazy path would have paid on first sighting, so
    /// [`BlockingPartition::key_evals`] is invariant;
    /// [`BlockingPartition::key_lookups`] does not advance (priming is
    /// not a query — the per-row probes that follow count as usual, and
    /// hit).
    pub fn prime<I>(&mut self, ids: I)
    where
        I: IntoIterator<Item = ValueId>,
    {
        let Some(q) = &self.keyer else { return };
        for lhs in ids {
            if lhs.is_null() || self.key_cache.contains_key(&lhs) {
                continue;
            }
            self.key_evals += 1;
            let key = BlockingPartition::derive_key(q, &mut self.key_buf, lhs);
            self.key_cache.insert(lhs, key);
        }
    }

    /// Drop every key-cache entry whose LHS id *or* cached derived-key
    /// id satisfies `dead`, leaving counters and blocks untouched.
    ///
    /// The reclamation hook: when the pool frees a string, its id is
    /// recycled for a different string later. A cache entry keyed on a
    /// dead LHS would answer for the wrong value, and an entry whose
    /// *derived key* died would route a fresh row into a stale block —
    /// so the engine purges both at the epoch barrier that reclaims
    /// them. Blocks themselves never hold dead ids: live blocks pin
    /// their key and RHS ids through live table cells.
    pub fn purge_cached_keys(&mut self, mut dead: impl FnMut(ValueId) -> bool) {
        self.key_cache
            .retain(|&lhs, key| !dead(lhs) && !key.is_some_and(&mut dead));
    }

    /// Iterate the keys of all live blocks (arbitrary order) — the ids a
    /// reclamation sweep must keep alive.
    pub fn block_keys(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.blocks.keys().copied()
    }

    /// The block for a key, if any row produced it.
    #[must_use]
    pub fn block(&self, key: ValueId) -> Option<&KeyBlock> {
        self.blocks.get(&key)
    }

    /// The block for a key string, if any row produced it.
    #[must_use]
    pub fn block_by_str(&self, key: &str) -> Option<&KeyBlock> {
        self.blocks.get(&ValuePool::lookup(key)?)
    }

    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Rows whose LHS did not match the pattern.
    #[must_use]
    pub fn unmatched(&self) -> &[RowId] {
        &self.unmatched
    }

    /// Rows with a null LHS.
    #[must_use]
    pub fn null_rows(&self) -> &[RowId] {
        &self.null_rows
    }

    /// Number of actual capture extractions performed. Bounded by the
    /// number of distinct non-null LHS values inserted — the memoization
    /// guarantee's test hook.
    #[must_use]
    pub fn key_evals(&self) -> usize {
        self.key_evals
    }

    /// Number of key-cache consultations (hits + misses). Together with
    /// [`BlockingPartition::key_evals`] this yields the memo hit rate
    /// the observability layer reports.
    #[must_use]
    pub fn key_lookups(&self) -> usize {
        self.key_lookups
    }

    /// Apply a compaction [`RowIdRemap`] in place — the partition's side
    /// of the remap protocol.
    ///
    /// Block row lists, the unmatched list, and the null-LHS list are
    /// rewritten through the remap (monotone, so all three stay
    /// ascending). Everything value-keyed survives verbatim: the block
    /// map's keys, RHS counts, majorities, the key cache, and —
    /// critically — `key_evals`: compaction renumbers rows, it never
    /// re-extracts a capture, so the memoization counter must not move.
    pub fn apply_remap(&mut self, remap: &RowIdRemap) {
        for block in self.blocks.values_mut() {
            block.remap(remap);
        }
        remap.remap_sorted_in_place(&mut self.unmatched);
        remap.remap_sorted_in_place(&mut self.null_rows);
    }

    /// Snapshot into the batch [`Blocks`] shape (sorted keys), for parity
    /// checks against [`BlockingIndex::block`].
    #[must_use]
    pub fn freeze(&self) -> Blocks {
        let mut blocks: Vec<(ValueId, Vec<RowId>)> = self
            .blocks
            .iter()
            .map(|(k, b)| (*k, b.rows.clone()))
            .collect();
        blocks.sort_by_cached_key(|(k, _)| k.render());
        Blocks {
            blocks,
            unmatched: self.unmatched.clone(),
            null_rows: self.null_rows.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_table::Schema;

    fn name_table() -> Table {
        let schema = Schema::new(["name"]).unwrap();
        Table::from_str_rows(
            schema,
            [
                ["John Charles"],
                ["John Bosco"],
                ["Susan Orlean"],
                ["Susan Boyle"],
                ["lowercase name"],
                [""],
            ],
        )
        .unwrap()
    }

    fn q_first_name() -> ConstrainedPattern {
        "[\\LU\\LL*\\ ]\\A*".parse().unwrap()
    }

    fn id(s: &str) -> ValueId {
        ValuePool::intern(s)
    }

    #[test]
    fn blocks_group_by_first_name() {
        let blocks = BlockingIndex::block(&name_table(), 0, &q_first_name());
        assert_eq!(blocks.block_count(), 2);
        assert_eq!(blocks.blocks[0].0.as_str(), Some("John "));
        assert_eq!(blocks.blocks[0].1, vec![0, 1]);
        assert_eq!(blocks.blocks[1].0.as_str(), Some("Susan "));
        assert_eq!(blocks.blocks[1].1, vec![2, 3]);
        assert_eq!(blocks.unmatched, vec![4]);
        assert_eq!(blocks.null_rows, vec![5]);
    }

    #[test]
    fn pair_counts() {
        let blocks = BlockingIndex::block(&name_table(), 0, &q_first_name());
        // 2 blocks of 2 rows: 1 pair each.
        assert_eq!(blocks.pair_count(), 2);
        // Brute force over 4 matched rows: 6 pairs.
        assert_eq!(blocks.brute_force_pair_count(), 6);
        assert_eq!(blocks.matched_rows(), 4);
    }

    #[test]
    fn zip_prefix_blocking() {
        let schema = Schema::new(["zip"]).unwrap();
        let t = Table::from_str_rows(schema, [["90001"], ["90002"], ["90101"], ["60601"]]).unwrap();
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let blocks = BlockingIndex::block(&t, 0, &q);
        let keys: Vec<&str> = blocks.blocks.iter().map(|(k, _)| k.render()).collect();
        assert_eq!(keys, vec!["606", "900", "901"]);
        assert_eq!(blocks.blocks[1].1, vec![0, 1]);
    }

    #[test]
    fn duplicate_values_share_cache() {
        let schema = Schema::new(["x"]).unwrap();
        let t = Table::from_str_rows(schema, [["ab"], ["ab"], ["ab"]]).unwrap();
        let q = ConstrainedPattern::whole("\\LL+".parse().unwrap());
        let blocks = BlockingIndex::block(&t, 0, &q);
        assert_eq!(blocks.block_count(), 1);
        assert_eq!(blocks.blocks[0].1.len(), 3);
        assert_eq!(blocks.pair_count(), 3);
    }

    #[test]
    fn all_unmatched() {
        let schema = Schema::new(["x"]).unwrap();
        let t = Table::from_str_rows(schema, [["123"], ["456"]]).unwrap();
        let q = ConstrainedPattern::whole("\\LL+".parse().unwrap());
        let blocks = BlockingIndex::block(&t, 0, &q);
        assert_eq!(blocks.block_count(), 0);
        assert_eq!(blocks.unmatched.len(), 2);
    }

    #[test]
    fn partition_matches_batch_blocking() {
        let t = name_table();
        let q = q_first_name();
        let batch = BlockingIndex::block(&t, 0, &q);
        let mut partition = BlockingPartition::new(Some(q.clone()));
        for (row, v) in t.iter_column(0) {
            partition.insert(row, v, ValueId::NULL);
        }
        let frozen = partition.freeze();
        assert_eq!(frozen.blocks, batch.blocks);
        assert_eq!(frozen.unmatched, batch.unmatched);
        assert_eq!(frozen.null_rows, batch.null_rows);
    }

    #[test]
    fn partition_tracks_rhs_deltas() {
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut p = BlockingPartition::new(Some(q));
        assert_eq!(
            p.insert(0, id("90001"), id("Los Angeles")),
            Placement::Block(id("900"))
        );
        p.insert(1, id("90002"), id("Los Angeles"));
        p.insert(2, id("90003"), id("New York"));
        p.insert(3, id("90004"), ValueId::NULL);
        let block = p.block_by_str("900").unwrap();
        assert_eq!(block.len(), 4);
        assert_eq!(block.majority(), Some("Los Angeles"));
        assert!(!block.is_consistent());
        let stats = block.stats();
        assert_eq!(stats.support, 4);
        assert_eq!(stats.rhs_counts[0], (id("Los Angeles"), 2));
        // Majority tie breaks to the lexicographically smaller value,
        // matching batch detection's vote.
        p.insert(4, id("90005"), id("New York"));
        assert_eq!(
            p.block_by_str("900").unwrap().majority(),
            Some("Los Angeles")
        );
    }

    #[test]
    fn whole_value_partition() {
        let mut p = BlockingPartition::new(None);
        p.insert(0, id("x"), id("1"));
        p.insert(1, id("x"), id("2"));
        p.insert(2, ValueId::NULL, id("3"));
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.block_by_str("x").unwrap().rows(), &[0, 1]);
        assert_eq!(p.null_rows(), &[2]);
        let pairs: Vec<_> = p.block_by_str("x").unwrap().rows_with_rhs().collect();
        assert_eq!(pairs, vec![(0, Some("1")), (1, Some("2"))]);
    }

    #[test]
    fn key_evals_bounded_by_distinct_values() {
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut p = BlockingPartition::new(Some(q));
        // 1000 rows over 10 distinct zips: capture extraction must run
        // exactly 10 times.
        for row in 0..1000 {
            let zip = format!("900{:02}", row % 10);
            p.insert(row, id(&zip), id("LA"));
        }
        assert_eq!(p.key_evals(), 10);
    }

    #[test]
    fn prime_counts_like_lazy_misses() {
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut lazy = BlockingPartition::new(Some(q.clone()));
        let mut primed = BlockingPartition::new(Some(q));
        let zips: Vec<ValueId> = (0..10).map(|i| id(&format!("900{i:02}"))).collect();
        primed.prime(zips.iter().copied().chain([ValueId::NULL, id("bad")]));
        for row in 0..1000u32 {
            let lhs = zips[(row % 10) as usize];
            lazy.insert(row as RowId, lhs, id("LA"));
            primed.insert(row as RowId, lhs, id("LA"));
        }
        // Priming evaluated each distinct id once (plus the unmatched
        // one); the lazy twin pays the same evals for the zips on first
        // sighting. Lookup counts agree exactly.
        assert_eq!(lazy.key_evals(), 10);
        assert_eq!(primed.key_evals(), 11);
        assert_eq!(lazy.key_lookups(), primed.key_lookups());
        let (a, b) = (lazy.freeze(), primed.freeze());
        assert_eq!(a.blocks, b.blocks);
    }

    #[test]
    fn keys_match_the_interpreted_oracle() {
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut p = BlockingPartition::new(Some(q.clone()));
        for row in 0..100u32 {
            let s = if row % 9 == 0 {
                format!("9x{:03}", row % 7)
            } else {
                format!("{:03}{:02}", row % 5 * 100, row % 7)
            };
            let expected = match q.key(&s) {
                Some(k) => Placement::Block(id(&k)),
                None => Placement::Unmatched,
            };
            assert_eq!(p.insert(row as RowId, id(&s), id("LA")), expected, "{s}");
        }
    }

    #[test]
    fn remove_is_inverse_of_insert() {
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut p = BlockingPartition::new(Some(q.clone()));
        p.insert(0, id("90001"), id("Los Angeles"));
        p.insert(1, id("90002"), id("New York"));
        p.insert(2, id("90003"), id("Los Angeles"));
        assert_eq!(p.remove(1, id("90002")), Placement::Block(id("900")));
        let block = p.block_by_str("900").unwrap();
        assert_eq!(block.rows(), &[0, 2]);
        assert_eq!(block.majority(), Some("Los Angeles"));
        assert!(block.is_consistent());
        let stats = block.stats();
        assert_eq!(stats.support, 2);
        assert_eq!(stats.rhs_counts, vec![(id("Los Angeles"), 2)]);
        // Draining the block drops it entirely (freeze parity with batch).
        p.remove(0, id("90001"));
        p.remove(2, id("90003"));
        assert_eq!(p.block_count(), 0);
        assert!(p.block_by_str("900").is_none());
    }

    #[test]
    fn remove_tracks_unmatched_and_null_rows() {
        let q = ConstrainedPattern::whole("\\LL+".parse().unwrap());
        let mut p = BlockingPartition::new(Some(q));
        p.insert(0, id("123"), id("x"));
        p.insert(1, ValueId::NULL, id("y"));
        p.insert(2, id("abc"), id("z"));
        assert_eq!(p.remove(0, id("123")), Placement::Unmatched);
        assert_eq!(p.remove(1, ValueId::NULL), Placement::NullLhs);
        assert!(p.unmatched().is_empty());
        assert!(p.null_rows().is_empty());
        assert_eq!(p.block_count(), 1);
    }

    #[test]
    fn reinserting_an_old_row_id_keeps_row_order() {
        // An update = remove + re-insert on the same slot: the block's
        // row list must stay ascending so witnesses match batch order.
        let mut p = BlockingPartition::new(None);
        for row in 0..5 {
            p.insert(row, id("k"), id("v1"));
        }
        p.remove(2, id("k"));
        p.insert(2, id("k"), id("v2"));
        let block = p.block_by_str("k").unwrap();
        assert_eq!(block.rows(), &[0, 1, 2, 3, 4]);
        let pairs: Vec<_> = block.rows_with_rhs().collect();
        assert_eq!(pairs[2], (2, Some("v2")));
        assert_eq!(block.majority(), Some("v1"));
    }

    #[test]
    fn majority_reelected_after_leader_removal() {
        let mut p = BlockingPartition::new(None);
        p.insert(0, id("k"), id("alpha"));
        p.insert(1, id("k"), id("alpha"));
        p.insert(2, id("k"), id("alpha"));
        p.insert(3, id("k"), id("beta"));
        p.insert(4, id("k"), id("beta"));
        assert_eq!(p.block_by_str("k").unwrap().majority(), Some("alpha"));
        // Two leader removals: 1–2, beta takes over.
        p.remove(0, id("k"));
        p.remove(1, id("k"));
        let block = p.block_by_str("k").unwrap();
        assert_eq!(block.majority(), Some("beta"));
        assert_eq!(block.majority_id().and_then(ValueId::as_str), Some("beta"));
        // Removing the last alpha leaves a consistent beta block.
        p.remove(2, id("k"));
        assert!(p.block_by_str("k").unwrap().is_consistent());
    }

    #[test]
    fn null_rhs_removal_decrements_without_vote_change() {
        let mut p = BlockingPartition::new(None);
        p.insert(0, id("k"), id("v"));
        p.insert(1, id("k"), ValueId::NULL);
        assert!(!p.block_by_str("k").unwrap().is_consistent());
        p.remove(1, id("k"));
        let block = p.block_by_str("k").unwrap();
        assert!(block.is_consistent());
        assert_eq!(block.majority(), Some("v"));
        assert_eq!(block.len(), 1);
    }

    /// Satellite: `majority`/`majority_id` must stay in lockstep after
    /// decrements too, and a deletion-induced tie must elect the
    /// count-desc/string-asc winner regardless of interning (= arrival)
    /// order.
    #[test]
    fn majority_tie_after_deletions_is_interning_order_independent() {
        for (first, second) in [("m-del-tie", "b-del-tie"), ("b-del-tie", "m-del-tie")] {
            let mut p = BlockingPartition::new(None);
            // 3 × first vs 2 × second: `first` leads outright.
            for (row, v) in [(0, first), (1, first), (2, first), (3, second), (4, second)] {
                p.insert(row, id("k"), id(v));
            }
            assert_eq!(p.block_by_str("k").unwrap().majority(), Some(first));
            // Delete one leader row: 2–2 tie → lexicographically smaller
            // string wins, in both interning orders.
            p.remove(0, id("k"));
            let block = p.block_by_str("k").unwrap();
            assert_eq!(block.majority(), Some("b-del-tie"));
            assert_eq!(
                block.majority_id().and_then(ValueId::as_str),
                block.majority(),
                "majority and majority_id must agree after decrements"
            );
            // And the derived stats order agrees with the vote.
            assert_eq!(block.stats().rhs_counts[0].0, id("b-del-tie"));
        }
    }

    /// The remap protocol: removing the deleted rows, compacting the
    /// table, and applying the remap must leave the partition identical
    /// to one built fresh from the compacted table — with zero new
    /// capture extractions.
    #[test]
    fn apply_remap_matches_partition_over_compacted_table() {
        let schema = Schema::new(["zip", "city"]).unwrap();
        let mut t = Table::from_str_rows(
            schema,
            [
                ["90001", "Los Angeles"],
                ["90002", "New York"],
                ["90101", "Pasadena"],
                ["bad-zip", "Nowhere"],
                ["", "Null Town"],
                ["90003", "Los Angeles"],
            ],
        )
        .unwrap();
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut p = BlockingPartition::new(Some(q.clone()));
        for (row, v) in t.iter_column(0) {
            p.insert(row, v, t.cell_id(row, 1));
        }
        // Delete rows 1 (a block member) and 3 (unmatched): partition
        // first, then table, then compact + remap.
        p.remove(1, t.cell_id(1, 0));
        p.remove(3, t.cell_id(3, 0));
        t.delete_row(1).unwrap();
        t.delete_row(3).unwrap();
        let evals_before = p.key_evals();
        let remap = t.compact();
        p.apply_remap(&remap);
        assert_eq!(
            p.key_evals(),
            evals_before,
            "remap must not re-extract captures"
        );

        let mut fresh = BlockingPartition::new(Some(q));
        for (row, v) in t.iter_column(0) {
            fresh.insert(row, v, t.cell_id(row, 1));
        }
        let (a, b) = (p.freeze(), fresh.freeze());
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.unmatched, b.unmatched);
        assert_eq!(a.null_rows, b.null_rows);
        // Per-block stats survived the renumbering untouched.
        let block = p.block_by_str("900").unwrap();
        assert_eq!(block.majority(), Some("Los Angeles"));
        assert_eq!(block.stats(), fresh.block_by_str("900").unwrap().stats());
    }

    #[test]
    fn majority_tie_deterministic_under_any_arrival_order() {
        // A 2–2 tie must elect the lexicographically smaller string in
        // both arrival orders (and hence both interning orders).
        for (first, second) in [("m-tie", "b-tie"), ("b-tie", "m-tie")] {
            let mut p = BlockingPartition::new(None);
            p.insert(0, id("k"), id(first));
            p.insert(1, id("k"), id(second));
            p.insert(2, id("k"), id(first));
            p.insert(3, id("k"), id(second));
            assert_eq!(p.block_by_str("k").unwrap().majority(), Some("b-tie"));
        }
    }
}
