//! Indexing substrates for PFD discovery and error detection.
//!
//! Three access paths from §3 of the paper:
//!
//! * [`inverted`] — the hash-based inverted list `H` of the discovery
//!   algorithm (Figure 2, lines 4–12): LHS token/n-gram → postings of
//!   `(tuple id, LHS position, RHS token, RHS position)`, with per-entry
//!   support/confidence statistics that feed the decision function `f`;
//! * [`pattern_index`] — the "index supporting regular expressions for
//!   each column present on the LHS of the PFDs": distinct values are
//!   bucketed by pattern signature, and a pattern lookup prunes whole
//!   buckets via exact language-intersection tests before touching
//!   individual values;
//! * [`blocking`] — the blocking strategy (cf. BigDansing) that avoids the
//!   quadratic tuple-pair enumeration for variable PFDs: rows are grouped
//!   by their constrained-capture key, and pairs are enumerated within
//!   blocks only.
//!
//! [`trie`] provides the character trie the pattern index uses to
//! accelerate literal-prefix lookups.
//!
//! Both the inverted list and the blocking structures are built
//! incrementally: [`InvertedIndex::insert_row`] applies one row's
//! deltas in `O(keys per row)` with exact per-key [`EntryStats`]
//! increments (discovery only builds and inserts). The blocking
//! partition is also updatable in the other direction — mutable
//! streams, not just appends: [`BlockingPartition::insert`] /
//! [`BlockingPartition::remove`] touch exactly the affected block, with
//! an `O(1)` majority update per insert and a majority re-derivation
//! only when a removal dethrones the leader — the substrate of the
//! `anmat-stream` engine's variable-PFD delta pipeline.
//!
//! All three indexes key their maps on interned
//! [`ValueId`](anmat_table::ValueId)s from the global
//! [`ValuePool`](anmat_table::ValuePool): probes hash a 4-byte `Copy` id
//! under the vendored `FxHasher` rather than re-hashing strings, and
//! per-value work (pattern matching, capture extraction) is bounded by
//! the column's *distinct-value* count via id-keyed memos
//! ([`BlockingPartition::key_evals`] counts the actual evaluations).

pub mod blocking;
pub mod inverted;
pub mod pattern_index;
pub mod trie;

pub use blocking::{BlockingIndex, BlockingPartition, Blocks, KeyBlock, Placement};
pub use inverted::{EntryStats, ExtractionMode, InvertedIndex, Posting};
pub use pattern_index::PatternIndex;
pub use trie::CharTrie;
