//! Pattern → bytecode compilation and execution-tier selection.
//!
//! The AST interpreter in [`crate::matcher`] re-derives everything per
//! evaluation: it decodes the value into a `Vec<char>`, consults the
//! [`SymbolClass`] enum per character, and runs a dynamic program whose
//! tables are sized per call. A tableau pattern, however, is evaluated
//! against *millions* of cells over its lifetime — so [`CompiledPattern`]
//! does the per-pattern work exactly once:
//!
//! * each element becomes one flat [`Op`] (literal byte / exact class
//!   count / unbounded at-least / bounded range), so dispatch is a small
//!   `match` on a copy-sized struct instead of pointer-chasing the AST;
//! * each class is precomputed into a [`ClassSet`]: a 128-bit ASCII
//!   membership bitset ([`AsciiSet`], scanned 8 bytes per step by
//!   [`crate::scan`]) plus a constant-size *spillover* descriptor that
//!   resolves codepoints ≥ 128 against lazily built sorted range tables
//!   — so the compiled tiers are exact on **any** UTF-8 input and the
//!   AST interpreter is never consulted on the hot path;
//! * at compile time the program is probed for backtrack-freedom
//!   (`fuse::plan`): when every op is fixed-width, or exactly
//!   one op is variable-width (its run length is then forced by the
//!   input length), the pattern is eligible for the **fused** one-pass
//!   matcher — no backtrack stack, no visited set, inline span capture;
//! * everything else runs on the non-recursive backtracking VM
//!   ([`crate::vm`]) — no `Vec<char>` collection, no recursion, scratch
//!   reused thread-locally.
//!
//! The tier is a property of the compiled program, not a run-time
//! choice: fused when the pattern proved fusible, the VM otherwise. The
//! AST interpreter ([`crate::matcher`]) is the property-tested semantic
//! oracle the compiled tiers are checked against; production evaluation
//! reaches it only for inputs of 4 GiB or more, which the VM's `u32`
//! frame fields cannot address. The split is observable as the
//! `pattern.fused_evals` / `pattern.vm_evals` / `pattern.interp_evals`
//! counters, and compilation time itself lands in the
//! `pattern.compile_ns` histogram.

use crate::ast::Pattern;
use crate::constrained::ConstrainedPattern;
use crate::fuse::{self, FusePlan};
use crate::matcher::MatchSpans;
use crate::scan::{self, ScanKind};
use crate::symbol::SymbolClass;
use crate::vm;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Precomputed ASCII membership set for one symbol class: bit `b` is set
/// iff the class matches the character with code point `b` (`b < 128`).
/// The word-scan shape ([`ScanKind`]) is classified once here so run
/// scans dispatch without re-inspecting the bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsciiSet {
    bits: [u64; 2],
    kind: ScanKind,
}

impl AsciiSet {
    /// The exact ASCII slice of `class.matches(..)`.
    #[must_use]
    pub fn of_class(class: SymbolClass) -> AsciiSet {
        let mut bits = [0u64; 2];
        for b in 0u8..128 {
            if class.matches(b as char) {
                bits[usize::from(b >> 6)] |= 1u64 << (b & 63);
            }
        }
        let kind = scan::classify(&bits);
        AsciiSet { bits, kind }
    }

    /// Does the set contain the (ASCII) byte `b`?
    #[inline]
    #[must_use]
    pub fn contains(&self, b: u8) -> bool {
        debug_assert!(b < 128);
        (self.bits[usize::from(b >> 6)] >> (b & 63)) & 1 != 0
    }

    /// The set's word-scan shape, precomputed at construction.
    #[inline]
    #[must_use]
    pub fn kind(&self) -> ScanKind {
        self.kind
    }
}

/// How a class behaves on codepoints ≥ 128 — the constant-size
/// spillover descriptor that extends each [`AsciiSet`] to full UTF-8.
///
/// Only `Upper` / `Lower` need real tables (`\D` is ASCII-only in the
/// generalization tree, and `\S` is exactly "neither upper nor lower"
/// beyond ASCII — see [`SymbolClass::class_of`]); those tables are
/// sorted `(lo, hi)` codepoint ranges built lazily at first use by one
/// sweep of `SymbolClass::matches` over the supplementary planes, so
/// the spillover can never drift from the oracle's semantics and
/// `pattern.compile_ns` stays free of the one-time sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spill {
    /// No codepoint ≥ 128 matches (`\D`, ASCII literals).
    None,
    /// Every codepoint matches (`\A`).
    All,
    /// Exactly this (non-ASCII) literal matches.
    Char(char),
    /// Non-ASCII uppercase letters (the `\LU` range table).
    Upper,
    /// Non-ASCII lowercase letters (the `\LL` range table).
    Lower,
    /// Everything that is neither upper nor lower (`\S` beyond ASCII —
    /// including non-ASCII digits, which `\D` deliberately excludes).
    NonAlpha,
}

/// Sorted non-ASCII codepoint ranges matching `class`, built by one
/// sweep over `0x80..=0x10FFFF` against the oracle's `matches`.
fn sweep_ranges(class: SymbolClass) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut start: Option<u32> = None;
    for cp in 0x80..=0x10FFFF_u32 {
        let matched = char::from_u32(cp).is_some_and(|c| class.matches(c));
        match (matched, start) {
            (true, None) => start = Some(cp),
            (false, Some(s)) => {
                ranges.push((s, cp - 1));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        ranges.push((s, 0x10FFFF));
    }
    ranges
}

fn upper_ranges() -> &'static [(u32, u32)] {
    static RANGES: OnceLock<Vec<(u32, u32)>> = OnceLock::new();
    RANGES.get_or_init(|| sweep_ranges(SymbolClass::Upper))
}

fn lower_ranges() -> &'static [(u32, u32)] {
    static RANGES: OnceLock<Vec<(u32, u32)>> = OnceLock::new();
    RANGES.get_or_init(|| sweep_ranges(SymbolClass::Lower))
}

/// Binary-search membership in a sorted, disjoint range table.
#[inline]
fn in_ranges(ranges: &[(u32, u32)], cp: u32) -> bool {
    let i = ranges.partition_point(|&(_, hi)| hi < cp);
    ranges.get(i).is_some_and(|&(lo, _)| lo <= cp)
}

/// Full-UTF-8 membership set for one symbol class: the 128-bit ASCII
/// bitset plus the ≥ 128 spillover. `Copy`, 24 bytes — ops embed it
/// inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSet {
    ascii: AsciiSet,
    spill: Spill,
}

impl ClassSet {
    /// The exact membership set of `class.matches(..)` over all of
    /// Unicode.
    #[must_use]
    pub fn of_class(class: SymbolClass) -> ClassSet {
        let spill = match class {
            SymbolClass::Literal(c) if c.is_ascii() => Spill::None,
            SymbolClass::Literal(c) => Spill::Char(c),
            SymbolClass::Upper => Spill::Upper,
            SymbolClass::Lower => Spill::Lower,
            SymbolClass::Digit => Spill::None,
            SymbolClass::Symbol => Spill::NonAlpha,
            SymbolClass::Any => Spill::All,
        };
        ClassSet {
            ascii: AsciiSet::of_class(class),
            spill,
        }
    }

    /// The ASCII half (what the byte-level scans run on).
    #[inline]
    #[must_use]
    pub fn ascii(&self) -> &AsciiSet {
        &self.ascii
    }

    /// Does the set contain `c`? Exact for every `char` — ASCII through
    /// the bitset, the rest through the spillover.
    #[inline]
    #[must_use]
    pub fn contains_char(&self, c: char) -> bool {
        if c.is_ascii() {
            return self.ascii.contains(c as u8);
        }
        match self.spill {
            Spill::None => false,
            Spill::All => true,
            Spill::Char(l) => c == l,
            Spill::Upper => in_ranges(upper_ranges(), c as u32),
            Spill::Lower => in_ranges(lower_ranges(), c as u32),
            Spill::NonAlpha => {
                let cp = c as u32;
                !in_ranges(upper_ranges(), cp) && !in_ranges(lower_ranges(), cp)
            }
        }
    }

    /// Longest run of member *characters* from byte `pos` (a char
    /// boundary), capped at `limit` chars. Returns `(chars, end byte)`.
    /// ASCII stretches go through the SWAR scanner; non-ASCII chars are
    /// decoded one at a time against the spillover.
    pub(crate) fn run_chars(&self, s: &str, pos: usize, limit: usize) -> (usize, usize) {
        let bytes = s.as_bytes();
        let mut chars = 0usize;
        let mut p = pos;
        while chars < limit && p < bytes.len() {
            if bytes[p] < 0x80 {
                let cap = (limit - chars).min(bytes.len() - p);
                let k = scan::run_len(&self.ascii, bytes, p, cap);
                if k == 0 {
                    break;
                }
                chars += k;
                p += k;
                // A short run stopped at a mismatch: an ASCII mismatch
                // ends the run; a high byte hands over to the spillover.
                if k < cap && bytes[p] < 0x80 {
                    break;
                }
            } else {
                let c = s[p..].chars().next().expect("pos is a char boundary");
                if !self.contains_char(c) {
                    break;
                }
                chars += 1;
                p += c.len_utf8();
            }
        }
        (chars, p)
    }
}

/// One bytecode instruction. Each pattern element compiles to exactly one
/// op; the quantifier's shape picks the variant, so the VM's dispatch
/// mirrors what the element can actually do (fixed ops never backtrack,
/// variable ops carry their repetition interval inline). Repetition
/// counts are **characters** (= bytes only on ASCII input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Exactly one occurrence of one ASCII byte — the literal fast path.
    Byte(u8),
    /// Exactly `n` occurrences of the class (`One` / `Exactly`).
    Exact {
        /// Membership set of the element's class.
        set: ClassSet,
        /// Required repetition count.
        n: u32,
    },
    /// `min` or more occurrences, unbounded (`Star` / `Plus` / `AtLeast`).
    AtLeast {
        /// Membership set of the element's class.
        set: ClassSet,
        /// Minimum repetition count (0 for `Star`).
        min: u32,
    },
    /// Between `min` and `max` occurrences inclusive (`Range`).
    Range {
        /// Membership set of the element's class.
        set: ClassSet,
        /// Minimum repetition count.
        min: u32,
        /// Maximum repetition count.
        max: u32,
    },
}

impl Op {
    /// The op's repetition interval `(min, max)`; `None` max = unbounded.
    #[inline]
    #[must_use]
    pub fn interval(&self) -> (u32, Option<u32>) {
        match *self {
            Op::Byte(_) => (1, Some(1)),
            Op::Exact { n, .. } => (n, Some(n)),
            Op::AtLeast { min, .. } => (min, None),
            Op::Range { min, max, .. } => (min, Some(max)),
        }
    }

    /// Is the op's width determined (`min == max`)?
    #[inline]
    #[must_use]
    pub fn is_fixed(&self) -> bool {
        let (min, max) = self.interval();
        max == Some(min)
    }
}

/// The tier that runs one evaluation, as `CompiledPattern::pick` chose it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Interp,
    Vm,
    Fused,
}

/// A [`Pattern`] compiled to flat bytecode, with the fused-tier plan
/// probed up front and the source AST retained for the ≥ 4 GiB
/// interpreter fallback.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    ops: Vec<Op>,
    min_len: usize,
    max_len: Option<usize>,
    fused: Option<FusePlan>,
    source: Pattern,
}

impl CompiledPattern {
    /// Compile `pattern` into bytecode. The cost is `O(|P|)` plus one
    /// 128-entry class sweep per element, paid once per tableau pattern
    /// (recorded in the `pattern.compile_ns` histogram).
    #[must_use]
    pub fn compile(pattern: &Pattern) -> CompiledPattern {
        let _span = anmat_obs::span!("pattern.compile_ns");
        let ops: Vec<Op> = pattern
            .elements()
            .iter()
            .map(|e| {
                let (min, max) = e.quant.interval();
                match (e.class, min, max) {
                    (SymbolClass::Literal(c), 1, Some(1)) if c.is_ascii() => Op::Byte(c as u8),
                    (class, min, Some(max)) if min == max => Op::Exact {
                        set: ClassSet::of_class(class),
                        n: min,
                    },
                    (class, min, None) => Op::AtLeast {
                        set: ClassSet::of_class(class),
                        min,
                    },
                    (class, min, Some(max)) => Op::Range {
                        set: ClassSet::of_class(class),
                        min,
                        max,
                    },
                }
            })
            .collect();
        let fused = fuse::plan(&ops);
        CompiledPattern {
            ops,
            min_len: pattern.min_len(),
            max_len: pattern.max_len(),
            fused,
            source: pattern.clone(),
        }
    }

    /// The compiled instruction sequence.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The pattern this program was compiled from.
    #[must_use]
    pub fn source(&self) -> &Pattern {
        &self.source
    }

    /// Did compilation prove the pattern backtrack-free (so it runs on
    /// the single-pass fused matcher rather than the VM)?
    #[must_use]
    pub fn is_fused(&self) -> bool {
        self.fused.is_some()
    }

    /// The same program with the fused plan dropped, so every evaluation
    /// runs on the backtracking VM. Differential tests and benches use
    /// it to exercise the VM on fusible patterns.
    #[doc(hidden)]
    #[must_use]
    pub fn vm_only(mut self) -> Self {
        self.fused = None;
        self
    }

    /// Does `s` match the pattern? (Anchored; identical to
    /// [`Pattern::matches`].) Exactly one
    /// `pattern.{fused,vm,interp}_evals` counter ticks per call.
    #[must_use]
    pub fn matches(&self, s: &str) -> bool {
        match self.pick(s) {
            Tier::Interp => {
                anmat_obs::counter!("pattern.interp_evals").incr();
                crate::matcher::match_pattern(&self.source, s)
            }
            Tier::Vm => {
                anmat_obs::counter!("pattern.vm_evals").incr();
                self.exec(s, None, false)
            }
            Tier::Fused => {
                anmat_obs::counter!("pattern.fused_evals").incr();
                self.exec(s, None, true)
            }
        }
    }

    /// Match and recover per-element spans under leftmost-greedy
    /// semantics — identical to [`crate::matcher::match_spans`]
    /// (**character** indices on every tier and every input).
    #[must_use]
    pub fn spans(&self, s: &str) -> Option<MatchSpans> {
        match self.pick(s) {
            Tier::Interp => {
                anmat_obs::counter!("pattern.interp_evals").incr();
                crate::matcher::match_spans(&self.source, s)
            }
            tier => {
                let fused = tier == Tier::Fused;
                anmat_obs::counter!(if fused {
                    "pattern.fused_evals"
                } else {
                    "pattern.vm_evals"
                })
                .incr();
                let mut spans = Vec::new();
                self.exec(s, Some(&mut spans), fused).then(|| MatchSpans {
                    spans: byte_spans_to_char(s, spans),
                })
            }
        }
    }

    /// The tier that evaluates `s`: fused for fusible programs, the VM
    /// otherwise, and the interpreter for inputs the u32 frame fields
    /// cannot address (≥ 4 GiB — a correctness guard, not a workload).
    #[inline]
    fn pick(&self, s: &str) -> Tier {
        if s.len() >= u32::MAX as usize {
            Tier::Interp
        } else if self.fused.is_some() {
            Tier::Fused
        } else {
            Tier::Vm
        }
    }

    /// Run the compiled program (length screens included). `fused` must
    /// only be set when [`CompiledPattern::is_fused`]. On success, spans
    /// are **byte** offsets into `s`.
    #[inline]
    fn exec(&self, s: &str, spans: Option<&mut Vec<(usize, usize)>>, fused: bool) -> bool {
        let n = s.len();
        // Chars ≤ bytes, so a byte count below the char minimum screens
        // any input without counting chars.
        if n < self.min_len {
            return false;
        }
        if s.is_ascii() {
            if self.max_len.is_some_and(|max| n > max) {
                return false;
            }
            if fused {
                let plan = self.fused.expect("fused implies a plan");
                fuse::run_ascii(&self.ops, plan, s.as_bytes(), spans)
            } else {
                vm::run_ascii(&self.ops, s, spans)
            }
        } else {
            let chars = s.chars().count();
            if chars < self.min_len || self.max_len.is_some_and(|max| chars > max) {
                return false;
            }
            if fused {
                let plan = self.fused.expect("fused implies a plan");
                fuse::run_utf8(&self.ops, plan, s, chars, spans)
            } else {
                vm::run_utf8(&self.ops, s, spans)
            }
        }
    }
}

/// Convert contiguous byte spans (as the VM and fused tiers emit) into
/// the interpreter's char-index spans. Free on ASCII input; one forward
/// pass otherwise — spans partition the input, so each slice is counted
/// once.
fn byte_spans_to_char(s: &str, spans: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    if s.is_ascii() {
        return spans;
    }
    let mut out = Vec::with_capacity(spans.len());
    let mut char_pos = 0usize;
    for (a, b) in spans {
        let start = char_pos;
        char_pos += s[a..b].chars().count();
        out.push((start, char_pos));
    }
    out
}

thread_local! {
    /// Span scratch for [`CompiledConstrained`] key extraction — reused
    /// so a key evaluation allocates nothing but the key itself.
    static KEY_SPANS: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// A [`ConstrainedPattern`] whose embedded pattern is compiled, plus the
/// capture plan (element boundaries of each constrained segment), so
/// blocking-key extraction runs on the span-capturing compiled tiers.
#[derive(Debug, Clone)]
pub struct CompiledConstrained {
    program: CompiledPattern,
    /// `(start, end)` element boundaries of each *constrained* segment
    /// within the embedded pattern.
    captures: Vec<(usize, usize)>,
    /// Byte-offset capture windows for fully fixed-width fused
    /// programs: every element's width is known at compile time, so on
    /// ASCII input (1 char = 1 byte) each capture is a fixed slice of
    /// the input and key extraction needs no span capture at all.
    fixed_slices: Option<Vec<(usize, usize)>>,
    source: ConstrainedPattern,
}

impl CompiledConstrained {
    /// Compile the keyer `q`.
    #[must_use]
    pub fn compile(q: &ConstrainedPattern) -> CompiledConstrained {
        let program = CompiledPattern::compile(q.embedded());
        let mut captures = Vec::new();
        let mut start = 0usize;
        for seg in q.segments() {
            let end = start + seg.pattern.len();
            if seg.constrained {
                captures.push((start, end));
            }
            start = end;
        }
        // Fully fixed-width fused program: element boundaries are
        // compile-time prefix sums of the op widths.
        let fixed_slices = (program.fused.is_some_and(|p| p.is_fixed())).then(|| {
            let mut offsets = Vec::with_capacity(program.ops.len() + 1);
            let mut at = 0usize;
            offsets.push(0);
            for op in &program.ops {
                at += op.interval().0 as usize;
                offsets.push(at);
            }
            captures
                .iter()
                .map(|&(s, e)| (offsets[s], offsets[e]))
                .collect()
        });
        CompiledConstrained {
            program,
            captures,
            fixed_slices,
            source: q.clone(),
        }
    }

    /// The keyer this program was compiled from.
    #[must_use]
    pub fn source(&self) -> &ConstrainedPattern {
        &self.source
    }

    /// The compiled embedded pattern.
    #[must_use]
    pub fn program(&self) -> &CompiledPattern {
        &self.program
    }

    /// The same keyer with the fused plan and the fixed-width slices
    /// dropped, so every extraction runs on the VM (see
    /// [`CompiledPattern::vm_only`]).
    #[doc(hidden)]
    #[must_use]
    pub fn vm_only(mut self) -> Self {
        self.program = self.program.vm_only();
        self.fixed_slices = None;
        self
    }

    /// Does `s` match the embedded pattern?
    #[must_use]
    pub fn matches(&self, s: &str) -> bool {
        self.program.matches(s)
    }

    /// The blocking key of `s`, written into `out` (cleared first).
    /// Returns `false` (leaving `out` empty) if `s` does not match.
    /// Identical to [`ConstrainedPattern::key`] but allocation-free.
    /// Exactly one `pattern.{fused,vm,interp}_evals` counter ticks per
    /// call.
    pub fn key_into(&self, s: &str, out: &mut String) -> bool {
        out.clear();
        match self.program.pick(s) {
            Tier::Interp => {
                anmat_obs::counter!("pattern.interp_evals").incr();
                match self.source.key(s) {
                    Some(k) => {
                        out.push_str(&k);
                        true
                    }
                    None => false,
                }
            }
            tier => {
                let fused = tier == Tier::Fused;
                anmat_obs::counter!(if fused {
                    "pattern.fused_evals"
                } else {
                    "pattern.vm_evals"
                })
                .incr();
                if fused && s.is_ascii() {
                    if let Some(slices) = &self.fixed_slices {
                        // Fixed-width fast path: verify without span
                        // capture, then slice at compile-time offsets.
                        if !self.program.exec(s, None, true) {
                            return false;
                        }
                        for (c, &(from, to)) in slices.iter().enumerate() {
                            if c > 0 {
                                out.push('\u{1F}');
                            }
                            out.push_str(&s[from..to]);
                        }
                        return true;
                    }
                }
                KEY_SPANS.with(|buf| {
                    let spans = &mut *buf.borrow_mut();
                    if !self.program.exec(s, Some(spans), fused) {
                        return false;
                    }
                    // Byte spans slice the key segments directly —
                    // identical strings to the interpreter's char-index
                    // captures, without the index conversion.
                    for (c, &(start, end)) in self.captures.iter().enumerate() {
                        if c > 0 {
                            out.push('\u{1F}');
                        }
                        // Mirror `ConstrainedPattern::captures`: an empty
                        // segment captures zero width at its boundary.
                        let from = if start == end {
                            spans.get(start).map_or(s.len(), |&(a, _)| a)
                        } else {
                            spans[start].0
                        };
                        let to = if start == end { from } else { spans[end - 1].1 };
                        out.push_str(&s[from..to]);
                    }
                    true
                })
            }
        }
    }

    /// The blocking key of `s`, or `None` if it does not match —
    /// allocating convenience over [`CompiledConstrained::key_into`].
    #[must_use]
    pub fn key(&self, s: &str) -> Option<String> {
        let mut out = String::new();
        self.key_into(s, &mut out).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{match_pattern, match_spans};

    fn pat(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    fn cp(s: &str) -> ConstrainedPattern {
        s.parse().unwrap()
    }

    /// The default program and its VM-only twin, labelled for messages.
    fn tiers(p: &Pattern) -> [(&'static str, CompiledPattern); 2] {
        let c = CompiledPattern::compile(p);
        [("default", c.clone()), ("vm", c.vm_only())]
    }

    #[test]
    fn ascii_set_matches_class_semantics() {
        for class in [
            SymbolClass::Upper,
            SymbolClass::Lower,
            SymbolClass::Digit,
            SymbolClass::Symbol,
            SymbolClass::Any,
            SymbolClass::Literal('x'),
            SymbolClass::Literal('É'), // non-ASCII literal: empty set
        ] {
            let set = AsciiSet::of_class(class);
            for b in 0u8..128 {
                assert_eq!(
                    set.contains(b),
                    class.matches(b as char),
                    "{class:?} byte {b}"
                );
            }
        }
    }

    #[test]
    fn class_set_matches_class_semantics_beyond_ascii() {
        let probes = [
            'a',
            'Z',
            '5',
            '-',
            ' ',
            'É',
            'é',
            'ß',
            'Ñ',
            'ñ',
            'Ω',
            'ω',
            '中',
            '٣',
            '😀',
            '\u{80}',
            '\u{10FFFF}',
            'Ǆ',
            'ǅ',
            /* titlecase: Symbol */ 'ǆ',
        ];
        for class in [
            SymbolClass::Upper,
            SymbolClass::Lower,
            SymbolClass::Digit,
            SymbolClass::Symbol,
            SymbolClass::Any,
            SymbolClass::Literal('É'),
            SymbolClass::Literal('x'),
        ] {
            let set = ClassSet::of_class(class);
            for c in probes {
                assert_eq!(set.contains_char(c), class.matches(c), "{class:?} {c:?}");
            }
        }
    }

    #[test]
    fn spill_ranges_agree_with_oracle_on_sampled_planes() {
        // Every 97th codepoint (coprime stride) across the whole space.
        let classes = [SymbolClass::Upper, SymbolClass::Lower, SymbolClass::Symbol];
        let sets: Vec<ClassSet> = classes.iter().map(|&c| ClassSet::of_class(c)).collect();
        let mut cp = 0x80u32;
        while cp <= 0x10FFFF {
            if let Some(c) = char::from_u32(cp) {
                for (class, set) in classes.iter().zip(&sets) {
                    assert_eq!(
                        set.contains_char(c),
                        class.matches(c),
                        "{class:?} U+{cp:04X}"
                    );
                }
            }
            cp += 97;
        }
    }

    #[test]
    fn op_shapes() {
        let p = pat("a\\D{3}\\LL*\\A{1,4}");
        let c = CompiledPattern::compile(&p);
        assert!(matches!(c.ops()[0], Op::Byte(b'a')));
        assert!(matches!(c.ops()[1], Op::Exact { n: 3, .. }));
        assert!(matches!(c.ops()[2], Op::AtLeast { min: 0, .. }));
        assert!(matches!(c.ops()[3], Op::Range { min: 1, max: 4, .. }));
    }

    #[test]
    fn fused_selection() {
        // All fixed-width → fused.
        assert!(CompiledPattern::compile(&pat("900\\D{2}")).is_fused());
        assert!(CompiledPattern::compile(&pat("\\D{5}")).is_fused());
        assert!(CompiledPattern::compile(&pat("")).is_fused());
        // Exactly one variable op (anywhere) → fused.
        assert!(CompiledPattern::compile(&pat("\\D*")).is_fused());
        assert!(CompiledPattern::compile(&pat("\\A*a")).is_fused());
        assert!(CompiledPattern::compile(&pat("\\LU\\LL*")).is_fused());
        assert!(CompiledPattern::compile(&pat("\\D{2,4}")).is_fused());
        // Two variable ops → needs the backtracking VM.
        assert!(!CompiledPattern::compile(&pat("\\LU\\LL*\\ \\A*")).is_fused());
        assert!(!CompiledPattern::compile(&pat("a*b*c")).is_fused());
    }

    #[test]
    fn all_tiers_agree_on_fixtures() {
        let patterns = [
            "90001",
            "\\D{5}",
            "\\D*",
            "900\\D{2}",
            "\\LU\\LL*\\ \\A*",
            "\\A*a",
            "\\LL+\\LL+",
            "\\D{2,4}",
            "a*b*c",
            "\\D{3}\\S\\D{4}",
            "",
            "\\LU\\LL+",
            "\\A{2}",
        ];
        let inputs = [
            "90001",
            "90002",
            "9000",
            "900010",
            "",
            "a",
            "bbba",
            "ab",
            "aaa",
            "c",
            "John Charles",
            "JOHN Charles",
            "John",
            "555-1234",
            "55511234",
            "12a",
            "ABcd12",
            // full UTF-8 coverage, no interpreter fallback:
            "Étienne",
            "École Nationale",
            "ΩΜΕΓΑ",
            "ωμεγα",
            "中文",
            "٣٤٥",
            "É",
            "ß",
            "a😀b",
        ];
        for ps in patterns {
            let p = pat(ps);
            for (tier, c) in tiers(&p) {
                for s in inputs {
                    assert_eq!(
                        c.matches(s),
                        match_pattern(&p, s),
                        "{ps:?} vs {s:?} on {tier}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_tiers_spans_agree_with_interpreter() {
        let cases = [
            ("\\A*a", "bbba"),
            ("\\A*a", "aaa"),
            ("a*b*c", "c"),
            ("\\LU\\LL*\\ \\A*", "John Charles"),
            ("\\LU+\\LL+\\D{2}", "ABcd12"),
            ("\\D{3}\\D{2}", "90001"),
            // char-index spans on multibyte input:
            ("\\LU\\LL*", "Étienne"),
            ("\\LU\\LL*\\ \\A*", "Éti enne😀"),
            ("\\A*", "中文字"),
            ("\\S\\D{2}\\S*", "٣42"),
        ];
        for (ps, s) in cases {
            let p = pat(ps);
            let expected = match_spans(&p, s);
            for (tier, c) in tiers(&p) {
                assert_eq!(c.spans(s), expected, "{ps:?} vs {s:?} on {tier}");
            }
        }
    }

    #[test]
    fn compiled_key_matches_source_key() {
        let cases = [
            ("[\\D{3}]\\D{2}", vec!["90001", "90101", "9000", ""]),
            (
                "[\\LU\\LL*\\ ]\\A*",
                vec!["John Charles", "John Bosco", "Susan Boyle", "john x"],
            ),
            ("[\\LL+]-[\\LL+]", vec!["ab-c", "a-bc", "x-y"]),
            ("\\A*,\\ [Donald]\\A*", vec!["x, Donald Duck", "nope"]),
            ("[\\D{3}]\\D{2}", vec!["90\u{E9}01"]), // multibyte, no fallback
            ("[\\LU\\LL*]\\ \\A*", vec!["Étienne Dupont", "Ñandú x"]),
            ("[\\A{2}]\\A*", vec!["中文字符", "😀ab"]),
        ];
        for (qs, inputs) in cases {
            let q = cp(qs);
            let c = CompiledConstrained::compile(&q);
            for (tier, c) in [("default", c.clone()), ("vm", c.vm_only())] {
                for s in &inputs {
                    assert_eq!(c.key(s), q.key(s), "{qs:?} vs {s:?} on {tier}");
                }
            }
        }
    }

    #[test]
    fn key_into_reuses_buffer() {
        let q = cp("[\\D{3}]\\D{2}");
        let c = CompiledConstrained::compile(&q);
        let mut buf = String::new();
        assert!(c.key_into("90001", &mut buf));
        assert_eq!(buf, "900");
        assert!(!c.key_into("x", &mut buf));
        assert!(buf.is_empty());
        assert!(c.key_into("85032", &mut buf));
        assert_eq!(buf, "850");
    }
}
