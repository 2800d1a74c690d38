//! Tier-accounting smoke test, in its own binary because the
//! [`anmat_obs::Recorder`] and its counters are process-global: running
//! this alongside other recorder-enabled tests (which Rust would
//! parallelize within one binary) would make the counter deltas
//! ambiguous.
//!
//! The contract under test is the tentpole's headline invariant: with
//! the VM extended to full UTF-8, the interpreter is *never* consulted
//! on the compiled tiers — `pattern.interp_evals` stays 0 on any input,
//! ASCII or multibyte, and every public-entry evaluation is attributed
//! to exactly one tier. The interpreter survives only as the oracle the
//! tests call directly, which ticks no tier counter.

use anmat_obs as obs;
use anmat_pattern::{CompiledConstrained, CompiledPattern, ConstrainedPattern, Pattern};
use std::sync::Mutex;

/// Serializes the two tests: both read deltas of the same process-wide
/// counters, so interleaving them would corrupt each other's baselines.
static RECORDER: Mutex<()> = Mutex::new(());

/// Mixed corpus: ASCII, 2/3/4-byte scalars, titlecase, non-ASCII
/// digits, and boundary codepoints.
const CORPUS: &[&str] = &[
    "Abc-123",
    "Ångström",
    "中文数据",
    "٣٤٥",
    "ǅungla",
    "naïve café",
    "😀😀-ok",
    "\u{10FFFF}end",
    "",
    "90001",
];

fn counters() -> (u64, u64, u64) {
    let snap = obs::MetricsSnapshot::capture();
    (
        snap.counter("pattern.fused_evals").unwrap_or(0),
        snap.counter("pattern.vm_evals").unwrap_or(0),
        snap.counter("pattern.interp_evals").unwrap_or(0),
    )
}

#[test]
fn default_engine_never_touches_the_interpreter() {
    // A fused-eligible pattern, a VM-only pattern (two variable-width
    // ops), and a constrained keyer.
    let fused: CompiledPattern = CompiledPattern::compile(&"\\A{2}\\D{3}".parse().unwrap());
    let unfusable: CompiledPattern = CompiledPattern::compile(&"\\A*-\\A*".parse().unwrap());
    let keyer = CompiledConstrained::compile(&"[\\A*]-\\A*".parse::<ConstrainedPattern>().unwrap());
    assert!(
        fused.is_fused(),
        "\\A{{2}}\\D{{3}} must take the fused tier"
    );
    assert!(!unfusable.is_fused(), "two stars cannot fuse");
    assert!(!keyer.program().is_fused(), "two stars cannot fuse");

    let _serial = RECORDER.lock().unwrap();
    obs::Recorder::enable();
    let before = counters();
    let mut buf = String::new();
    for s in CORPUS {
        std::hint::black_box(fused.matches(s));
        std::hint::black_box(unfusable.matches(s));
        std::hint::black_box(keyer.key_into(s, &mut buf));
    }
    let after = counters();
    obs::Recorder::disable();

    let n = CORPUS.len() as u64;
    assert_eq!(
        after.2 - before.2,
        0,
        "interp_evals must stay 0 — no UTF-8 fallback"
    );
    assert_eq!(
        after.0 - before.0,
        n,
        "one fused eval per fused-pattern call"
    );
    // The unfusable pattern and keyer both land on the VM.
    assert_eq!(
        after.1 - before.1,
        2 * n,
        "vm evals for the unfusable programs"
    );
}

#[test]
fn default_and_vm_only_programs_agree_with_the_oracle() {
    let p: Pattern = "\\A{2}\\D{3}".parse().unwrap();
    let fused = CompiledPattern::compile(&p);
    let vm = fused.clone().vm_only();
    assert!(fused.is_fused() && !vm.is_fused());
    let _serial = RECORDER.lock().unwrap();
    obs::Recorder::enable();
    let before = counters();
    for s in CORPUS {
        let expected = p.matches(s);
        assert_eq!(fused.matches(s), expected, "default program on {s:?}");
        assert_eq!(vm.matches(s), expected, "vm_only program on {s:?}");
    }
    let after = counters();
    obs::Recorder::disable();
    let n = CORPUS.len() as u64;
    assert_eq!(after.0 - before.0, n, "the default program runs fused");
    assert_eq!(after.1 - before.1, n, "the vm_only program runs on the VM");
    assert_eq!(
        after.2 - before.2,
        0,
        "calling the oracle directly ticks no tier counter"
    );
}
