//! Exact `ValuePool` accounting across intern, reclaim and recycle.
//!
//! The pool's counters are process-wide, so exact before/after checks
//! only hold when nothing else interns or reclaims in between. This file
//! therefore holds a single `#[test]`: cargo runs each integration-test
//! file in its own process, and with one test there is no concurrent
//! pool user. The unit tests in `pool.rs` share their process with
//! every other unit test and can only assert bounds.

use anmat_table::{ValueId, ValuePool};

/// Make `s` a reclaim candidate: retain it once and release it,
/// returning the `(id, generation)` pair the release reported.
fn candidate(s: &str) -> (ValueId, u32) {
    let id = ValuePool::intern(s);
    ValuePool::retain(id);
    (id, ValuePool::release(id).expect("sole reference"))
}

#[test]
fn pool_counters_are_exact_without_concurrent_users() {
    // Interning one new string counts exactly one string.
    let before = ValuePool::mem_footprint();
    assert_eq!(
        before.bytes,
        before.chunk_bytes
            + before.entry_bytes
            + before.string_bytes
            + before.map_bytes
            + before.ref_bytes
    );
    let payload = "footprint-probe-with-a-reasonably-long-payload";
    let _ = ValuePool::intern(payload);
    let after = ValuePool::mem_footprint();
    assert_eq!(after.strings, before.strings + 1);
    assert!(after.string_bytes >= before.string_bytes + payload.len());
    assert!(after.bytes > before.bytes);
    // Re-interning is a hit: nothing is counted twice.
    let _ = ValuePool::intern(payload);
    assert_eq!(ValuePool::mem_footprint().strings, after.strings);

    // Reclaim frees, tags and recycles.
    let (a, ga) = candidate("rcl-pool-test-aaaa");
    let (b, gb) = candidate("rcl-pool-test-bbbb");
    let live_before = ValuePool::live_strings();
    let footprint_before = ValuePool::mem_footprint();

    // A re-retained id must survive a reclaim attempt.
    ValuePool::retain(a);
    // SAFETY: the `rcl-pool-test-*` strings are unique to this test and
    // no `&str` resolved from them outlives the reclaim below.
    let none = unsafe { ValuePool::reclaim([(a, ga)]) };
    assert_eq!(none.strings, 0);
    assert_eq!(ValuePool::resolve(a), "rcl-pool-test-aaaa");
    assert_eq!(ValuePool::live_strings(), live_before);
    assert_eq!(ValuePool::release(a), Some(ga));

    // SAFETY: as above; nothing resolves these strings any more.
    let stats = unsafe { ValuePool::reclaim([(a, ga), (b, gb)]) };
    assert_eq!(stats.strings, 2);
    assert_eq!(stats.bytes, "rcl-pool-test-aaaa".len() * 2);
    assert_eq!(ValuePool::live_strings(), live_before - 2);
    let footprint_after = ValuePool::mem_footprint();
    assert_eq!(footprint_after.strings, footprint_before.strings - 2);
    assert_eq!(
        footprint_after.string_bytes,
        footprint_before.string_bytes - stats.bytes
    );
    assert_eq!(
        footprint_after.reclaimed_strings,
        footprint_before.reclaimed_strings + 2
    );
    assert_eq!(
        footprint_after.reclaimed_bytes,
        footprint_before.reclaimed_bytes + stats.bytes
    );
    assert_eq!(ValuePool::generation(a), ga + 1);
    assert_eq!(ValuePool::generation(b), gb + 1);
    // The string is gone from the map and the slot is fail-stop.
    assert_eq!(ValuePool::lookup("rcl-pool-test-aaaa"), None);
    assert!(std::panic::catch_unwind(|| ValuePool::resolve(a)).is_err());
    // Stale pairs are no-ops: double reclaim frees nothing.
    // SAFETY: reclaims nothing.
    let again = unsafe { ValuePool::reclaim([(a, ga), (b, gb)]) };
    assert_eq!(again.strings, 0);
    assert_eq!(ValuePool::live_strings(), live_before - 2);

    // Re-interning recycles a freed id: the watermark does not grow.
    let len_before = ValuePool::len();
    let c = ValuePool::intern("rcl-pool-test-cccc");
    assert_eq!(ValuePool::len(), len_before);
    assert!(c == a || c == b, "freed id recycled");
    assert_eq!(ValuePool::resolve(c), "rcl-pool-test-cccc");
    assert_eq!(ValuePool::live_strings(), live_before - 1);
    assert_eq!(
        ValuePool::mem_footprint().strings,
        footprint_before.strings - 1
    );

    // A single reclaim of one string decrements by exactly its length.
    let s = "rcl-footprint-probe-string-payload";
    let pair = candidate(s);
    let before = ValuePool::mem_footprint();
    // SAFETY: the probe string is unique to this test.
    let stats = unsafe { ValuePool::reclaim([pair]) };
    assert_eq!(stats.strings, 1);
    let after = ValuePool::mem_footprint();
    assert_eq!(after.strings, before.strings - 1);
    assert_eq!(after.string_bytes, before.string_bytes - s.len());
    assert_eq!(after.reclaimed_strings, before.reclaimed_strings + 1);
    assert_eq!(after.reclaimed_bytes, before.reclaimed_bytes + s.len());
    assert_eq!(ValuePool::lookup(s), None);
}
