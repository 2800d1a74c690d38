//! Host-speed reference kernel.
//!
//! A fixed amount of memory-bound work: dependent loads scattered over
//! a table far larger than the CPU caches, then streaming passes over a
//! buffer of the same size. On a shared 2-vCPU host, the times of these
//! loads tracked the CLI's slow spells more closely than the time of a
//! string-hashing loop did. The kernel uses no anmat code, so no change
//! to the program can move its time. `run.py` times it between the
//! measured commands and scales their figures by how fast the host ran
//! it then.

use std::time::Instant;

/// 256 MiB of `u32` successors.
const SLOTS: u64 = 64 << 20;
const STEPS: usize = 1 << 19;
/// 256 MiB of `u64`.
const WORDS: usize = 32 << 20;
const PASSES: u64 = 2;

/// Runs the kernel; returns (checksum, seconds).
pub fn run() -> (u64, f64) {
    let start = Instant::now();
    let checksum = chase() ^ stream();
    (checksum, start.elapsed().as_secs_f64())
}

/// Walks a full-period LCG laid out as a successor table, so each load
/// depends on the last one and no prefetcher can follow.
fn chase() -> u64 {
    let next: Vec<u32> = (0..SLOTS)
        .map(|i| {
            (i.wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F)
                & (SLOTS - 1)) as u32
        })
        .collect();
    let (mut at, mut sum) = (0u32, 0u64);
    for _ in 0..STEPS {
        at = next[at as usize];
        sum += u64::from(at);
    }
    sum
}

fn stream() -> u64 {
    let mut words = vec![1u64; WORDS];
    let mut sum = 0u64;
    for pass in 0..PASSES {
        for w in words.iter_mut() {
            *w = w.wrapping_add(pass);
            sum = sum.wrapping_add(*w);
        }
    }
    sum
}
