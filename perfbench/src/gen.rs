//! Seeded workload generator.
//!
//! Every workload draws rows of `zip,city,state,phone` from one
//! generator: a zip prefix `p ∈ [100, 500)` picks city and state through
//! `p mod 8`, a city is swapped for another one with probability
//! `noise` (the injected error, recorded as a label), and the phone is
//! `p-555-NNNN`, so that column is nearly all distinct.
//!
//! Output layout under the target directory:
//!
//! ```text
//! data.csv        the rows the measured command reads
//! setup/data.csv  the first `SETUP_ROWS` rows, for rule discovery
//! labels.txt      ids of the rows whose city is corrupted once the
//!                 workload has run (after the op-log, for churn)
//! ops.csv         churn only: the mutation op-log
//! ```
//!
//! Both CSVs share the stem `data`, because the CLI keys the rule store
//! on the file stem. Churn ops are drawn against the set of live slots,
//! so every delete and update addresses a row that exists at that point.

use std::fmt::Write as _;
use std::path::Path;

/// `p mod 8` → (city, state).
pub const PLACES: [(&str, &str); 8] = [
    ("Springfield", "IL"),
    ("Riverside", "CA"),
    ("Franklin", "TN"),
    ("Greenville", "SC"),
    ("Bristol", "CT"),
    ("Clinton", "IA"),
    ("Fairview", "OR"),
    ("Salem", "MA"),
];

/// Probability that a generated row carries a wrong city.
pub const ROW_NOISE: f64 = 0.01;
/// Probability that an update op's new row carries a wrong city.
pub const UPDATE_NOISE: f64 = 0.05;

/// Leading rows copied to `setup/data.csv` for rule discovery. On 20k
/// rows, some seeds discover over-specific keys (a 4-digit zip prefix,
/// an 8-character phone prefix) that change the engine's block count
/// by an order of magnitude; on 35k and 50k rows, every seed tried finds
/// the same keys.
pub const SETUP_ROWS: usize = 35_000;

/// Sizes of one workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Rows in `data.csv`.
    pub rows: usize,
    /// Ops in `ops.csv` (0: no op-log).
    pub ops: usize,
}

/// The sizes for a named workload.
pub fn spec(workload: &str) -> Result<Spec, String> {
    match workload {
        "ingest" | "audit" => Ok(Spec {
            rows: 500_000,
            ops: 0,
        }),
        "churn" => Ok(Spec {
            rows: 200_000,
            ops: 200_000,
        }),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// SplitMix64: small, fast, and fixed forever, so a seed names the same
/// bytes on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Append one row (no newline); returns whether its city was corrupted.
fn push_row(rng: &mut Rng, noise: f64, out: &mut String) -> bool {
    let p = 100 + rng.below(400);
    let place = (p % 8) as usize;
    let (mut city, state) = PLACES[place];
    let corrupt = rng.chance(noise);
    if corrupt {
        city = PLACES[(place + 1 + rng.below(7) as usize) % 8].0;
    }
    let suffix = rng.below(100);
    let line = rng.below(10_000);
    let _ = write!(out, "{p}{suffix:02},{city},{state},{p}-555-{line:04}");
    corrupt
}

/// A churn op-log: 40% inserts, 30% deletes, 30% updates, each delete
/// and update aimed at a slot that is live when the op runs. Inserts
/// take fresh slot ids in order, as the engine assigns them. `slots`
/// tracks each slot's liveness and label through the ops.
fn churn_ops(rng: &mut Rng, slots: &mut Vec<Option<bool>>, count: usize) -> String {
    let mut live: Vec<usize> = (0..slots.len()).filter(|&s| slots[s].is_some()).collect();
    let mut out = String::with_capacity(count * 32);
    for _ in 0..count {
        let roll = rng.below(100);
        if roll < 40 || live.is_empty() {
            out.push_str("+,");
            live.push(slots.len());
            slots.push(Some(push_row(rng, ROW_NOISE, &mut out)));
        } else if roll < 70 {
            let slot = live.swap_remove(rng.below(live.len() as u64) as usize);
            slots[slot] = None;
            let _ = write!(out, "-,{slot}");
        } else {
            let slot = live[rng.below(live.len() as u64) as usize];
            let _ = write!(out, "~,{slot},");
            slots[slot] = Some(push_row(rng, UPDATE_NOISE, &mut out));
        }
        out.push('\n');
    }
    out
}

/// Generate one workload's inputs into `dir`.
pub fn run(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let spec = spec(workload)?;
    let mut rng = Rng::new(seed);
    let mut data = String::with_capacity(spec.rows * 32);
    data.push_str("zip,city,state,phone\n");
    let mut setup_end = None;
    // Per slot: `Some(corrupted)` while live, `None` once deleted.
    let mut slots = Vec::with_capacity(spec.rows + spec.ops);
    for row in 0..spec.rows {
        if row == SETUP_ROWS {
            setup_end = Some(data.len());
        }
        slots.push(Some(push_row(&mut rng, ROW_NOISE, &mut data)));
        data.push('\n');
    }
    let ops = (spec.ops > 0).then(|| churn_ops(&mut rng, &mut slots, spec.ops));
    let mut labels = String::new();
    for (slot, state) in slots.iter().enumerate() {
        if *state == Some(true) {
            let _ = writeln!(labels, "{slot}");
        }
    }

    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir.join("setup"))
        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
    write("data.csv", &data)?;
    write("setup/data.csv", &data[..setup_end.unwrap_or(data.len())])?;
    write("labels.txt", &labels)?;
    if let Some(ops) = &ops {
        write("ops.csv", ops)?;
    }
    Ok(())
}
