//! The correctness oracle: batch `detect_all` over the rows that
//! survive a workload, computed in-process from the generated files.
//!
//! * `ingest`/`churn`: replays `data.csv` and then `ops.csv` (if any)
//!   into a plain `Table`, runs `detect_all`, and writes the live set
//!   as sorted event payloads to `oracle_live.txt`. A stream run is
//!   correct when the events it printed (created minus retracted) are
//!   exactly these lines. An op that addresses a dead or missing slot
//!   fails here, naming the op.
//! * `audit`: writes the violation listing `anmat detect` should print
//!   to `oracle_view.txt`, then repairs to a fixpoint and writes the
//!   repair summary to `oracle_repair.txt` and the repaired table to
//!   `oracle_repaired.csv`.

use crate::common::{live_lines, load_rules, parse_ops, write};
use anmat_core::{detect_all, repair_to_fixpoint, report, RepairReport};
use anmat_table::csv;
use std::path::Path;

pub fn run(workload: &str, dir: &Path) -> Result<(), String> {
    let rules = load_rules(dir)?;
    let mut table =
        csv::read_path(dir.join("data.csv")).map_err(|e| format!("reading data: {e}"))?;
    if workload == "audit" {
        let violations = detect_all(&table, &rules);
        write(
            dir,
            "oracle_view.txt",
            &report::violations_view(&table, &violations),
        )?;
        let reports = repair_to_fixpoint(&mut table, &rules, 5);
        let applied: usize = reports.iter().map(RepairReport::applied_count).sum();
        let conflicts: usize = reports.iter().map(|r| r.conflicts.len()).sum();
        write(
            dir,
            "oracle_repair.txt",
            &format!("repaired {applied} cell(s) ({conflicts} conflict(s) left untouched)\n"),
        )?;
        return csv::write_path(&table, dir.join("oracle_repaired.csv"))
            .map_err(|e| format!("writing repaired table: {e}"));
    }
    let ops_path = dir.join("ops.csv");
    if ops_path.exists() {
        for (i, op) in parse_ops(&ops_path)?.into_iter().enumerate() {
            table
                .apply(op)
                .map_err(|e| format!("op-log record {}: {e}", i + 1))?;
        }
    }
    write(
        dir,
        "oracle_live.txt",
        &live_lines(&detect_all(&table, &rules)),
    )
}
