//! Helpers shared by the oracle and the in-process passes.

use anmat_core::store::RuleStore;
use anmat_core::{Pfd, Violation, ViolationKind};
use anmat_table::{csv, RowOp, Value};
use std::path::Path;

/// Dataset name the rule store is keyed on (the stem of `data.csv`).
pub const DATASET: &str = "data";

/// The rules `anmat stream`/`anmat detect --store` apply: confirmed and
/// pending ones, in stored order.
pub fn load_rules(dir: &Path) -> Result<Vec<Pfd>, String> {
    let store = RuleStore::open(dir.join("store")).map_err(|e| format!("opening store: {e}"))?;
    let rules = store
        .active_rules(DATASET, true)
        .map_err(|e| format!("loading rules: {e}"))?;
    if rules.is_empty() {
        return Err("the store holds no rules".into());
    }
    Ok(rules)
}

/// Parse an op-log with the CLI's grammar: `+,cells…`, `-,row`,
/// `~,row,cells…`.
pub fn parse_ops(path: &Path) -> Result<Vec<RowOp>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let records = csv::parse_raw_records(&text, ',').map_err(|e| format!("parsing op-log: {e}"))?;
    records
        .into_iter()
        .enumerate()
        .map(|(i, record)| {
            let bad = || format!("op-log record {}: malformed `{}`", i + 1, record.join(","));
            let cells = |fields: &[String]| fields.iter().map(|f| Value::from_field(f)).collect();
            let row = |field: &String| field.parse().map_err(|_| bad());
            match record.split_first() {
                Some((code, rest)) if code == "+" => Ok(RowOp::Insert(cells(rest))),
                Some((code, [id])) if code == "-" => Ok(RowOp::Delete(row(id)?)),
                Some((code, [id, rest @ ..])) if code == "~" => {
                    Ok(RowOp::Update(row(id)?, cells(rest)))
                }
                _ => Err(bad()),
            }
        })
        .collect()
}

/// One violation as the CLI prints it in an event line, minus the
/// leading `+ `/`- `.
pub fn render(v: &Violation) -> String {
    let found = |f: &Option<String>| f.as_deref().map_or("∅".to_string(), |f| format!("{f:?}"));
    let detail = match &v.kind {
        ViolationKind::Constant {
            expected, found: f, ..
        } => format!("expected {expected:?}, found {}", found(f)),
        ViolationKind::Variable {
            key,
            majority,
            found: f,
            ..
        } => format!("block {key:?} majority {majority:?}, found {}", found(f)),
    };
    format!(
        "row {} [{}] {}={:?}: {detail}",
        v.row, v.dependency, v.lhs_attr, v.lhs_value
    )
}

/// The live violation set as sorted event payloads. Violations that
/// serialize identically are one ledger entry, so they count once.
pub fn live_lines(violations: &[Violation]) -> String {
    let mut keyed: Vec<(String, &Violation)> = violations
        .iter()
        .map(|v| (serde_json::to_string(v).expect("violations serialize"), v))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    let mut lines: Vec<String> = keyed.iter().map(|(_, v)| render(v)).collect();
    lines.sort();
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Write `text` to `dir/name`.
pub fn write(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}
