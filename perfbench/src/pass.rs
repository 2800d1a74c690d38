//! In-process passes over one workload: the library calls the CLI's
//! measured command makes, each timed from here.
//!
//! * Stream workloads: `csv::read_path`, `StreamEngine::with_config`,
//!   `StreamEngine::push_batch` per 4096 rows, then (churn) the op-log
//!   through `StreamEngine::apply`: in every block of `OP_BLOCK` ops, the
//!   last `SINGLES` go one op per call, timed by op kind, and the rest
//!   go in one call. (Each call validates against a copy of the live
//!   set, so one call per op for the whole log would take minutes.)
//! * Audit: `csv::read_path`, `detect_all`, `repair_to_fixpoint`,
//!   `csv::write_path`.
//!
//! A `traced` pass turns the obs recorder on and, after the steps, runs
//! probes that are not part of the CLI's work: a parse-only pass over
//! the CSV, discovery on the setup rows (audit), and a read of the obs
//! registry by metric name. A `plain` pass makes the same calls with
//! the recorder off, so the two step totals give the tracing overhead.
//! Both write what they computed (`pass_live.txt`, or `pass_view.txt`
//! and `pass_repaired.csv`) for the harness to check against the oracle.

use crate::common::{live_lines, load_rules, parse_ops, write, DATASET};
use anmat_core::{detect_all, discover, repair_to_fixpoint, report, DiscoveryConfig};
use anmat_obs::{MetricsSnapshot, Recorder};
use anmat_stream::{StreamConfig, StreamEngine};
use anmat_table::{csv, RowOp, Value};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Rows per `push_batch`, as the CLI's `--batch`.
pub const BATCH: usize = 4096;
/// Violation ratio the rules were discovered with, as the CLI's
/// `--violations`.
pub const VIOLATIONS: f64 = 0.05;

/// Ops per block of the churn op-log, and how many of each block's ops
/// are applied (and timed) one per call.
const OP_BLOCK: usize = 1000;
const SINGLES: usize = 20;

/// Figure names for each op kind, in `RowOp` order: insert, delete,
/// update.
const OP_FIGURES: [[&str; 3]; 3] = [
    ["insert_count", "insert_p50_us", "insert_p99_us"],
    ["delete_count", "delete_p50_us", "delete_p99_us"],
    ["update_count", "update_p50_us", "update_p99_us"],
];

/// Named figures, printed as one flat JSON object.
#[derive(Default)]
struct Figures(Vec<(&'static str, f64)>);

impl Figures {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{value}");
        }
        out.push('}');
        out
    }
}

fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nearest-rank quantile of unsorted samples (0 when there are none).
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// Run one pass; returns its figures as a JSON object.
pub fn run(workload: &str, dir: &Path, traced: bool) -> Result<String, String> {
    if traced {
        Recorder::enable();
    }
    let rules = load_rules(dir)?;
    // The op-log is parsed before the clock starts: parsing it is CLI
    // work the engine entry points never see.
    let ops = if workload == "churn" {
        parse_ops(&dir.join("ops.csv"))?
    } else {
        Vec::new()
    };
    let mut fig = Figures::default();

    let t = Instant::now();
    let mut table =
        csv::read_path(dir.join("data.csv")).map_err(|e| format!("reading data: {e}"))?;
    let read_s = since(t);
    fig.set("read_s", read_s);
    let after_read = MetricsSnapshot::capture();
    let mut steps_s = read_s;

    let mut engine = None;
    if workload == "audit" {
        let t = Instant::now();
        let violations = detect_all(&table, &rules);
        let detect_s = since(t);
        // Rendering is CLI work, so it sits outside the timed steps.
        write(
            dir,
            "pass_view.txt",
            &report::violations_view(&table, &violations),
        )?;
        let t = Instant::now();
        repair_to_fixpoint(&mut table, &rules, 5);
        let repair_s = since(t);
        let t = Instant::now();
        csv::write_path(&table, dir.join("pass_repaired.csv"))
            .map_err(|e| format!("writing repaired table: {e}"))?;
        let write_s = since(t);
        fig.set("detect_s", detect_s);
        fig.set("repair_s", repair_s);
        steps_s += detect_s + repair_s + write_s;
    } else {
        let config = StreamConfig {
            max_violation_ratio: VIOLATIONS,
            ..StreamConfig::default()
        };
        let t = Instant::now();
        let mut e = StreamEngine::with_config(table.schema().clone(), rules, config);
        let build_s = since(t);
        let mut batch_s = Vec::new();
        for lo in (0..table.row_count()).step_by(BATCH) {
            let hi = (lo + BATCH).min(table.row_count());
            let rows: Vec<Vec<Value>> = (lo..hi).map(|r| table.row(r)).collect();
            let t = Instant::now();
            e.push_batch(rows)
                .map_err(|err| format!("batch at row {lo}: {err}"))?;
            batch_s.push(since(t));
        }
        let mut op_s: [Vec<f64>; 3] = Default::default();
        let mut apply_s = 0.0;
        let mut ops = ops.into_iter().peekable();
        let mut applied = 0;
        while ops.peek().is_some() {
            let block: Vec<RowOp> = ops.by_ref().take(OP_BLOCK - SINGLES).collect();
            let first = applied + 1;
            applied += block.len();
            let t = Instant::now();
            e.apply(block)
                .map_err(|err| format!("op-log records {first}..={applied}: {err}"))?;
            apply_s += since(t);
            for op in ops.by_ref().take(SINGLES) {
                applied += 1;
                let kind = match op {
                    RowOp::Insert(_) => 0,
                    RowOp::Delete(_) => 1,
                    RowOp::Update(..) => 2,
                };
                let t = Instant::now();
                e.apply(std::iter::once(op))
                    .map_err(|err| format!("op-log record {applied}: {err}"))?;
                op_s[kind].push(since(t));
            }
        }
        apply_s += op_s.iter().flatten().sum::<f64>();
        let stream_s: f64 = batch_s.iter().sum();
        fig.set("build_s", build_s);
        fig.set("batches", batch_s.len() as f64);
        fig.set("batch_p50_ms", quantile(&batch_s, 0.5) * 1e3);
        fig.set("batch_p90_ms", quantile(&batch_s, 0.9) * 1e3);
        for (samples, [count, p50, p99]) in op_s.iter().zip(OP_FIGURES) {
            fig.set(count, samples.len() as f64);
            fig.set(p50, quantile(samples, 0.5) * 1e6);
            fig.set(p99, quantile(samples, 0.99) * 1e6);
        }
        steps_s += build_s + stream_s + apply_s;
        write(dir, "pass_live.txt", &live_lines(&e.ledger().snapshot()))?;
        engine = Some(e);
    }
    fig.set("steps_s", steps_s);
    if traced {
        probe(workload, dir, engine.as_ref(), &after_read, &mut fig)?;
    }
    Ok(fig.to_json())
}

/// The traced pass's extra measurements, made after the steps.
fn probe(
    workload: &str,
    dir: &Path,
    engine: Option<&StreamEngine>,
    after_read: &MetricsSnapshot,
    fig: &mut Figures,
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(dir.join("data.csv")).map_err(|e| format!("reading data: {e}"))?;
    let t = Instant::now();
    let mut records = csv::parse_raw_records_borrowed(&text, ',');
    while records.next_record().map_err(|e| e.to_string())?.is_some() {}
    fig.set("parse_s", since(t));

    let count = |snap: &MetricsSnapshot, name: &str| snap.counter(name).unwrap_or(0) as f64;
    fig.set("intern_hits", count(after_read, "pool.intern.hits"));
    fig.set("intern_misses", count(after_read, "pool.intern.misses"));

    if workload == "audit" {
        let setup = csv::read_path(dir.join("setup/data.csv"))
            .map_err(|e| format!("reading setup rows: {e}"))?;
        let config = DiscoveryConfig {
            relation: DATASET.into(),
            max_violation_ratio: VIOLATIONS,
            ..DiscoveryConfig::default()
        };
        let t = Instant::now();
        std::hint::black_box(discover(&setup, &config));
        fig.set("discover_s", since(t));
    }
    if let Some(engine) = engine {
        engine.publish_metrics();
    }
    let snap = MetricsSnapshot::capture();
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0) as f64;
    let span_s = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9);
    fig.set("pool_bytes", gauge("pool.bytes"));
    fig.set("pool_string_bytes", gauge("pool.string_bytes"));
    fig.set("table_bytes", gauge("table.bytes"));
    fig.set(
        "pattern_evals",
        count(&snap, "pattern.fused_evals")
            + count(&snap, "pattern.vm_evals")
            + count(&snap, "pattern.interp_evals"),
    );
    fig.set("memo_evals", gauge("memo.evals"));
    fig.set("memo_lookups", gauge("memo.lookups"));
    fig.set("index_inserts", count(&snap, "index.insert"));
    fig.set("index_removes", count(&snap, "index.remove"));
    fig.set("engine_blocks", gauge("engine.blocks"));
    fig.set("ledger_created", gauge("ledger.created_total"));
    fig.set("ledger_retracted", gauge("ledger.retracted_total"));
    fig.set("table_pushes", count(&snap, "table.push"));
    fig.set("table_deletes", count(&snap, "table.delete"));
    fig.set("table_updates", count(&snap, "table.update"));
    fig.set("engine_apply_s", span_s("engine.apply_ns"));
    fig.set("engine_validate_s", span_s("engine.validate_ns"));
    Ok(())
}
