//! Stream/batch equivalence: replaying any seeded `datagen` table
//! row-by-row through the `StreamEngine` must end in exactly the
//! violation set batch `detect_all` computes on the full table — for
//! constant, variable, and mixed PFDs, discovered or handcrafted.
//!
//! Alongside: the engine's configuration-invariance contracts. Neither
//! the metrics recorder nor the pattern execution tier may change
//! anything observable (events batch by batch, ledger, per-rule health,
//! drift report, eval/lookup counters).

use anmat_core::{detect_all, discover, DiscoveryConfig, PatternTuple, Pfd, Violation};
use anmat_datagen::{chembl, employee, names, phone, zipcity, GenConfig};
use anmat_pattern::ConstrainedPattern;
use anmat_stream::StreamEngine;
use anmat_table::{RowOp, Schema, Table, Value};
use proptest::prelude::*;

mod common;
use common::{cases, random_ops};

fn discovery_config() -> DiscoveryConfig {
    DiscoveryConfig {
        min_support: 3,
        min_coverage: 0.5,
        max_violation_ratio: 0.15,
        ..DiscoveryConfig::default()
    }
}

fn canonical(mut violations: Vec<Violation>) -> Vec<String> {
    violations.sort_by_key(|v| (v.row, v.dependency.clone()));
    let mut keys: Vec<String> = violations
        .iter()
        .map(|v| serde_json::to_string(v).expect("violations serialize"))
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// Replay `table` through a fresh engine and compare against batch.
fn assert_equivalent(table: &Table, rules: &[Pfd], context: &str) {
    let mut engine = StreamEngine::new(table.schema().clone(), rules.to_vec());
    engine.replay_table(table).expect("schema matches");
    let streamed = canonical(engine.ledger().snapshot());
    let batch = canonical(detect_all(table, rules));
    assert_eq!(
        streamed,
        batch,
        "stream and batch disagree on {context} ({} rules)",
        rules.len()
    );
    // Ledger sanity: live = created − retracted.
    assert_eq!(
        engine.ledger().live_count(),
        engine.ledger().created_total() - engine.ledger().retracted_total(),
        "ledger accounting broken on {context}"
    );
}

/// Discover on the full table, then verify the replay reproduces batch
/// detection under those rules.
fn check_dataset(table: &Table, context: &str) {
    let rules = discover(table, &discovery_config());
    assert_equivalent(table, &rules, context);
}

#[test]
fn every_datagen_dataset_replays_to_batch() {
    let config = GenConfig {
        rows: 400,
        seed: 0xA11CE,
        error_rate: 0.03,
    };
    check_dataset(&phone::generate(&config).table, "phone");
    check_dataset(&names::generate(&config).table, "names");
    check_dataset(
        &zipcity::generate(&config, zipcity::ZipTarget::City).table,
        "zipcity/City",
    );
    check_dataset(
        &zipcity::generate(&config, zipcity::ZipTarget::State).table,
        "zipcity/State",
    );
    check_dataset(&employee::generate(&config).table, "employee");
    check_dataset(&chembl::generate(&config).table, "chembl");
}

#[test]
fn handcrafted_mixed_tableau_replays_to_batch() {
    // A mixed PFD (constant + variable tuples over the same pair)
    // exercises both incremental paths at once.
    let data = zipcity::generate(
        &GenConfig {
            rows: 300,
            seed: 7,
            error_rate: 0.05,
        },
        zipcity::ZipTarget::City,
    );
    let mixed = Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![
            PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                "Los Angeles",
            ),
            PatternTuple::variable("[\\D{3}]\\D{2}".parse().unwrap()),
        ],
    );
    assert_equivalent(&data.table, &[mixed], "handcrafted mixed tableau");
}

/// Split `ops` into batches whose sizes cycle through `batch_sizes`, so
/// one run exercises several batch granularities.
fn batches(ops: &[RowOp], batch_sizes: &[usize]) -> Vec<Vec<RowOp>> {
    let mut out = Vec::new();
    let mut rest = ops;
    for &size in batch_sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(size.clamp(1, rest.len()));
        out.push(head.to_vec());
        rest = tail;
    }
    out
}

#[test]
fn drift_report_is_rule_index_sorted() {
    // Three constant rules that all drift (every matching row violates):
    // the report must come back in rule-index order.
    let schema = Schema::new(["zip", "city"]).unwrap();
    let rule = |expected: &str| {
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                expected,
            )],
        )
    };
    let mut engine = StreamEngine::new(schema, vec![rule("Alpha"), rule("Beta"), rule("Gamma")]);
    let rows: Vec<Vec<Value>> = (0..12)
        .map(|i| vec![Value::text(format!("900{i:02}")), Value::text("Delta")])
        .collect();
    engine.push_batch(rows).unwrap();
    let report = engine.drift_report();
    assert_eq!(
        report.iter().map(|d| d.rule).collect::<Vec<_>>(),
        vec![0, 1, 2],
        "drift report must be rule-index sorted"
    );
}

#[test]
fn instrumented_run_is_bit_for_bit_identical() {
    // The observability contract: turning the metrics recorder on must
    // not perturb anything observable — event streams, ledger, health,
    // drift. (The recorder flag is process global; flipping it here is
    // harmless to concurrently running tests precisely *because* of this
    // contract.)
    use anmat_obs as obs;

    let config = GenConfig {
        rows: 160,
        seed: 0xB0B5,
        error_rate: 0.05,
    };
    let data = zipcity::generate(&config, zipcity::ZipTarget::City);
    let rules = discover(&data.table, &discovery_config());
    let ops = random_ops(&data.table, 41, 0.25);
    let op_batches = batches(&ops, &[1, 9, 32]);

    let run = || {
        let mut engine = StreamEngine::new(data.table.schema().clone(), rules.clone());
        let events: Vec<_> = op_batches
            .iter()
            .map(|batch| engine.apply(batch.clone()).expect("ops are valid"))
            .collect();
        // Exercise the publish path too — reading gauges out of engine
        // state must be as inert as the inline counters.
        engine.publish_metrics();
        let healths: Vec<_> = (0..rules.len()).map(|r| engine.rule_health(r)).collect();
        (
            events,
            engine.ledger().snapshot(),
            healths,
            engine.drift_report(),
            engine.pattern_evals(),
            engine.pattern_lookups(),
        )
    };

    let baseline = run();
    obs::Recorder::enable();
    let instrumented = run();
    obs::Recorder::disable();
    assert_eq!(
        baseline, instrumented,
        "an active recorder must not change any observable engine state"
    );
    // And the recorder really was live during the second run: the
    // engine-phase counters can only have moved while it was enabled.
    let snap = obs::MetricsSnapshot::capture();
    assert!(
        snap.counter("engine.ops").unwrap_or(0) > 0,
        "instrumented run must have recorded engine.ops"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// The tentpole acceptance property: any seeded table, replayed
    /// row-by-row, converges to the batch violation set under discovered
    /// rules (constant and variable PFDs alike).
    #[test]
    fn replay_equals_batch_on_any_seed(seed in 0u64..10_000, rows in 100usize..400) {
        let config = GenConfig { rows, seed, error_rate: 0.03 };
        check_dataset(&names::generate(&config).table, "names (property)");
        check_dataset(
            &zipcity::generate(&config, zipcity::ZipTarget::City).table,
            "zipcity (property)",
        );
    }

    /// Batch order independence: pushing in batches of `k` gives the
    /// same final state as row-by-row replay — and the same pattern
    /// counters, because batch priming (which `replay_table` never
    /// runs) evaluates each new distinct id exactly once, just as the
    /// lazy path would, and is not a lookup.
    #[test]
    fn batch_size_does_not_change_final_state(seed in 0u64..10_000, k in 1usize..50) {
        let config = GenConfig { rows: 200, seed, error_rate: 0.04 };
        let data = phone::generate(&config);
        let rules = discover(&data.table, &discovery_config());

        let mut row_by_row = StreamEngine::new(data.table.schema().clone(), rules.clone());
        row_by_row.replay_table(&data.table).unwrap();

        let mut batched = StreamEngine::new(data.table.schema().clone(), rules);
        let mut pending = Vec::new();
        for r in 0..data.table.row_count() {
            pending.push(data.table.row(r));
            if pending.len() == k {
                batched.push_batch(std::mem::take(&mut pending)).unwrap();
            }
        }
        batched.push_batch(pending).unwrap();

        prop_assert_eq!(
            canonical(row_by_row.ledger().snapshot()),
            canonical(batched.ledger().snapshot())
        );
        prop_assert_eq!(
            row_by_row.pattern_evals(),
            batched.pattern_evals(),
            "batch priming must be eval-count-neutral (k = {})",
            k
        );
        prop_assert_eq!(
            row_by_row.pattern_lookups(),
            batched.pattern_lookups(),
            "priming is not a lookup (k = {})",
            k
        );
    }
}
