//! CLI contract tests: exit codes, usage routing, and the `stream`
//! subcommand end-to-end.

use anmat::prelude::*;
use std::process::{Command, Output};

fn anmat(args: &[&str]) -> Output {
    // Timing lines are wall-clock (nondeterministic); every assertion in
    // this suite compares exact output, so suppress them via the env
    // hook. `stream_timing_line_is_gated` exercises the un-suppressed
    // path explicitly.
    Command::new(env!("CARGO_BIN_EXE_anmat"))
        .env("ANMAT_NO_TIMING", "1")
        .args(args)
        .output()
        .expect("anmat binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for flag in ["help", "--help", "-h"] {
        let out = anmat(&[flag]);
        assert!(out.status.success(), "`anmat {flag}` must succeed");
        assert!(stdout(&out).contains("USAGE"), "usage on stdout for {flag}");
        assert!(stderr(&out).is_empty(), "no stderr noise for {flag}");
    }
}

#[test]
fn unknown_command_fails_with_usage_on_stderr() {
    let out = anmat(&["frobnicate"]);
    assert!(!out.status.success(), "unknown command must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown command `frobnicate`"));
    assert!(err.contains("USAGE"), "usage goes to stderr on error");
    assert!(stdout(&out).is_empty(), "nothing on stdout on error");
}

#[test]
fn no_command_fails_with_usage_on_stderr() {
    let out = anmat(&[]);
    assert!(!out.status.success(), "bare invocation must fail");
    assert!(stderr(&out).contains("USAGE"));
    assert!(stdout(&out).is_empty());
}

#[test]
fn stream_replays_csv_and_reports_violations() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_stream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,New York\n",
    )
    .unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();

    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stream failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("+ row 3"),
        "the New York row must be flagged on arrival:\n{text}"
    );
    assert!(
        text.contains("1 live violation(s)"),
        "summary line:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_batch_size_is_output_invariant() {
    // `--batch N` only changes how many rows each engine call ingests
    // (and how much per-batch priming amortizes); every printed line
    // below the header — events, summaries — must be identical.
    let dir = std::env::temp_dir().join(format!("anmat_cli_batch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,New York\n",
    )
    .unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable(
                "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
            )],
        ),
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                "Los Angeles",
            )],
        ),
    ];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();

    let strip_header =
        |text: String| -> String { text.lines().skip(1).collect::<Vec<_>>().join("\n") };
    let run = |batch: &str| {
        anmat(&[
            "stream",
            csv.to_str().unwrap(),
            "--rules",
            rules.to_str().unwrap(),
            "--batch",
            batch,
        ])
    };
    let single = run("1");
    assert!(
        single.status.success(),
        "stream failed: {}",
        stderr(&single)
    );
    let batched = run("3");
    assert!(
        batched.status.success(),
        "batched stream failed: {}",
        stderr(&batched)
    );
    assert!(
        stdout(&batched).contains("batch size 3"),
        "header advertises the batch size:\n{}",
        stdout(&batched)
    );
    assert_eq!(
        strip_header(stdout(&single)),
        strip_header(stdout(&batched)),
        "batched output must be bit-for-bit identical below the header"
    );

    // Bad batch sizes are rejected up front.
    let bad = run("0");
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("bad --batch"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_subcommand_rejects_unconsumed_arguments() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_leftover_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    let (csv, rules) = (csv.to_str().unwrap(), rules.to_str().unwrap());
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let discovered = anmat(&["discover", csv, "--store", store, "--violations", "0.3"]);
    assert!(discovered.status.success(), "{}", stderr(&discovered));

    let cases: &[(&[&str], &str)] = &[
        (
            &["profile", csv, "extra.csv"],
            "profile: unexpected argument `extra.csv`",
        ),
        (
            &["discover", csv, "--bogus", "3"],
            "discover: unexpected argument `--bogus`",
        ),
        (
            &["rules", "--store", store, "--dataset", "zips", "--bogus"],
            "rules: unexpected argument `--bogus`",
        ),
        (
            &["detect", csv, "--rules", rules, "--bogus", "3"],
            "detect: unexpected argument `--bogus`",
        ),
        (
            &["stream", csv, "--store", store, "--bogus", "3"],
            "stream: unexpected argument `--bogus`",
        ),
        (
            &["stream", "--bogus", "3", csv, "--store", store],
            "stream: unexpected argument `--bogus`",
        ),
        // The sharded engine is gone: its flag must fail loudly rather
        // than run single-threaded without a word.
        (
            &["stream", csv, "--rules", rules, "--shards", "2"],
            "stream: unexpected argument `--shards`",
        ),
        // So are the pattern-tier knobs: each compiled program picks
        // its own tier.
        (
            &["stream", csv, "--rules", rules, "--pattern-engine", "vm"],
            "stream: unexpected argument `--pattern-engine`",
        ),
        (
            &["stream", csv, "--rules", rules, "--interpret"],
            "stream: unexpected argument `--interpret`",
        ),
        // Thresholds are finite ratios in [0, 1]; anything else would
        // run with a meaningless cut-off.
        (
            &["discover", csv, "--violations", "nan"],
            "bad --violations `nan` (want a ratio in [0, 1])",
        ),
        (
            &["discover", csv, "--coverage", "-1", "--violations", "5"],
            "bad --coverage `-1` (want a ratio in [0, 1])",
        ),
        (
            &["discover", csv, "--coverage", "inf"],
            "bad --coverage `inf` (want a ratio in [0, 1])",
        ),
        (
            &[
                "stream",
                csv,
                "--store",
                store,
                "--violations",
                "nan",
                "--min-support",
                "0",
            ],
            "bad --violations `nan` (want a ratio in [0, 1])",
        ),
        (
            &["stream", csv, "--rules", rules, "--violations", "1.5"],
            "bad --violations `1.5` (want a ratio in [0, 1])",
        ),
        // The string sweep runs only at a compaction barrier, so
        // --reclaim alone would refcount every push for nothing.
        (
            &["stream", csv, "--rules", rules, "--reclaim"],
            "--reclaim needs --compact-ratio R",
        ),
        // A trailing flag with no value is an error, not a no-op.
        (
            &["stream", csv, "--store", store, "--batch"],
            "--batch needs a value",
        ),
        (&["discover", csv, "--store"], "--store needs a value"),
    ];
    for (args, want) in cases {
        let out = anmat(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
        assert!(stdout(&out).is_empty(), "{args:?} runs nothing");
        assert!(
            stderr(&out).contains(want),
            "{args:?}: want `{want}` in stderr:\n{}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `anmat` with its stdout connected to a pipe whose reader is
/// already gone — `anmat … | head -3` after `head` has exited.
fn anmat_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_anmat"))
        .args(args)
        .stdout(writer)
        .output()
        .expect("anmat binary runs")
}

#[test]
fn closed_stdout_is_quiet_and_keeps_every_file_write() {
    // The reader goes away before the output is written. The closed pipe
    // must end output quietly — exit 0, no panic, no backtrace — and
    // every file or store write the command was asked for still happens.
    let dir = std::env::temp_dir().join(format!("anmat_cli_pipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    let (csv, rules) = (csv.to_str().unwrap(), rules.to_str().unwrap());
    let store = dir.join("store");
    let repaired = dir.join("repaired.csv");
    let metrics = dir.join("metrics.json");

    let cases: [(&[&str], &std::path::Path); 3] = [
        (
            &[
                "discover",
                csv,
                "--store",
                store.to_str().unwrap(),
                "--violations",
                "0.3",
            ],
            &store.join("zips.json"),
        ),
        (
            &[
                "detect",
                csv,
                "--rules",
                rules,
                "--repair",
                repaired.to_str().unwrap(),
            ],
            &repaired,
        ),
        (
            &[
                "stream",
                csv,
                "--rules",
                rules,
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
            &metrics,
        ),
    ];
    for (args, written) in cases {
        let out = anmat_into_closed_pipe(args);
        assert!(
            out.status.success(),
            "{args:?}: exit status {:?}",
            out.status
        );
        assert!(
            stderr(&out).is_empty(),
            "{args:?}: a closed stdout is not an error:\n{}",
            stderr(&out)
        );
        assert!(written.exists(), "{args:?} wrote {}", written.display());
    }
    // The repair itself ran: the New York minority row was fixed.
    let text = std::fs::read_to_string(&repaired).unwrap();
    assert!(!text.contains("New York"), "repaired copy:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_names_a_dataset_missing_from_the_store() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_nodataset_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, _) = zips_fixture(&dir);
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let discovered = anmat(&["discover", csv.to_str().unwrap(), "--store", store]);
    assert!(discovered.status.success(), "{}", stderr(&discovered));
    let other = dir.join("other.csv");
    std::fs::write(&other, "zip,city\n90001,Los Angeles\n").unwrap();

    let out = anmat(&["stream", other.to_str().unwrap(), "--store", store]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains(&format!("dataset `other` is not in store `{store}`")),
        "names the dataset and the store:\n{err}"
    );
    assert!(err.contains("anmat discover"), "points at discover:\n{err}");
    assert!(!err.contains("os error"), "no raw I/O error:\n{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_ops_replays_mutations_and_reports_live_rows() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_ops_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,New York\n",
    )
    .unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();
    // Fix the erroneous row in place, delete a clean one, append a new
    // clean one: the violation retracts and the live count is 4.
    let ops = dir.join("fixes.ops");
    std::fs::write(&ops, "~,3,90004,Los Angeles\n-,0\n+,90005,Los Angeles\n").unwrap();

    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--ops",
        ops.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stream --ops failed: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("applying 3 op(s)"), "op-log banner:\n{text}");
    assert!(
        text.contains("- row 3"),
        "the update must retract row 3's violation:\n{text}"
    );
    assert!(
        text.contains("0 live violation(s)"),
        "violation cleared by the op-log:\n{text}"
    );
    assert!(
        text.contains("over 4 live row(s) (5 slot(s) ingested)"),
        "summary reports live rows, not raw pushes:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_compact_ratio_reclaims_slots_and_reports_epochs() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_compact_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,New York\n",
    )
    .unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();
    // Delete half the table: 2 tombstones / 4 slots = 0.5 ≥ 0.3, so one
    // compaction epoch fires at the op-batch boundary.
    let ops = dir.join("churn.ops");
    std::fs::write(&ops, "-,0\n-,3\n").unwrap();

    let base_args = [
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--ops",
        ops.to_str().unwrap(),
    ];
    // Without the flag: no epochs, 4 slots kept.
    let plain = anmat(&base_args);
    assert!(plain.status.success(), "stream failed: {}", stderr(&plain));
    let text = stdout(&plain);
    assert!(
        text.contains("compaction: 0 epoch(s) run, 0 slot(s) reclaimed"),
        "compaction summary always present:\n{text}"
    );
    assert!(text.contains("over 2 live row(s) (4 slot(s) ingested)"));
    assert!(
        text.contains("4 slot(s) (2 live)"),
        "uncompacted run keeps the tombstoned slots:\n{text}"
    );

    // With --compact-ratio 0.3: one epoch, two slots reclaimed, table
    // memory reported over the compacted slot count — and the lifetime
    // "ingested" figure unchanged.
    let mut args: Vec<&str> = base_args.to_vec();
    args.extend(["--compact-ratio", "0.3"]);
    let compacted = anmat(&args);
    assert!(
        compacted.status.success(),
        "compacting stream failed: {}",
        stderr(&compacted)
    );
    let text = stdout(&compacted);
    assert!(
        text.contains("compaction: 1 epoch(s) run, 2 slot(s) reclaimed"),
        "epoch summary:\n{text}"
    );
    assert!(
        text.contains("over 2 live row(s) (4 slot(s) ingested)"),
        "lifetime slot count survives compaction:\n{text}"
    );
    assert!(
        text.contains("2 slot(s) (2 live)"),
        "table memory reported over compacted slots:\n{text}"
    );

    // Bad ratios are rejected up front.
    for bad in ["0", "1.5", "nope"] {
        let mut args: Vec<&str> = base_args.to_vec();
        args.extend(["--compact-ratio", bad]);
        let out = anmat(&args);
        assert!(!out.status.success(), "`--compact-ratio {bad}` must fail");
        assert!(stderr(&out).contains("bad --compact-ratio"));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_ops_rejects_malformed_logs() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_badops_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("d.csv");
    std::fs::write(&csv, "zip,city\n90001,Los Angeles\n90002,Los Angeles\n").unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();

    for (ops_text, want) in [
        ("?,1\n", "unknown op"),
        ("-,notanumber\n", "bad row id"),
        ("-,7\n", "out of range or already deleted"),
        ("-,0\n-,0\n", "out of range or already deleted"),
    ] {
        let ops = dir.join("bad.ops");
        std::fs::write(&ops, ops_text).unwrap();
        let out = anmat(&[
            "stream",
            csv.to_str().unwrap(),
            "--rules",
            rules.to_str().unwrap(),
            "--ops",
            ops.to_str().unwrap(),
        ]);
        assert!(!out.status.success(), "`{ops_text}` must fail");
        assert!(
            stderr(&out).contains(want),
            "`{ops_text}` should report `{want}`, got: {}",
            stderr(&out)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_ops_errors_name_the_log_line() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_opline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);

    for (ops_text, want) in [
        // Row 0 deleted twice: the second delete, on line 2, fails.
        (
            "-,0\n-,0\n",
            "op-log line 2: row 0 is out of range or already deleted",
        ),
        // A short insert names its line and cell count, not the slot it
        // would have taken.
        (
            "-,1\n+,90005\n",
            "op-log line 2: 1 cell(s), schema expects 2",
        ),
        // Blank lines count: the bad id is on line 3, record 2.
        ("-,0\n\n-,x\n", "op-log line 3: bad row id `x`"),
        // A quoted cell spanning two lines moves the next op to line 3.
        (
            "+,\"900\n05\",Los Angeles\n-,9\n",
            "op-log line 3: row 9 is out of range or already deleted",
        ),
        // An unterminated quote is reported where it opened.
        (
            "-,0\n+,\"90005\n\n",
            "op-log line 2: unterminated quoted field",
        ),
    ] {
        let ops = dir.join("bad.ops");
        std::fs::write(&ops, ops_text).unwrap();
        let out = anmat(&[
            "stream",
            csv.to_str().unwrap(),
            "--rules",
            rules.to_str().unwrap(),
            "--ops",
            ops.to_str().unwrap(),
        ]);
        assert!(!out.status.success(), "`{ops_text}` must fail");
        assert_eq!(
            stderr(&out),
            format!("error: {want}\n"),
            "op-log `{ops_text}`"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Write the standard 4-row zips fixture + one variable rule; returns
/// (csv, rules) paths inside `dir`.
fn zips_fixture(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,New York\n",
    )
    .unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();
    (csv, rules)
}

#[test]
fn stream_metrics_out_writes_parseable_registry_snapshot() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_metrics_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    // Mutations so the ledger sees churn.
    let ops = dir.join("fixes.ops");
    std::fs::write(&ops, "~,3,90004,Los Angeles\n-,0\n+,90005,Los Angeles\n").unwrap();
    let metrics = dir.join("metrics.json");

    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--ops",
        ops.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stream --metrics-out failed: {}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("metrics: full registry snapshot written to"),
        "snapshot banner:\n{}",
        stdout(&out)
    );

    let text = std::fs::read_to_string(&metrics).expect("snapshot file written");
    let json: serde::Value = serde_json::from_str(&text).expect("snapshot is valid JSON");
    let serde::Value::Object(top) = &json else {
        panic!("snapshot root must be an object");
    };
    let section = |name: &str| -> &serde::Value {
        &top.iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("snapshot has a `{name}` section"))
            .1
    };
    let keys = |v: &serde::Value| -> Vec<String> {
        let serde::Value::Object(entries) = v else {
            panic!("section must be an object");
        };
        entries.iter().map(|(k, _)| k.clone()).collect()
    };
    let counters = keys(section("counters"));
    let gauges = keys(section("gauges"));
    let histograms = keys(section("histograms"));
    // One representative per instrumented family: pool, table,
    // engine-phase, index (the op-log's update and delete remove rows
    // from the blocking partition), ledger.
    for want in [
        "pool.intern.misses",
        "table.push",
        "table.delete",
        "engine.ops",
        "index.remove",
        "ledger.created",
        "ledger.retracted",
    ] {
        assert!(
            counters.iter().any(|k| k == want),
            "counter `{want}` in {counters:?}"
        );
    }
    for want in [
        "pool.bytes",
        "table.slots",
        "table.live",
        "memo.evals",
        "ledger.live",
    ] {
        assert!(
            gauges.iter().any(|k| k == want),
            "gauge `{want}` in {gauges:?}"
        );
    }
    for want in [
        "cli.replay_ns",
        "cli.apply_ns",
        "engine.batch_ns",
        "engine.ledger_ns",
    ] {
        assert!(
            histograms.iter().any(|k| k == want),
            "histogram `{want}` in {histograms:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_stats_every_prints_periodic_deterministic_lines() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_stats_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);

    // 4 rows, batch 1, a stats line every 2 batches → exactly 2 lines.
    // Under ANMAT_NO_TIMING (the helper sets it) the line carries only
    // the deterministic figures — no rows/s.
    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--stats-every",
        "2",
    ]);
    assert!(out.status.success(), "stream failed: {}", stderr(&out));
    let text = stdout(&out);
    let stats: Vec<&str> = text.lines().filter(|l| l.starts_with("stats: ")).collect();
    assert_eq!(stats.len(), 2, "one stats line per 2 batches:\n{text}");
    assert!(
        stats[0].starts_with("stats: 2 slot(s) (2 live), 0 live violation(s), pool "),
        "first tick sees two rows, no violation yet:\n{text}"
    );
    assert!(
        stats[1].starts_with("stats: 4 slot(s) (4 live), 1 live violation(s), pool "),
        "second tick sees all four rows and the violation:\n{text}"
    );
    assert!(
        !stats.iter().any(|l| l.contains("rows/s")),
        "no wall-clock rate under ANMAT_NO_TIMING:\n{text}"
    );

    // Bad values are rejected up front.
    let bad = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--stats-every",
        "0",
    ]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("bad --stats-every"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_timing_line_is_gated() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_timing_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    let run = |extra: &[&str]| -> Output {
        // Bypass the suite helper: this test exercises the un-suppressed
        // timing path, so make sure the env hook is NOT set.
        Command::new(env!("CARGO_BIN_EXE_anmat"))
            .env_remove("ANMAT_NO_TIMING")
            .args([
                "stream",
                csv.to_str().unwrap(),
                "--rules",
                rules.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .expect("anmat binary runs")
    };

    let timed = run(&[]);
    assert!(timed.status.success(), "stream failed: {}", stderr(&timed));
    let text = stdout(&timed);
    assert!(
        text.contains("timing: streamed 4 row(s) in") && text.contains("rows/s"),
        "timing line present by default:\n{text}"
    );

    let quieted = run(&["--quiet"]);
    assert!(quieted.status.success());
    assert!(
        !stdout(&quieted).contains("timing:"),
        "--quiet suppresses the timing line:\n{}",
        stdout(&quieted)
    );

    let suppressed = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    assert!(suppressed.status.success());
    assert!(
        !stdout(&suppressed).contains("timing:"),
        "ANMAT_NO_TIMING suppresses the timing line:\n{}",
        stdout(&suppressed)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_without_rules_source_fails() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_norules_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("d.csv");
    std::fs::write(&csv, "a,b\n1,2\n").unwrap();
    let out = anmat(&["stream", csv.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("need --store DIR or --rules FILE"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--reclaim` sweeps stranded strings at the compaction barrier and is
/// output-invariant below the header; `--checkpoint` writes the final
/// epoch, table and live violations as JSON into the store.
#[test]
fn stream_reclaim_is_output_invariant_and_checkpoint_writes_json() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_reclaim_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("zips.csv");
    // Unique cities are stranded once their rows die; shared ones stay.
    let mut data = String::from("zip,city\n");
    for i in 0..40 {
        let prefix = ["900", "104"][i % 2];
        let city = if i % 4 == 0 {
            format!("uniq-{i}")
        } else {
            format!("city-{prefix}")
        };
        data.push_str(&format!("{prefix}{i:02},{city}\n"));
    }
    std::fs::write(&csv, data).unwrap();
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    let store_dir = dir.join("store");
    let store = RuleStore::open(&store_dir).unwrap();
    store
        .save(&DatasetRecord {
            name: "zips".into(),
            profile: None,
            rules: pfds
                .iter()
                .cloned()
                .map(|pfd| StoredRule {
                    pfd,
                    status: RuleStatus::Confirmed,
                })
                .collect(),
        })
        .unwrap();
    // Delete the first 30 rows: tombstones cross --compact-ratio, one
    // epoch fires, and the dead rows' unique cities lose their last
    // reference right at the barrier.
    let ops = dir.join("churn.ops");
    std::fs::write(
        &ops,
        (0..30).map(|r| format!("-,{r}\n")).collect::<String>(),
    )
    .unwrap();

    let base = [
        "stream",
        csv.to_str().unwrap(),
        "--store",
        store_dir.to_str().unwrap(),
        "--ops",
        ops.to_str().unwrap(),
        "--compact-ratio",
        "0.3",
    ];
    let plain = anmat(&base);
    assert!(plain.status.success(), "stream failed: {}", stderr(&plain));

    let mut reclaim_args = base.to_vec();
    reclaim_args.extend(["--reclaim", "--checkpoint"]);
    let swept = anmat(&reclaim_args);
    assert!(
        swept.status.success(),
        "stream --reclaim failed: {}",
        stderr(&swept)
    );
    let text = stdout(&swept);
    assert!(
        text.contains("reclaim: ") && !text.contains("reclaim: 0 string(s)"),
        "the sweep must free the stranded unique cities:\n{text}"
    );
    assert!(
        text.contains("checkpoint: epoch 1, 10 live row(s)"),
        "checkpoint banner:\n{text}"
    );
    let checkpoint_path = store_dir.join("zips.checkpoint.json");
    let checkpoint = std::fs::read_to_string(&checkpoint_path).unwrap();
    assert!(
        checkpoint.starts_with("{\"epoch\":1,\"table\":"),
        "checkpoint JSON shape:\n{checkpoint}"
    );
    // The content, not just the shape: the stored table is the engine's
    // compacted one, and its violations are what batch detection finds
    // over it.
    let json: serde::Value = serde_json::from_str(&checkpoint).expect("checkpoint is valid JSON");
    let part = |name: &str| {
        json.get(name)
            .unwrap_or_else(|| panic!("checkpoint has a `{name}` field"))
    };
    assert_eq!(part("epoch"), &serde::Value::UInt(1));
    let table: Table =
        serde::Deserialize::from_json_value(part("table")).expect("checkpoint table loads");
    assert_eq!(table.epoch(), 1);
    assert_eq!(table.live_rows(), 10);
    let violations: Vec<Violation> =
        serde::Deserialize::from_json_value(part("violations")).expect("violations load");
    let key = |v: &Violation| (v.row, v.dependency.clone());
    let stored: std::collections::BTreeSet<_> = violations.iter().map(key).collect();
    let batch: std::collections::BTreeSet<_> = detect_all(&table, &pfds).iter().map(key).collect();
    assert!(
        !stored.is_empty(),
        "the 900 block keeps two minority cities"
    );
    assert_eq!(stored, batch, "checkpointed violations ≡ detect_all");

    // Everything is identical modulo the reclaim / checkpoint lines and
    // the pool footprint itself (which is the point: the sweep shrinks
    // it) — reclamation never changes observable violation output.
    let filter = |s: &str| {
        s.lines()
            .filter(|l| {
                !l.starts_with("reclaim: ")
                    && !l.starts_with("checkpoint: ")
                    && !l.starts_with("pool: ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        filter(&stdout(&plain)),
        filter(&text),
        "--reclaim must be output-invariant"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_checkpoint_without_store_fails() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("d.csv");
    std::fs::write(&csv, "a,b\n1,2\n").unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "R",
        "a",
        "b",
        vec![PatternTuple::variable(
            "[\\D{1}]".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();
    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--checkpoint",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--checkpoint needs --store DIR"));
    let _ = std::fs::remove_dir_all(&dir);
}
