#!/usr/bin/env python3
"""The anmat benchmark: seeded workloads driven through the `anmat` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

It builds the release `anmat` binary and the `perfbench` helper (into
$CARGO_TARGET_DIR, default `.bench_build`), generates the workload's
inputs from the seed under `.bench_work/`, and then:

* `--trace 0` times the CLI end to end, as a subprocess with
  ANMAT_NO_TIMING=1 so its own recorder stays off, repeating the
  measured command until the repeats add up to `--seconds` (and at
  least three times), and reports the end-to-end metrics;
* `--trace 1` runs the in-process pass of every workload and of the
  `audit` pass, traced and plain, each in a fresh process, plus the
  untraced CLI, and reports the per-layer metrics.

Every CLI run and pass is checked against the batch oracle; a run that
fails its check or exits non-zero counts as failed. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it records the host facts and sample counts. See
perfbench/README.md for what each metric measures.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
# Workloads timed end to end. A traced run covers them and `audit`
# (batch `detect --repair`), whose per-layer figures have no end-to-end
# workload: on a 2-vCPU host a third workload leaves too little of the
# driver's time budget for runs long enough to be steady.
WORKLOADS = ("ingest", "churn")
PASSES = (*WORKLOADS, "audit")
BATCH = "4096"
VIOLATIONS = "0.05"
SETUP_REPEATS = 3
MIN_REPEATS = 3
TRACE_CLI_REPEATS = 2
# The reference kernel's typical time on the 2-vCPU host the benchmark
# was tuned on. End-to-end timings are reported at that host speed.
REF_NOMINAL_S = 0.55
# How much faster the CLI's time grows than the kernel's when the host
# slows: the slope of log(unscaled wall_s) on log(kernel time) across
# runs was 1.51 with this kernel (medians 0.55-0.69 s) and 1.43-1.61
# with an earlier string-hashing-and-loads one (medians 0.28-0.40 s).
HOST_ELASTICITY = 1.5
# Workloads whose untraced CLI wall time a per-layer metric subtracts from.
CLI_OVERHEAD_WORKLOADS = ("ingest", "audit")

# name → unit. Every run reports every one of these.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ingest_rows_per_s": "rows/s",
    "first_event_s": "s",
    "apply_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "detect_f1": "ratio",
    "success_rate": "ratio",
}

# name → (unit, workload whose traced pass supplies it, the pass figure
# it reads or a function of the figures).
PER_LAYER = {
    "cli.overhead_s": ("s", "ingest", "cli_overhead_s"),
    "cli.overhead_audit_s": ("s", "audit", "cli_overhead_s"),
    "table.read_s": ("s", "ingest", "read_s"),
    "table.parse_s": ("s", "ingest", "parse_s"),
    "table.intern_hit_ratio": (
        "ratio", "ingest", lambda f: f["intern_hits"] / (f["intern_hits"] + f["intern_misses"])),
    "table.pool_bytes_per_payload_byte": (
        "ratio", "ingest", lambda f: f["pool_bytes"] / f["pool_string_bytes"]),
    "table.bytes": ("bytes", "ingest", "table_bytes"),
    "table.pushes": ("count", "churn", "table_pushes"),
    "table.deletes": ("count", "churn", "table_deletes"),
    "table.updates": ("count", "churn", "table_updates"),
    "pattern.evals": ("count", "ingest", "pattern_evals"),
    "pattern.memo_hit_ratio": ("ratio", "ingest", lambda f: 1 - f["memo_evals"] / f["memo_lookups"]),
    "index.inserts": ("count", "audit", "index_inserts"),
    "index.removes": ("count", "churn", "index_removes"),
    "index.blocks": ("count", "churn", "engine_blocks"),
    "core.discover_s": ("s", "audit", "discover_s"),
    "core.detect_s": ("s", "audit", "detect_s"),
    "core.repair_s": ("s", "audit", "repair_s"),
    "core.ledger_created": ("count", "churn", "ledger_created"),
    "core.ledger_retracted": ("count", "churn", "ledger_retracted"),
    "stream.build_s": ("s", "ingest", "build_s"),
    "stream.batch_p50_ms": ("ms", "ingest", "batch_p50_ms"),
    "stream.batch_p90_ms": ("ms", "ingest", "batch_p90_ms"),
    "stream.engine_apply_s": ("s", "ingest", "engine_apply_s"),
    "stream.validate_s": ("s", "ingest", "engine_validate_s"),
    "stream.ops_validate_s": ("s", "churn", "engine_validate_s"),
    **{f"stream.{kind}_{stat}_us": ("us", "churn", f"{kind}_{stat}_us")
       for kind in ("insert", "delete", "update") for stat in ("p50", "p99")},
}
# Computed over all three passes rather than one.
TRACE_OVERHEAD = ("trace.overhead_pct", "%")

PIPE_BYTES = 1 << 20

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class BenchError(Exception):
    """A failure that leaves nothing to measure: no result is printed."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Build both binaries from source; returns (anmat, perfbench)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not an anmat checkout (no Cargo.toml/src)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest in (ROOT / "Cargo.toml", BENCH_DIR / "Cargo.toml"):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest)]
        if manifest.parent == ROOT:
            cmd += ["--bin", "anmat"]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
        if done.returncode != 0:
            raise BenchError(f"build of {manifest} failed")
    return target / "release" / "anmat", target / "release" / "perfbench"


# ---------------------------------------------------------------- running

class Workdir:
    """`.bench_work/<name>`, removed afterwards."""

    def __init__(self, name):
        self.path = ROOT / ".bench_work" / name

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def helper(perfbench, command, workload, wdir, *extra):
    """Run `perfbench <command>`; returns its stdout."""
    cmd = [str(perfbench), command, "--workload", workload, "--dir", str(wdir), *extra]
    done = subprocess.run(cmd, cwd=wdir, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise BenchError(f"perfbench {command} {workload} failed: {done.stderr.strip()}")
    return done.stdout


class CliRun:
    """One timed `anmat` subprocess: wall time, marker times, peak RSS."""

    def __init__(self, args, wdir):
        stderr_path = wdir / "stderr.txt"
        env = dict(os.environ, ANMAT_NO_TIMING="1")
        self.first_event_s = None
        self.applying_s = None
        lines = []
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=wdir, env=env, stdout=subprocess.PIPE,
                                    stderr=err)
            try:
                # A roomy pipe keeps the child from blocking on a reader
                # that is briefly descheduled.
                fcntl.fcntl(proc.stdout.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
                for raw in proc.stdout:
                    if self.first_event_s is None and is_violation_line(raw):
                        self.first_event_s = time.perf_counter() - start
                    elif self.applying_s is None and raw.startswith(b"applying "):
                        self.applying_s = time.perf_counter() - start
                    lines.append(raw)
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        self.exit_code = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.stdout = b"".join(lines).decode()
        self.stderr = stderr_path.read_text(errors="replace").strip()


class HostSpeed:
    """Times `perfbench calibrate` between the timed commands.

    The host's speed drifts by a quarter and more over minutes, and the
    program's own CPU time drifts with it. The reference kernel does a
    fixed amount of work and uses no anmat code, so its time around a
    command measures how fast the host ran that command.
    """

    def __init__(self, perfbench, wdir):
        self.perfbench, self.wdir = perfbench, wdir
        self.kernel_times = []
        self.reading()

    def reading(self):
        """Times the kernel once, before the next timed command."""
        done = subprocess.run([str(self.perfbench), "calibrate"], cwd=self.wdir,
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise BenchError(f"perfbench calibrate failed: {done.stderr.strip()}")
        self.kernel_times.append(float(done.stdout.split()[1]))

    def after(self):
        """Takes the reading after a timed command; returns the command's
        slot, the index of the reading just before it."""
        self.reading()
        return len(self.kernel_times) - 2

    def factor(self, slot):
        """Scale for the command in `slot`: nominal over the median of
        the two readings on each side of it, raised to HOST_ELASTICITY.
        The median drops a single slow reading, which the exponent would
        otherwise magnify. Multiply a time by it, divide a rate by it."""
        near = self.kernel_times[max(0, slot - 1):slot + 3]
        return (REF_NOMINAL_S / statistics.median(near)) ** HOST_ELASTICITY


def is_violation_line(raw):
    """An event line (`+ row …`/`- row …`) or a detect listing line (`row N: …`)."""
    return raw.startswith((b"+ row ", b"- row ")) or (
        raw.startswith(b"row ") and b": [" in raw)


def discover(anmat, wdir, store):
    """One `anmat discover --store` over the setup rows; returns its wall time."""
    shutil.rmtree(wdir / store, ignore_errors=True)
    run = CliRun([str(anmat), "discover", "setup/data.csv", "--store", store,
                  "--violations", VIOLATIONS], wdir)
    if run.exit_code != 0:
        raise BenchError(f"discover failed ({run.exit_code}): {run.stderr}")
    if not re.search(r"^discovered \d+ PFD\(s\):", run.stdout, re.M):
        raise BenchError("discover printed no `discovered N PFD(s)` line")
    return run.wall_s


def measured_command(anmat, workload):
    if workload == "audit":
        return [str(anmat), "detect", "data.csv", "--store", "store",
                "--repair", "repaired.csv"]
    cmd = [str(anmat), "stream", "data.csv", "--store", "store", "--batch", BATCH,
           "--violations", VIOLATIONS]
    if workload == "churn":
        cmd += ["--ops", "ops.csv"]
    return cmd


# ---------------------------------------------------------------- checks

class CheckFailed(Exception):
    pass


def marker(pattern, text, what):
    """A stdout marker the run must print; never read as zero when missing."""
    m = re.search(pattern, text, re.M)
    if m is None:
        raise CheckFailed(f"missing marker: {what}")
    return m


def count_lines(path):
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def input_sizes(workload, wdir):
    """(data rows, op-log ops) of the generated inputs."""
    ops = count_lines(wdir / "ops.csv") if workload == "churn" else 0
    return count_lines(wdir / "data.csv") - 1, ops


def check_stream(run, wdir, rows, ops):
    """Events (created minus retracted) must be the oracle's live set.

    Returns the flagged row ids.
    """
    out = run.stdout
    streamed = int(marker(r"^streaming (\d+) row\(s\)", out, "streaming header").group(1))
    if streamed != rows:
        raise CheckFailed(f"streamed {streamed} rows, expected {rows}")
    if ops:
        applied = int(marker(r"^applying (\d+) op\(s\)", out, "applying line").group(1))
        if applied != ops:
            raise CheckFailed(f"applied {applied} ops, expected {ops}")
    final = marker(r"^final: (\d+) live violation\(s\) \((\d+) created, (\d+) retracted\)",
                   out, "final summary")
    live, created, retracted = Counter(), 0, 0
    for line in out.splitlines():
        if line.startswith("+ row "):
            live[line[2:]] += 1
            created += 1
        elif line.startswith("- row "):
            live[line[2:]] -= 1
            retracted += 1
    if any(n < 0 for n in live.values()):
        raise CheckFailed("a retraction without a matching creation")
    if (created, retracted, created - retracted) != (
            int(final.group(2)), int(final.group(3)), int(final.group(1))):
        raise CheckFailed("event lines disagree with the final summary")
    got = sorted(live.elements())
    want = (wdir / "oracle_live.txt").read_text().splitlines()
    if got != [w for w in want if w]:
        raise CheckFailed(f"live set ({len(got)}) differs from detect_all ({len(want)})")
    return {int(p.split(" ", 2)[1]) for p in got}


def check_audit(run, wdir, repaired_csv):
    """The listing must equal in-process detect_all's; the repair must match."""
    out = run.stdout
    marker(r"^=== \d+ violation\(s\) ===", out, "violation listing header")
    repair = marker(r"^(repaired \d+ cell\(s\) \(\d+ conflict\(s\) left untouched\))", out,
                    "repair summary")
    view = out[:repair.start()].rstrip("\n") + "\n"
    if view != (wdir / "oracle_view.txt").read_text():
        raise CheckFailed("violation listing differs from detect_all")
    if repair.group(1) + "\n" != (wdir / "oracle_repair.txt").read_text():
        raise CheckFailed("repair summary differs from repair_to_fixpoint")
    if sha256(repaired_csv) != sha256(wdir / "oracle_repaired.csv"):
        raise CheckFailed("repaired table differs from repair_to_fixpoint")
    return {int(m) for m in re.findall(r"^row (\d+): ", view, re.M)}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def f1(flagged, labels):
    hits = len(flagged & labels)
    return 2 * hits / (len(flagged) + len(labels))


def check_cli(run, workload, wdir):
    """Raises CheckFailed unless the run exited 0 and matches the oracle.

    Returns the flagged row ids.
    """
    if run.exit_code != 0:
        raise CheckFailed(f"exit code {run.exit_code}: {run.stderr}")
    if workload == "audit":
        return check_audit(run, wdir, wdir / "repaired.csv")
    return check_stream(run, wdir, *input_sizes(workload, wdir))


# ---------------------------------------------------------------- trace 0

def end_to_end(workload, seed, seconds):
    anmat, perfbench = build()
    with Workdir(f"{workload}-{seed}-{os.getpid()}") as wdir:
        helper(perfbench, "gen", workload, wdir, "--seed", str(seed))
        speed = HostSpeed(perfbench, wdir)
        setups = [(discover(anmat, wdir, "store"), speed.after())]
        rules = (wdir / "store" / "data.json").read_bytes()
        helper(perfbench, "oracle", workload, wdir)
        sizes = input_sizes(workload, wdir)
        labels = {int(x) for x in (wdir / "labels.txt").read_text().split()}
        measured, failed, passed = 0, 0, []
        speed.reading()
        # The window counts measured runs only, so set-up repeats do
        # not eat into the samples.
        measured_s = 0.0
        while (measured < MIN_REPEATS or len(setups) < SETUP_REPEATS
               or measured_s < seconds):
            run = CliRun(measured_command(anmat, workload), wdir)
            slot = speed.after()
            measured += 1
            measured_s += run.wall_s
            # The set-up repeats alternate with measured runs, which
            # spreads the measured runs over more of the host's speed
            # drift. The first discovery already ran the binary over the
            # same kind of input, so no separate warm-up run is made.
            # Discovery is deterministic: every repeat must write the
            # same rules.
            if len(setups) < SETUP_REPEATS:
                setups.append((discover(anmat, wdir, "store_again"), speed.after()))
                if (wdir / "store_again" / "data.json").read_bytes() != rules:
                    raise BenchError("repeated discovery wrote different rules")
            try:
                flagged = check_cli(run, workload, wdir)
                phase = phase_rates(run, workload, *sizes)
            except CheckFailed as e:
                failed += 1
                log(f"{workload} run {measured} failed: {e}")
                continue
            passed.append((run, phase, f1(flagged, labels), slot))
        if not passed:
            raise BenchError("no measured run succeeded")
        samples = {name: [] for name in END_TO_END if name not in ("setup_s", "success_rate")}
        for run, (rows_per_s, ops_per_s), detect_f1, slot in passed:
            scale = speed.factor(slot)
            samples["wall_s"].append(run.wall_s * scale)
            samples["first_event_s"].append(run.first_event_s * scale)
            samples["ingest_rows_per_s"].append(rows_per_s / scale)
            samples["apply_ops_per_s"].append(ops_per_s / scale)
            samples["peak_rss_mb"].append(run.peak_rss_mb)
            samples["detect_f1"].append(detect_f1)
        attempted = len(setups) + measured
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["setup_s"] = statistics.median(t * speed.factor(slot) for t, slot in setups)
        values["success_rate"] = (attempted - failed) / attempted
        counts = {"setup_s": len(setups), "measured": len(passed),
                  "wall_s": [round(w, 3) for w in samples["wall_s"]],
                  "unscaled_median": {
                      "setup_s": statistics.median(t for t, _ in setups),
                      "wall_s": statistics.median(run.wall_s for run, *_ in passed)},
                  "kernel_s": {"median": statistics.median(speed.kernel_times),
                               "count": len(speed.kernel_times),
                               "nominal": REF_NOMINAL_S, "elasticity": HOST_ELASTICITY}}
        return failed == 0, attempted, failed, values, counts


def phase_rates(run, workload, rows, ops):
    """(ingest_rows_per_s, apply_ops_per_s) for one checked run.

    The ingest phase runs from spawn to the `applying` line, or to exit
    when there is no op-log. The apply phase runs from the point where
    the workload's per-op work starts to exit: the `applying` line for
    churn (ops: op-log records) and the first event for ingest (ops:
    appended rows).
    """
    if run.first_event_s is None:
        raise CheckFailed("no violation line on stdout")
    if workload == "churn":
        if run.applying_s is None:
            raise CheckFailed("missing marker: applying line")
        return rows / run.applying_s, ops / (run.wall_s - run.applying_s)
    return rows / run.wall_s, rows / (run.wall_s - run.first_event_s)


# ---------------------------------------------------------------- trace 1

def per_layer(seed):
    """Traced and plain passes of every workload, plus the untraced CLI
    where a per-layer metric needs its wall time."""
    anmat, perfbench = build()
    attempted, failed = 0, 0
    figures, plain_steps = {}, {}
    # For one seed every workload shares its leading rows, so one
    # discovery serves all three.
    rules = None
    for workload in PASSES:
        with Workdir(f"trace-{workload}-{seed}-{os.getpid()}") as wdir:
            helper(perfbench, "gen", workload, wdir, "--seed", str(seed))
            if rules is None:
                discover(anmat, wdir, "store")
                attempted += 1
                rules = (wdir / "store" / "data.json").read_bytes()
            else:
                (wdir / "store").mkdir()
                (wdir / "store" / "data.json").write_bytes(rules)
            helper(perfbench, "oracle", workload, wdir)
            for mode in ("traced", "plain"):
                fig = json.loads(helper(perfbench, "pass", workload, wdir, "--mode", mode))
                attempted += 1
                try:
                    check_pass(workload, wdir)
                except CheckFailed as e:
                    failed += 1
                    log(f"{workload} {mode} pass failed: {e}")
                if mode == "traced":
                    figures[workload] = fig
                else:
                    plain_steps[workload] = fig["steps_s"]
            walls = []
            for _ in range(TRACE_CLI_REPEATS if workload in CLI_OVERHEAD_WORKLOADS else 0):
                run = CliRun(measured_command(anmat, workload), wdir)
                attempted += 1
                try:
                    check_cli(run, workload, wdir)
                    walls.append(run.wall_s)
                except CheckFailed as e:
                    failed += 1
                    log(f"{workload} CLI run failed: {e}")
            if walls:
                figures[workload]["cli_overhead_s"] = (
                    statistics.median(walls) - plain_steps[workload])
            elif workload in CLI_OVERHEAD_WORKLOADS:
                raise BenchError(f"no untraced {workload} CLI run succeeded")
    values = {}
    for name, (_, workload, source) in PER_LAYER.items():
        fig = figures[workload]
        values[name] = fig[source] if isinstance(source, str) else source(fig)
    traced = sum(figures[wl]["steps_s"] for wl in PASSES)
    plain = sum(plain_steps.values())
    values[TRACE_OVERHEAD[0]] = 100 * (traced - plain) / plain
    counts = {"cli_runs": TRACE_CLI_REPEATS,
              "ingest_batches": figures["ingest"]["batches"],
              **{f"churn_single_{k}s": figures["churn"][f"{k}_count"]
                 for k in ("insert", "delete", "update")}}
    return failed == 0, attempted, failed, values, counts


def check_pass(workload, wdir):
    if workload == "audit":
        if (wdir / "pass_view.txt").read_text() != (wdir / "oracle_view.txt").read_text():
            raise CheckFailed("pass listing differs from the oracle")
        if sha256(wdir / "pass_repaired.csv") != sha256(wdir / "oracle_repaired.csv"):
            raise CheckFailed("pass repair differs from the oracle")
    elif (wdir / "pass_live.txt").read_text() != (wdir / "oracle_live.txt").read_text():
        raise CheckFailed("pass ledger differs from detect_all")


# ---------------------------------------------------------------- host, self-test

def host_facts(seed):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    return {
        "nproc": os.cpu_count(),
        "rustc": out(["rustc", "--version"]),
        "commit": out(["git", "rev-parse", "HEAD"]) or f"tree-sha256:{source_digest()}",
        "seed": seed,
    }


def source_digest():
    """Digest of the sources the benchmark builds (for checkouts without git)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "vendor", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.parts)
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def layer_units():
    units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    return units


def self_test():
    """Generator and reference-kernel determinism, op validity, metric
    names. Returns problems."""
    problems = []
    names = [*END_TO_END, *layer_units()]
    for name in names:
        if not METRIC_NAME.fullmatch(name) or len(name) > 64:
            problems.append(f"bad metric name `{name}`")
    if len(set(names)) != len(names):
        problems.append("duplicate metric names")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, units in (("end_to_end", END_TO_END), ("per_layer", layer_units())):
        if {m["name"]: m["unit"] for m in declared[kind]} != units:
            problems.append(f"BENCHMARK.json {kind} names or units differ from run.py")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")

    _, perfbench = build()
    with Workdir(f"self-test-{os.getpid()}") as wdir:
        sums = {subprocess.run([str(perfbench), "calibrate"], capture_output=True, text=True,
                               check=True).stdout.split()[0] for _ in range(2)}
        if len(sums) != 1:
            problems.append("the reference kernel's checksum changed between runs")
        setups = set()
        for workload in PASSES:
            digests = []
            for copy, seed in (("a", 7), ("b", 7), ("c", 8)):
                d = wdir / f"{workload}-{copy}"
                d.mkdir()
                helper(perfbench, "gen", workload, d, "--seed", str(seed))
                digests.append({str(p.relative_to(d)): sha256(p)
                                for p in sorted(d.rglob("*")) if p.is_file()})
            if digests[0] != digests[1]:
                problems.append(f"{workload}: the same seed gave different bytes")
            if digests[0] == digests[2]:
                problems.append(f"{workload}: different seeds gave the same bytes")
            setups.add(digests[0]["setup/data.csv"])
            if workload == "churn":
                problems += check_ops(wdir / "churn-a")
        if len(setups) != 1:
            problems.append("workloads differ in their setup rows for one seed")
    return problems


def check_ops(wdir):
    """Replay the op-log against the live-slot set: every op must be valid."""
    live = set(range(input_sizes("churn", wdir)[0]))
    next_slot = len(live)
    for n, line in enumerate((wdir / "ops.csv").read_text().splitlines(), 1):
        fields = line.split(",")
        code, rest = fields[0], fields[1:]
        if code == "+" and len(rest) == 4:
            live.add(next_slot)
            next_slot += 1
        elif code == "-" and len(rest) == 1 and int(rest[0]) in live:
            live.remove(int(rest[0]))
        elif code == "~" and len(rest) == 5 and int(rest[0]) in live:
            pass
        else:
            return [f"churn op {n} is invalid: {line}"]
    return []


# ---------------------------------------------------------------- main

def main():
    # A SIGTERM unwinds like any other error, so every child process is
    # killed and waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            problems = self_test()
            for problem in problems:
                print(f"self-test: {problem}")
            print("self-test: " + ("FAILED" if problems else "ok"))
            return 1 if problems else 0
        if args.workload is None:
            p.error("--workload is required")
        if args.trace:
            correct, attempted, failed, values, counts = per_layer(args.seed)
            units = layer_units()
        else:
            correct, attempted, failed, values, counts = end_to_end(
                args.workload, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as e:
        log(f"error: {e}")
        return 1
    facts = host_facts(args.seed)
    print("host: " + json.dumps({**facts, "workload": args.workload, "trace": args.trace,
                                 "samples": counts}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
