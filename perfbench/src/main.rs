//! `perfbench` — the in-process half of the anmat benchmark.
//!
//! ```text
//! perfbench gen    --workload W --seed N --dir D   # seeded inputs into D
//! perfbench oracle --workload W --dir D            # expected results into D
//! perfbench pass   --workload W --dir D --mode traced|plain
//! perfbench calibrate                              # host-speed reference
//! ```
//!
//! `run.py` drives the `anmat` binary end to end and calls these for
//! inputs, for the correctness oracle, and for the per-layer figures.
//! Every call is its own process: `ValuePool` is process-global, so a
//! second workload in one process would inherit the first one's strings.

mod calib;
mod common;
mod gen;
mod oracle;
mod pass;

use std::path::PathBuf;
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {name}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().map(String::as_str).unwrap_or("");
    if command == "calibrate" {
        let (checksum, seconds) = calib::run();
        println!("{checksum} {seconds}");
        return Ok(());
    }
    let workload = flag(args, "--workload")?;
    gen::spec(&workload)?;
    let dir = PathBuf::from(flag(args, "--dir")?);
    match command {
        "gen" => {
            let seed = flag(args, "--seed")?;
            let seed = seed.parse().map_err(|_| format!("bad --seed `{seed}`"))?;
            gen::run(&workload, seed, &dir)
        }
        "oracle" => oracle::run(&workload, &dir),
        "pass" => {
            let traced = match flag(args, "--mode")?.as_str() {
                "traced" => true,
                "plain" => false,
                other => return Err(format!("bad --mode `{other}` (want traced|plain)")),
            };
            println!("{}", pass::run(&workload, &dir, traced)?);
            Ok(())
        }
        other => Err(format!(
            "unknown command `{other}` (want gen|oracle|pass|calibrate)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
