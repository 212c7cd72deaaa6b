//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Checks the program's outputs, then measures one workload for the given
//! wall seconds and prints a summary followed by one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`.  Exits non-zero, after a result line with
//! `"correct": false`, when any check fails.
//!
//! `perfbench --print-digests` prints the `digests.txt` lines for the
//! committed seeds.

use perfbench::bench::{self, Horizon, DEFAULT_SEED, HELD_OUT_SEED};
use perfbench::stats::{result_line, Metric};
use perfbench::workload::NAMES;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    Ok(Some(args))
}

fn print_digests() -> Result<(), String> {
    for name in NAMES {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            println!("{name} {seed} {:016x}", bench::check_digest(name, seed)?);
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
    bench::check(&args.workload, args.seed)?;
    let (w, _) = bench::workload(&args.workload, args.seed, Horizon::Episode)?;
    if args.trace {
        let export = PathBuf::from("perfbench/out").join(format!("{}.trace.json", w.name));
        let r = bench::per_layer(&w, args.seconds, Some(&export))?;
        println!(
            "{} seed {}: {} traced rounds; Chrome trace in {}",
            w.name,
            args.seed,
            r.rounds,
            export.display()
        );
        for m in &r.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        Ok((r.attempted, r.failed, r.metrics))
    } else {
        let r = bench::end_to_end(&w, args.seconds)?;
        println!(
            "{} seed {}: {} episodes, {} periods of 10 ms; host {:.3}x slower than the \
             {} ms calibration reference (wall-clock figures scaled by it)",
            w.name,
            args.seed,
            r.episodes,
            r.periods,
            r.slowdown,
            bench::CALIBRATION_REF_MS
        );
        for m in &r.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for (name, value, unit) in &r.quality {
            match value {
                Some(v) => println!("  {name:<34} {v:>16.4} {unit}"),
                None => println!("  {name:<34} {:>16} (does not apply)", "absent"),
            }
        }
        Ok((r.attempted, r.failed, r.metrics))
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match print_digests() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((attempted, failed, metrics)) => {
            println!("{}", result_line(true, attempted.max(1), failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: incorrect output:\n{e}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
