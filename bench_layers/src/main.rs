//! `bench_layers`: one five-workload hybrid OLTP/OLAP benchmark with a layer
//! ladder. See `README.md` beside this package for how to run it and what every
//! metric means.
//!
//! ```text
//! bench_layers --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
//! bench_layers all [--quick] [--seed <n>] [--seconds <s>] [--runs <k>] [--out <dir>]
//! bench_layers validate
//! bench_layers compare <dir-a> <dir-b>
//! ```

mod compare;
mod harness;
mod hostspeed;
mod manifest;
mod probes;
mod scans;
mod stats;
mod trace;
mod validate;
mod w_olap;
mod w_scan;
mod w_tpcc;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Outcome, RunArgs};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_layers --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]\n       \
         bench_layers all [--quick] [--seed <n>] [--seconds <s>] [--runs <k>] [--out <dir>]\n       \
         bench_layers validate\n       \
         bench_layers compare <dir-a> <dir-b>\n\
         workloads: {}",
        manifest::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
    );
    ExitCode::from(2)
}

/// Flags of the command line, after the optional subcommand.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    runs: Option<usize>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--runs" => {
                flags.runs = Some(
                    value("--runs")?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?,
                )
            }
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => flags.quick = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

/// Run one workload in this process.
fn run_workload(args: &RunArgs) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "scan_mem" => w_scan::run(args, false),
        "scan_spill" => w_scan::run(args, true),
        "olap_wire" => w_olap::run(args),
        "oltp_tpcc" => w_tpcc::run(args, false),
        "hybrid_tpcc" => w_tpcc::run(args, true),
        _ => return None,
    })
}

/// Print every metric by name with its unit, then — as the last line — the
/// result object. Exit code 1 when an operation failed or answered wrongly.
fn report(args: &RunArgs, outcome: &Outcome) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick { " quick" } else { "" }
    );
    for (key, value) in &outcome.notes {
        println!("  # {key}: {value}");
    }
    for (name, value) in &outcome.metrics {
        let unit = manifest::spec(name).map_or("", |s| s.unit);
        println!("  {name:<44} {value:>18.6} {unit}");
    }
    let line = outcome.to_json_line();
    if let Some(dir) = &args.out {
        let file = dir.join(format!(
            "{}.trace{}.seed{}.{}.json",
            args.workload,
            u8::from(args.trace),
            args.seed,
            std::process::id()
        ));
        if let Err(err) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, format!("{line}\n")))
        {
            eprintln!("cannot write {}: {err}", file.display());
            return ExitCode::from(2);
        }
    }
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} operations failed or answered wrongly",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(sub @ ("all" | "validate" | "compare")) => (sub, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(err) => {
            eprintln!("{err}");
            return usage();
        }
    };
    // the window of a run when `--seconds` is not given
    let seconds = flags.seconds.unwrap_or(if flags.quick {
        1.0
    } else {
        manifest::RUN_SECONDS as f64
    });
    match command {
        "validate" => validate::run(),
        "all" => validate::run_all(&validate::AllArgs {
            quick: flags.quick,
            seed: flags.seed.unwrap_or(1),
            seconds,
            runs: flags.runs.unwrap_or(1),
            out: flags.out,
        }),
        "compare" => match flags.positional.as_slice() {
            [a, b] => compare::run(&PathBuf::from(a), &PathBuf::from(b)),
            _ => usage(),
        },
        _ => {
            let (Some(workload), Some(seed), Some(trace)) =
                (flags.workload, flags.seed, flags.trace)
            else {
                return usage();
            };
            let args = RunArgs {
                workload,
                seed,
                seconds,
                trace,
                quick: flags.quick,
                out: flags.out,
            };
            match run_workload(&args) {
                Some(outcome) => report(&args, &outcome),
                None => {
                    eprintln!("unknown workload {:?}", args.workload);
                    usage()
                }
            }
        }
    }
}
