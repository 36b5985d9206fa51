//! Deterministic IR fuzzing driver: generate seeded catalogs and well-typed
//! plans, and check each one differentially against the row-at-a-time
//! reference interpreter across threads {1, 4} × {memory, thrash-cache spill}
//! (see `query::fuzz`).
//!
//! Usage:
//!   fuzz_ir [--seed S] [--count N]   check seeds S .. S+N-1 (default 1..=100)
//!   fuzz_ir --repro FILE             replay a minimized repro document
//!
//! On a failure the harness shrinks the case and writes a self-contained
//! repro (`FUZZ_repro_<seed>.json`: seed + IR + catalog dump), prints the
//! seed loudly, and exits non-zero. Reproduce with either
//! `fuzz_ir --seed <seed> --count 1` or `fuzz_ir --repro <file>`.

use std::process::ExitCode;

use query::fuzz::{self, FuzzCase};

fn usage() -> ! {
    eprintln!("usage: fuzz_ir [--seed S] [--count N] | fuzz_ir --repro FILE");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut seed: u64 = 1;
    let mut count: u64 = 100;
    let mut repro: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--count" => count = value().parse().unwrap_or_else(|_| usage()),
            "--repro" => repro = Some(value()),
            _ => usage(),
        }
    }

    if let Some(path) = repro {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("reading repro {path}: {err}"));
        let case = fuzz::parse_repro(&text).unwrap_or_else(|err| panic!("parsing repro: {err}"));
        return match fuzz::check_case(&case) {
            Ok(_) => {
                println!("repro {path} (seed {}) passes", case.seed);
                ExitCode::SUCCESS
            }
            Err(failure) => {
                eprintln!("repro {path} (seed {}) FAILS: {failure}", case.seed);
                ExitCode::FAILURE
            }
        };
    }

    let mut probe_side_builds = 0;
    for s in seed..seed.saturating_add(count) {
        match fuzz::run_seed(s) {
            Ok(builds) => probe_side_builds += builds,
            Err(failure) => {
                report_failure(s, &failure);
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "fuzz_ir: {count} seeds ok (seeds {seed}..={}); {probe_side_builds} planned joins hash their probe side",
        seed + count - 1
    );
    ExitCode::SUCCESS
}

fn report_failure(seed: u64, failure: &fuzz::Failure) {
    eprintln!("================ FUZZ FAILURE ================");
    eprintln!("seed {seed}: {failure}");
    let case = fuzz::generate_case(seed);
    let minimized = fuzz::minimize(&case, failure.kind);
    let shrunk: &FuzzCase = if fuzz::case_size(&minimized) < fuzz::case_size(&case) {
        eprintln!(
            "shrunk case from size {} to {}",
            fuzz::case_size(&case),
            fuzz::case_size(&minimized)
        );
        &minimized
    } else {
        &case
    };
    let path = format!("FUZZ_repro_{seed}.json");
    match std::fs::write(&path, fuzz::repro_json(shrunk)) {
        Ok(()) => eprintln!("minimized repro written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    eprintln!("reproduce with: fuzz_ir --seed {seed} --count 1");
    eprintln!("            or: fuzz_ir --repro {path}");
    eprintln!("==============================================");
}
