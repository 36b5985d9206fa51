//! `paper [--threads N] (all | <experiment>…)` — the paper's tables and figures
//! (§5 and Appendix E), one subcommand each; with no argument it lists them.
//!
//! Each experiment prints its table, then each of the paper's claims it checks
//! beside our number and a verdict computed from the numbers the table printed.
//! The run ends with a summary of every verdict. A verdict never changes the exit
//! code; a bad argument exits 2 and never falls back to a default.

mod appendix_e;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig8;
mod fig9;
mod flights;
mod table1;
mod table2;
mod table3;
mod tpcc;

use workloads::TpchDb;

/// TPC-H scale factor of every TPC-H experiment (60 000 lineitem rows).
const SCALE_FACTOR: f64 = 0.01;

/// The one figure of the evaluation that is not an experiment here.
const FIG5: &str = "fig5 — not reproduced: needs a JIT compiler";

/// What the experiments of one run share: the scan worker count, and TPC-H at
/// [`SCALE_FACTOR`] twice — every relation in hot (uncompressed) chunks, and every
/// relation frozen into Data Blocks.
struct Ctx {
    /// Scan workers for `table2` and `flights`; `0` means all hardware threads.
    threads: usize,
    hot: TpchDb,
    frozen: TpchDb,
}

/// One of the paper's claims, in its words and with its number.
struct Paper(&'static str);

/// A [`Paper`] claim, our number for it, and whether our number bears it out.
struct Claim(&'static str, String, bool);

impl Paper {
    fn ours(self, ours: String, holds: bool) -> Claim {
        Claim(self.0, ours, holds)
    }
}

/// A subcommand: its name, what of the paper it reproduces, and its run.
type Experiment = (&'static str, &'static str, fn(&Ctx) -> Vec<Claim>);

/// Every experiment, in the order `all` runs them and the help lists them.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("table1", "Table 1: database sizes", table1::run),
    ("table2", "Tables 2 and 4: TPC-H runtimes by scan type", table2::run),
    ("table3", "Table 3: point-access throughput", table3::run),
    ("fig8", "Figure 8 (§4.2): SIMD predicate evaluation", fig8::run),
    ("fig9", "Figure 9 (§4.2): reduce-matches cost", fig9::run),
    ("fig10", "Figure 10: compression ratio vs block size", fig10::run),
    ("fig11", "Figure 11: Q6 on block-wise sorted lineitem", fig11::run),
    ("fig12", "Figure 12 (§5.4): Data Blocks vs bit-packing", fig12::run),
    ("fig13", "Figure 13 (Appendix A): vector size", fig13::run),
    ("flights", "§5.2 and Appendix D: the flights query", flights::run),
    ("tpcc", "§5.3: TPC-C throughput, hot vs frozen", tpcc::run),
    ("appendix-e", "Appendix E: early join probing", appendix_e::run),
];

/// The help text: usage, then one line per experiment.
fn help() -> String {
    let mut text = String::from("usage: paper [--threads N] (all | <experiment>...)\n\n");
    for (name, section, _) in EXPERIMENTS {
        text += &format!("  {name} — {section}\n");
    }
    text + "  " + FIG5 + "\n"
}

/// Parse the arguments after the program name into the thread count and the
/// experiments to run. An unknown experiment, or a `--threads` without a count,
/// is an error naming the argument.
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(usize, Vec<&'static Experiment>), String> {
    let (mut threads, mut experiments) = (1, Vec::new());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let value = args.next().unwrap_or_default();
                threads = value
                    .parse()
                    .map_err(|_| format!("--threads requires a thread count (got {value:?})"))?;
            }
            "all" => experiments.extend(EXPERIMENTS),
            name => match EXPERIMENTS.iter().find(|e| e.0 == name) {
                Some(experiment) => experiments.push(experiment),
                None => return Err(format!("unknown experiment {name:?}")),
            },
        }
    }
    Ok((threads, experiments))
}

fn main() {
    let (threads, experiments) = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("error: {message}\n\n{}", help());
        std::process::exit(2);
    });
    if experiments.is_empty() {
        print!("{}", help());
        return;
    }
    let mut frozen = TpchDb::generate(SCALE_FACTOR);
    frozen.freeze();
    let ctx = Ctx {
        threads,
        hot: TpchDb::generate(SCALE_FACTOR),
        frozen,
    };
    let mut summary = Vec::new();
    for (name, _, run) in experiments {
        println!();
        for Claim(paper, ours, holds) in run(&ctx) {
            let verdict = if holds { "holds" } else { "does not hold" };
            println!("paper: {paper}\n  ours: {ours} — {verdict}");
            summary.push(format!("{name:<11} {verdict:<14} {paper}"));
        }
    }
    println!("\n== Summary: the paper's claims ==");
    summary.iter().for_each(|line| println!("{line}"));
    println!("{FIG5}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thread count and the experiment names `args` parse to.
    fn parse(args: &[&str]) -> Result<(usize, Vec<&'static str>), String> {
        let (threads, experiments) = parse_args(args.iter().map(|a| a.to_string()))?;
        Ok((threads, experiments.iter().map(|e| e.0).collect()))
    }

    #[test]
    fn bad_arguments_are_errors_naming_the_argument() {
        let err = parse(&["fig7"]).expect_err("unknown experiment");
        assert!(err.contains("fig7"), "{err}");
        let err = parse(&["--threads", "x", "fig8"]).expect_err("bad count");
        assert!(err.contains("--threads") && err.contains("\"x\""), "{err}");
        let err = parse(&["fig8", "--threads"]).expect_err("missing count");
        assert!(err.contains("--threads") && err.contains("\"\""), "{err}");
    }

    #[test]
    fn threads_and_experiments_parse() {
        assert_eq!(
            parse(&["--threads", "4", "table2", "flights"]),
            Ok((4, vec!["table2", "flights"]))
        );
        assert_eq!(parse(&["fig8"]), Ok((1, vec!["fig8"])));
        assert_eq!(parse(&[]), Ok((1, vec![])));
    }

    #[test]
    fn all_expands_to_every_experiment_in_order() {
        let all: Vec<_> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(all.len(), 12);
        assert_eq!(parse(&["all"]), Ok((1, all)));
    }

    #[test]
    fn help_lists_every_experiment_and_fig5() {
        let text = help();
        assert!(text.contains("\n  fig5 — not reproduced: needs a JIT compiler\n"));
        for (name, section, _) in EXPERIMENTS {
            assert!(text.contains(&format!("\n  {name} — {section}\n")));
        }
    }
}
