//! `validate` and `all`: check that `BENCHMARK.json` is byte for byte what this
//! binary's tables render, run workloads as child processes, and check that
//! every run emits exactly the declared metrics as strict JSON.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use query::json::{self, JsonValue};

use crate::manifest;

/// Check the result line of a run: exactly the contract's keys, `attempted` at
/// least 1, and exactly the declared metrics of the run's mode, each a finite
/// number with its declared unit.
pub fn check_result_line(line: &str, trace: bool) -> Vec<String> {
    let mut errors = Vec::new();
    let root = match json::parse(line) {
        Ok(root) => root,
        Err(err) => return vec![format!("result line is not strict JSON: {err}")],
    };
    let JsonValue::Object(fields) = &root.value else {
        return vec!["result line is not an object".into()];
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        errors.push(format!(
            "keys are {keys:?}, expected correct, attempted, failed, metrics"
        ));
        return errors;
    }
    if fields[0].1.value != JsonValue::Bool(true) {
        errors.push("correct is not true".into());
    }
    if !matches!(fields[1].1.value, JsonValue::Int(n) if n >= 1) {
        errors.push("attempted is not a whole number of at least 1".into());
    }
    if fields[2].1.value != JsonValue::Int(0) {
        errors.push("failed is not 0".into());
    }
    let JsonValue::Object(metrics) = &fields[3].1.value else {
        errors.push("metrics is not an object".into());
        return errors;
    };
    let table = manifest::table(trace);
    for spec in table {
        if !metrics.iter().any(|(name, _)| name == spec.name) {
            errors.push(format!("declared metric {:?} was not emitted", spec.name));
        }
    }
    for (name, entry) in metrics {
        let Some(spec) = table.iter().find(|s| s.name == name) else {
            errors.push(format!(
                "emitted metric {name:?} is not declared for trace {}",
                u8::from(trace)
            ));
            continue;
        };
        let JsonValue::Object(entry) = &entry.value else {
            errors.push(format!("{name}: not an object"));
            continue;
        };
        let entry_keys: Vec<&str> = entry.iter().map(|(k, _)| k.as_str()).collect();
        if entry_keys != ["value", "unit"] {
            errors.push(format!(
                "{name}: keys are {entry_keys:?}, expected value, unit"
            ));
            continue;
        }
        let finite = match entry[0].1.value {
            JsonValue::Int(_) => true,
            JsonValue::Double(v) => v.is_finite(),
            _ => false,
        };
        if !finite {
            errors.push(format!("{name}: value is not a finite number"));
        }
        if entry[1].1.value != JsonValue::Str(spec.unit.into()) {
            errors.push(format!(
                "{name}: unit differs from the declared {:?}",
                spec.unit
            ));
        }
        if !trace && matches!(entry[0].1.value, JsonValue::Int(0)) {
            errors.push(format!("{name}: an end-to-end metric must never be 0"));
        }
    }
    errors
}

/// Check `BENCHMARK.json` in the current directory against
/// [`manifest::render`]; prints the first line that differs.
fn check_manifest() -> bool {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(err) => {
            eprintln!("BENCHMARK.json: {err} (run from the repository root)");
            return false;
        }
    };
    let want = manifest::render();
    if text == want {
        println!(
            "BENCHMARK.json: ok ({} workloads, {} end-to-end, {} per-layer metrics)",
            manifest::WORKLOADS.len(),
            manifest::END_TO_END.len(),
            manifest::PER_LAYER.len()
        );
        return true;
    }
    let line = text
        .lines()
        .zip(want.lines())
        .position(|(found, wanted)| found != wanted)
        .unwrap_or_else(|| text.lines().count().min(want.lines().count()));
    eprintln!(
        "BENCHMARK.json: line {} differs from the benchmark's tables\n  found:  {}\n  wanted: {}",
        line + 1,
        text.lines().nth(line).unwrap_or("<end of file>"),
        want.lines().nth(line).unwrap_or("<end of file>")
    );
    false
}

/// Which runs `all` makes.
pub struct AllArgs {
    /// Smoke sizes.
    pub quick: bool,
    /// Seed of every run.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// How often every workload runs in each mode.
    pub runs: usize,
    /// Where the children also write their result objects.
    pub out: Option<PathBuf>,
}

/// Run one workload as a child process of this executable, echo its output and
/// check its result line.
fn run_child(workload: &str, trace: bool, all: &AllArgs) -> bool {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload,
        "--seed",
        &all.seed.to_string(),
        "--seconds",
        &all.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if all.quick {
        command.arg("--quick");
    }
    if let Some(dir) = &all.out {
        command.arg("--out").arg(dir);
    }
    let output = match command.output() {
        Ok(output) => output,
        Err(err) => {
            eprintln!("{workload}: cannot start: {err}");
            return false;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let mut errors = check_result_line(stdout.lines().last().unwrap_or(""), trace);
    if !output.status.success() {
        errors.push(format!("exit status {}", output.status));
    }
    for error in &errors {
        eprintln!("{workload} trace {}: {error}", u8::from(trace));
    }
    errors.is_empty()
}

/// `validate`: the manifest, then a quick run of every workload in both modes,
/// so the names emitted equal the names declared.
pub fn run() -> ExitCode {
    let code = run_all(&AllArgs {
        quick: true,
        seed: 1,
        seconds: 1.0,
        runs: 1,
        out: None,
    });
    if code == ExitCode::SUCCESS {
        println!("validate: ok");
    }
    code
}

/// `all`: the manifest check first, then `runs` times every workload, untraced
/// and traced, one child process each, every result line checked.
pub fn run_all(all: &AllArgs) -> ExitCode {
    if !check_manifest() {
        eprintln!("validate: FAILED");
        return ExitCode::from(1);
    }
    let mut ok = true;
    for _ in 0..all.runs {
        for workload in manifest::WORKLOADS {
            for trace in [false, true] {
                ok &= run_child(workload.name, trace, all);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("validate: FAILED");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Outcome;

    fn full_outcome(trace: bool) -> Outcome {
        let mut outcome = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        for spec in manifest::table(trace) {
            outcome.set(spec.name, 1.5);
        }
        outcome
    }

    #[test]
    fn a_complete_result_line_passes_in_both_modes() {
        for trace in [false, true] {
            assert_eq!(
                check_result_line(&full_outcome(trace).to_json_line(), trace),
                Vec::<String>::new()
            );
        }
    }

    #[test]
    fn missing_extra_and_non_finite_metrics_are_refused() {
        let mut missing = full_outcome(false);
        missing.metrics.remove("setup_s");
        assert!(check_result_line(&missing.to_json_line(), false)[0].contains("setup_s"));

        // a per-layer name in an untraced run is extra
        let mut extra = full_outcome(false);
        extra.set("trace.spans", 1.0);
        assert!(check_result_line(&extra.to_json_line(), false)[0].contains("trace.spans"));

        // NaN and inf do not survive the strict parser
        let mut nan = full_outcome(false);
        nan.set("read_gmean_ms", f64::NAN);
        assert!(!check_result_line(&nan.to_json_line(), false).is_empty());
        let mut inf = full_outcome(false);
        inf.set("read_gmean_ms", f64::INFINITY);
        assert!(!check_result_line(&inf.to_json_line(), false).is_empty());

        let mut failed = full_outcome(true);
        failed.failed = 1;
        assert!(!check_result_line(&failed.to_json_line(), true).is_empty());
    }
}
