//! `compare`: judge two sets of runs (each a directory of result files written
//! with `--out`) metric by metric, one row per workload and bounded metric.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use query::json::{self, JsonValue};

use crate::manifest::{self, Better, MetricSpec};
use crate::stats;

/// Runs a side needs before its median and quartiles mean anything.
const MIN_RUNS: usize = 5;

/// What `compare` says about one workload x metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is within the bound of A's.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own inter-quartile spread exceeds the bound (or a side has too few
    /// runs): the bound cannot be resolved.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One judged row.
#[derive(Debug, Clone, Copy)]
pub struct Judged {
    /// Quartiles of side A: first, median, third.
    pub a: (f64, f64, f64),
    /// Quartiles of side B.
    pub b: (f64, f64, f64),
    /// `(median B - median A) / median A`, signed as measured.
    pub delta: f64,
    /// A's inter-quartile spread as a share of its median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge B against A under `spec`'s direction and `bound`. `None` when a side
/// has fewer than [`MIN_RUNS`] values.
pub fn judge(a: &[f64], b: &[f64], spec: &MetricSpec, bound: f64) -> Option<Judged> {
    if a.len() < MIN_RUNS || b.len() < MIN_RUNS {
        return None;
    }
    let qa = stats::quartiles(a)?;
    let qb = stats::quartiles(b)?;
    let base = qa.1.abs().max(f64::MIN_POSITIVE);
    let delta = (qb.1 - qa.1) / base;
    let spread = (qa.2 - qa.0) / base;
    let worsening = match spec.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some(Judged {
        a: qa,
        b: qb,
        delta,
        spread,
        verdict,
    })
}

/// Values by (workload, metric) of every result file in `dir`.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Values, String> {
    let mut values = Values::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        // <workload>.trace<t>.seed<n>.<pid>.json
        let Some((workload, _)) = name
            .strip_suffix(".json")
            .and_then(|n| n.split_once(".trace"))
        else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let root = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let JsonValue::Object(fields) = root.value else {
            return Err(format!("{}: not a result object", path.display()));
        };
        let Some(JsonValue::Object(metrics)) = fields
            .iter()
            .find(|(k, _)| k == "metrics")
            .map(|(_, v)| &v.value)
        else {
            return Err(format!("{}: no metrics", path.display()));
        };
        for (metric, entry) in metrics {
            let JsonValue::Object(entry) = &entry.value else {
                continue;
            };
            let value = match entry
                .iter()
                .find(|(k, _)| k == "value")
                .map(|(_, v)| &v.value)
            {
                Some(JsonValue::Double(v)) => *v,
                Some(JsonValue::Int(v)) => *v as f64,
                _ => continue,
            };
            values
                .entry((workload.to_string(), metric.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(values)
}

/// Print the comparison of the runs in `dir_a` and `dir_b`. Exit code 1 when
/// any row is `worse` or `unresolved`, 2 when a directory cannot be read.
pub fn run(dir_a: &Path, dir_b: &Path) -> ExitCode {
    let (a, b) = match (load(dir_a), load(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<12} {:<28} {:>5} {:>12} {:>12} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "A q1",
        "A median",
        "A q3",
        "B median",
        "delta",
        "spread",
        "bound"
    );
    let mut trouble = false;
    for workload in manifest::WORKLOADS {
        for spec in manifest::END_TO_END.iter().chain(manifest::PER_LAYER) {
            let Some(bound) = spec.bound else {
                continue;
            };
            let key = (workload.name.to_string(), spec.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            // 0 on both sides: the workload has no such metric
            if spec.name != "fail_ratio" && va.iter().chain(vb).all(|&v| v == 0.0) {
                continue;
            }
            let runs = format!("{}/{}", va.len(), vb.len());
            match judge(va, vb, spec, bound) {
                Some(j) => {
                    trouble |= matches!(j.verdict, Verdict::Worse | Verdict::Unresolved);
                    println!(
                        "{:<12} {:<28} {:>5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>+7.2}% {:>6.2}% {:>5.1}%  {}",
                        workload.name,
                        spec.name,
                        runs,
                        j.a.0,
                        j.a.1,
                        j.a.2,
                        j.b.1,
                        j.delta * 100.0,
                        j.spread * 100.0,
                        bound * 100.0,
                        j.verdict.as_str()
                    );
                }
                None => {
                    trouble = true;
                    println!(
                        "{:<12} {:<28} {:>5} needs {MIN_RUNS} runs a side  unresolved",
                        workload.name, spec.name, runs
                    );
                }
            }
        }
    }
    if trouble {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricSpec = MetricSpec {
        name: "read_gmean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };
    const RATE: MetricSpec = MetricSpec {
        name: "read_ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: Some(0.10),
    };

    fn around(center: f64, step: f64) -> Vec<f64> {
        (-3..=3).map(|i| center + f64::from(i) * step).collect()
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let base = around(100.0, 0.5);
        let verdict = |b: &[f64], spec: &MetricSpec| judge(&base, b, spec, 0.10).unwrap().verdict;
        assert_eq!(verdict(&around(103.0, 0.5), &LATENCY), Verdict::Same);
        assert_eq!(verdict(&around(115.0, 0.5), &LATENCY), Verdict::Worse);
        assert_eq!(verdict(&around(85.0, 0.5), &LATENCY), Verdict::Better);
        // the same numbers as a rate: more is better
        assert_eq!(verdict(&around(115.0, 0.5), &RATE), Verdict::Better);
        assert_eq!(verdict(&around(85.0, 0.5), &RATE), Verdict::Worse);
        // a noisy baseline resolves nothing, whatever B says
        let noisy = around(100.0, 6.0);
        assert_eq!(
            judge(&noisy, &around(130.0, 0.5), &LATENCY, 0.10)
                .unwrap()
                .verdict,
            Verdict::Unresolved
        );
        // too few runs on a side
        assert!(judge(&base[..4], &base, &LATENCY, 0.10).is_none());
    }

    #[test]
    fn a_zero_bound_flags_any_increase() {
        let spec = MetricSpec {
            name: "fail_ratio",
            unit: "ratio",
            better: Better::Lower,
            bound: Some(0.0),
        };
        let clean = vec![0.0; 5];
        assert_eq!(
            judge(&clean, &clean, &spec, 0.0).unwrap().verdict,
            Verdict::Same
        );
        assert_eq!(
            judge(&clean, &[0.0, 0.0, 0.01, 0.01, 0.01], &spec, 0.0)
                .unwrap()
                .verdict,
            Verdict::Worse
        );
    }
}
