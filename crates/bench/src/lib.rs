//! # db-bench — harness regenerating every table and figure of the paper
//!
//! Each table and figure of the evaluation section has a dedicated binary in
//! `src/bin/` (see DESIGN.md for the experiment index); micro-benchmarks for the
//! SIMD kernels live in `benches/` as hand-rolled `harness = false` binaries (the
//! build environment is offline, so Criterion is unavailable). This library holds
//! the shared plumbing — timing, cycle conversion, geometric means and table
//! formatting — and the Figure 5 compile-time cost model ([`jit`]), which models the
//! engine the paper compares against and is no part of this one.
//!
//! All binaries honour two environment variables:
//!
//! * `TPCH_SF` — TPC-H scale factor used by the query benchmarks (default 0.01).
//! * `BENCH_ROWS` — row count used by the data-set size experiments (default varies
//!   per binary).

#![warn(missing_docs)]

pub mod jit;

use std::time::{Duration, Instant};

/// Nominal CPU frequency used to convert wall-clock time into "cycles per tuple" the
/// way the paper reports micro-benchmark costs. Override with the `CPU_GHZ`
/// environment variable if the host differs significantly.
pub fn cpu_hz() -> f64 {
    std::env::var("CPU_GHZ")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|ghz| ghz * 1e9)
        .unwrap_or(2.3e9)
}

/// Convert a measured duration over `items` processed elements into cycles/element.
pub fn cycles_per_element(elapsed: Duration, items: usize) -> f64 {
    if items == 0 {
        return 0.0;
    }
    elapsed.as_secs_f64() * cpu_hz() / items as f64
}

/// Time a closure once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Time a closure: one warm-up run, then the median of `runs` timed runs.
pub fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(runs >= 1);
    let mut result = f(); // warm-up
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        result = f();
        times.push(start.elapsed());
    }
    times.sort();
    (result, times[times.len() / 2])
}

/// Geometric mean of a set of durations (how the paper summarises TPC-H runtimes).
pub fn geometric_mean(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    let log_sum: f64 = durations
        .iter()
        .map(|d| d.as_secs_f64().max(1e-12).ln())
        .sum();
    Duration::from_secs_f64((log_sum / durations.len() as f64).exp())
}

/// Scale factor for TPC-H experiments (`TPCH_SF`, default 0.01).
pub fn tpch_scale_factor() -> f64 {
    std::env::var("TPCH_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01)
}

/// Scan worker threads for the parallel-scan benchmarks: the `--threads N` (or
/// `--threads=N`) command-line argument, falling back to the `THREADS` environment
/// variable, defaulting to 1 (serial). `0` means "all hardware threads".
///
/// An explicitly supplied `--threads` flag or `THREADS` variable with a missing or
/// unparsable value aborts the benchmark: recording serial numbers under a misspelled
/// thread count would poison the perf trajectory silently.
pub fn threads_arg() -> usize {
    fn parse_or_die(value: Option<String>) -> usize {
        match value.as_deref().map(str::parse) {
            Some(Ok(n)) => n,
            _ => {
                eprintln!(
                    "error: --threads / THREADS requires a non-negative integer (got {value:?})"
                );
                std::process::exit(2);
            }
        }
    }
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            return parse_or_die(args.next());
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            return parse_or_die(Some(value.to_string()));
        }
    }
    match std::env::var("THREADS") {
        Ok(value) => parse_or_die(Some(value)),
        Err(_) => 1,
    }
}

/// Row count for data-set experiments (`BENCH_ROWS`, with a per-binary default).
pub fn bench_rows(default: usize) -> usize {
    std::env::var("BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Format a duration in the most readable unit.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Format a byte count with binary units.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: &[&str] = &["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

/// Every trajectory benchmark and the JSON file its binary emits, in the order the
/// CI job runs them. `bench_trajectory` folds these into `BENCH_trajectory.jsonl`;
/// `bench_gate` compares them against the last trajectory entry.
pub const BENCHMARK_FILES: &[(&str, &str)] = &[
    ("scan", "BENCH_scan.json"),
    ("agg", "BENCH_agg.json"),
    ("io", "BENCH_io.json"),
    ("join", "BENCH_join.json"),
    ("oltp", "BENCH_oltp.json"),
    ("service", "BENCH_service.json"),
    ("wire", "BENCH_wire.json"),
];

/// Fold raw `(shape, threads, rows_per_s)` measurements down to the best rows/s
/// per shape, in first-seen (emission) order. This is THE folding both
/// `bench_trajectory` (when recording points) and `bench_gate` (when comparing
/// against them) apply, so the gate always compares like against like.
pub fn fold_best_per_shape(entries: Vec<(String, usize, f64)>) -> Vec<(String, usize, f64)> {
    let mut shapes: Vec<(String, usize, f64)> = Vec::new();
    for (shape, threads, rows_per_s) in entries {
        match shapes.iter_mut().find(|(s, _, _)| *s == shape) {
            Some(best) if best.2 >= rows_per_s => {}
            Some(best) => *best = (shape, threads, rows_per_s),
            None => shapes.push((shape, threads, rows_per_s)),
        }
    }
    shapes
}

/// Unicode-block sparkline of a series, one glyph per value, scaled min→max
/// (`▁` for the minimum, `█` for the maximum; a flat series renders mid-height).
/// This is what the CI trajectory report embeds next to each benchmark shape.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    values
        .iter()
        .map(|&v| {
            if !min.is_finite() || !max.is_finite() || max <= min {
                LEVELS[3] // flat (or degenerate) series: mid-height bar
            } else {
                let t = (v - min) / (max - min);
                LEVELS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// The gate's baseline: the **best** rows/s among the last `k` trajectory
/// entries for `(benchmark, shape)` that were recorded at `threads` — comparing
/// against a small window's peak instead of just the previous push keeps one
/// noisy run from raising (or burying) a warning. Entries at other thread
/// counts are skipped (different hardware parallelism is not comparable);
/// `None` means nothing comparable in the window.
pub fn best_of_recent(
    history: &[(String, String, usize, f64)],
    benchmark: &str,
    shape: &str,
    threads: usize,
    k: usize,
) -> Option<f64> {
    history
        .iter()
        .filter(|(b, s, _, _)| b == benchmark && s == shape)
        .rev()
        .take(k)
        .filter(|(_, _, t, _)| *t == threads)
        .map(|(_, _, _, rows_per_s)| *rows_per_s)
        .fold(None, |best, v| Some(best.map_or(v, |b: f64| b.max(v))))
}

/// One parsed `BENCH_trajectory.jsonl` entry:
/// `(benchmark, shape, threads, rows_per_s)`. Returns `None` for lines that are
/// not trajectory points (blank lines, corrupt cache entries).
pub fn parse_trajectory_line(line: &str) -> Option<(String, String, usize, f64)> {
    let benchmark = json_string_value(line, "\"benchmark\":")?;
    let shape = json_string_value(line, "\"shape\":")?;
    let threads = json_number(line, "\"threads\":")? as usize;
    let rows_per_s = json_number(line, "\"rows_per_s\":")?;
    Some((benchmark, shape, threads, rows_per_s))
}

/// `(shape, threads, rows_per_s)` measurements extracted from a benchmark JSON
/// file. The shape is the value of the line's first string-valued field (the bench
/// binaries label each result object that way: `"scan": "tpch_q6"`,
/// `"agg": "q1_groups"`), so distinct benchmark shapes stay distinguishable in the
/// trajectory log instead of being folded into one number.
///
/// The bench binaries emit their JSON by hand (the build environment is offline, so
/// serde is unavailable) with one result object per line; this parser is the
/// matching dependency-free reader used by the `bench_trajectory` binary to fold
/// `BENCH_scan.json` / `BENCH_agg.json` into the per-commit trajectory log.
pub fn parse_bench_results(json: &str) -> Vec<(String, usize, f64)> {
    json.lines()
        .filter_map(|line| {
            let threads = json_number(line, "\"threads\":")?;
            let rows_per_s = json_number(line, "\"rows_per_s\":")?;
            let shape = json_first_string_value(line).unwrap_or_else(|| "default".to_string());
            Some((shape, threads as usize, rows_per_s))
        })
        .collect()
}

/// Extract the numeric value following `key` in a single JSON line.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the first `"key": "value"` string value of a single JSON line.
fn json_first_string_value(line: &str) -> Option<String> {
    let start = line.find(": \"")? + 3;
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Extract the string value following `key` in a single JSON line.
fn json_string_value(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Print a header row followed by a separator, for the fixed-width tables the
/// harness binaries emit.
pub fn print_table_header(title: &str, columns: &[&str], widths: &[usize]) {
    println!("\n== {title} ==");
    let mut line = String::new();
    for (col, width) in columns.iter().zip(widths) {
        line.push_str(&format!("{col:>width$}  ", width = width));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Print one row of a fixed-width table.
pub fn print_table_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>width$}  ", width = width));
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_equal_durations_is_identity() {
        let d = vec![Duration::from_millis(100); 4];
        let gm = geometric_mean(&d);
        assert!((gm.as_secs_f64() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn geometric_mean_is_between_min_and_max() {
        let d = vec![Duration::from_millis(10), Duration::from_millis(1000)];
        let gm = geometric_mean(&d);
        assert!(gm > d[0] && gm < d[1]);
        // gm of 10ms and 1000ms = 100ms
        assert!((gm.as_secs_f64() - 0.1).abs() < 1e-3);
    }

    #[test]
    fn cycles_conversion_uses_frequency() {
        let cycles = cycles_per_element(Duration::from_secs(1), 1_000_000);
        assert!(cycles > 1_000.0);
        assert_eq!(cycles_per_element(Duration::from_secs(1), 0), 0.0);
    }

    #[test]
    fn timing_helpers_return_results() {
        let (v, d) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
        let (v, d) = time_median(3, || (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512.00 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
        assert!(fmt_duration(Duration::from_micros(50)).ends_with("us"));
    }

    #[test]
    fn parse_bench_results_reads_handwritten_json() {
        let json = "{\n  \"benchmark\": \"parallel_scan\",\n  \"results\": [\n    \
                    {\"scan\": \"q6\", \"threads\": 1, \"rows_per_s\": 1200000, \"x\": 1},\n    \
                    {\"agg\": \"q1_groups\", \"threads\": 4, \"rows_per_s\": 3500000.5},\n    \
                    {\"threads\": 2, \"rows_per_s\": 7}\n  ]\n}\n";
        let entries = parse_bench_results(json);
        assert_eq!(
            entries,
            vec![
                ("q6".to_string(), 1, 1_200_000.0),
                ("q1_groups".to_string(), 4, 3_500_000.5),
                ("default".to_string(), 2, 7.0),
            ]
        );
        assert!(parse_bench_results("not json at all").is_empty());
    }

    #[test]
    fn fold_best_per_shape_keeps_peak_and_order() {
        let folded = fold_best_per_shape(vec![
            ("q6".into(), 1, 100.0),
            ("agg".into(), 1, 50.0),
            ("q6".into(), 4, 400.0),
            ("q6".into(), 8, 300.0),
        ]);
        assert_eq!(
            folded,
            vec![("q6".to_string(), 4, 400.0), ("agg".to_string(), 1, 50.0)]
        );
        assert!(fold_best_per_shape(Vec::new()).is_empty());
    }

    #[test]
    fn parse_trajectory_line_roundtrip() {
        let line = "{\"commit\": \"abc\", \"date\": \"2026-07-28\", \"benchmark\": \"join\", \
                    \"shape\": \"orders_lineitem\", \"threads\": 4, \"rows_per_s\": 1500000}";
        assert_eq!(
            parse_trajectory_line(line),
            Some((
                "join".to_string(),
                "orders_lineitem".to_string(),
                4,
                1_500_000.0
            ))
        );
        assert_eq!(parse_trajectory_line(""), None);
        assert_eq!(parse_trajectory_line("{\"benchmark\": \"scan\"}"), None);
    }

    #[test]
    fn sparkline_scales_min_to_max() {
        assert_eq!(sparkline(&[1.0, 2.0, 3.0]), "▁▅█");
        assert_eq!(sparkline(&[3.0, 1.0]), "█▁");
        // flat and degenerate series stay readable
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▄▄▄");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[42.0]), "▄");
    }

    #[test]
    fn best_of_recent_takes_window_peak_at_matching_threads() {
        let history: Vec<(String, String, usize, f64)> = vec![
            ("scan".into(), "q6".into(), 4, 900.0), // outside the window of 5
            ("scan".into(), "q6".into(), 4, 100.0),
            ("scan".into(), "q6".into(), 4, 300.0),
            ("scan".into(), "q6".into(), 8, 999.0), // thread mismatch: skipped
            ("scan".into(), "q6".into(), 4, 200.0),
            ("scan".into(), "other".into(), 4, 777.0), // different shape
            ("scan".into(), "q6".into(), 4, 250.0),
        ];
        assert_eq!(best_of_recent(&history, "scan", "q6", 4, 5), Some(300.0));
        // a window of 1 degenerates to "previous entry only"
        assert_eq!(best_of_recent(&history, "scan", "q6", 4, 1), Some(250.0));
        // nothing comparable: wrong threads everywhere in the window
        assert_eq!(best_of_recent(&history, "scan", "q6", 2, 5), None);
        assert_eq!(best_of_recent(&history, "agg", "q6", 4, 5), None);
    }

    #[test]
    fn benchmark_files_are_unique() {
        let mut names: Vec<&str> = BENCHMARK_FILES.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BENCHMARK_FILES.len());
    }

    #[test]
    fn env_defaults() {
        assert!(tpch_scale_factor() > 0.0);
        assert_eq!(bench_rows(123), 123);
        // threads_arg() is deliberately not asserted here: it reads the ambient
        // THREADS variable (and aborts the process on an unparsable value), so an
        // in-process check would make the suite environment-sensitive.
    }
}
