//! # db-bench — harness regenerating every table and figure of the paper
//!
//! Each table and figure of the evaluation section that this engine can reproduce
//! has a dedicated binary in `src/bin/` (ARCHITECTURE.md, "Benchmarks", is the
//! experiment index; Figure 5 is not among them — it needs a JIT compiler). The
//! repository's *benchmark* is not here: that is `bench_layers/` + `BENCHMARK.json`.
//! This library holds the bins' shared plumbing — timing, cycle conversion,
//! geometric means, table formatting and the knobs.
//!
//! * `TPCH_SF` — TPC-H scale factor used by the query experiments (default 0.01).
//! * `BENCH_ROWS` — row count used by the data-set size experiments (default varies
//!   per binary).
//! * `--threads N` / `THREADS` — scan workers, for the bins that take them.
//! * `CPU_GHZ`, and per bin `TPCC_WAREHOUSES`, `TPCC_TXNS`, `OLTP_MS`.
//!
//! All of them go through [`env_knob`]: a knob that is set but does not parse exits
//! 2; it never falls back to the default.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Nominal CPU frequency used to convert wall-clock time into "cycles per tuple" the
/// way the paper reports micro-benchmark costs. Override with the `CPU_GHZ`
/// environment variable if the host differs significantly.
pub fn cpu_hz() -> f64 {
    env_knob("CPU_GHZ", 2.3) * 1e9
}

/// Convert a measured duration over `items` processed elements into cycles/element.
pub fn cycles_per_element(elapsed: Duration, items: usize) -> f64 {
    if items == 0 {
        return 0.0;
    }
    elapsed.as_secs_f64() * cpu_hz() / items as f64
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

/// The parse step every knob shares: a supplied value that is missing or does not
/// parse is an error naming the knob, never a silent fall-back to the default.
fn parse_knob<T: std::str::FromStr>(knob: &str, value: Option<&str>) -> Result<T, String> {
    value.and_then(|v| v.parse().ok()).ok_or_else(|| {
        format!(
            "{knob} requires a value of type {} (got {value:?})",
            std::any::type_name::<T>()
        )
    })
}

/// [`parse_knob`], aborting the bin on an error: numbers recorded at a default the
/// caller did not ask for (a misspelled thread count, scale factor or row count) are
/// wrong numbers under the right label.
fn parse_or_die<T: std::str::FromStr>(knob: &str, value: Option<&str>) -> T {
    parse_knob(knob, value).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2);
    })
}

/// An environment knob, the one way a bin reads one: unset → `default`; set →
/// parsed, or a message and exit 2.
pub fn env_knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(value) => parse_or_die(name, Some(&value)),
        Err(_) => default,
    }
}

/// Scale factor for TPC-H experiments (`TPCH_SF`, default 0.01). A set but
/// unparsable value aborts the benchmark (exit 2).
pub fn tpch_scale_factor() -> f64 {
    env_knob("TPCH_SF", 0.01)
}

/// Scan worker threads for the parallel-scan benchmarks: the `--threads N` (or
/// `--threads=N`) command-line argument, falling back to the `THREADS` environment
/// variable, defaulting to 1 (serial). `0` means "all hardware threads".
///
/// An explicitly supplied `--threads` flag or `THREADS` variable with a missing or
/// unparsable value aborts the benchmark (exit 2).
pub fn threads_arg() -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            return parse_or_die("--threads", args.next().as_deref());
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            return parse_or_die("--threads", Some(value));
        }
    }
    env_knob("THREADS", 1)
}

/// Row count for data-set experiments (`BENCH_ROWS`, with a per-binary default). A set
/// but unparsable value aborts the benchmark (exit 2).
pub fn bench_rows(default: usize) -> usize {
    env_knob("BENCH_ROWS", default)
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
    fn env_defaults() {
        assert!(tpch_scale_factor() > 0.0);
        assert_eq!(bench_rows(123), 123);
        // threads_arg() is deliberately not asserted here: it reads the process
        // arguments and the ambient THREADS variable. What all three knobs share is
        // the parse step, which is a `Result` before it is an `exit(2)`:
        assert_eq!(parse_knob::<usize>("THREADS", Some("4")), Ok(4));
        assert_eq!(parse_knob::<f64>("TPCH_SF", Some("0.2")), Ok(0.2));
        let err = parse_knob::<f64>("TPCH_SF", Some("0,2")).unwrap_err();
        assert!(err.contains("TPCH_SF") && err.contains("0,2"), "{err}");
        assert!(parse_knob::<usize>("BENCH_ROWS", Some("20k")).is_err());
        assert!(parse_knob::<usize>("BENCH_ROWS", Some("")).is_err());
        assert!(parse_knob::<usize>("--threads", None).is_err());
    }
}
