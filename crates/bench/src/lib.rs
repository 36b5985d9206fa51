//! # db-bench — harness regenerating every table and figure of the paper
//!
//! The `paper` bin runs the evaluation's experiments as subcommands, each at one
//! fixed size: `paper [--threads N] (all | <experiment>…)`; with no argument it
//! lists them (ARCHITECTURE.md, "Benchmarks", is the index; Figure 5 needs a JIT
//! compiler and is not among them). Each prints its table, then the paper's claims
//! beside our numbers and a verdict. The repository's *benchmark* is not here: that
//! is `bench_layers/` + `BENCHMARK.json`. This library holds the bin's plumbing —
//! timing, geometric means, random data and table formatting.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

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

/// One xorshift64 step: advance `state` and return it. The micro-benchmarks draw
/// their data from it, so every run sees the same values.
pub fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
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

/// Print a title, a header row and a separator, for the fixed-width tables the
/// experiments emit.
pub fn print_table_header(title: &str, columns: &[&str], widths: &[usize]) {
    let line = table_line(columns, widths);
    println!("\n== {title} ==\n{line}\n{}", "-".repeat(line.len()));
}

/// Print one row of a fixed-width table.
pub fn print_table_row(cells: &[String], widths: &[usize]) {
    println!("{}", table_line(cells, widths));
}

fn table_line(cells: &[impl std::fmt::Display], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(cell, width)| format!("{cell:>width$}  "))
        .collect()
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
    fn geometric_mean_lies_between_min_and_max() {
        let d = vec![Duration::from_millis(10), Duration::from_millis(1000)];
        let gm = geometric_mean(&d);
        assert!(gm > d[0] && gm < d[1]);
        // gm of 10ms and 1000ms = 100ms
        assert!((gm.as_secs_f64() - 0.1).abs() < 1e-3);
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
}
