//! The host's clock speed, measured from inside the run, and the timings of a
//! run brought to one reference speed.
//!
//! The machine this benchmark runs on is a few virtual cores of a shared host
//! whose clock moves between levels up to 30 % apart and stays on one for
//! seconds to minutes (`BASELINE.md`, "Where the spread comes from"): every
//! operation, a 10 us point scan as much as a 400 ms query, stretches by the
//! same factor, and so does a loop of register arithmetic that touches no
//! memory. Callers run that loop — the kernel — between operations, every
//! [`EVERY`] of wall time; an operation's latency is then reported as what it
//! would have been had the kernel taken [`REFERENCE_NS`]. The kernel is part
//! of the benchmark and calls nothing in the engine, so a change to the engine
//! moves a reported time exactly as it moves the measured one.

use std::time::{Duration, Instant};

/// Steps of the kernel: about 0.18 ms, long against the timer, short against
/// the 10 ms between two runs of it.
const KERNEL_STEPS: u64 = 100_000;

/// How long the kernel takes at reference speed: the middle of the levels seen
/// on the baseline machine. A constant of the metric definitions — changing it
/// rescales every reported time.
pub const REFERENCE_NS: f64 = 180_000.0;

/// Wall time between two runs of the kernel in a stream of operations.
pub const EVERY: Duration = Duration::from_millis(10);

/// Runs of the kernel a speed is the median of, centred on the run in force:
/// one run that an interrupt landed in does not move it.
const SMOOTH: usize = 9;

/// One run of the kernel between two operations of a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Operations the stream had completed when it ran: it is in force from
    /// that operation on, until the next run.
    pub at: usize,
    /// How long the kernel took, in nanoseconds.
    pub kernel_ns: u64,
}

/// Run the kernel once: a serial chain of shifts, xors and a multiply, so its
/// time is a count of clock cycles and nothing else. Returns nanoseconds.
pub fn kernel_ns() -> u64 {
    let start = Instant::now();
    let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc: u64 = 0;
    for i in 0..KERNEL_STEPS {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ i);
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as u64
}

/// The host's speed right now, as a multiple of the reference speed (median of
/// five runs of the kernel): what a phase too long to interleave with the
/// kernel, like set-up, is bracketed with.
pub fn speed_now() -> f64 {
    let mut runs: Vec<u64> = (0..5).map(|_| kernel_ns()).collect();
    runs.sort_unstable();
    REFERENCE_NS / runs[2].max(1) as f64
}

/// The host's speed (a multiple of the reference speed) during each of `ops`
/// operations: that of the calibration in force, smoothed over its neighbours.
/// Operations before the first calibration take the first; without any
/// calibration every speed is 1 (times stay as measured).
pub fn speeds(calibrations: &[Calibration], ops: usize) -> Vec<f64> {
    let smoothed: Vec<f64> = (0..calibrations.len())
        .map(|k| {
            let from = k.saturating_sub(SMOOTH / 2);
            let to = (k + SMOOTH / 2 + 1).min(calibrations.len());
            let mut window: Vec<u64> = calibrations[from..to].iter().map(|c| c.kernel_ns).collect();
            window.sort_unstable();
            REFERENCE_NS / window[window.len() / 2].max(1) as f64
        })
        .collect();
    let mut out = Vec::with_capacity(ops);
    let mut k = 0;
    for op in 0..ops {
        while k + 1 < calibrations.len() && calibrations[k + 1].at <= op {
            k += 1;
        }
        out.push(smoothed.get(k).copied().unwrap_or(1.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal(at: usize, kernel_ns: u64) -> Calibration {
        Calibration { at, kernel_ns }
    }

    #[test]
    fn the_kernel_takes_a_fraction_of_a_millisecond() {
        let ns = kernel_ns();
        assert!(ns > 10_000 && ns < 50_000_000, "{ns}");
        assert!(speed_now() > 0.0);
    }

    #[test]
    fn speeds_follow_the_calibration_in_force() {
        // reference speed for ops 0..10, a host 1.25 x faster from op 10 on
        let slow = REFERENCE_NS as u64;
        let fast = (REFERENCE_NS / 1.25) as u64;
        let mut calibrations: Vec<Calibration> = (0..10).map(|i| cal(i, slow)).collect();
        calibrations.extend((10..20).map(|i| cal(i, fast)));
        let speeds = speeds(&calibrations, 20);
        assert!((speeds[0] - 1.0).abs() < 1e-9);
        assert!((speeds[3] - 1.0).abs() < 1e-9);
        assert!((speeds[16] - 1.25).abs() < 1e-4);
        assert!((speeds[19] - 1.25).abs() < 1e-4);
        // the step is blurred by at most half the smoothing window
        assert!(speeds[..6].iter().all(|s| (s - 1.0).abs() < 1e-9));
        assert!(speeds[14..].iter().all(|s| (s - 1.25).abs() < 1e-4));
    }

    #[test]
    fn one_interrupted_kernel_run_moves_nothing() {
        let mut calibrations: Vec<Calibration> =
            (0..9).map(|i| cal(i * 2, REFERENCE_NS as u64)).collect();
        calibrations[4].kernel_ns *= 20;
        assert!(speeds(&calibrations, 18)
            .iter()
            .all(|s| (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn sparse_and_missing_calibrations() {
        assert_eq!(speeds(&[], 3), vec![1.0; 3]);
        // ops before the first calibration take it; it stays in force to the end
        let half = (REFERENCE_NS * 2.0) as u64;
        assert_eq!(speeds(&[cal(2, half)], 4), vec![0.5; 4]);
        assert!(speeds(&[cal(0, half)], 0).is_empty());
    }
}
