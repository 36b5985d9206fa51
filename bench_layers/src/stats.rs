//! The statistics every metric is built from: medians, the "ten samples beyond"
//! percentile rule, geometric means, median-of-slices throughput and the
//! quartile spread `compare` judges with.

use std::time::Instant;

use crate::hostspeed::{self, Calibration};

/// One completed operation of a closed-loop stream: which op type ran and how
/// long the caller waited for it. Failed operations leave no sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index into the workload's op-type table.
    pub op: u8,
    /// Caller-observed latency in nanoseconds.
    pub dur_ns: u64,
}

/// The samples of one caller, in completion order.
#[derive(Debug, Default, Clone)]
pub struct Stream {
    /// Completed operations.
    pub samples: Vec<Sample>,
    /// `samples.len()` at the end of every completed round, for streams whose
    /// work comes in rounds of unequal operations; empty otherwise.
    pub round_ends: Vec<usize>,
    /// The runs of the host-speed kernel between the operations.
    pub calibrations: Vec<Calibration>,
    /// When the kernel last ran.
    last_calibration: Option<Instant>,
}

impl Stream {
    /// Record one completed operation.
    pub fn push(&mut self, op: u8, dur_ns: u64) {
        self.samples.push(Sample { op, dur_ns });
    }

    /// Call between two operations, outside what is timed: runs the host-speed
    /// kernel when [`hostspeed::EVERY`] has passed since it last ran.
    pub fn tick(&mut self) {
        let due = self
            .last_calibration
            .is_none_or(|last| last.elapsed() >= hostspeed::EVERY);
        if due {
            self.calibrations.push(Calibration {
                at: self.samples.len(),
                kernel_ns: hostspeed::kernel_ns(),
            });
            self.last_calibration = Some(Instant::now());
        }
    }

    /// The host's speed during every operation, as a multiple of the reference
    /// speed (all 1 for a stream that never ran the kernel).
    pub fn speeds(&self) -> Vec<f64> {
        hostspeed::speeds(&self.calibrations, self.samples.len())
    }

    /// The stream as the caller would have seen it on a host at reference
    /// speed: every latency multiplied by the host's speed while it ran.
    pub fn at_reference_speed(&self) -> Stream {
        let samples = self
            .samples
            .iter()
            .zip(self.speeds())
            .map(|(s, speed)| Sample {
                op: s.op,
                dur_ns: (s.dur_ns as f64 * speed).round() as u64,
            })
            .collect();
        Stream {
            samples,
            round_ends: self.round_ends.clone(),
            ..Stream::default()
        }
    }

    /// Mark the end of a round.
    pub fn end_round(&mut self) {
        self.round_ends.push(self.samples.len());
    }

    /// Operations per second of the whole stream; 0 when empty.
    pub fn ops_per_s(&self) -> f64 {
        let wall_ns: u64 = self.samples.iter().map(|s| s.dur_ns).sum();
        if wall_ns == 0 {
            0.0
        } else {
            self.samples.len() as f64 * 1e9 / wall_ns as f64
        }
    }
}

/// Whether spans are recorded in unit `i` (a round, a cycle) of a traced phase:
/// on, off, off, on, … so that a drift in machine speed falls on both alike.
pub fn spans_on(i: usize) -> bool {
    matches!(i % 4, 0 | 3)
}

/// How many slices a throughput is the median of.
pub const SLICES: usize = 5;

/// Median of a sample (mean of the middle two for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The `wanted` percentile (0..1, nearest-rank) of `values` — or, when fewer
/// than ten samples lie beyond it, the highest percentile that does have ten
/// beyond, but never less than the median. Returns the value and the
/// percentile actually reported; `None` when empty.
pub fn tail_percentile(values: &[f64], wanted: f64) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let wanted_rank = ((wanted * n as f64).ceil() as usize).clamp(1, n);
    // rank r (1-based) has n - r samples beyond it
    let rank = wanted_rank.min(n.saturating_sub(10)).max(n.div_ceil(2));
    Some((sorted[rank - 1], rank as f64 / n as f64))
}

/// Geometric mean; `None` when empty or when any value is not positive.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty()
        || values
            .iter()
            .any(|&v| v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
    {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Cut `0..len` into at most [`SLICES`] contiguous, near-equal, non-empty ranges.
fn cut(len: usize) -> Vec<std::ops::Range<usize>> {
    let slices = SLICES.min(len);
    (0..slices)
        .map(|i| (i * len / slices)..((i + 1) * len / slices))
        .collect()
}

/// The five slices of a stream, as sample ranges. Streams with rounds are cut
/// at round boundaries, so every slice holds the same mix (and a stream whose
/// caller ends a round wherever it likes chooses its own slices).
fn slices(stream: &Stream) -> Vec<std::ops::Range<usize>> {
    if stream.round_ends.is_empty() {
        return cut(stream.samples.len());
    }
    cut(stream.round_ends.len())
        .into_iter()
        .map(|rounds| {
            let from = if rounds.start == 0 {
                0
            } else {
                stream.round_ends[rounds.start - 1]
            };
            from..stream.round_ends[rounds.end - 1]
        })
        .collect()
}

/// Operations per second of the op types `keep` selects, as the median over
/// five slices of the stream of `selected operations ÷ time the caller waited
/// for all operations of the slice` — the slice's wall time in a closed loop, so
/// the rates of disjoint selections add up to the rate of the whole stream.
/// `None` when no slice holds a selected sample.
pub fn sliced_ops_per_s(stream: &Stream, keep: impl Fn(u8) -> bool) -> Option<f64> {
    let rates: Vec<f64> = slices(stream)
        .into_iter()
        .filter_map(|range| {
            let slice = &stream.samples[range];
            let count = slice.iter().filter(|s| keep(s.op)).count();
            let wall_ns: u64 = slice.iter().map(|s| s.dur_ns).sum();
            (count > 0 && wall_ns > 0).then(|| count as f64 * 1e9 / wall_ns as f64)
        })
        .collect();
    median(&rates)
}

/// The median latency in nanoseconds of op type `op` in each of the five slices
/// of the stream that holds a sample of it.
pub fn slice_medians_ns(stream: &Stream, op: u8) -> Vec<f64> {
    slices(stream)
        .into_iter()
        .filter_map(|range| {
            let durs: Vec<f64> = stream.samples[range]
                .iter()
                .filter(|s| s.op == op)
                .map(|s| s.dur_ns as f64)
                .collect();
            median(&durs)
        })
        .collect()
}

/// First quartile, median and third quartile, by the same method as Python's
/// `statistics.quantiles(values, n=4)` (exclusive); needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Self time per rung of a ladder: the bottom rung keeps its total, every other
/// rung is its total minus the total of the rung below.
pub fn ladder_self(totals: &[f64]) -> Vec<f64> {
    totals
        .iter()
        .enumerate()
        .map(|(i, &t)| if i == 0 { t } else { t - totals[i - 1] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: p95 has 50 beyond it, reported as asked.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 0.95), Some((950.0, 0.95)));
        // p99.9 of 1000 has one sample beyond: falls back to rank 990.
        assert_eq!(tail_percentile(&many, 0.999), Some((990.0, 0.99)));
        // 100 samples: p95 has five beyond; the highest with ten beyond is p90.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.95), Some((90.0, 0.9)));
        // too few samples for any tail: the median.
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail_percentile(&few, 0.95), Some((6.0, 0.5)));
        assert_eq!(tail_percentile(&[], 0.95), None);
    }

    #[test]
    fn geometric_mean_weighs_types_equally() {
        let g = geometric_mean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
    }

    #[test]
    fn one_noisy_slice_does_not_move_the_throughput() {
        let mut stream = Stream::default();
        for i in 0..100 {
            // the second fifth of the run is ten times slower
            let dur = if (20..40).contains(&i) {
                10_000_000
            } else {
                1_000_000
            };
            stream.push(0, dur);
        }
        assert_eq!(sliced_ops_per_s(&stream, |_| true), Some(1000.0));
        assert_eq!(sliced_ops_per_s(&stream, |op| op == 1), None);
    }

    #[test]
    fn one_noisy_slice_does_not_move_a_latency() {
        let mut stream = Stream::default();
        for i in 0..100 {
            stream.push(0, if i < 20 { 9_000 } else { 1_000 + i });
            stream.push(1, 5);
        }
        let medians = slice_medians_ns(&stream, 0);
        assert_eq!(medians.len(), 5);
        assert_eq!(medians[0], 9_000.0);
        // the quiet slices' medians are 1029.5, 1049.5, 1069.5 and 1089.5
        assert_eq!(median(&medians), Some(1_069.5));
        assert!(slice_medians_ns(&stream, 2).is_empty());
    }

    #[test]
    fn a_faster_host_does_not_move_a_stream_at_reference_speed() {
        // the second half of the run the host is 1.25 x faster: operations and
        // the kernel both take 0.8 of their time
        let reference = hostspeed::REFERENCE_NS as u64;
        let mut stream = Stream::default();
        for i in 0..100 {
            let fast = i >= 50;
            stream.calibrations.push(Calibration {
                at: stream.samples.len(),
                kernel_ns: if fast { reference * 4 / 5 } else { reference },
            });
            stream.push(0, if fast { 800_000 } else { 1_000_000 });
            stream.end_round();
        }
        assert_eq!(slice_medians_ns(&stream, 0)[4], 800_000.0);
        let normal = stream.at_reference_speed();
        assert_eq!(normal.round_ends, stream.round_ends);
        assert!(slice_medians_ns(&normal, 0)
            .iter()
            .all(|ns| (ns - 1_000_000.0).abs() < 1.0));
        let rate = sliced_ops_per_s(&normal, |_| true).unwrap();
        assert!((rate - 1000.0).abs() < 1e-3);
        // without the kernel a stream stays as measured
        let mut plain = Stream::default();
        plain.push(0, 123);
        assert_eq!(plain.at_reference_speed().samples, plain.samples);
    }

    #[test]
    fn round_streams_are_cut_at_round_boundaries() {
        let mut stream = Stream::default();
        for _ in 0..7 {
            stream.push(0, 9_000_000);
            stream.push(1, 1_000_000);
            stream.end_round();
        }
        // every slice holds whole rounds: 2 ops per 10 ms
        assert_eq!(sliced_ops_per_s(&stream, |_| true), Some(200.0));
        // one type over the wall time of the slice: the types add up
        assert_eq!(sliced_ops_per_s(&stream, |op| op == 1), Some(100.0));
        assert_eq!(sliced_ops_per_s(&stream, |op| op == 0), Some(100.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn ladder_self_times_sum_to_the_top_rung() {
        let totals = [2.0, 3.0, 10.0, 10.5];
        let selfs = ladder_self(&totals);
        assert_eq!(selfs, vec![2.0, 1.0, 7.0, 0.5]);
        assert!((selfs.iter().sum::<f64>() - 10.5).abs() < 1e-12);
    }
}
