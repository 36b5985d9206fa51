//! What every workload shares: run arguments, the seeded generator, the result a
//! run prints, peak-memory accounting and the summary of closed-loop streams
//! into the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::hostspeed;
use crate::manifest;
use crate::stats::{self, Stream};
use crate::trace::{self, Span};

/// Arguments of one run, as the driver passes them.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of op parameters and op order.
    pub seed: u64,
    /// Seconds the measured phase runs for (fixed-count workloads scale their
    /// count by it, in both modes, so data size never depends on speed or mode).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end metrics.
    pub trace: bool,
    /// Smoke sizes: TPC-H scale factor 0.01 and small TPC-C counts.
    pub quick: bool,
    /// Where to also write the result object, for `compare`.
    pub out: Option<PathBuf>,
}

impl RunArgs {
    /// TPC-H scale factor.
    pub fn tpch_sf(&self) -> f64 {
        if self.quick {
            0.01
        } else {
            0.2
        }
    }

    /// How often set-up is repeated; the median is reported. A traced run does
    /// not report set-up time and sets up once.
    pub fn setup_repeats(&self) -> usize {
        if self.trace || self.quick {
            1
        } else {
            3
        }
    }

    /// Seconds of unmeasured warm-up before the time-boxed phases (at least
    /// one round runs, however long it takes).
    pub fn warm_up(&self) -> f64 {
        (self.seconds / 8.0).min(1.0)
    }

    /// Seconds of the untraced measured phase of a time-boxed workload: the
    /// whole window, or half of it when a traced phase follows.
    pub fn window(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// xorshift64* — the seeded source of op parameters and op order.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (workload, client).
    pub fn new(seed: u64, stream: u64) -> Rng {
        // splitmix64 of the pair, so nearby seeds give unrelated sequences
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Parameter sets per op type.
pub const POOL: usize = 16;

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run metadata and sample counts, printed for the reader.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Set a metric; the name must be in the manifest tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(manifest::spec(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(name, value);
    }

    /// Add a line of metadata.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Give every per-layer metric the traced run did not set the value 0: the
    /// layer is not on this workload's path.
    fn fill_absent_layers(&mut self) {
        for spec in manifest::PER_LAYER {
            self.metrics.entry(spec.name).or_insert(0.0);
        }
    }

    /// The one-line result object the driver reads.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = manifest::spec(name).map(|s| s.unit).unwrap_or("");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Directory for the benchmark's own outputs (spans, spill files, run results):
/// `bench_layers/` under Cargo's target directory, inside the checkout.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("bench_layers")
}

/// Run `setup` `repeats` times, keeping the last result, and return it with the
/// median set-up time in seconds at reference speed: each repeat's time is
/// multiplied by the host's speed, taken just before and just after it
/// ([`hostspeed::speed_now`]). Earlier results are dropped before the next
/// set-up starts, so repeats do not add to peak memory.
pub fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    let mut speed_before = hostspeed::speed_now();
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        let seconds = start.elapsed().as_secs_f64();
        let speed_after = hostspeed::speed_now();
        times.push(seconds * (speed_before + speed_after) / 2.0);
        speed_before = speed_after;
    }
    let median = stats::median(&times).expect("at least one set-up");
    (last.expect("at least one set-up"), median)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` is glibc's own entry point for returning free heap
    // pages to the system; it takes no pointers and is safe to call at any time
    // from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

/// Call between set-up and the measured phases: notes what the numbers depend
/// on (detected ISA, hardware threads) and starts peak-memory accounting — the
/// heap pages set-up freed (the uncompressed form of the data the generator
/// built) go back to the system and the kernel's resident-set high-water mark
/// is reset. Where the reset is not permitted `VmHWM` covers set-up too, and
/// the run says so.
pub fn begin_measuring(outcome: &mut Outcome) {
    outcome.note("isa", dbsimd::IsaLevel::detect());
    outcome.note(
        "hardware_threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    release_freed_memory();
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    outcome.note(
        "peak_rss_covers",
        if reset {
            "measured phases"
        } else {
            "whole process"
        },
    );
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// One op type of a workload.
pub struct OpKind {
    /// Name, as in the issue's workload table.
    pub name: &'static str,
    /// Reads feed `read_*`, writes feed `write_*`.
    pub read: bool,
}

/// The user-visible numbers of one measured phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Summary {
    /// All completed operations per second, summed over callers.
    pub ops_per_s: f64,
    /// Completed reads per second, summed over callers.
    pub read_ops_per_s: f64,
    /// Geometric mean over read op types of the type's median latency (the
    /// median over the five slices of the slice's median).
    pub read_gmean_ms: f64,
    /// Tail of the pooled read latencies (p95, or the highest percentile with
    /// ten samples beyond it).
    pub read_p95_ms: f64,
    /// Completed writes per second, 0 without writes.
    pub write_ops_per_s: f64,
    /// Median write latency (over slices, as for reads), 0 without writes.
    pub write_p50_us: f64,
    /// Tail of the write latencies (p99.9 under the same rule), 0 without writes.
    pub write_p999_us: f64,
    /// The host's speed over the phase, as a multiple of the reference speed
    /// (median of the callers' kernel runs); 0 when the kernel never ran.
    pub host_speed: f64,
}

/// Summarise the streams of one measured phase and note the sample counts.
/// Every number is at reference speed ([`Stream::at_reference_speed`]); the
/// host's speed and the throughput as measured are noted beside them.
pub fn summarize(
    kinds: &[OpKind],
    streams: &[Stream],
    outcome: &mut Outcome,
    phase: &str,
) -> Summary {
    let mut kernel_ns: Vec<f64> = streams
        .iter()
        .flat_map(|s| &s.calibrations)
        .map(|c| c.kernel_ns as f64)
        .collect();
    kernel_ns.sort_by(f64::total_cmp);
    let mut host_speed = 0.0;
    if let (Some(slowest), Some(median)) = (kernel_ns.last(), stats::median(&kernel_ns)) {
        host_speed = hostspeed::REFERENCE_NS / median;
        let measured: f64 = streams
            .iter()
            .filter_map(|s| stats::sliced_ops_per_s(s, |_| true))
            .sum();
        outcome.note(
            &format!("{phase}.host_speed"),
            format!(
                "{:.4} of reference (median of {} kernel runs, {:.4} to {:.4}); {:.6} ops/s as measured",
                host_speed,
                kernel_ns.len(),
                hostspeed::REFERENCE_NS / slowest,
                hostspeed::REFERENCE_NS / kernel_ns[0],
                measured
            ),
        );
    }
    let streams: Vec<Stream> = streams.iter().map(Stream::at_reference_speed).collect();
    let streams = streams.as_slice();
    let is_read = |op: u8| kinds[op as usize].read;
    let sum_rate = |keep: &dyn Fn(u8) -> bool| -> f64 {
        streams
            .iter()
            .filter_map(|s| stats::sliced_ops_per_s(s, keep))
            .sum()
    };
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for sample in streams.iter().flat_map(|s| &s.samples) {
        by_kind[sample.op as usize].push(sample.dur_ns as f64);
    }
    let mut read_medians_ms = Vec::new();
    let mut reads_ns = Vec::new();
    let mut writes_ns = Vec::new();
    let mut write_medians_ns = Vec::new();
    for (op, (kind, durs)) in kinds.iter().zip(&by_kind).enumerate() {
        // a type's latency: the median over the slices of every caller of the
        // slice's median, so a noisy slice cannot move it either
        let slice_medians: Vec<f64> = streams
            .iter()
            .flat_map(|s| stats::slice_medians_ns(s, op as u8))
            .collect();
        let Some(median_ns) = stats::median(&slice_medians) else {
            continue;
        };
        outcome.note(
            &format!("{phase}.{}", kind.name),
            format!(
                "{} samples, median {:.4} ms of slice medians{}",
                durs.len(),
                median_ns / 1e6,
                slice_medians
                    .iter()
                    .map(|ns| format!(" {:.4}", ns / 1e6))
                    .collect::<String>()
            ),
        );
        if kind.read {
            read_medians_ms.push(median_ns / 1e6);
            reads_ns.extend_from_slice(durs);
        } else {
            write_medians_ns.push(median_ns);
            writes_ns.extend_from_slice(durs);
        }
    }
    let mut summary = Summary {
        ops_per_s: sum_rate(&|_| true),
        read_ops_per_s: sum_rate(&is_read),
        read_gmean_ms: stats::geometric_mean(&read_medians_ms).unwrap_or(0.0),
        host_speed,
        ..Summary::default()
    };
    if let Some((value, pct)) = stats::tail_percentile(&reads_ns, 0.95) {
        summary.read_p95_ms = value / 1e6;
        outcome.note(
            &format!("{phase}.read_tail"),
            format!("p{:.2} of {} samples", pct * 100.0, reads_ns.len()),
        );
    }
    if !writes_ns.is_empty() {
        summary.write_ops_per_s = sum_rate(&|op| !is_read(op));
        summary.write_p50_us = stats::geometric_mean(&write_medians_ns).unwrap_or(0.0) / 1e3;
        if let Some((value, pct)) = stats::tail_percentile(&writes_ns, 0.999) {
            summary.write_p999_us = value / 1e3;
            outcome.note(
                &format!("{phase}.write_tail"),
                format!("p{:.3} of {} samples", pct * 100.0, writes_ns.len()),
            );
        }
    }
    summary
}

/// The paper's headline: bytes the database holds per byte the user stored, Σ
/// `StorageStats::total_bytes` ÷ Σ (`cold_bytes_uncompressed` + `hot_bytes`)
/// over all relations.
pub fn stored_bytes_per_user_byte(db: &storage::Database) -> f64 {
    let (mut stored, mut user) = (0usize, 0usize);
    for relation in db.relations() {
        let s = relation.storage_stats();
        stored += s.total_bytes();
        user += s.cold_bytes_uncompressed + s.hot_bytes;
    }
    stored as f64 / user.max(1) as f64
}

/// Fill the end-to-end metrics of an untraced run; `db` is the workload's
/// database at the end of the measured phase.
pub fn set_end_to_end(
    outcome: &mut Outcome,
    summary: &Summary,
    setup_s: f64,
    db: &storage::Database,
) {
    outcome.set("setup_s", setup_s);
    outcome.set("ops_per_s", summary.ops_per_s);
    outcome.set("read_ops_per_s", summary.read_ops_per_s);
    outcome.set("read_gmean_ms", summary.read_gmean_ms);
    outcome.set("stored_bytes_per_user_byte", stored_bytes_per_user_byte(db));
    outcome.set("peak_rss_mib", peak_rss_mib());
}

/// Tracing overhead of a traced phase whose callers alternated spans off and on
/// (`[off, on]` per caller, see [`stats::spans_on`]): operations per second with
/// spans recorded ÷ without, same code path, same phase. 0 when a side is empty.
pub fn span_overhead_ratio(callers: &[[Stream; 2]]) -> f64 {
    let rate = |on: usize| callers.iter().map(|c| c[on].ops_per_s()).sum::<f64>();
    if rate(0) > 0.0 {
        rate(1) / rate(0)
    } else {
        0.0
    }
}

/// Finish a traced run: the user-visible metrics it reports beside the layers'
/// (from its untraced phase), the tracing overhead, the span file, and 0 for
/// every layer metric the workload did not set.
pub fn finish_traced(
    outcome: &mut Outcome,
    args: &RunArgs,
    untraced: &Summary,
    traced: &[[Stream; 2]],
    span_threads: &[Vec<Span>],
) {
    outcome.set("read_p95_ms", untraced.read_p95_ms);
    outcome.set("write_ops_per_s", untraced.write_ops_per_s);
    outcome.set("write_p50_us", untraced.write_p50_us);
    outcome.set("write_p999_us", untraced.write_p999_us);
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.set("fail_ratio", fail_ratio);
    outcome.set("trace.overhead_ratio", span_overhead_ratio(traced));
    outcome.set("trace.host_speed", untraced.host_speed);
    outcome.set(
        "trace.spans",
        span_threads.iter().map(Vec::len).sum::<usize>() as f64,
    );
    let path = out_dir().join(format!("{}.spans.jsonl", args.workload));
    trace::write_jsonl(&path, span_threads).expect("write the span file");
    outcome.note("spans", path.display());
    outcome.fill_absent_layers();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| (3..=9).contains(&r.range(3, 9))));
        let mut items: Vec<u32> = (0..10).collect();
        r.shuffle(&mut items);
        items.sort();
        assert_eq!(items, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.set("setup_s", 1.25);
        let line = outcome.to_json_line();
        let parsed = query::json::parse(&line).expect("strict JSON");
        let query::json::JsonValue::Object(fields) = parsed.value else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn span_overhead_compares_rounds_with_and_without_spans() {
        let pattern: Vec<bool> = (0..8).map(stats::spans_on).collect();
        assert_eq!(
            pattern,
            [true, false, false, true, true, false, false, true]
        );
        let mut caller = [Stream::default(), Stream::default()];
        for _ in 0..10 {
            caller[0].push(0, 1_000);
            caller[1].push(0, 1_250);
        }
        assert!((span_overhead_ratio(&[caller]) - 0.8).abs() < 1e-12);
        assert_eq!(span_overhead_ratio(&[]), 0.0);
    }

    #[test]
    fn summary_separates_reads_from_writes() {
        let kinds = [
            OpKind {
                name: "w",
                read: false,
            },
            OpKind {
                name: "r",
                read: true,
            },
        ];
        let mut stream = Stream::default();
        for _ in 0..100 {
            stream.push(0, 1_000); // 1 us writes
            stream.push(1, 1_000_000); // 1 ms reads
        }
        let mut outcome = Outcome::default();
        let s = summarize(&kinds, &[stream], &mut outcome, "t");
        // rates are per wall time of the stream, so reads and writes add up
        assert!((s.read_ops_per_s - s.ops_per_s / 2.0).abs() < 1e-9);
        assert!((s.read_ops_per_s + s.write_ops_per_s - s.ops_per_s).abs() < 1e-9);
        assert!((s.read_gmean_ms - 1.0).abs() < 1e-12);
        assert!((s.write_p50_us - 1.0).abs() < 1e-12);
        assert!(s.ops_per_s > 1900.0 && s.ops_per_s < 2000.0);
    }
}
