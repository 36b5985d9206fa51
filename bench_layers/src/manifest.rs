//! The names this benchmark fixes: workloads, end-to-end metrics and per-layer
//! metrics, each with unit, direction and (where one applies) regression bound —
//! and `BENCHMARK.json` rendered from them. The checked-in file must equal
//! [`render`] byte for byte; the contract's rules are asserted on the tables.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name, fixed for every later change.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it worse; `None` for metrics that are only reported.
    pub bound: Option<f64>,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// One workload and why it exists.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One-line reason, copied into `BENCHMARK.json`.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "scan_mem",
        why: "1 thread of RelationScanner scans over in-memory frozen lineitem: dbsimd and datablocks do the work, so a scan-kernel or morsel change shows here and nowhere else",
    },
    WorkloadSpec {
        name: "scan_spill",
        why: "the same scans with lineitem spilled and a block cache of 25% of the cold bytes: block-store page-in dominates, so a cache or decode change shows here and not on scan_mem",
    },
    WorkloadSpec {
        name: "olap_wire",
        why: "2 loopback WireClients looping TPC-H Q1 Q3 Q6 Q12 Q14 and a large fetch: every layer above the scan (operators, planner, service, wire) is on the path",
    },
    WorkloadSpec {
        name: "oltp_tpcc",
        why: "1 thread of TPC-C cycles (8 new_order, 1 order_status, 1 stock_level) with inline freezing: storage.relation insert, lookup, update and point reads, no query layer",
    },
    WorkloadSpec {
        name: "hybrid_tpcc",
        why: "a new_order writer publishing orderline snapshots beside a reader scanning the newest one: the reader's consistent view is a writer cost, so a trade between them shows in one row",
    },
];

/// Metrics a user of the system sees; every workload reports all of them from
/// its untraced run, and `BENCHMARK.json` bounds them.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", Lower, Some(0.25)),
    m("ops_per_s", "ops/s", Higher, Some(0.25)),
    m("read_ops_per_s", "ops/s", Higher, Some(0.25)),
    m("read_gmean_ms", "ms", Lower, Some(0.25)),
    m("stored_bytes_per_user_byte", "ratio", Lower, Some(0.005)),
    m("peak_rss_mib", "MiB", Lower, Some(0.10)),
];

/// Metrics of single layers plus the user-visible metrics that only some
/// workloads have (so the manifest cannot bound them); all come from the
/// traced run. Bounds here are what `compare` judges with.
pub const PER_LAYER: &[MetricSpec] = &[
    m("read_p95_ms", "ms", Lower, Some(0.15)),
    m("write_ops_per_s", "txn/s", Higher, Some(0.10)),
    m("write_p50_us", "us", Lower, Some(0.10)),
    m("write_p999_us", "us", Lower, Some(0.15)),
    m("ttfb_p50_ms", "ms", Lower, Some(0.10)),
    m("fail_ratio", "ratio", Lower, Some(0.0)),
    m("dbsimd.find_u8_ns_per_elem", "ns", Lower, None),
    m("dbsimd.find_u16_ns_per_elem", "ns", Lower, None),
    m("dbsimd.find_u32_ns_per_elem", "ns", Lower, None),
    m("dbsimd.reduce_u32_ns_per_elem", "ns", Lower, None),
    m("datablocks.scan_ns_per_row", "ns", Lower, None),
    m("datablocks.plan_us_per_block", "us", Lower, None),
    m("datablocks.unpack_ns_per_value", "ns", Lower, None),
    m("datablocks.point_ns", "ns", Lower, None),
    m("datablocks.freeze_ns_per_row", "ns", Lower, None),
    m("datablocks.frame_encode_mib_per_s", "MiB/s", Higher, None),
    m("datablocks.frame_decode_mib_per_s", "MiB/s", Higher, None),
    m("datablocks.ruled_out_ratio", "ratio", Higher, None),
    m("datablocks.psma_narrow_ratio", "ratio", Higher, None),
    m("datablocks.compression_ratio", "ratio", Higher, None),
    m("datablocks.self_ms", "ms", Lower, None),
    m("storage.relation.insert_ns", "ns", Lower, None),
    m("storage.relation.lookup_pk_ns", "ns", Lower, None),
    m("storage.relation.get_row_hot_ns", "ns", Lower, None),
    m("storage.relation.get_row_cold_ns", "ns", Lower, None),
    m("storage.relation.update_ns", "ns", Lower, None),
    m("storage.relation.delete_cold_us", "us", Lower, None),
    m("storage.relation.freeze_ms_per_chunk", "ms", Lower, None),
    m("storage.relation.freeze_calls", "count", Lower, None),
    m("storage.relation.freeze_stall_ms_max", "ms", Lower, None),
    m("storage.relation.snapshot_us", "us", Lower, None),
    m("storage.relation.snapshots_taken", "count", Higher, None),
    m("storage.relation.cow_first_write_us", "us", Lower, None),
    m("storage.relation.hot_bytes", "bytes", Lower, None),
    m("storage.relation.cold_bytes", "bytes", Lower, None),
    m("storage.blockstore.pin_miss_ms", "ms", Lower, None),
    m("storage.blockstore.pin_hit_us", "us", Lower, None),
    m("storage.blockstore.block_reads", "count", Lower, None),
    m("storage.blockstore.bytes_read", "bytes", Lower, None),
    m("storage.blockstore.cache_hits", "count", Higher, None),
    m("storage.blockstore.cache_misses", "count", Lower, None),
    m("storage.blockstore.hit_ratio", "ratio", Higher, None),
    m("storage.blockstore.evictions", "count", Lower, None),
    m("storage.blockstore.prefetch_reads", "count", Lower, None),
    m("storage.blockstore.retries", "count", Lower, None),
    m("storage.blockstore.reads_per_op", "ratio", Lower, None),
    m(
        "storage.blockstore.spill_write_mib_per_s",
        "MiB/s",
        Higher,
        None,
    ),
    m(
        "storage.blockstore.cache_high_water_bytes",
        "bytes",
        Lower,
        None,
    ),
    m("storage.blockstore.self_ms", "ms", Lower, None),
    m("exec.scan.total_ms", "ms", Lower, None),
    m("exec.scan.self_ms", "ms", Lower, None),
    m("exec.scan.ratio_to_below", "ratio", Lower, None),
    m("exec.scan.rows_scanned", "count", Lower, None),
    m("exec.scan.rows_matched", "count", Higher, None),
    m("exec.scan.blocks_total", "count", Lower, None),
    m("exec.scan.blocks_skipped", "count", Higher, None),
    m("exec.scan.skip_ratio", "ratio", Higher, None),
    m("exec.scan.batches", "count", Lower, None),
    m("exec.scan.first_batch_us", "us", Lower, None),
    m("exec.morsel.t2_over_t1", "ratio", Lower, None),
    m("exec.ops.total_ms", "ms", Lower, None),
    m("exec.ops.self_ms", "ms", Lower, None),
    m("exec.ops.ratio_to_below", "ratio", Lower, None),
    m("exec.ops.input_rows_per_s", "rows/s", Higher, None),
    m("query.sql.parse_us", "us", Lower, None),
    m("query.planner.plan_us", "us", Lower, None),
    m("query.plan.total_ms", "ms", Lower, None),
    m("query.plan.self_ms", "ms", Lower, None),
    m("query.plan.ratio_to_below", "ratio", Lower, None),
    m("query.session.total_ms", "ms", Lower, None),
    m("query.session.self_ms", "ms", Lower, None),
    m("query.session.ratio_to_below", "ratio", Lower, None),
    m("query.service.total_ms", "ms", Lower, None),
    m("query.service.self_ms", "ms", Lower, None),
    m("query.service.ratio_to_below", "ratio", Lower, None),
    m("query.net.total_ms", "ms", Lower, None),
    m("query.net.self_ms", "ms", Lower, None),
    m("query.net.ratio_to_below", "ratio", Lower, None),
    m("query.net.first_batch_ms", "ms", Lower, None),
    m("query.net.encode_batch_mib_per_s", "MiB/s", Higher, None),
    m("query.net.decode_batch_mib_per_s", "MiB/s", Higher, None),
    m("query.net.bytes_per_row", "bytes", Lower, None),
    m("query.net.peak_unacked_batches", "count", Lower, None),
    m("query.net.protocol_errors", "count", Lower, None),
    m("trace.overhead_ratio", "ratio", Higher, None),
    m("trace.spans", "count", Lower, None),
    m("trace.host_speed", "ratio", Higher, None),
];

/// Seconds one run measures for, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: i64 = 8;

/// The directory that holds the benchmark.
pub const BENCH_DIR: &str = "bench_layers";

/// The command the driver runs, before it appends `--workload` and the rest.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench_layers/Cargo.toml",
    "--",
];

/// Look a metric up by name in either table.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// The metric table a run with `trace` on or off must emit.
pub fn table(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json` as the tables above define it.
pub fn render() -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    out += &format!("  \"command\": [{}],\n", command.join(", "));
    out += &format!("  \"paths\": [{}],\n", quoted(BENCH_DIR));
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    out += &workloads.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(s.name),
                quoted(s.unit),
                quoted(s.better.as_str()),
                s.bound.expect("every end-to-end metric has a bound")
            )
        })
        .collect();
    out += &end_to_end.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(s.name),
                quoted(s.unit),
                quoted(s.better.as_str())
            )
        })
        .collect();
    out += &per_layer.join(",\n");
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Is `name` a valid workload or metric name: starts with a letter or digit,
    /// at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// Is `unit` valid: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in [
            "setup_s",
            "exec.scan.total_ms",
            "9lives",
            "a-b",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "µs",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "MiB/s", "%", "ops/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "rows per s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    /// Seconds a whole run takes at most on the machine of `BASELINE.md`,
    /// set-up repeats, answer pre-computation and warm-up included (the TPC-H
    /// workloads untraced; the TPC-C ones take a third of it).
    const WHOLE_RUN_SECONDS: i64 = 25;

    /// The driver's contract, rule by rule, on the tables `render` writes out.
    #[test]
    fn tables_meet_the_contract() {
        assert_eq!(WORKLOADS.len(), 5);
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert_eq!(
            PER_LAYER.iter().filter(|s| s.name.contains('.')).count(),
            81
        );
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for w in WORKLOADS {
            assert!(
                !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(spec.unit), "{}", spec.name);
            names.push(spec.name);
        }
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        assert!(names.windows(2).all(|pair| pair[0] != pair[1]));

        let bound = |s: &MetricSpec| s.bound.expect("end-to-end metrics are bounded");
        assert!(END_TO_END
            .iter()
            .all(|s| bound(s) > 0.0 && bound(s) <= 0.25));
        let setup = spec("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|s| bound(s) <= bound(setup)));

        assert!((1..=60).contains(&RUN_SECONDS));
        // all of the driver's runs and its two builds inside its cap
        let runs = 4 + 22 * WORKLOADS.len() as i64;
        assert!(runs * WHOLE_RUN_SECONDS + 2 * 120 <= 3420);
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|arg| arg.len() <= 200));
        let inside = format!("{BENCH_DIR}/");
        assert!(COMMAND
            .iter()
            .all(|arg| !arg.contains('/') || arg.starts_with(&inside) && !arg.contains("..")));
    }

    #[test]
    fn checked_in_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        assert!(
            text == render(),
            "BENCHMARK.json differs from manifest::render()"
        );
        assert!(text.len() <= 64 << 10);
        query::json::parse(&text).expect("strict JSON");
    }
}
