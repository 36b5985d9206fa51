//! Scanning Data Blocks: SARGable restriction push-down, SMA block skipping, PSMA
//! range narrowing, and vectorized match finding on the compressed code words
//! (Sections 3.4 and 4.2).
//!
//! The scan proceeds exactly as the paper describes:
//!
//! 1. SMAs (and, for dictionary compression and equality predicates, a dictionary
//!    probe) may rule the whole block out.
//! 2. PSMAs narrow the scanned position range per restricted attribute; ranges from
//!    different attributes are intersected.
//! 3. Within the narrowed range the block is processed in vectors of
//!    [`ScanOptions::vector_size`] records: the first SARGable restriction *finds*
//!    matches with the SIMD kernels, every further restriction *reduces* the match
//!    vector, and NULL / deleted records are filtered out.
//! 4. The caller unpacks the matching positions ([`crate::unpack`]) and pushes the
//!    tuples into the consuming operator.

use crate::block::DataBlock;
use crate::compression::ColumnCompression;
use crate::psma::ScanRange;
use crate::value::Value;
use dbsimd::{CmpOp, IsaLevel};

/// A SARGable scan restriction as produced by the query layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Restriction {
    /// `attribute <op> constant`
    Cmp {
        /// Attribute index within the block/relation.
        column: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Comparison constant.
        value: Value,
    },
    /// `attribute BETWEEN lo AND hi` (inclusive).
    Between {
        /// Attribute index within the block/relation.
        column: usize,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `attribute IS NULL`
    IsNull {
        /// Attribute index within the block/relation.
        column: usize,
    },
    /// `attribute IS NOT NULL`
    IsNotNull {
        /// Attribute index within the block/relation.
        column: usize,
    },
}

impl Restriction {
    /// Convenience constructor for an equality restriction.
    pub fn eq(column: usize, value: impl Into<Value>) -> Restriction {
        Restriction::Cmp {
            column,
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience constructor for a between restriction.
    pub fn between(column: usize, lo: impl Into<Value>, hi: impl Into<Value>) -> Restriction {
        Restriction::Between {
            column,
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Convenience constructor for a comparison restriction.
    pub fn cmp(column: usize, op: CmpOp, value: impl Into<Value>) -> Restriction {
        Restriction::Cmp {
            column,
            op,
            value: value.into(),
        }
    }

    /// The attribute the restriction applies to.
    pub fn column(&self) -> usize {
        match self {
            Restriction::Cmp { column, .. }
            | Restriction::Between { column, .. }
            | Restriction::IsNull { column }
            | Restriction::IsNotNull { column } => *column,
        }
    }

    /// Evaluate the restriction against a single value (SQL three-valued logic
    /// collapsed to "matches / does not match": NULL comparisons do not match).
    pub fn matches_value(&self, value: &Value) -> bool {
        match self {
            Restriction::Cmp {
                op,
                value: constant,
                ..
            } => match value.sql_cmp(constant) {
                Some(ord) => op.eval_ordering(ord),
                None => false,
            },
            Restriction::Between { lo, hi, .. } => {
                let ge = value.sql_cmp(lo).map(|o| o != std::cmp::Ordering::Less);
                let le = value.sql_cmp(hi).map(|o| o != std::cmp::Ordering::Greater);
                matches!((ge, le), (Some(true), Some(true)))
            }
            Restriction::IsNull { .. } => value.is_null(),
            Restriction::IsNotNull { .. } => !value.is_null(),
        }
    }
}

/// Extension trait: evaluate a [`CmpOp`] against an already-computed ordering.
pub trait CmpOpOrderingExt {
    /// Does an ordering outcome satisfy the operator?
    fn eval_ordering(self, ord: std::cmp::Ordering) -> bool;
}

impl CmpOpOrderingExt for CmpOp {
    fn eval_ordering(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Knobs controlling how a block scan is executed. The defaults correspond to the
/// full Data Blocks design (SIMD, SMA skipping, PSMA narrowing, 8192-record vectors);
/// the benchmark harness switches individual features off to reproduce the paper's
/// ablation columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanOptions {
    /// SIMD level used by the find/reduce kernels.
    pub isa: IsaLevel,
    /// Number of records examined per vector (the paper's default is 8192).
    pub vector_size: usize,
    /// Use SMAs to rule out blocks / restrictions.
    pub use_sma: bool,
    /// Use PSMAs to narrow the scanned range.
    pub use_psma: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            isa: IsaLevel::detect(),
            vector_size: 8192,
            use_sma: true,
            use_psma: true,
        }
    }
}

impl ScanOptions {
    /// Options with every Data Blocks acceleration disabled (predicates still
    /// evaluated on compressed data, but scalar, full-range, per the "Data Block
    /// scan" column of Table 4).
    pub fn plain() -> ScanOptions {
        ScanOptions {
            isa: IsaLevel::Scalar,
            vector_size: 8192,
            use_sma: false,
            use_psma: false,
        }
    }
}

/// One evaluation step of a translated scan plan.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// SIMD-able inclusive range over the compressed code words of an attribute.
    CodeRange { column: usize, lo: u64, hi: u64 },
    /// Scalar inclusive range over an uncompressed double attribute.
    DoubleRange { column: usize, lo: f64, hi: f64 },
    /// Scalar fallback: decompress the value and compare (`<>`, cross-type, …).
    ScalarCmp {
        column: usize,
        op: CmpOp,
        value: Value,
    },
    /// Keep only NULL rows of the attribute.
    KeepNull { column: usize },
    /// Keep only non-NULL rows of the attribute.
    KeepNotNull { column: usize },
}

/// The result of translating a set of restrictions against one specific block.
#[derive(Debug, Clone)]
pub struct ScanPlan {
    steps: Vec<Step>,
    range: ScanRange,
    ruled_out: bool,
}

impl ScanPlan {
    /// Was the whole block ruled out (by SMAs, dictionary probes or contradictory
    /// restrictions) without scanning?
    pub fn is_ruled_out(&self) -> bool {
        self.ruled_out
    }

    /// The narrowed position range that will actually be scanned.
    pub fn scan_range(&self) -> ScanRange {
        if self.ruled_out {
            ScanRange::EMPTY
        } else {
            self.range
        }
    }
}

/// Translate restrictions against a block: apply SMA skipping, translate constants to
/// code space, probe PSMAs, and produce the per-vector evaluation plan.
pub fn plan_scan(
    block: &DataBlock,
    restrictions: &[Restriction],
    options: &ScanOptions,
) -> ScanPlan {
    let mut plan = ScanPlan {
        steps: Vec::with_capacity(restrictions.len() + 2),
        range: ScanRange::full(block.tuple_count()),
        ruled_out: false,
    };

    for restriction in restrictions {
        if plan.ruled_out {
            break;
        }
        translate_restriction(block, restriction, options, &mut plan);
    }
    plan
}

fn translate_restriction(
    block: &DataBlock,
    restriction: &Restriction,
    options: &ScanOptions,
    plan: &mut ScanPlan,
) {
    let column_idx = restriction.column();
    let column = block.column(column_idx);

    // SMA block skipping for value restrictions.
    if options.use_sma && !column.sma.may_match(restriction) {
        plan.ruled_out = true;
        return;
    }

    match restriction {
        Restriction::IsNull { .. } => match &column.compression {
            ColumnCompression::SingleValue(Value::Null) => {}
            _ if column.validity.is_none() => plan.ruled_out = true,
            _ => plan.steps.push(Step::KeepNull { column: column_idx }),
        },
        Restriction::IsNotNull { .. } => match &column.compression {
            ColumnCompression::SingleValue(Value::Null) => plan.ruled_out = true,
            _ if column.validity.is_none() => {}
            _ => plan.steps.push(Step::KeepNotNull { column: column_idx }),
        },
        Restriction::Cmp { .. } | Restriction::Between { .. }
            if matches!(&column.compression, ColumnCompression::SingleValue(_)) =>
        {
            // A single-value column either satisfies the restriction for every record
            // or for none; evaluate once.
            let constant = match &column.compression {
                ColumnCompression::SingleValue(v) => v.clone(),
                _ => unreachable!(),
            };
            if !restriction.matches_value(&constant) {
                plan.ruled_out = true;
            }
        }
        Restriction::Cmp {
            op: CmpOp::Ne,
            value,
            ..
        } => {
            plan.steps.push(Step::ScalarCmp {
                column: column_idx,
                op: CmpOp::Ne,
                value: value.clone(),
            });
            push_not_null_guard(block, column_idx, plan);
        }
        Restriction::Cmp { op, value, .. } => {
            translate_range_restriction(block, column_idx, *op, value, value, false, options, plan);
        }
        Restriction::Between { lo, hi, .. } => {
            translate_range_restriction(block, column_idx, CmpOp::Eq, lo, hi, true, options, plan);
        }
    }
}

/// Translate a comparison (`op` + single constant) or a between (`lo`/`hi` with
/// `op == Eq` as the marker) into a code-space step, narrowing with the PSMA.
#[allow(clippy::too_many_arguments)]
fn translate_range_restriction(
    block: &DataBlock,
    column_idx: usize,
    op: CmpOp,
    lo: &Value,
    hi: &Value,
    is_between: bool,
    options: &ScanOptions,
    plan: &mut ScanPlan,
) {
    let column = block.column(column_idx);

    match &column.compression {
        ColumnCompression::Truncated { .. } | ColumnCompression::DictInt { .. } => {
            let (lo_i, hi_i) = match int_bounds(op, lo, hi, is_between) {
                Some(bounds) => bounds,
                None => {
                    plan.steps.push(Step::ScalarCmp {
                        column: column_idx,
                        op,
                        value: lo.clone(),
                    });
                    push_not_null_guard(block, column_idx, plan);
                    return;
                }
            };
            match column.compression.translate_int_range(lo_i, hi_i) {
                Some((code_lo, code_hi)) => {
                    narrow_with_psma(column, code_lo, code_hi, options, plan);
                    plan.steps.push(Step::CodeRange {
                        column: column_idx,
                        lo: code_lo,
                        hi: code_hi,
                    });
                    push_not_null_guard(block, column_idx, plan);
                }
                None => plan.ruled_out = true,
            }
        }
        ColumnCompression::DictStr { dict, .. } => {
            let bounds = str_code_bounds(dict, op, lo, hi, is_between);
            match bounds {
                Some((code_lo, code_hi)) => {
                    narrow_with_psma(column, code_lo, code_hi, options, plan);
                    plan.steps.push(Step::CodeRange {
                        column: column_idx,
                        lo: code_lo,
                        hi: code_hi,
                    });
                    push_not_null_guard(block, column_idx, plan);
                }
                None => plan.ruled_out = true,
            }
        }
        ColumnCompression::Double(_) => {
            let (lo_f, hi_f) = match double_bounds(op, lo, hi, is_between) {
                Some(bounds) => bounds,
                None => {
                    plan.ruled_out = true;
                    return;
                }
            };
            plan.steps.push(Step::DoubleRange {
                column: column_idx,
                lo: lo_f,
                hi: hi_f,
            });
            push_not_null_guard(block, column_idx, plan);
        }
        ColumnCompression::SingleValue(_) => unreachable!("handled by the caller"),
    }
}

fn push_not_null_guard(block: &DataBlock, column_idx: usize, plan: &mut ScanPlan) {
    if block.column(column_idx).validity.is_some() {
        plan.steps.push(Step::KeepNotNull { column: column_idx });
    }
}

/// Inclusive integer bounds for `op constant` (or a between when `is_between`).
fn int_bounds(op: CmpOp, lo: &Value, hi: &Value, is_between: bool) -> Option<(i64, i64)> {
    if is_between {
        return Some((lo.as_int()?, hi.as_int()?));
    }
    let v = lo.as_int()?;
    Some(match op {
        CmpOp::Eq => (v, v),
        CmpOp::Lt => (i64::MIN, v.checked_sub(1)?),
        CmpOp::Le => (i64::MIN, v),
        CmpOp::Gt => (v.checked_add(1)?, i64::MAX),
        CmpOp::Ge => (v, i64::MAX),
        CmpOp::Ne => return None,
    })
}

/// Inclusive double bounds (doubles only support the closed-range approximation; the
/// strict inequalities keep the bound and rely on the scalar step for exactness).
fn double_bounds(op: CmpOp, lo: &Value, hi: &Value, is_between: bool) -> Option<(f64, f64)> {
    if is_between {
        return Some((lo.as_double()?, hi.as_double()?));
    }
    let v = lo.as_double()?;
    Some(match op {
        CmpOp::Eq => (v, v),
        CmpOp::Lt => (f64::NEG_INFINITY, prev_double(v)),
        CmpOp::Le => (f64::NEG_INFINITY, v),
        CmpOp::Gt => (next_double(v), f64::INFINITY),
        CmpOp::Ge => (v, f64::INFINITY),
        CmpOp::Ne => return None,
    })
}

fn next_double(v: f64) -> f64 {
    if v.is_infinite() {
        v
    } else {
        f64::from_bits(if v >= 0.0 {
            v.to_bits() + 1
        } else {
            v.to_bits() - 1
        })
    }
}

fn prev_double(v: f64) -> f64 {
    -next_double(-v)
}

/// Code bounds for a string comparison against an ordered dictionary.
fn str_code_bounds(
    dict: &[String],
    op: CmpOp,
    lo: &Value,
    hi: &Value,
    is_between: bool,
) -> Option<(u64, u64)> {
    let last = dict.len().checked_sub(1)? as u64;
    if is_between {
        let lo_s = lo.as_str()?;
        let hi_s = hi.as_str()?;
        let lo_code = dict.partition_point(|d| d.as_str() < lo_s) as u64;
        let hi_code = dict.partition_point(|d| d.as_str() <= hi_s) as u64;
        return if lo_code >= hi_code {
            None
        } else {
            Some((lo_code, hi_code - 1))
        };
    }
    let v = lo.as_str()?;
    let lt = dict.partition_point(|d| d.as_str() < v) as u64;
    let le = dict.partition_point(|d| d.as_str() <= v) as u64;
    match op {
        CmpOp::Eq => {
            if lt == le {
                None
            } else {
                Some((lt, le - 1))
            }
        }
        CmpOp::Lt => {
            if lt == 0 {
                None
            } else {
                Some((0, lt - 1))
            }
        }
        CmpOp::Le => {
            if le == 0 {
                None
            } else {
                Some((0, le - 1))
            }
        }
        CmpOp::Gt => {
            if le > last {
                None
            } else {
                Some((le, last))
            }
        }
        CmpOp::Ge => {
            if lt > last {
                None
            } else {
                Some((lt, last))
            }
        }
        CmpOp::Ne => None,
    }
}

fn narrow_with_psma(
    column: &crate::block::BlockColumn,
    code_lo: u64,
    code_hi: u64,
    options: &ScanOptions,
    plan: &mut ScanPlan,
) {
    if !options.use_psma {
        return;
    }
    if let Some(psma) = &column.psma {
        let lo = code_lo.min(i64::MAX as u64) as i64;
        let hi = code_hi.min(i64::MAX as u64) as i64;
        let narrowed = psma.probe_range(lo, hi);
        plan.range = plan.range.intersect(&narrowed);
        if plan.range.is_empty() {
            plan.ruled_out = true;
        }
    }
}

/// A vector-at-a-time scan over one Data Block.
pub struct BlockScan<'a> {
    block: &'a DataBlock,
    plan: ScanPlan,
    options: ScanOptions,
    cursor: u32,
}

impl<'a> BlockScan<'a> {
    /// Plan and start a scan of `block` under `restrictions`.
    pub fn new(block: &'a DataBlock, restrictions: &[Restriction], options: ScanOptions) -> Self {
        let plan = plan_scan(block, restrictions, &options);
        let cursor = plan.scan_range().begin;
        BlockScan {
            block,
            plan,
            options,
            cursor,
        }
    }

    /// The plan the scan executes (exposed for instrumentation).
    pub fn plan(&self) -> &ScanPlan {
        &self.plan
    }

    /// Produce the next vector of matching record positions.
    ///
    /// `matches` is cleared and filled with at most one vector's worth of block-
    /// relative positions. Returns `None` once the narrowed range is exhausted; a
    /// returned `Some(0)` means the current vector contained no matches but the scan
    /// is not finished.
    pub fn next_matches(&mut self, matches: &mut Vec<u32>) -> Option<usize> {
        matches.clear();
        let range = self.plan.scan_range();
        if self.cursor >= range.end {
            return None;
        }
        let from = self.cursor as usize;
        let to = ((self.cursor as usize) + self.options.vector_size).min(range.end as usize);
        self.cursor = to as u32;

        self.evaluate_window(from, to, matches);
        Some(matches.len())
    }

    /// Evaluate all plan steps over the window `[from, to)`.
    fn evaluate_window(&self, from: usize, to: usize, matches: &mut Vec<u32>) {
        let mut steps = self.plan.steps.iter();

        // Initial fill: the first SIMD-able step produces the initial match vector;
        // if the plan starts with a scalar step (or has none) every position in the
        // window is a candidate.
        match steps.next() {
            Some(Step::CodeRange { column, lo, hi }) => {
                let codes = self
                    .block
                    .column(*column)
                    .compression
                    .codes()
                    .expect("CodeRange step only planned for code-bearing columns");
                codes.find_matches(self.options.isa, *lo, *hi, from, to, matches);
            }
            first => {
                matches.extend(from as u32..to as u32);
                if let Some(step) = first {
                    self.reduce_with_step(step, matches);
                }
            }
        }

        for step in steps {
            if matches.is_empty() {
                break;
            }
            self.reduce_with_step(step, matches);
        }

        if self.block.has_deletions() && !matches.is_empty() {
            let deleted = self
                .block
                .deleted_flags()
                .expect("has_deletions implies flags");
            matches.retain(|&pos| !deleted[pos as usize]);
        }
    }

    fn reduce_with_step(&self, step: &Step, matches: &mut Vec<u32>) {
        match step {
            Step::CodeRange { column, lo, hi } => {
                let codes = self
                    .block
                    .column(*column)
                    .compression
                    .codes()
                    .expect("CodeRange step only planned for code-bearing columns");
                codes.reduce_matches(self.options.isa, *lo, *hi, matches);
            }
            Step::DoubleRange { column, lo, hi } => {
                let column = self.block.column(*column);
                if let ColumnCompression::Double(values) = &column.compression {
                    matches.retain(|&pos| {
                        let v = values[pos as usize];
                        v >= *lo && v <= *hi
                    });
                } else {
                    matches.retain(|&pos| {
                        column
                            .get(pos as usize)
                            .as_double()
                            .map(|v| v >= *lo && v <= *hi)
                            .unwrap_or(false)
                    });
                }
            }
            Step::ScalarCmp { column, op, value } => {
                let block_column = self.block.column(*column);
                matches.retain(|&pos| {
                    block_column
                        .get(pos as usize)
                        .sql_cmp(value)
                        .map(|ord| op.eval_ordering(ord))
                        .unwrap_or(false)
                });
            }
            Step::KeepNull { column } => {
                let block_column = self.block.column(*column);
                matches.retain(|&pos| block_column.is_null(pos as usize));
            }
            Step::KeepNotNull { column } => {
                let block_column = self.block.column(*column);
                matches.retain(|&pos| !block_column.is_null(pos as usize));
            }
        }
    }
}

/// Run a complete scan and collect every matching position (convenience for tests,
/// OLTP-style scans without an index, and the benchmark harness).
pub fn scan_collect(
    block: &DataBlock,
    restrictions: &[Restriction],
    options: ScanOptions,
) -> Vec<u32> {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    scan_collect_into(block, restrictions, options, &mut scratch, &mut out);
    out
}

/// Run a complete scan, appending every matching position to `out`.
///
/// `scratch` is the per-vector match buffer; both buffers are cleared of nothing and
/// only ever *appended to* (`scratch` is overwritten per window), so a caller scanning
/// many blocks — the morsel-driven parallel scan workers, or an index-less point
/// lookup walking a relation — reuses the same two allocations for the whole run
/// instead of paying one `Vec` growth curve per block.
pub fn scan_collect_into(
    block: &DataBlock,
    restrictions: &[Restriction],
    options: ScanOptions,
    scratch: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    let mut scan = BlockScan::new(block, restrictions, options);
    while scan.next_matches(scratch).is_some() {
        out.extend_from_slice(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{freeze, int_column, str_column};
    use crate::column::Column;
    use crate::value::DataType;

    /// Straight-line reference implementation evaluating restrictions row by row.
    fn reference_scan(block: &DataBlock, restrictions: &[Restriction]) -> Vec<u32> {
        (0..block.tuple_count())
            .filter(|&row| !block.is_deleted(row as usize))
            .filter(|&row| {
                restrictions.iter().all(|r| {
                    let v = block.get(row as usize, r.column());
                    r.matches_value(&v)
                })
            })
            .collect()
    }

    fn check_against_reference(
        block: &DataBlock,
        restrictions: &[Restriction],
        options: ScanOptions,
    ) {
        let got = scan_collect(block, restrictions, options);
        let expected = reference_scan(block, restrictions);
        assert_eq!(got, expected, "restrictions {restrictions:?}");
    }

    fn test_block() -> DataBlock {
        // quantity: dense small ints; status: low-cardinality strings; price: doubles;
        // date: clustered-ish int values
        let n = 20_000usize;
        let quantity = int_column((0..n as i64).map(|i| i % 50).collect());
        let status = str_column((0..n).map(|i| format!("S{}", i % 3)).collect());
        let price = crate::builder::double_column((0..n).map(|i| (i % 997) as f64 * 1.5).collect());
        let date = int_column((0..n as i64).map(|i| 10_000 + i / 100).collect());
        freeze(&[quantity, status, price, date])
    }

    #[test]
    fn scan_without_restrictions_returns_every_row() {
        let block = test_block();
        let all = scan_collect(&block, &[], ScanOptions::default());
        assert_eq!(all.len(), block.tuple_count() as usize);
        assert_eq!(all[0], 0);
        assert_eq!(*all.last().unwrap(), block.tuple_count() - 1);
    }

    #[test]
    fn single_int_range_restriction() {
        let block = test_block();
        let restrictions = vec![Restriction::between(0, 10i64, 19i64)];
        check_against_reference(&block, &restrictions, ScanOptions::default());
        check_against_reference(&block, &restrictions, ScanOptions::plain());
    }

    #[test]
    fn all_comparison_operators_match_reference() {
        let block = test_block();
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let restrictions = vec![Restriction::cmp(0, op, 25i64)];
            check_against_reference(&block, &restrictions, ScanOptions::default());
        }
    }

    #[test]
    fn string_equality_and_range() {
        let block = test_block();
        check_against_reference(&block, &[Restriction::eq(1, "S1")], ScanOptions::default());
        check_against_reference(
            &block,
            &[Restriction::between(1, "S0", "S1")],
            ScanOptions::default(),
        );
        check_against_reference(
            &block,
            &[Restriction::cmp(1, CmpOp::Ge, "S2")],
            ScanOptions::default(),
        );
        // string absent from the dictionary rules the block out
        let gone = scan_collect(&block, &[Restriction::eq(1, "ZZZ")], ScanOptions::default());
        assert!(gone.is_empty());
    }

    #[test]
    fn double_restrictions_fall_back_to_scalar() {
        let block = test_block();
        check_against_reference(
            &block,
            &[Restriction::between(2, 10.0, 200.0)],
            ScanOptions::default(),
        );
        check_against_reference(
            &block,
            &[Restriction::cmp(2, CmpOp::Lt, 3.0)],
            ScanOptions::default(),
        );
    }

    #[test]
    fn conjunction_of_restrictions() {
        let block = test_block();
        let restrictions = vec![
            Restriction::between(0, 5i64, 30i64),
            Restriction::eq(1, "S2"),
            Restriction::cmp(3, CmpOp::Ge, 10_050i64),
        ];
        check_against_reference(&block, &restrictions, ScanOptions::default());
        check_against_reference(&block, &restrictions, ScanOptions::plain());
    }

    #[test]
    fn sma_rules_out_disjoint_range() {
        let block = test_block();
        // quantity domain is [0, 49]
        let plan = plan_scan(
            &block,
            &[Restriction::cmp(0, CmpOp::Gt, 100i64)],
            &ScanOptions::default(),
        );
        assert!(plan.is_ruled_out());
        let matches = scan_collect(
            &block,
            &[Restriction::cmp(0, CmpOp::Gt, 100i64)],
            ScanOptions::default(),
        );
        assert!(matches.is_empty());
    }

    #[test]
    fn psma_narrows_scan_range_on_clustered_data() {
        // Clustered values: PSMA should narrow the range to roughly the cluster.
        let values: Vec<i64> = (0..65_536i64).map(|i| i / 256).collect();
        let block = freeze(&[int_column(values)]);
        let with_psma = plan_scan(
            &block,
            &[Restriction::eq(0, 100i64)],
            &ScanOptions::default(),
        );
        let without_psma = plan_scan(
            &block,
            &[Restriction::eq(0, 100i64)],
            &ScanOptions {
                use_psma: false,
                ..ScanOptions::default()
            },
        );
        assert!(with_psma.scan_range().len() < without_psma.scan_range().len());
        assert!(with_psma.scan_range().len() <= 512);
        // And the result is still correct.
        check_against_reference(
            &block,
            &[Restriction::eq(0, 100i64)],
            ScanOptions::default(),
        );
    }

    #[test]
    fn nulls_are_never_matched_by_value_predicates() {
        let mut col = Column::new(DataType::Int);
        for i in 0..1000i64 {
            if i % 7 == 0 {
                col.push(Value::Null);
            } else {
                col.push(Value::Int(i % 20));
            }
        }
        let block = freeze(&[col]);
        check_against_reference(
            &block,
            &[Restriction::between(0, 0i64, 5i64)],
            ScanOptions::default(),
        );
        check_against_reference(
            &block,
            &[Restriction::IsNull { column: 0 }],
            ScanOptions::default(),
        );
        check_against_reference(
            &block,
            &[Restriction::IsNotNull { column: 0 }],
            ScanOptions::default(),
        );
    }

    #[test]
    fn deleted_rows_are_filtered() {
        let mut block = freeze(&[int_column((0..100).collect())]);
        block.delete(10);
        block.delete(11);
        let all = scan_collect(&block, &[], ScanOptions::default());
        assert_eq!(all.len(), 98);
        assert!(!all.contains(&10));
        let filtered = scan_collect(
            &block,
            &[Restriction::between(0, 5i64, 15i64)],
            ScanOptions::default(),
        );
        assert_eq!(filtered, vec![5, 6, 7, 8, 9, 12, 13, 14, 15]);
    }

    #[test]
    fn single_value_column_restrictions() {
        let constant = int_column(vec![42; 500]);
        let other = int_column((0..500).collect());
        let block = freeze(&[constant, other]);
        // matching constant: every row qualifies
        let hit = scan_collect(&block, &[Restriction::eq(0, 42i64)], ScanOptions::default());
        assert_eq!(hit.len(), 500);
        // non-matching constant: block ruled out
        let miss = scan_collect(&block, &[Restriction::eq(0, 41i64)], ScanOptions::default());
        assert!(miss.is_empty());
    }

    #[test]
    fn vector_size_does_not_change_results() {
        let block = test_block();
        let restrictions = vec![
            Restriction::between(0, 3i64, 40i64),
            Restriction::eq(1, "S0"),
        ];
        let reference = reference_scan(&block, &restrictions);
        for vector_size in [64, 1000, 8192, 1 << 20] {
            let options = ScanOptions {
                vector_size,
                ..ScanOptions::default()
            };
            assert_eq!(scan_collect(&block, &restrictions, options), reference);
        }
    }

    #[test]
    fn every_isa_level_gives_identical_results() {
        let block = test_block();
        let restrictions = vec![
            Restriction::between(3, 10_020i64, 10_120i64),
            Restriction::cmp(0, CmpOp::Le, 30i64),
        ];
        let reference = reference_scan(&block, &restrictions);
        for isa in IsaLevel::available() {
            let options = ScanOptions {
                isa,
                ..ScanOptions::default()
            };
            assert_eq!(
                scan_collect(&block, &restrictions, options),
                reference,
                "isa {isa}"
            );
        }
    }
}
