//! Relational operators above the scan: filter, project, hash join, hash aggregation,
//! sort and limit.
//!
//! HyPer fuses the operators of a pipeline into generated machine code; this
//! reproduction keeps the same *pipeline structure* (scans feed non-materialising
//! operators which feed pipeline breakers like hash tables and sorts) and executes
//! it **vectorized, a column at a time**, in a pull model: a batch is a set of typed
//! columns, and no operator here takes one apart into rows.
//!
//! * **Filter** evaluates its predicate into a selection vector
//!   ([`Expr::select`], narrowing it conjunct by conjunct) and gathers every column
//!   once; a batch whose rows all pass moves through untouched.
//! * **Project** evaluates each expression into a column ([`Expr::evaluate`]); a
//!   bare column reference moves the input column.
//! * **Hash aggregation** evaluates the group and aggregate-input expressions once
//!   per batch, hashes the typed key columns row by row into a group id
//!   (`Groups`: keys stored once per group, as columns), and folds each
//!   aggregate's input column into typed per-group arrays. When every key column
//!   is dictionary-coded ([`datablocks::column`]), a batch resolves each distinct
//!   tuple of codes once — hashed on the bytes of its first row — and every row
//!   looks its group id up by its codes: the key hash, the radix partitions and
//!   the group numbering are exactly those of the row-by-row path.
//! * **Hash join** keeps the build side as one columnar batch; the table maps a key
//!   to build *row numbers*, and matches are emitted by gathering build and probe
//!   columns (coded strings gather codes). Coded key columns are hashed once per
//!   distinct code tuple of a batch.
//! * **Sort** sorts a permutation of row numbers over the typed key columns and
//!   gathers once.
//!
//! [`HashAggregateOp::over_relation`] follows the morsel-driven design of the
//! paper's execution engine: every worker accumulates a private group table over
//! its morsels, and the barrier radix-partitions the tables
//! ([`crate::morsel::RADIX_PARTITIONS`] ways) and merges them partition-wise (each
//! partition independently) before the single-threaded output tail runs. The worker
//! count only says how many threads share that work — one worker runs it inline on
//! the calling thread. Every other operator, the [`HashJoinOp`] build and
//! [`HashAggregateOp::new`] included, runs on the thread that pulls it, in one pass
//! over its input in stream order; a scan below it runs its own
//! [`crate::ScanConfig::threads`] workers. See [`crate::morsel`] for the driver.
//!
//! # Errors
//!
//! [`Operator::next_batch`] returns `Result<Option<Batch>, `[`Error`]`>`, and that
//! is the only way a query stops early. Two places produce an `Err`: [`ScanOp`]
//! (its scanner met an unreadable cold block, or stopped for a raised cancel token)
//! and the morsel drivers under [`HashAggregateOp::over_relation`] (the same two
//! causes, reported after every worker is joined). Every other operator passes its
//! input's error up with `?` and holds no state that outlives it: an operator that
//! returned `Err` is finished. [`collect_operator`] and [`Operator::collect_all`]
//! are the drains for callers with nothing to recover — they `expect` success.
//!
//! # Frozen semantics
//!
//! Besides the expression semantics of [`crate::expr`]: aggregates skip NULLs
//! (`count(*)` counts rows); a sum is accumulated **in row order starting from the
//! first value**, so one worker's sums over doubles are bit-identical to a fold over
//! the rows in stream order; groups come out sorted by key (NULLs first); a join
//! emits, per probe row in probe order, its build matches in build-stream order, and
//! NULL keys never join; sort is stable. Group and join keys are equal when their
//! types and bit patterns are (doubles by `to_bits()`).
//!
//! # Planner contract
//!
//! These operators are the lowering target of the `query` crate's
//! logical→physical planner (spec: `crates/query/README.md`). The contract the
//! planner relies on, which changes here must preserve:
//!
//! * **Deterministic construction** — an operator tree's behaviour is fully
//!   determined by its constructor arguments; nothing is renegotiated at run
//!   time, so equal trees produce equal results (and equal `Display` dumps in
//!   the plan goldens).
//! * **Thread-count semantics** — the one `threads` parameter,
//!   [`crate::ScanConfig::threads`], passes through
//!   [`crate::morsel::effective_threads`] (`0` = auto-detect, anything else
//!   verbatim) and chooses a worker count, never an implementation: scans and
//!   joins are byte-identical at every worker count, and aggregation is
//!   byte-identical except for floating-point sums, which are equal up to
//!   reassociation.
//! * **Output schemas** — [`Operator::output_types`] is fixed at construction;
//!   the planner mirrors these shapes (inner join = build ++ probe columns,
//!   semi join = probe columns, aggregate = groups ++ aggregates) when it
//!   type-checks the IR, so reordering output columns is a breaking change.
//!   Projections and aggregates produce columns of their *declared* types: an Int
//!   result under a Double declaration widens, an all-NULL result takes any type,
//!   anything else is a planning bug and panics.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::hash::{BuildHasher, Hasher};

use datablocks::{Column, ColumnData, DataType, Strings, Value};
use storage::Relation;

use crate::batch::{pick, sorted_rows, zeroed, Batch};
use crate::expr::Expr;
use crate::morsel::{self, MorselSink, PipelineSpec, RADIX_BITS, RADIX_PARTITIONS};
use crate::scan::{RelationScanner, ScanStats};
use crate::{cancel, Error};

/// A pull-based operator producing batches of tuples.
pub trait Operator {
    /// Produce the next batch, `Ok(None)` when exhausted, or the [`Error`] that
    /// stopped execution (see the module docs); an `Err` is final.
    fn next_batch(&mut self) -> Result<Option<Batch>, Error>;

    /// The column types of produced batches. Fixed for the operator's lifetime —
    /// implementations resolve it once at construction rather than re-deriving it
    /// from input batches (which would misfire on an empty first batch).
    fn output_types(&self) -> Vec<DataType>;

    /// Drain the operator into one batch (convenience for pipeline breakers, tests
    /// and result collection). See [`collect_operator`] for the debug-build type
    /// assertion this inherits.
    fn collect_all(&mut self) -> Batch
    where
        Self: Sized,
    {
        collect_operator(self)
    }
}

/// Boxed operator used to compose plans dynamically.
pub type BoxedOperator<'a> = Box<dyn Operator + 'a>;

/// Drain a boxed operator into a single batch, for callers with nothing to recover:
/// an [`Error`] from the tree (an unreadable spilled block, a cancel token raised on
/// this thread) fails an `expect`. The operator's declared
/// [`Operator::output_types`] are resolved once up front; in debug builds every
/// emitted batch is asserted against them, so a producer whose batches drift from
/// its declaration fails loudly instead of corrupting the collected result.
pub fn collect_operator(op: &mut dyn Operator) -> Batch {
    drain(op).expect("the operator tree failed (pull `next_batch` to handle this)")
}

/// [`collect_operator`] with the error returned: what a pipeline breaker that
/// needs its whole input (the sort) calls.
fn drain(op: &mut dyn Operator) -> Result<Batch, Error> {
    let types = op.output_types();
    let mut out = Batch::new(&types);
    while let Some(batch) = op.next_batch()? {
        debug_assert_eq!(
            batch.types(),
            types,
            "operator emitted a batch that does not match its declared output types"
        );
        out.append_owned(batch);
    }
    Ok(out)
}

/// Keep the rows satisfying a residual predicate: one selection, one gather per
/// column (none when every row passes).
pub(crate) fn filter_batch(batch: Batch, predicate: &Expr) -> Batch {
    let keep = predicate.select(&batch, None);
    if keep.len() == batch.len() {
        batch
    } else {
        batch.take(&keep)
    }
}

/// Evaluate projection expressions into a batch of the declared types. A bare
/// column reference takes the input column itself (its last use moves it).
pub(crate) fn project_batch(batch: Batch, exprs: &[Expr], types: &[DataType]) -> Batch {
    let mut computed: Vec<Option<Column>> = exprs
        .iter()
        .map(|expr| match expr {
            Expr::Col(_) => None,
            expr => Some(expr.evaluate(&batch, None).into_owned()),
        })
        .collect();
    let mut input: Vec<Option<Column>> = batch.into_columns().into_iter().map(Some).collect();
    let columns = (0..exprs.len())
        .map(|slot| {
            let column = match &exprs[slot] {
                Expr::Col(idx) if exprs[slot + 1..].contains(&exprs[slot]) => {
                    input[*idx].clone().expect("a later use keeps it in place")
                }
                Expr::Col(idx) => input[*idx].take().expect("moved by its last use only"),
                _ => computed[slot].take().expect("computed above"),
            };
            coerce(column, types[slot])
        })
        .collect();
    Batch::from_columns(columns)
}

/// `column` as a column of the declared type `ty`: Int widens to Double (`as f64`,
/// what pushing an Int into a Double column always did), a column of NULLs only
/// takes any type, anything else is a planning bug.
fn coerce(column: Column, ty: DataType) -> Column {
    if column.data_type() == ty {
        return column;
    }
    let all_null = column.null_count() == column.len();
    let data = match column.data {
        ColumnData::Int(values) if ty == DataType::Double => {
            ColumnData::Double(values.into_iter().map(|v| v as f64).collect())
        }
        data => {
            assert!(
                all_null,
                "type mismatch: a {} column where {ty} was declared",
                data.data_type()
            );
            zeroed(ty, data.len())
        }
    };
    Column {
        data,
        validity: column.validity,
    }
}

// ----------------------------------------------------------------------------- scan

/// Leaf operator: a relation scan (see [`crate::scan`]), and where a scan's two ways
/// of stopping early enter the operator tree's error channel.
pub struct ScanOp<'a> {
    scanner: RelationScanner<'a>,
}

impl<'a> ScanOp<'a> {
    /// Wrap a relation scanner.
    pub fn new(scanner: RelationScanner<'a>) -> Self {
        ScanOp { scanner }
    }

    /// Scan statistics gathered so far.
    pub fn stats(&self) -> crate::scan::ScanStats {
        self.scanner.stats()
    }
}

impl<'a> Operator for ScanOp<'a> {
    fn next_batch(&mut self) -> Result<Option<Batch>, Error> {
        match self.scanner.try_next_batch()? {
            // The scanner ends quietly when the token stops it; here that end is
            // told apart from exhaustion.
            None if cancel::current_is_cancelled() => Err(Error::Cancelled),
            next => Ok(next),
        }
    }

    fn output_types(&self) -> Vec<DataType> {
        self.scanner.output_types()
    }
}

// --------------------------------------------------------------------------- filter

/// Residual (non-SARGable) predicate evaluation: a selection vector per batch,
/// then one gather.
///
/// The query planner only emits this operator for conjuncts it could *not*
/// push into the scan's restriction list — a fully sargable filter disappears
/// into [`crate::RelationScanner`] restrictions instead.
pub struct FilterOp<'a> {
    input: BoxedOperator<'a>,
    predicate: Expr,
    types: Vec<DataType>,
}

impl<'a> FilterOp<'a> {
    /// Keep only tuples for which `predicate` evaluates to true.
    pub fn new(input: BoxedOperator<'a>, predicate: Expr) -> Self {
        let types = input.output_types();
        FilterOp {
            input,
            predicate,
            types,
        }
    }
}

impl<'a> Operator for FilterOp<'a> {
    fn next_batch(&mut self) -> Result<Option<Batch>, Error> {
        let batch = self.input.next_batch()?;
        Ok(batch.map(|batch| filter_batch(batch, &self.predicate)))
    }

    fn output_types(&self) -> Vec<DataType> {
        self.types.clone()
    }
}

// -------------------------------------------------------------------------- project

/// Compute a new set of columns from expressions over the input.
pub struct ProjectOp<'a> {
    input: BoxedOperator<'a>,
    exprs: Vec<Expr>,
    types: Vec<DataType>,
}

impl<'a> ProjectOp<'a> {
    /// Project `exprs`; `types` declares the output column types.
    pub fn new(input: BoxedOperator<'a>, exprs: Vec<Expr>, types: Vec<DataType>) -> Self {
        assert_eq!(exprs.len(), types.len());
        ProjectOp {
            input,
            exprs,
            types,
        }
    }
}

impl<'a> Operator for ProjectOp<'a> {
    fn next_batch(&mut self) -> Result<Option<Batch>, Error> {
        let batch = self.input.next_batch()?;
        Ok(batch.map(|batch| project_batch(batch, &self.exprs, &self.types)))
    }

    fn output_types(&self) -> Vec<DataType> {
        self.types.clone()
    }
}

// ------------------------------------------------------------------------- key hash

/// One key value, borrowed from a [`Value`] or from a row of a column.
enum Cell<'a> {
    Null,
    Int(i64),
    Double(f64),
    Str(&'a str),
}

impl Cell<'_> {
    /// Append the value's key bytes: a type tag, then integers and doubles by bit
    /// pattern and strings by their bytes plus a terminator (NULLs are equal to
    /// each other, which is what grouping needs). These are the bytes `std`'s `Hash`
    /// impls of `u8`, `i64`, `u64` and `str` write, so a key hashes as it always
    /// did.
    fn write_to(&self, key: &mut Vec<u8>) {
        match self {
            Cell::Null => key.push(0),
            Cell::Int(v) => {
                key.push(1);
                key.extend_from_slice(&v.to_ne_bytes());
            }
            Cell::Double(v) => {
                key.push(2);
                key.extend_from_slice(&v.to_bits().to_ne_bytes());
            }
            Cell::Str(s) => {
                key.push(3);
                key.extend_from_slice(s.as_bytes());
                key.push(0xff);
            }
        }
    }
}

fn cell(column: &Column, row: usize) -> Cell<'_> {
    if column.is_null(row) {
        return Cell::Null;
    }
    match &column.data {
        ColumnData::Int(v) => Cell::Int(v[row]),
        ColumnData::Double(v) => Cell::Double(v[row]),
        ColumnData::Str(v) => Cell::Str(&v[row]),
        ColumnData::Dict { dict, codes } => Cell::Str(&dict[codes[row] as usize]),
    }
}

/// The hash of a group/join key: SipHash-1-3 under a fixed key over the key's
/// bytes (`key` is scratch space for them), so it is a pure function of the key
/// values — stable across runs, thread counts and morsel schedules. Its leading
/// bits pick the radix partition, all of it feeds the group table.
fn key_hash<'a>(cells: impl Iterator<Item = Cell<'a>>, key: &mut Vec<u8>) -> u64 {
    key.clear();
    cells.for_each(|cell| cell.write_to(key));
    // One write of the whole key: the hasher's per-call overhead is paid once.
    let mut hasher = DefaultHasher::new();
    hasher.write(key);
    hasher.finish()
}

/// [`key_hash`] of every row of the key columns. Coded key columns are hashed once
/// per distinct code tuple ([`code_tuples`]), on the bytes of its first row — the
/// same hash every row of the tuple would get.
fn hash_rows(keys: &[&Column], rows: usize) -> Vec<u64> {
    let mut key = Vec::new();
    if keys.is_empty() {
        return vec![key_hash(std::iter::empty(), &mut key); rows];
    }
    let mut hash = |row| key_hash(keys.iter().map(|column| cell(column, row)), &mut key);
    per_code_tuple(keys, rows, &mut hash).unwrap_or_else(|| (0..rows).map(hash).collect())
}

/// `f(row)` for every row, run once per distinct code tuple (on its first row) and
/// looked up by the others — when every key column is coded ([`code_tuples`]).
fn per_code_tuple<T: Copy>(
    keys: &[&Column],
    rows: usize,
    mut f: impl FnMut(usize) -> T,
) -> Option<Vec<T>> {
    let (tuples, space) = code_tuples(keys, rows)?;
    let mut memo = vec![None; space];
    let per_row = (tuples.iter().enumerate())
        .map(|(row, &tuple)| *memo[tuple as usize].get_or_insert_with(|| f(row)));
    Some(per_row.collect())
}

/// When every key column is coded: each row's index into the space of code tuples
/// (NULL counts as one more code of its column), and the size of that space. `None`
/// when a key column is plain or the space has more tuples than there are rows, where
/// a table per tuple would not pay. Rows with one tuple hold one key; one key may
/// have several tuples (a dictionary need not be free of duplicates), so a tuple can
/// stand in for its key but never tell two keys apart.
fn code_tuples(keys: &[&Column], rows: usize) -> Option<(Vec<u32>, usize)> {
    let mut space = 1usize;
    for key in keys {
        let ColumnData::Dict { dict, .. } = &key.data else {
            return None;
        };
        space = space
            .checked_mul(dict.len() + 1)
            .filter(|&space| space <= rows)?;
    }
    let mut tuples = vec![0u32; rows];
    let mut stride = 1u32;
    for key in keys {
        let ColumnData::Dict { dict, codes } = &key.data else {
            unreachable!("checked above");
        };
        let null = dict.len() as u32;
        match &key.validity {
            None => {
                for (tuple, &code) in tuples.iter_mut().zip(codes) {
                    *tuple += code * stride;
                }
            }
            Some(valid) => {
                for ((tuple, &code), &valid) in tuples.iter_mut().zip(codes).zip(valid) {
                    *tuple += (if valid { code } else { null }) * stride;
                }
            }
        }
        stride *= null + 1;
    }
    Some((tuples, space))
}

/// Radix partition of a key hash: its leading [`RADIX_BITS`] bits.
fn partition_of(hash: u64) -> usize {
    (hash >> (64 - RADIX_BITS)) as usize
}

/// The radix partition (`0..`[`RADIX_PARTITIONS`]) a group-by or join key is
/// assigned to by the parallel pipeline breakers. A pure function of the key values
/// — independent of thread count, morsel size and scan schedule — which is what
/// makes the partition-wise merge of per-worker hash tables deterministic.
pub fn radix_partition(values: &[Value]) -> usize {
    let cells = values.iter().map(|value| match value {
        Value::Null => Cell::Null,
        Value::Int(v) => Cell::Int(*v),
        Value::Double(v) => Cell::Double(*v),
        Value::Str(s) => Cell::Str(s),
    });
    partition_of(key_hash(cells, &mut Vec::new()))
}

// ---------------------------------------------------------------------- group table

/// Are row `i` of `a` and row `j` of `b` the same key value? NULL equals NULL,
/// doubles compare by bit pattern, different types never match.
fn same_cell(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a.is_null(i), b.is_null(j)) {
        (true, true) => true,
        (false, false) => match (&a.data, &b.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Double(a), ColumnData::Double(b)) => a[i].to_bits() == b[j].to_bits(),
            (a, b) => match (a.strings(), b.strings()) {
                (Some(a), Some(b)) => a.get(i) == b.get(j),
                _ => false,
            },
        },
        _ => false,
    }
}

/// The distinct keys seen so far, numbered in order of first appearance: the hash
/// table under both the aggregate (group id → accumulator slot) and the join (group
/// id → build rows). Keys are stored once per group, as typed columns; the table
/// itself is open addressing over group ids, indexed by the [`key_hash`] remixed
/// under a per-table random seed — the job `std`'s `RandomState` did for the
/// `HashMap` this replaces: a client who can choose keys knows the fixed-key hash
/// but not which hashes share a slot here.
struct Groups {
    /// Key column `c`, row `g`: that part of group `g`'s key.
    keys: Vec<Column>,
    /// [`key_hash`] of every group's key.
    hashes: Vec<u64>,
    /// Group id + 1, or 0 for a free slot; a power of two, at most half full.
    slots: Vec<u32>,
    seed: u64,
}

impl Groups {
    fn new(key_types: &[DataType]) -> Groups {
        Groups {
            keys: key_types.iter().map(|&ty| Column::new(ty)).collect(),
            hashes: Vec::new(),
            slots: vec![0; 16],
            seed: RandomState::new().hash_one(0u8),
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Where the probe sequence of `hash` starts.
    fn home(&self, hash: u64) -> usize {
        let mixed = (hash ^ self.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The group whose key is row `row` of `columns` (with that key's hash), or the
    /// free slot its probe sequence ends in.
    fn probe(&self, columns: &[&Column], row: usize, hash: u64) -> Result<u32, usize> {
        let mut slot = self.home(hash);
        loop {
            let Some(group) = self.slots[slot].checked_sub(1) else {
                return Err(slot);
            };
            if self.hashes[group as usize] == hash
                && (self.keys.iter().zip(columns))
                    .all(|(key, column)| same_cell(key, group as usize, column, row))
            {
                return Ok(group);
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }

    /// The group of the key in row `row` of `columns`, numbering it if it is new.
    fn resolve(&mut self, columns: &[&Column], row: usize, hash: u64) -> u32 {
        let slot = match self.probe(columns, row, hash) {
            Ok(group) => return group,
            Err(slot) => slot,
        };
        let group = self.len() as u32;
        self.slots[slot] = group + 1;
        self.hashes.push(hash);
        for (key, column) in self.keys.iter_mut().zip(columns) {
            key.push_row_of(column, row);
        }
        if self.len() * 2 > self.slots.len() {
            self.reindex(self.slots.len() * 2);
        }
        group
    }

    /// Rebuild the slot array at `slots` slots from the stored hashes (keys are
    /// distinct, so no comparison is needed).
    fn reindex(&mut self, slots: usize) {
        self.slots = vec![0; slots];
        for group in 0..self.len() {
            let mut slot = self.home(self.hashes[group]);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            self.slots[slot] = group as u32 + 1;
        }
    }

    /// The groups `rows` of this table, renumbered in that order.
    fn take(&self, rows: &[u32]) -> Groups {
        let mut taken = Groups {
            keys: self.keys.iter().map(|key| key.take(rows)).collect(),
            hashes: pick(&self.hashes, rows),
            slots: Vec::new(),
            seed: self.seed,
        };
        taken.reindex((rows.len() * 2).next_power_of_two().max(16));
        taken
    }
}

// ------------------------------------------------------------------------ aggregate

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the expression (NULLs ignored).
    Sum,
    /// Count of non-NULL expression values.
    Count,
    /// Count of all tuples (`count(*)`).
    CountStar,
    /// Arithmetic mean of non-NULL values.
    Avg,
    /// Minimum non-NULL value.
    Min,
    /// Maximum non-NULL value.
    Max,
}

/// One aggregate to compute: the function, its input expression and the declared
/// output type.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated expression (ignored for `CountStar`).
    pub expr: Expr,
    /// Declared output type of the aggregate column.
    pub output: DataType,
}

impl AggSpec {
    /// Convenience constructor.
    pub fn new(func: AggFunc, expr: Expr, output: DataType) -> AggSpec {
        AggSpec { func, expr, output }
    }
}

/// The running value of one aggregate for every group: the sum, or the minimum or
/// maximum so far, typed like the aggregate's input.
#[derive(Debug)]
enum Acc {
    Int(Vec<i64>),
    /// Starts at `-0.0`, the one double `x` with `x + v == v` bit for bit for every
    /// `v` — so a sum "starts from its first value", and merging in a group no row
    /// reached changes nothing.
    Double(Vec<f64>),
    Str(Vec<String>),
}

/// One aggregate's state for every group of a table, as typed arrays indexed by
/// group id.
#[derive(Debug)]
struct AggState {
    func: AggFunc,
    /// Rows counted (`count(*)`) or non-NULL inputs folded in (everything else).
    count: Vec<i64>,
    acc: Acc,
}

/// Typed values to fold into an aggregate state: the payload of an input column, or
/// the accumulators of another table's state.
enum Values<'a> {
    Int(&'a [i64]),
    Double(&'a [f64]),
    Str(Strings<'a>),
}

/// Fold `values` into the groups `groups` names, value by value in order:
/// `weight(r)` is how many inputs value `r` stands for (0 skips it), and
/// `step(acc, value, first)` takes it into its group's accumulator.
fn fold<A, V>(
    count: &mut [i64],
    acc: &mut [A],
    values: impl Iterator<Item = V>,
    groups: &[u32],
    weight: impl Fn(usize) -> i64,
    step: impl Fn(&mut A, V, bool),
) {
    for (row, value) in values.enumerate() {
        let (weight, group) = (weight(row), groups[row] as usize);
        if weight != 0 {
            step(&mut acc[group], value, count[group] == 0);
            count[group] += weight;
        }
    }
}

/// [`fold`] for the aggregate function `func`; `add` is the type's addition.
fn fold_as<T: PartialOrd + Clone>(
    func: AggFunc,
    count: &mut [i64],
    acc: &mut [T],
    values: &[T],
    groups: &[u32],
    weight: impl Fn(usize) -> i64,
    add: impl Fn(&mut T, &T),
) {
    let values = values.iter();
    match func {
        AggFunc::Count | AggFunc::CountStar => {
            fold(count, acc, values, groups, weight, |_, _, _| {})
        }
        AggFunc::Sum | AggFunc::Avg => {
            fold(count, acc, values, groups, weight, |acc, v, _| add(acc, v))
        }
        AggFunc::Min => fold(count, acc, values, groups, weight, |acc, v, first| {
            if first || v < acc {
                acc.clone_from(v);
            }
        }),
        AggFunc::Max => fold(count, acc, values, groups, weight, |acc, v, first| {
            if first || v > acc {
                acc.clone_from(v);
            }
        }),
    }
}

/// [`fold_as`] over strings of either form, read in place: a string is copied only
/// when it becomes its group's minimum or maximum.
fn fold_strs(
    func: AggFunc,
    count: &mut [i64],
    acc: &mut [String],
    values: Strings<'_>,
    groups: &[u32],
    weight: impl Fn(usize) -> i64,
) {
    let values = (0..values.len()).map(|row| values.get(row));
    let keep = |acc: &mut String, v: &str| {
        acc.clear();
        acc.push_str(v);
    };
    match func {
        AggFunc::Count | AggFunc::CountStar => {
            fold(count, acc, values, groups, weight, |_, _, _| {})
        }
        AggFunc::Sum | AggFunc::Avg => fold(count, acc, values, groups, weight, |_, _, _| {
            panic!("sum and avg are not defined over strings")
        }),
        AggFunc::Min => fold(count, acc, values, groups, weight, |acc, v, first| {
            if first || v < acc.as_str() {
                keep(acc, v);
            }
        }),
        AggFunc::Max => fold(count, acc, values, groups, weight, |acc, v, first| {
            if first || v > acc.as_str() {
                keep(acc, v);
            }
        }),
    }
}

impl AggState {
    /// The state of `func` over an input of type `input` (`None`: all NULL), with
    /// no groups yet.
    fn new(func: AggFunc, input: Option<DataType>) -> AggState {
        AggState {
            func,
            count: Vec::new(),
            acc: match input.unwrap_or(DataType::Int) {
                DataType::Int => Acc::Int(Vec::new()),
                DataType::Double => Acc::Double(Vec::new()),
                DataType::Str => Acc::Str(Vec::new()),
            },
        }
    }

    /// Make room for `groups` groups.
    fn resize(&mut self, groups: usize) {
        self.count.resize(groups, 0);
        match &mut self.acc {
            Acc::Int(acc) => acc.resize(groups, 0),
            Acc::Double(acc) => acc.resize(groups, -0.0),
            Acc::Str(acc) => acc.resize(groups, String::new()),
        }
    }

    /// `count(*)`: every row counts.
    fn count_rows(&mut self, groups: &[u32]) {
        for &group in groups {
            self.count[group as usize] += 1;
        }
    }

    /// Fold `values` in, value `r` standing for `weight(r)` inputs of group
    /// `groups[r]`.
    fn fold(&mut self, values: Values<'_>, groups: &[u32], weight: impl Fn(usize) -> i64) {
        let (func, count) = (self.func, &mut self.count[..]);
        match (&mut self.acc, values) {
            (Acc::Int(acc), Values::Int(values)) => {
                fold_as(func, count, acc, values, groups, weight, |a, v| *a += *v)
            }
            (Acc::Double(acc), Values::Double(values)) => {
                fold_as(func, count, acc, values, groups, weight, |a, v| *a += *v)
            }
            (Acc::Str(acc), Values::Str(values)) => {
                fold_strs(func, count, acc, values, groups, weight)
            }
            _ => panic!("the input of an aggregate changed type"),
        }
    }

    /// Fold one batch's input column in, row `r` into group `groups[r]`, in row
    /// order, skipping NULLs.
    fn update(&mut self, input: &Column, groups: &[u32]) {
        let values = match &input.data {
            ColumnData::Int(values) => Values::Int(values),
            ColumnData::Double(values) => Values::Double(values),
            data => Values::Str(data.strings().expect("a string column")),
        };
        match &input.validity {
            None => self.fold(values, groups, |_| 1),
            Some(valid) => self.fold(values, groups, |row| i64::from(valid[row])),
        }
    }

    /// Fold another table's state for the same aggregate in: its group `g` into
    /// this table's group `groups[g]` (the merge phase of parallel aggregation) —
    /// its accumulator is one value standing for as many inputs as it counted.
    /// Count/min/max and integer sums are exact whatever the merge order; double
    /// sums can differ from the serial scan order in the last ulps, exactly like any
    /// parallel floating-point reduction.
    fn merge(&mut self, other: &AggState, groups: &[u32]) {
        let values = match &other.acc {
            Acc::Int(acc) => Values::Int(acc),
            Acc::Double(acc) => Values::Double(acc),
            Acc::Str(acc) => Values::Str(Strings::Plain(acc)),
        };
        self.fold(values, groups, |group| other.count[group]);
    }

    /// The state of the groups `rows`, renumbered in that order.
    fn take(&self, rows: &[u32]) -> AggState {
        AggState {
            func: self.func,
            count: pick(&self.count, rows),
            acc: match &self.acc {
                Acc::Int(acc) => Acc::Int(pick(acc, rows)),
                Acc::Double(acc) => Acc::Double(pick(acc, rows)),
                Acc::Str(acc) => Acc::Str(pick(acc, rows)),
            },
        }
    }

    /// The aggregate's value for every group; NULL where no value was folded in.
    fn finish(self) -> Column {
        let AggState { func, count, acc } = self;
        let validity = count
            .contains(&0)
            .then(|| count.iter().map(|&n| n > 0).collect());
        let data = match (func, acc) {
            (AggFunc::Count | AggFunc::CountStar, _) => {
                return Column::from_data(ColumnData::Int(count))
            }
            (AggFunc::Avg, Acc::Int(sum)) => ColumnData::Double(
                sum.iter()
                    .zip(&count)
                    .map(|(&s, &n)| s as f64 / n as f64)
                    .collect(),
            ),
            (AggFunc::Avg, Acc::Double(sum)) => ColumnData::Double(
                sum.iter()
                    .zip(&count)
                    .map(|(&s, &n)| s / n as f64)
                    .collect(),
            ),
            (_, Acc::Int(acc)) => ColumnData::Int(acc),
            (_, Acc::Double(acc)) => ColumnData::Double(acc),
            (_, Acc::Str(acc)) => ColumnData::Str(acc),
        };
        Column { data, validity }
    }
}

/// Output column types of an aggregation: group keys then aggregates.
fn agg_output_types(group_types: &[DataType], aggregates: &[AggSpec]) -> Vec<DataType> {
    let mut types = group_types.to_vec();
    types.extend(aggregates.iter().map(|a| a.output));
    types
}

/// A group table with the aggregate states of its groups: what a worker builds over
/// its morsels, what one radix partition of it is, and what partitions merge into.
struct AggTable {
    groups: Groups,
    states: Vec<AggState>,
}

impl AggTable {
    /// An empty table for `group_exprs` and `aggregates` over an input of the
    /// given column types.
    fn new(group_exprs: &[Expr], aggregates: &[AggSpec], input: &[DataType]) -> AggTable {
        let key_types: Vec<DataType> = group_exprs
            .iter()
            .map(|expr| expr.static_type(input).unwrap_or(DataType::Int))
            .collect();
        AggTable {
            groups: Groups::new(&key_types),
            states: aggregates
                .iter()
                .map(|spec| match spec.func {
                    AggFunc::CountStar => AggState::new(spec.func, None),
                    _ => AggState::new(spec.func, spec.expr.static_type(input)),
                })
                .collect(),
        }
    }

    /// The groups `rows` with their states.
    fn take(&self, rows: &[u32]) -> AggTable {
        AggTable {
            groups: self.groups.take(rows),
            states: self.states.iter().map(|state| state.take(rows)).collect(),
        }
    }

    /// Split into [`RADIX_PARTITIONS`] tables by the leading bits of the key hash.
    fn into_partitions(self) -> Vec<AggTable> {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); RADIX_PARTITIONS];
        for (group, &hash) in self.groups.hashes.iter().enumerate() {
            rows[partition_of(hash)].push(group as u32);
        }
        rows.iter().map(|rows| self.take(rows)).collect()
    }

    /// Fold another table for the same aggregation in.
    fn absorb(&mut self, other: &AggTable) {
        let keys: Vec<&Column> = other.groups.keys.iter().collect();
        let groups: Vec<u32> = (0..other.groups.len())
            .map(|row| self.groups.resolve(&keys, row, other.groups.hashes[row]))
            .collect();
        for (state, other) in self.states.iter_mut().zip(&other.states) {
            state.resize(self.groups.len());
            state.merge(other, &groups);
        }
    }

    /// One output row per group — key columns then aggregate values, of the
    /// declared `types` — in group-id order.
    fn into_batch(self, types: &[DataType]) -> Batch {
        let columns = (self.groups.keys.into_iter())
            .chain(self.states.into_iter().map(AggState::finish))
            .zip(types)
            .map(|(column, &ty)| coerce(column, ty))
            .collect();
        Batch::from_columns(columns)
    }
}

/// Fold the same radix partition of every worker into one partition, in worker
/// order. Partitions hold disjoint key sets, so this is the only cross-worker
/// combination the merge phase needs.
fn merge_agg_partition(parts: Vec<AggTable>) -> Option<AggTable> {
    let mut parts = parts.into_iter();
    let mut merged = parts.next()?;
    for part in parts {
        merged.absorb(&part);
    }
    Some(merged)
}

/// The barrier and the tail of an aggregation: split every worker's table into radix
/// partitions, merge them partition-wise on `threads` workers, and emit one row per
/// group — `group_keys` key columns then the aggregates, of the declared `types` —
/// sorted by group key.
fn merge_and_emit(
    tables: Vec<AggTable>,
    threads: usize,
    group_keys: usize,
    types: &[DataType],
) -> Batch {
    let per_worker: Vec<Vec<AggTable>> = (tables.into_iter())
        .map(AggTable::into_partitions)
        .collect();
    let merged =
        morsel::merge_partitionwise(per_worker, threads, |_, parts| merge_agg_partition(parts));
    let mut out = Batch::new(types);
    for table in merged.into_iter().flatten() {
        out.append_owned(table.into_batch(types));
    }
    let keys: Vec<(&Column, bool)> = (0..group_keys)
        .map(|key| (out.column(key), false))
        .collect();
    out.take(&sorted_rows(&keys, out.len(), None))
}

/// Where a [`HashAggregateOp`] gets its rows from.
enum AggInput<'a> {
    /// Any operator, pulled on the calling thread into one sink.
    Operator(BoxedOperator<'a>),
    /// A scan pipeline run by `spec.config.threads` morsel workers, one sink each.
    Pipeline {
        relation: &'a Relation,
        spec: PipelineSpec,
    },
}

/// Per-worker sink of the aggregation build phase: one group table over everything
/// the worker scans.
struct AggBuildSink<'x> {
    group_exprs: &'x [Expr],
    aggregates: &'x [AggSpec],
    table: AggTable,
}

impl MorselSink for AggBuildSink<'_> {
    fn consume(&mut self, batch: Batch) {
        // Every expression is evaluated once, over the whole batch …
        let keys: Vec<_> = (self.group_exprs.iter())
            .map(|expr| expr.evaluate(&batch, None))
            .collect();
        let keys: Vec<&Column> = keys.iter().map(|key| &**key).collect();
        // … every row resolved to its group id — coded keys once per distinct code
        // tuple, on its first row, so groups are numbered as row by row …
        let (table, mut key) = (&mut self.table.groups, Vec::new());
        let group_of = |row| {
            let hash = key_hash(keys.iter().map(|column| cell(column, row)), &mut key);
            table.resolve(&keys, row, hash)
        };
        let groups = per_code_tuple(&keys, batch.len(), group_of).unwrap_or_else(|| {
            let hashes = hash_rows(&keys, batch.len());
            (0..batch.len())
                .map(|row| self.table.groups.resolve(&keys, row, hashes[row]))
                .collect()
        });
        // … and every aggregate's input column folded into its typed arrays.
        for (state, spec) in self.table.states.iter_mut().zip(self.aggregates) {
            state.resize(self.table.groups.len());
            match spec.func {
                AggFunc::CountStar => state.count_rows(&groups),
                _ => state.update(&spec.expr.evaluate(&batch, None), &groups),
            }
        }
    }
}

/// Hash aggregation (a pipeline breaker): every worker consumes its share of the
/// input into a group table, the barrier splits the tables into
/// [`crate::morsel::RADIX_PARTITIONS`] radix partitions and merges them
/// partition-wise, then one tuple per group is emitted — the group-key expressions
/// followed by the aggregates — sorted by group key.
///
/// [`HashAggregateOp::new`] aggregates any operator's output with one worker, the
/// calling thread. [`HashAggregateOp::over_relation`] aggregates a scan pipeline
/// with `spec.config.threads` morsel workers — the query planner's lowering for an
/// aggregate fed by a pure scan chain. One worker folds the rows in scan order, so
/// its result is a pure function of the input; more workers change nothing but
/// sums over doubles, which are then a parallel floating-point reduction (equal up
/// to reassociation). Counts, min/max and integer sums are order-insensitive and
/// byte-identical for every worker count.
pub struct HashAggregateOp<'a> {
    input: AggInput<'a>,
    group_exprs: Vec<Expr>,
    aggregates: Vec<AggSpec>,
    output_types: Vec<DataType>,
    scan_stats: ScanStats,
    done: bool,
}

impl<'a> HashAggregateOp<'a> {
    /// Aggregate the output of `input`. `group_types` declares the types of the
    /// group-key output columns (one per group expression).
    pub fn new(
        input: BoxedOperator<'a>,
        group_exprs: Vec<Expr>,
        group_types: Vec<DataType>,
        aggregates: Vec<AggSpec>,
    ) -> Self {
        Self::with_input(
            AggInput::Operator(input),
            group_exprs,
            group_types,
            aggregates,
        )
    }

    /// Aggregate the morsel pipeline `spec` over `relation`: the workers run the
    /// scan→filter→project chain locally and aggregate into private tables
    /// (`spec.config.threads` sets build and merge parallelism; one worker runs on
    /// the calling thread).
    pub fn over_relation(
        relation: &'a Relation,
        spec: PipelineSpec,
        group_exprs: Vec<Expr>,
        group_types: Vec<DataType>,
        aggregates: Vec<AggSpec>,
    ) -> Self {
        Self::with_input(
            AggInput::Pipeline { relation, spec },
            group_exprs,
            group_types,
            aggregates,
        )
    }

    fn with_input(
        input: AggInput<'a>,
        group_exprs: Vec<Expr>,
        group_types: Vec<DataType>,
        aggregates: Vec<AggSpec>,
    ) -> Self {
        assert_eq!(group_exprs.len(), group_types.len());
        let output_types = agg_output_types(&group_types, &aggregates);
        HashAggregateOp {
            input,
            group_exprs,
            aggregates,
            output_types,
            scan_stats: ScanStats::default(),
            done: false,
        }
    }

    /// Statistics of the driving scan of [`HashAggregateOp::over_relation`]
    /// (complete once the operator has produced its output; zero for
    /// [`HashAggregateOp::new`], whose input keeps its own).
    pub fn scan_stats(&self) -> ScanStats {
        self.scan_stats
    }
}

impl Operator for HashAggregateOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>, Error> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let input_types = match &self.input {
            AggInput::Operator(input) => input.output_types(),
            AggInput::Pipeline { relation, spec } => spec.output_types(*relation),
        };
        let make_sink = || AggBuildSink {
            group_exprs: &self.group_exprs,
            aggregates: &self.aggregates,
            table: AggTable::new(&self.group_exprs, &self.aggregates, &input_types),
        };
        let (sinks, threads) = match &mut self.input {
            AggInput::Operator(input) => {
                let mut sink = make_sink();
                while let Some(batch) = input.next_batch()? {
                    if !batch.is_empty() {
                        sink.consume(batch);
                    }
                }
                (vec![sink], 1)
            }
            AggInput::Pipeline { relation, spec } => {
                let (sinks, stats) = morsel::drive_pipeline(relation, spec, make_sink)?;
                self.scan_stats = stats;
                (sinks, spec.config.threads)
            }
        };
        let tables = sinks.into_iter().map(|sink| sink.table).collect();
        let groups = self.group_exprs.len();
        Ok(Some(merge_and_emit(
            tables,
            threads,
            groups,
            &self.output_types,
        )))
    }

    fn output_types(&self) -> Vec<DataType> {
        self.output_types.clone()
    }
}

// ----------------------------------------------------------------------------- join

/// Join variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join; output = build columns ++ probe columns.
    Inner,
    /// Left-semi join on the probe side: emit probe tuples that have at least one
    /// build match (used for EXISTS-style subqueries); output = probe columns.
    ProbeSemi,
}

/// The built side of a join: the build rows as one columnar batch in build-stream
/// order, and for every distinct non-NULL key the numbers of its rows.
struct JoinTable {
    rows: Batch,
    keys: Groups,
    /// Rows of key `g`: `matches[starts[g]..starts[g + 1]]`, ascending — so a key's
    /// matches come out in stream order.
    starts: Vec<u32>,
    matches: Vec<u32>,
    /// Early-probe tag bits, one per distinct key.
    tags: Vec<u64>,
}

/// Hash equi-join. The build side is materialised (the pipeline breaker) as one
/// columnar batch plus a table from key to build row numbers; the probe side
/// streams through and matches are emitted by gathering columns. The first pull
/// builds on the calling thread: it pulls the build side once, hashing each batch's
/// keys as the batch arrives, so build rows — and a key's matches — are in
/// build-stream order. A scan on the build side still runs its own
/// [`crate::ScanConfig::threads`] workers, and its stream is the same at every worker
/// count, so join output is too. A key's values — build or probe — are
/// hashed exactly once. Optionally an *early-probe* filter — a compact tag bitmap derived
/// from the key hashes, standing in for the tagged hash-table pointers of
/// Appendix E — rejects probe tuples before the hash lookup.
pub struct HashJoinOp<'a> {
    build: BoxedOperator<'a>,
    probe: BoxedOperator<'a>,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    join_type: JoinType,
    early_probe: bool,
    table: Option<JoinTable>,
    output_types: Vec<DataType>,
}

impl<'a> HashJoinOp<'a> {
    /// Create a hash join of `build` and `probe` on the given key columns.
    pub fn new(
        build: BoxedOperator<'a>,
        probe: BoxedOperator<'a>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        join_type: JoinType,
    ) -> Self {
        assert_eq!(build_keys.len(), probe_keys.len());
        let output_types = match join_type {
            JoinType::Inner => {
                let mut types = build.output_types();
                types.extend(probe.output_types());
                types
            }
            JoinType::ProbeSemi => probe.output_types(),
        };
        HashJoinOp {
            build,
            probe,
            build_keys,
            probe_keys,
            join_type,
            early_probe: false,
            table: None,
            output_types,
        }
    }

    /// Enable the Appendix-E style early probe (tag bitmap checked before the hash
    /// table lookup).
    pub fn with_early_probe(mut self, enabled: bool) -> Self {
        self.early_probe = enabled;
        self
    }

    fn build_table(&mut self) -> Result<JoinTable, Error> {
        // Pull the build side in stream order (an upstream scan runs its own
        // ScanConfig::threads workers), hashing each batch's keys as it arrives …
        let mut rows = Batch::new(&self.build.output_types());
        let mut hashes = Vec::new();
        while let Some(batch) = self.build.next_batch()? {
            if batch.is_empty() {
                continue;
            }
            let keys: Vec<&Column> = self.build_keys.iter().map(|&k| batch.column(k)).collect();
            hashes.extend(hash_rows(&keys, batch.len()));
            rows.append_owned(batch);
        }
        // … then number the distinct keys and list every key's rows in row order
        // (a counting sort by key number). NULL keys never join: they get no key.
        let key_columns: Vec<&Column> = self.build_keys.iter().map(|&k| rows.column(k)).collect();
        let key_types: Vec<DataType> = key_columns.iter().map(|c| c.data_type()).collect();
        let mut keys = Groups::new(&key_types);
        let key_of_row: Vec<Option<u32>> = (0..rows.len())
            .map(|row| {
                (key_columns.iter().all(|column| !column.is_null(row)))
                    .then(|| keys.resolve(&key_columns, row, hashes[row]))
            })
            .collect();
        let mut starts = vec![0u32; keys.len() + 1];
        for key in key_of_row.iter().flatten() {
            starts[*key as usize + 1] += 1;
        }
        for key in 0..keys.len() {
            starts[key + 1] += starts[key];
        }
        let mut next = starts.clone();
        let mut matches = vec![0u32; starts[keys.len()] as usize];
        for (row, key) in key_of_row.iter().enumerate() {
            if let Some(key) = key {
                matches[next[*key as usize] as usize] = row as u32;
                next[*key as usize] += 1;
            }
        }
        // 16 KiB of tag bits (2^17 bits): small enough for L1/L2, large enough to be
        // selective for the build sizes used here. One bit per distinct key.
        let mut tags = vec![0u64; 2048];
        for &hash in &keys.hashes {
            let (word, bit) = tag_slot(hash, tags.len());
            tags[word] |= 1 << bit;
        }
        Ok(JoinTable {
            rows,
            keys,
            starts,
            matches,
            tags,
        })
    }
}

fn tag_slot(hash: u64, words: usize) -> (usize, u32) {
    ((hash as usize) % words, (hash >> 32) as u32 % 64)
}

impl<'a> Operator for HashJoinOp<'a> {
    fn next_batch(&mut self) -> Result<Option<Batch>, Error> {
        if self.table.is_none() {
            self.table = Some(self.build_table()?);
        }
        let table = self.table.as_ref().expect("built above");
        let Some(batch) = self.probe.next_batch()? else {
            return Ok(None);
        };
        let keys: Vec<&Column> = self.probe_keys.iter().map(|&k| batch.column(k)).collect();
        let hashes = hash_rows(&keys, batch.len());
        // Matching (build row, probe row) pairs, in probe order.
        let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
        for (row, &hash) in hashes.iter().enumerate() {
            if keys.iter().any(|column| column.is_null(row)) {
                continue; // NULL keys never join
            }
            if self.early_probe {
                let (word, bit) = tag_slot(hash, table.tags.len());
                if table.tags[word] & (1 << bit) == 0 {
                    continue;
                }
            }
            let Ok(key) = table.keys.probe(&keys, row, hash) else {
                continue;
            };
            match self.join_type {
                JoinType::Inner => {
                    let (from, to) = (table.starts[key as usize], table.starts[key as usize + 1]);
                    build_rows.extend_from_slice(&table.matches[from as usize..to as usize]);
                    probe_rows.extend((from..to).map(|_| row as u32));
                }
                JoinType::ProbeSemi => probe_rows.push(row as u32),
            }
        }
        Ok(Some(match self.join_type {
            JoinType::Inner => {
                let mut columns = table.rows.take(&build_rows).into_columns();
                columns.extend(batch.take(&probe_rows).into_columns());
                Batch::from_columns(columns)
            }
            JoinType::ProbeSemi if probe_rows.len() == batch.len() => batch,
            JoinType::ProbeSemi => batch.take(&probe_rows),
        }))
    }

    fn output_types(&self) -> Vec<DataType> {
        self.output_types.clone()
    }
}

// ----------------------------------------------------------------------------- sort

/// Sort key: column index and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column to sort by.
    pub column: usize,
    /// Sort descending instead of ascending.
    pub descending: bool,
}

impl SortKey {
    /// Ascending sort on a column.
    pub fn asc(column: usize) -> SortKey {
        SortKey {
            column,
            descending: false,
        }
    }

    /// Descending sort on a column.
    pub fn desc(column: usize) -> SortKey {
        SortKey {
            column,
            descending: true,
        }
    }
}

/// Sort (and optionally limit) the full input — a pipeline breaker. The input is
/// concatenated column-wise, a permutation of its row numbers is sorted over the
/// typed key columns (ties keep input order, as a stable sort would; with a limit
/// the leading rows are selected before they are sorted), and the output is
/// gathered once.
pub struct SortOp<'a> {
    input: BoxedOperator<'a>,
    keys: Vec<SortKey>,
    limit: Option<usize>,
    types: Vec<DataType>,
    done: bool,
}

impl<'a> SortOp<'a> {
    /// Sort by `keys`, optionally keeping only the first `limit` tuples.
    pub fn new(input: BoxedOperator<'a>, keys: Vec<SortKey>, limit: Option<usize>) -> Self {
        let types = input.output_types();
        SortOp {
            input,
            keys,
            limit,
            types,
            done: false,
        }
    }
}

impl<'a> Operator for SortOp<'a> {
    fn next_batch(&mut self) -> Result<Option<Batch>, Error> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let rows = drain(self.input.as_mut())?;
        let keys: Vec<(&Column, bool)> = (self.keys.iter())
            .map(|key| (rows.column(key.column), key.descending))
            .collect();
        Ok(Some(rows.take(&sorted_rows(&keys, rows.len(), self.limit))))
    }

    fn output_types(&self) -> Vec<DataType> {
        self.types.clone()
    }
}

/// A fixed, already-materialised input (useful for tests and for feeding the build
/// side of joins from intermediate results).
pub struct ValuesOp {
    batch: Option<Batch>,
    types: Vec<DataType>,
}

impl ValuesOp {
    /// Wrap a batch as an operator.
    pub fn new(batch: Batch) -> ValuesOp {
        let types = batch.types();
        ValuesOp {
            batch: Some(batch),
            types,
        }
    }
}

impl Operator for ValuesOp {
    fn next_batch(&mut self) -> Result<Option<Batch>, Error> {
        Ok(self.batch.take())
    }

    fn output_types(&self) -> Vec<DataType> {
        self.types.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablocks::CmpOp;

    fn numbers(n: i64) -> Batch {
        Batch::from_rows(
            &[DataType::Int, DataType::Int, DataType::Str],
            &(0..n)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(i % 10),
                        Value::Str(format!("g{}", i % 3)),
                    ]
                })
                .collect::<Vec<_>>(),
        )
    }

    fn values_op(n: i64) -> BoxedOperator<'static> {
        Box::new(ValuesOp::new(numbers(n)))
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let mut filter =
            FilterOp::new(values_op(100), Expr::col(1).cmp(CmpOp::Eq, Expr::lit(3i64)));
        let result = filter.collect_all();
        assert_eq!(result.len(), 10);
        assert!((0..result.len()).all(|r| result.value(r, 1) == Value::Int(3)));
    }

    #[test]
    fn project_computes_expressions() {
        let mut project = ProjectOp::new(
            values_op(5),
            vec![Expr::col(0).mul(Expr::lit(2i64)), Expr::lit("x")],
            vec![DataType::Int, DataType::Str],
        );
        let result = project.collect_all();
        assert_eq!(result.len(), 5);
        assert_eq!(result.value(3, 0), Value::Int(6));
        assert_eq!(result.value(0, 1), Value::Str("x".into()));
        assert_eq!(result.types(), vec![DataType::Int, DataType::Str]);
    }

    #[test]
    fn aggregate_grouped_sums_and_counts() {
        let mut agg = HashAggregateOp::new(
            values_op(30),
            vec![Expr::col(2)],
            vec![DataType::Str],
            vec![
                AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int),
                AggSpec::new(AggFunc::Sum, Expr::col(0), DataType::Int),
                AggSpec::new(AggFunc::Avg, Expr::col(0), DataType::Double),
                AggSpec::new(AggFunc::Min, Expr::col(0), DataType::Int),
                AggSpec::new(AggFunc::Max, Expr::col(0), DataType::Int),
            ],
        );
        let result = agg.collect_all();
        assert_eq!(result.len(), 3);
        // groups come out sorted: g0, g1, g2
        assert_eq!(result.value(0, 0), Value::Str("g0".into()));
        assert_eq!(result.value(0, 1), Value::Int(10)); // 30 rows / 3 groups
                                                        // group g0 holds 0,3,6,...,27 → sum 135
        assert_eq!(result.value(0, 2), Value::Int(135));
        assert_eq!(result.value(0, 3), Value::Double(13.5));
        assert_eq!(result.value(0, 4), Value::Int(0));
        assert_eq!(result.value(0, 5), Value::Int(27));
    }

    #[test]
    fn aggregate_without_groups_produces_single_row() {
        let mut agg = HashAggregateOp::new(
            values_op(100),
            vec![],
            vec![],
            vec![AggSpec::new(AggFunc::Sum, Expr::col(0), DataType::Int)],
        );
        let result = agg.collect_all();
        assert_eq!(result.len(), 1);
        assert_eq!(result.value(0, 0), Value::Int(4950));
    }

    #[test]
    fn aggregate_ignores_nulls_in_avg_and_count() {
        let batch = Batch::from_rows(
            &[DataType::Int],
            &[
                vec![Value::Int(10)],
                vec![Value::Null],
                vec![Value::Int(20)],
            ],
        );
        let mut agg = HashAggregateOp::new(
            Box::new(ValuesOp::new(batch)),
            vec![],
            vec![],
            vec![
                AggSpec::new(AggFunc::Count, Expr::col(0), DataType::Int),
                AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int),
                AggSpec::new(AggFunc::Avg, Expr::col(0), DataType::Double),
            ],
        );
        let result = agg.collect_all();
        assert_eq!(result.value(0, 0), Value::Int(2));
        assert_eq!(result.value(0, 1), Value::Int(3));
        assert_eq!(result.value(0, 2), Value::Double(15.0));
    }

    #[test]
    fn inner_hash_join_matches_keys() {
        // build: (key, name) for keys 0..5 ; probe: numbers with col1 in 0..10
        let build = Batch::from_rows(
            &[DataType::Int, DataType::Str],
            &(0..5)
                .map(|i| vec![Value::Int(i), Value::Str(format!("n{i}"))])
                .collect::<Vec<_>>(),
        );
        let mut join = HashJoinOp::new(
            Box::new(ValuesOp::new(build)),
            values_op(100),
            vec![0],
            vec![1],
            JoinType::Inner,
        );
        let result = join.collect_all();
        // probe rows with col1 in 0..5 match: 10 rows per value of col1 → 50
        assert_eq!(result.len(), 50);
        assert_eq!(result.column_count(), 2 + 3);
        for row in 0..result.len() {
            assert_eq!(
                result.value(row, 0),
                result.value(row, 3),
                "join keys equal"
            );
        }
    }

    #[test]
    fn semi_join_emits_probe_rows_once() {
        let build = Batch::from_rows(
            &[DataType::Int],
            &[
                vec![Value::Int(2)],
                vec![Value::Int(2)],
                vec![Value::Int(4)],
            ],
        );
        let mut join = HashJoinOp::new(
            Box::new(ValuesOp::new(build)),
            values_op(20),
            vec![0],
            vec![1],
            JoinType::ProbeSemi,
        );
        let result = join.collect_all();
        // col1 values 2 and 4 each appear twice in 0..20
        assert_eq!(result.len(), 4);
        assert_eq!(result.column_count(), 3);
    }

    #[test]
    fn early_probe_does_not_change_results() {
        let build = Batch::from_rows(
            &[DataType::Int],
            &(0..3).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
        );
        let plain = HashJoinOp::new(
            Box::new(ValuesOp::new(build.clone())),
            values_op(50),
            vec![0],
            vec![1],
            JoinType::Inner,
        )
        .collect_all_helper();
        let early = HashJoinOp::new(
            Box::new(ValuesOp::new(build)),
            values_op(50),
            vec![0],
            vec![1],
            JoinType::Inner,
        )
        .with_early_probe(true)
        .collect_all_helper();
        assert_eq!(plain.len(), early.len());
    }

    impl<'a> HashJoinOp<'a> {
        fn collect_all_helper(mut self) -> Batch {
            collect_operator(&mut self)
        }
    }

    #[test]
    fn join_skips_null_probe_keys() {
        let build = Batch::from_rows(&[DataType::Int], &[vec![Value::Int(1)]]);
        let probe = Batch::from_rows(
            &[DataType::Int],
            &[vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(1)]],
        );
        let mut join = HashJoinOp::new(
            Box::new(ValuesOp::new(build)),
            Box::new(ValuesOp::new(probe)),
            vec![0],
            vec![0],
            JoinType::Inner,
        );
        assert_eq!(join.collect_all().len(), 2);
    }

    #[test]
    fn sort_orders_and_limits() {
        let mut sort = SortOp::new(values_op(20), vec![SortKey::desc(0)], Some(3));
        let result = sort.collect_all();
        assert_eq!(result.len(), 3);
        assert_eq!(result.value(0, 0), Value::Int(19));
        assert_eq!(result.value(2, 0), Value::Int(17));

        let mut sort = SortOp::new(values_op(20), vec![SortKey::asc(1), SortKey::desc(0)], None);
        let result = sort.collect_all();
        assert_eq!(result.len(), 20);
        assert_eq!(result.value(0, 1), Value::Int(0));
        assert_eq!(
            result.value(0, 0),
            Value::Int(10),
            "ties broken by descending col0"
        );
    }

    #[test]
    fn sort_breaks_ties_by_input_position_for_every_limit() {
        // Q3's shape: a limit over many rows with few distinct sort keys, fed in
        // several batches. The reference is a stable sort of the rows.
        let input = rows(120);
        let mut expected = input.clone();
        expected.sort_by(|a, b| a[2].total_cmp(&b[2]).reverse().then(a[1].total_cmp(&b[1])));
        for limit in [
            None,
            Some(0),
            Some(1),
            Some(10),
            Some(119),
            Some(120),
            Some(500),
        ] {
            let mut sort = SortOp::new(
                batches_op(&batches_of(&input, 17)),
                vec![SortKey::desc(2), SortKey::asc(1)],
                limit,
            );
            let keep = limit.unwrap_or(usize::MAX).min(expected.len());
            assert_rows_identical(
                &sort.collect_all(),
                &expected[..keep],
                &format!("limit {limit:?}"),
            );
        }
    }

    #[test]
    fn project_moves_copies_and_widens_columns() {
        let mut project = ProjectOp::new(
            values_op(4),
            // a column used twice (one copy, one move), declared wider the second time
            vec![
                Expr::col(0),
                Expr::col(2),
                Expr::col(0),
                Expr::Const(Value::Null),
            ],
            vec![
                DataType::Int,
                DataType::Str,
                DataType::Double,
                DataType::Str,
            ],
        );
        let result = project.collect_all();
        assert_eq!(
            result.row(3),
            vec![
                Value::Int(3),
                Value::Str("g0".into()),
                Value::Double(3.0),
                Value::Null
            ]
        );
        assert_eq!(result.types(), project.output_types());
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn project_rejects_a_declaration_the_values_cannot_take() {
        ProjectOp::new(values_op(4), vec![Expr::col(2)], vec![DataType::Int]).collect_all();
    }

    #[test]
    fn aggregates_come_out_in_their_declared_types() {
        let mut agg = HashAggregateOp::new(
            values_op(10),
            vec![Expr::Const(Value::Null)],
            vec![DataType::Str],
            vec![
                AggSpec::new(AggFunc::Sum, Expr::col(0), DataType::Double),
                AggSpec::new(AggFunc::Min, Expr::Const(Value::Null), DataType::Str),
                AggSpec::new(AggFunc::Max, Expr::col(2), DataType::Str),
                AggSpec::new(AggFunc::Count, Expr::Const(Value::Null), DataType::Int),
            ],
        );
        let result = agg.collect_all();
        assert_eq!(result.types(), agg.output_types());
        assert_eq!(
            result.row(0),
            vec![
                Value::Null,
                Value::Double(45.0),
                Value::Null,
                Value::Str("g2".into()),
                Value::Int(0)
            ]
        );
    }

    #[test]
    fn sum_over_a_case_of_int_and_double_is_a_double_sum_from_the_first_row() {
        // The row-at-a-time interpreter this replaced summed such a column as
        // integers until the first double arrived; a column has one type, so the
        // Int arm widens up front and the sum is over doubles from the start —
        // the same bits while the integers (and their partial sums) stay below
        // 2^53, which is the agreement pinned here.
        let input = rows(64);
        let mixed = Expr::Case(
            Box::new(Expr::col(0).cmp(CmpOp::Lt, Expr::lit(0i64))),
            Box::new(Expr::col(0)),
            Box::new(Expr::col(3)),
        );
        let mut agg = HashAggregateOp::new(
            batches_op(&batches_of(&input, 9)),
            vec![],
            vec![],
            vec![AggSpec::new(AggFunc::Sum, mixed, DataType::Double)],
        );
        let (mut as_doubles, mut as_values) = (-0.0f64, None::<Value>);
        for row in &input {
            let (int, double) = (row[0].as_int().unwrap(), row[3].as_double().unwrap());
            as_doubles += if int < 0 { int as f64 } else { double };
            // the old accumulation: Int + Int exact, widening when a Double arrives
            let term = if int < 0 {
                row[0].clone()
            } else {
                row[3].clone()
            };
            as_values = Some(match (as_values, term) {
                (None, term) => term,
                (Some(Value::Int(a)), Value::Int(b)) => Value::Int(a + b),
                (Some(a), b) => Value::Double(a.as_double().unwrap() + b.as_double().unwrap()),
            });
        }
        let got = agg.collect_all().value(0, 0).as_double().unwrap();
        assert_eq!(got.to_bits(), as_doubles.to_bits());
        let old = as_values.unwrap().as_double().unwrap();
        assert_eq!(got.to_bits(), old.to_bits(), "{got} vs {old}");
    }

    #[test]
    fn values_op_emits_once() {
        let mut op = ValuesOp::new(numbers(3));
        assert_eq!(op.output_types().len(), 3);
        assert!(op.next_batch().unwrap().is_some());
        assert!(op.next_batch().unwrap().is_none());
    }

    // ------------------------------------------------- pipeline breakers on N workers

    /// Emits pre-built batches one at a time: a multi-batch build/aggregate input.
    struct BatchesOp(std::collections::VecDeque<Batch>);

    impl Operator for BatchesOp {
        fn next_batch(&mut self) -> Result<Option<Batch>, Error> {
            Ok(self.0.pop_front())
        }

        fn output_types(&self) -> Vec<DataType> {
            TYPES.to_vec()
        }
    }

    /// Column layout of [`rows`]: 0 int payload, 1 nullable int key, 2 string key,
    /// 3 double payload.
    const TYPES: [DataType; 4] = [
        DataType::Int,
        DataType::Int,
        DataType::Str,
        DataType::Double,
    ];

    /// `n` rows with a skewed, NULL-bearing int key, a 3-valued string key and a
    /// double whose sum depends on the order of addition.
    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                let key = match i % 11 {
                    0 => Value::Null,
                    1..=6 => Value::Int(1), // skew
                    _ => Value::Int(i % 7),
                };
                vec![
                    Value::Int(i * i % 1_000 - 300),
                    key,
                    Value::Str(format!("g{}", i % 3)),
                    Value::Double(1.0 / (i + 1) as f64),
                ]
            })
            .collect()
    }

    /// Split rows into batches of `size` (the last one shorter).
    fn batches_of(rows: &[Vec<Value>], size: usize) -> Vec<Batch> {
        rows.chunks(size)
            .map(|chunk| Batch::from_rows(&TYPES, chunk))
            .collect()
    }

    fn batches_op(batches: &[Batch]) -> BoxedOperator<'static> {
        Box::new(BatchesOp(batches.iter().cloned().collect()))
    }

    /// A relation holding `rows` in order: frozen blocks of 64 rows plus a hot tail.
    fn relation_of(rows: &[Vec<Value>]) -> Relation {
        relation_with_g(rows, false)
    }

    /// [`relation_of`], with the string column `g` nullable when `nullable_g`.
    fn relation_with_g(rows: &[Vec<Value>], nullable_g: bool) -> Relation {
        use storage::{ColumnDef, Schema};
        let g = if nullable_g {
            ColumnDef::nullable("g", DataType::Str)
        } else {
            ColumnDef::new("g", DataType::Str)
        };
        let schema = Schema::new(vec![
            ColumnDef::new("v", DataType::Int),
            ColumnDef::nullable("k", DataType::Int),
            g,
            ColumnDef::new("d", DataType::Double),
        ]);
        let mut rel = Relation::with_chunk_capacity("r", schema, 64);
        for row in rows {
            rel.insert(row.clone());
        }
        rel.freeze_full_chunks();
        rel
    }

    /// Every column of `rel`, scanned by `threads` workers over 16-row morsels.
    fn scan_op(rel: &Relation, threads: usize) -> BoxedOperator<'_> {
        let config = crate::ScanConfig::default()
            .with_threads(threads)
            .with_morsel_rows(16);
        let scanner = RelationScanner::new(rel, vec![0, 1, 2, 3], vec![], config);
        Box::new(ScanOp::new(scanner))
    }

    /// count(*), count/sum/min/max/avg of the int payload, sum of the double.
    fn all_aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int),
            AggSpec::new(AggFunc::Count, Expr::col(0), DataType::Int),
            AggSpec::new(AggFunc::Sum, Expr::col(0), DataType::Int),
            AggSpec::new(AggFunc::Min, Expr::col(0), DataType::Int),
            AggSpec::new(AggFunc::Max, Expr::col(0), DataType::Int),
            AggSpec::new(AggFunc::Avg, Expr::col(0), DataType::Double),
            AggSpec::new(AggFunc::Sum, Expr::col(3), DataType::Double),
        ]
    }

    /// The reference for [`all_aggs`] grouped by `(column 2, column 1)`: a fold
    /// over the rows in stream order, written without any of the operator's
    /// machinery. One worker must reproduce it exactly, double sums included.
    fn fold_in_row_order(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        struct Acc {
            key: Vec<Value>,
            rows: i64,
            ints: Vec<i64>,
            doubles: f64,
        }
        let mut groups: Vec<Acc> = Vec::new();
        for row in rows {
            let key = vec![row[2].clone(), row[1].clone()];
            let idx = groups.iter().position(|g| g.key == key).unwrap_or_else(|| {
                groups.push(Acc {
                    key,
                    rows: 0,
                    ints: Vec::new(),
                    doubles: 0.0,
                });
                groups.len() - 1
            });
            let acc = &mut groups[idx];
            acc.doubles = if acc.rows == 0 {
                row[3].as_double().unwrap()
            } else {
                acc.doubles + row[3].as_double().unwrap()
            };
            acc.rows += 1;
            acc.ints.extend(row[0].as_int());
        }
        groups.sort_by(|a, b| {
            a.key[0]
                .total_cmp(&b.key[0])
                .then(a.key[1].total_cmp(&b.key[1]))
        });
        groups
            .into_iter()
            .map(|g| {
                let (count, sum) = (g.ints.len() as i64, g.ints.iter().sum::<i64>());
                let mut out = g.key;
                out.extend([
                    Value::Int(g.rows),
                    Value::Int(count),
                    Value::Int(sum),
                    Value::Int(*g.ints.iter().min().unwrap()),
                    Value::Int(*g.ints.iter().max().unwrap()),
                    Value::Double(sum as f64 / count as f64),
                    Value::Double(g.doubles),
                ]);
                out
            })
            .collect()
    }

    fn group_by_g_and_k<'a>(input: BoxedOperator<'a>) -> HashAggregateOp<'a> {
        HashAggregateOp::new(
            input,
            vec![Expr::col(2), Expr::col(1)],
            vec![DataType::Str, DataType::Int],
            all_aggs(),
        )
    }

    fn group_by_g_and_k_over(rel: &Relation, config: crate::ScanConfig) -> HashAggregateOp<'_> {
        HashAggregateOp::over_relation(
            rel,
            PipelineSpec::scan(vec![0, 1, 2, 3], vec![], config),
            vec![Expr::col(2), Expr::col(1)],
            vec![DataType::Str, DataType::Int],
            all_aggs(),
        )
    }

    /// Byte equality, doubles by bit pattern.
    fn assert_rows_identical(got: &Batch, expected: &[Vec<Value>], context: &str) {
        assert_eq!(got.len(), expected.len(), "{context}");
        for (row, want) in expected.iter().enumerate() {
            let have = got.row(row);
            assert_eq!(&have, want, "{context} row {row}");
            for (h, w) in have.iter().zip(want) {
                if let (Value::Double(h), Value::Double(w)) = (h, w) {
                    assert_eq!(h.to_bits(), w.to_bits(), "{context} row {row}");
                }
            }
        }
    }

    /// Equality up to the reassociation of double sums (the last output column).
    fn assert_rows_equal_up_to_double_sums(got: &Batch, expected: &Batch, context: &str) {
        assert_eq!(got.len(), expected.len(), "{context}");
        let last = expected.column_count() - 1;
        for row in 0..expected.len() {
            let (have, want) = (got.row(row), expected.row(row));
            assert_eq!(have[..last], want[..last], "{context} row {row}");
            let (a, b) = (
                have[last].as_double().unwrap(),
                want[last].as_double().unwrap(),
            );
            assert!(
                (a - b).abs() <= 1e-9 * b.abs(),
                "{context} row {row}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn one_worker_aggregates_exactly_like_a_row_order_fold() {
        let input = rows(257);
        let expected = fold_in_row_order(&input);
        assert!(
            expected.len() > 10,
            "NULL and skewed keys yield many groups"
        );
        // `new`: any operator, however its output is cut into batches …
        for size in [13usize, 64, 257] {
            let got = group_by_g_and_k(batches_op(&batches_of(&input, size))).collect_all();
            assert_rows_identical(&got, &expected, &format!("new, batches of {size}"));
        }
        // … `over_relation`: one morsel worker, whatever the morsel size.
        let rel = relation_of(&input);
        for morsel_rows in [16usize, 1_000] {
            let config = crate::ScanConfig::default().with_morsel_rows(morsel_rows);
            let got = group_by_g_and_k_over(&rel, config).collect_all();
            assert_rows_identical(&got, &expected, &format!("over_relation, {morsel_rows}"));
        }
    }

    #[test]
    fn more_workers_change_nothing_but_double_sum_association() {
        let input = rows(257);
        let rel = relation_of(&input);
        let one = group_by_g_and_k_over(&rel, crate::ScanConfig::default()).collect_all();
        for threads in [2usize, 4, 8] {
            let config = crate::ScanConfig::default()
                .with_threads(threads)
                .with_morsel_rows(16);
            let got = group_by_g_and_k_over(&rel, config).collect_all();
            assert_rows_equal_up_to_double_sums(&got, &one, &format!("threads {threads}"));
        }
    }

    #[test]
    fn aggregate_is_independent_of_input_order() {
        // Feeding the rows in reversed / rotated order changes which worker builds
        // which partial state and in what order states merge, yet everything but
        // the double sum is order-insensitive.
        let input = rows(100);
        let reference = group_by_g_and_k(batches_op(&batches_of(&input, 9))).collect_all();
        let mut reversed = input.clone();
        reversed.reverse();
        let mut rotated = input.clone();
        rotated.rotate_left(input.len() / 2);
        for (name, order) in [("reversed", reversed), ("rotated", rotated)] {
            let got = group_by_g_and_k(batches_op(&batches_of(&order, 9))).collect_all();
            assert_rows_equal_up_to_double_sums(&got, &reference, &format!("new, {name}"));
            let rel = relation_of(&order);
            for threads in [1usize, 3] {
                let config = crate::ScanConfig::default()
                    .with_threads(threads)
                    .with_morsel_rows(16);
                let got = group_by_g_and_k_over(&rel, config).collect_all();
                assert_rows_equal_up_to_double_sums(
                    &got,
                    &reference,
                    &format!("over_relation, {name}, threads {threads}"),
                );
            }
        }
    }

    #[test]
    fn merging_agg_partitions_in_any_worker_order_is_identical() {
        // Three workers' partial states for overlapping groups, merged in every
        // permutation of the worker order: integer aggregates must agree.
        let input = rows(60);
        let group_exprs = [Expr::col(1)];
        let aggregates = all_aggs();
        let types = agg_output_types(&[DataType::Int], &aggregates);
        let build = |order: &[usize]| -> Batch {
            let tables: Vec<AggTable> = order
                .iter()
                .map(|&w| {
                    let third: Vec<Vec<Value>> = input.iter().skip(w).step_by(3).cloned().collect();
                    let mut sink = AggBuildSink {
                        group_exprs: &group_exprs,
                        aggregates: &aggregates,
                        table: AggTable::new(&group_exprs, &aggregates, &TYPES),
                    };
                    sink.consume(Batch::from_rows(&TYPES, &third));
                    sink.table
                })
                .collect();
            merge_and_emit(tables, 2, group_exprs.len(), &types)
        };
        let reference = build(&[0, 1, 2]);
        assert!(reference.len() > 3);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_rows_equal_up_to_double_sums(
                &build(&order),
                &reference,
                &format!("order {order:?}"),
            );
        }
    }

    #[test]
    fn radix_partition_is_pure_and_bounded() {
        let keys = [
            vec![Value::Int(42)],
            vec![Value::Null],
            vec![Value::Str("abc".into()), Value::Int(-7)],
            vec![Value::Double(3.25)],
            vec![],
        ];
        for key in &keys {
            let p = radix_partition(key);
            assert!(p < RADIX_PARTITIONS);
            assert_eq!(p, radix_partition(key), "partition must be a pure function");
        }
        // distinct int keys spread over more than one partition
        let hit: std::collections::HashSet<usize> = (0..256i64)
            .map(|i| radix_partition(&[Value::Int(i)]))
            .collect();
        assert!(hit.len() > 8, "only {} partitions hit", hit.len());
    }

    #[test]
    fn key_hash_is_std_hash_of_the_tagged_values() {
        // The bytes `Cell::write_to` lays out are the ones `Hash::hash` writes for a
        // tag byte followed by the value — the key hash this module always used —
        // so partition assignment did not move when hashing went columnar.
        use std::hash::Hash;
        let keys = [
            vec![Value::Int(-7), Value::Str("abc".into()), Value::Null],
            vec![Value::Double(-0.0), Value::Str(String::new())],
            vec![],
        ];
        for key in &keys {
            let mut hasher = DefaultHasher::new();
            for value in key {
                match value {
                    Value::Null => 0u8.hash(&mut hasher),
                    Value::Int(v) => (1u8, *v).hash(&mut hasher),
                    Value::Double(v) => (2u8, v.to_bits()).hash(&mut hasher),
                    Value::Str(s) => (3u8, s.as_str()).hash(&mut hasher),
                }
            }
            assert_eq!(
                radix_partition(key),
                partition_of(hasher.finish()),
                "{key:?}"
            );
            // a column row hashes like the same values
            let types: Vec<DataType> = (key.iter())
                .map(|v| v.data_type().unwrap_or(DataType::Int))
                .collect();
            let batch = Batch::from_rows(&types, std::slice::from_ref(key));
            let columns: Vec<&Column> = batch.columns().iter().collect();
            assert_eq!(hash_rows(&columns, 1), [hasher.finish()], "{key:?}");
        }
    }

    #[test]
    fn a_coded_key_column_hashes_like_its_plain_twin() {
        // A dictionary out of order, with an unused entry, a duplicate and a NULL
        // row whose code points at a real entry: the hashes are those of the
        // strings, row for row — through the per-tuple table (one coded key, or two
        // over enough rows) and through the row-by-row path (a mixed key).
        let words = ["b", "a", "", "b", "a", "b", "", "a"];
        let plain = Column {
            data: ColumnData::Str(
                words
                    .iter()
                    .cycle()
                    .take(40)
                    .map(|w| w.to_string())
                    .collect(),
            ),
            validity: Some((0..40).map(|row| row % 7 != 3).collect()),
        };
        let dict: std::sync::Arc<[String]> = ["a", "unused", "", "b", "a"].map(String::from).into();
        let coded = Column {
            data: ColumnData::Dict {
                codes: (0..40)
                    .map(|row| match words[row % words.len()] {
                        "a" if row % 2 == 0 => 4,
                        "a" => 0,
                        "" => 2,
                        _ => 3,
                    })
                    .collect(),
                dict,
            },
            validity: plain.validity.clone(),
        };
        let ints = Column::from_data(ColumnData::Int((0..40).map(|i| i % 3).collect()));
        assert!(code_tuples(&[&coded], 40).is_some());
        assert!(code_tuples(&[&coded, &coded], 40).is_some());
        assert!(code_tuples(&[&coded, &ints], 40).is_none());
        for (coded_keys, plain_keys) in [
            (vec![&coded], vec![&plain]),
            (vec![&coded, &coded], vec![&plain, &plain]),
            (vec![&ints, &coded], vec![&ints, &plain]),
        ] {
            assert_eq!(hash_rows(&coded_keys, 40), hash_rows(&plain_keys, 40));
            // … and the row-by-row hash of the same values
            let mut key = Vec::new();
            let row_by_row: Vec<u64> = (0..40)
                .map(|row| key_hash(plain_keys.iter().map(|c| cell(c, row)), &mut key))
                .collect();
            assert_eq!(hash_rows(&coded_keys, 40), row_by_row);
        }
    }

    // ------------------------------------------------------------- coded strings

    /// [`rows`] with a NULL in the string column on every 13th row.
    fn string_rows(n: i64) -> Vec<Vec<Value>> {
        let mut rows = rows(n);
        for row in rows.iter_mut().step_by(13) {
            row[2] = Value::Null;
        }
        rows
    }

    /// `batches` with the string column (2) coded, each batch over a dictionary of
    /// its own (so no two share an `Arc` and appending them re-codes): the column's
    /// values in reverse order plus one no row uses; NULL rows get code 0.
    fn coded(batches: &[Batch]) -> Vec<Batch> {
        (batches.iter())
            .map(|batch| {
                let mut columns = batch.columns().to_vec();
                let strings = columns[2].data.strings().unwrap();
                let dict: Vec<String> = ["unused", "g2", "g1", "g0"].map(String::from).into();
                let codes = (0..batch.len())
                    .map(|row| match columns[2].is_null(row) {
                        true => 0,
                        false => dict.iter().position(|d| d == strings.get(row)).unwrap() as u32,
                    })
                    .collect();
                columns[2].data = ColumnData::Dict {
                    dict: dict.into(),
                    codes,
                };
                Batch::from_columns(columns)
            })
            .collect()
    }

    /// Min, max and count of the string column, then [`all_aggs`] (whose double sum
    /// stays last).
    fn string_and_all_aggs() -> Vec<AggSpec> {
        let mut aggs = vec![
            AggSpec::new(AggFunc::Min, Expr::col(2), DataType::Str),
            AggSpec::new(AggFunc::Max, Expr::col(2), DataType::Str),
            AggSpec::new(AggFunc::Count, Expr::col(2), DataType::Int),
        ];
        aggs.extend(all_aggs());
        aggs
    }

    #[test]
    fn coded_keys_aggregate_like_plain_ones_at_every_worker_count() {
        let plain = batches_of(&string_rows(300), 23);
        let coded = coded(&plain);
        assert!(matches!(coded[0].column(2).data, ColumnData::Dict { .. }));
        let aggregates = string_and_all_aggs();
        // the per-tuple path (a coded key alone) and the row-by-row one (mixed)
        for group_exprs in [vec![Expr::col(2)], vec![Expr::col(2), Expr::col(1)]] {
            let key_types = vec![DataType::Str; 1]
                .into_iter()
                .chain((group_exprs.len() > 1).then_some(DataType::Int));
            let types = agg_output_types(&key_types.collect::<Vec<_>>(), &aggregates);
            let make_sink = || AggBuildSink {
                group_exprs: &group_exprs,
                aggregates: &aggregates,
                table: AggTable::new(&group_exprs, &aggregates, &TYPES),
            };
            // One sink, the same batches: the same groups, numbered alike, with the
            // same hashes and the same states.
            let table = |batches: &[Batch]| {
                let mut sink = make_sink();
                for batch in batches {
                    sink.consume(batch.clone());
                }
                sink.table
            };
            let (from_plain, from_coded) = (table(&plain), table(&coded));
            assert_eq!(from_coded.groups.hashes, from_plain.groups.hashes);
            assert_eq!(from_coded.groups.keys, from_plain.groups.keys);
            assert_rows_identical(
                &from_coded.into_batch(&types),
                &rows_of(&from_plain.into_batch(&types)),
                &format!("{} keys, one sink", group_exprs.len()),
            );
            // the batches spread over 1, 2 and 4 sinks, then the barrier and tail
            let run = |batches: &[Batch], threads: usize| {
                let mut sinks: Vec<_> = (0..threads).map(|_| make_sink()).collect();
                for (idx, batch) in batches.iter().enumerate() {
                    sinks[idx % threads].consume(batch.clone());
                }
                let tables = sinks.into_iter().map(|sink| sink.table).collect();
                merge_and_emit(tables, threads, group_exprs.len(), &types)
            };
            let reference = run(&plain, 1);
            assert!(reference.len() >= 4, "three strings and NULL");
            assert_rows_identical(&run(&coded, 1), &rows_of(&reference), "1 worker");
            for threads in [2, 4] {
                assert_rows_equal_up_to_double_sums(
                    &run(&coded, threads),
                    &reference,
                    &format!("{} keys, {threads} workers", group_exprs.len()),
                );
            }
        }
    }

    fn rows_of(batch: &Batch) -> Vec<Vec<Value>> {
        (0..batch.len()).map(|row| batch.row(row)).collect()
    }

    #[test]
    fn coded_keys_join_like_plain_ones_at_every_worker_count() {
        let build_rows = string_rows(300);
        let (build, probe) = (batches_of(&build_rows, 7), batches_of(&string_rows(50), 9));
        let (coded_build, coded_probe) = (coded(&build), coded(&probe));
        // The same rows scanned from five frozen blocks: every block's strings come
        // out coded against a dictionary of its own. Some of the strings are NULL.
        let mut build_rel = relation_with_g(&build_rows, true);
        build_rel.freeze_all();
        fn join<'a>(
            build: BoxedOperator<'a>,
            probe: &[Batch],
            join_type: JoinType,
        ) -> HashJoinOp<'a> {
            HashJoinOp::new(build, batches_op(probe), vec![2], vec![2], join_type)
        }
        for join_type in [JoinType::Inner, JoinType::ProbeSemi] {
            let expected =
                rows_of(&join(batches_op(&build), &probe, join_type).collect_all_helper());
            assert!(!expected.is_empty());
            for (name, build, probe) in [
                ("coded", &coded_build, &coded_probe),
                ("coded build", &coded_build, &probe),
                ("coded probe", &build, &coded_probe),
            ] {
                let got = join(batches_op(build), probe, join_type).collect_all_helper();
                assert_rows_identical(&got, &expected, &format!("{join_type:?} {name}"));
            }
            for threads in [1usize, 2, 4, 8] {
                for (name, probe) in [("plain", &probe), ("coded", &coded_probe)] {
                    let got = join(scan_op(&build_rel, threads), probe, join_type);
                    assert_rows_identical(
                        &got.collect_all_helper(),
                        &expected,
                        &format!("{join_type:?} scanned build, {name} probe, threads {threads}"),
                    );
                }
            }
        }
        // The build side numbers its keys and lists their rows alike.
        let table = |build| join(build, &probe, JoinType::Inner).build_table().unwrap();
        let plain = table(batches_op(&build));
        let same_as_plain = |got: JoinTable, context: &str| {
            assert!(
                matches!(got.rows.column(2).data, ColumnData::Dict { .. }),
                "{context}: re-coded"
            );
            assert_eq!(got.keys.keys, plain.keys.keys, "{context}");
            assert_eq!(got.keys.hashes, plain.keys.hashes, "{context}");
            assert_eq!(got.starts, plain.starts, "{context}");
            assert_eq!(got.matches, plain.matches, "{context}");
        };
        same_as_plain(table(batches_op(&coded_build)), "coded");
        for threads in [1usize, 2, 4, 8] {
            let context = format!("scanned, threads {threads}");
            same_as_plain(table(scan_op(&build_rel, threads)), &context);
        }
    }

    /// The join's reference: a nested loop in probe-stream order, build rows of a
    /// key in build-stream order.
    fn nested_loop_join(
        build: &[Vec<Value>],
        probe: &Batch,
        probe_key: usize,
        join_type: JoinType,
    ) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for row in 0..probe.len() {
            let key = probe.value(row, probe_key);
            let matches = build.iter().filter(|b| !key.is_null() && b[1] == key);
            match join_type {
                JoinType::Inner => out.extend(matches.map(|b| {
                    let mut joined = b.clone();
                    joined.extend(probe.row(row));
                    joined
                })),
                JoinType::ProbeSemi => out.extend(matches.take(1).map(|_| probe.row(row))),
            }
        }
        out
    }

    #[test]
    fn join_build_keeps_stream_order_per_key_for_every_worker_count() {
        // build: skewed duplicate keys plus NULL keys, scanned in many morsels so
        // several scan workers get work; probe: col1 of `numbers` in 0..10
        let build_rows = rows(200);
        let build_rel = relation_of(&build_rows);
        let probe = numbers(100);
        for join_type in [JoinType::Inner, JoinType::ProbeSemi] {
            let expected = nested_loop_join(&build_rows, &probe, 1, join_type);
            assert!(!expected.is_empty());
            for threads in [1usize, 2, 4, 8] {
                for early_probe in [false, true] {
                    let got = HashJoinOp::new(
                        scan_op(&build_rel, threads),
                        values_op(100),
                        vec![1],
                        vec![1],
                        join_type,
                    )
                    .with_early_probe(early_probe)
                    .collect_all_helper();
                    assert_rows_identical(
                        &got,
                        &expected,
                        &format!("{join_type:?} threads {threads} early_probe {early_probe}"),
                    );
                }
            }
        }
    }

    #[test]
    fn aggregate_of_empty_input_is_empty_for_both_constructors() {
        let empty = Batch::new(&TYPES);
        assert_eq!(
            group_by_g_and_k(batches_op(&[empty])).collect_all().len(),
            0
        );
        assert_eq!(group_by_g_and_k(batches_op(&[])).collect_all().len(), 0);
        let rel = relation_of(&[]);
        for threads in [1usize, 4] {
            let config = crate::ScanConfig::default().with_threads(threads);
            assert_eq!(group_by_g_and_k_over(&rel, config).collect_all().len(), 0);
        }
    }
}
