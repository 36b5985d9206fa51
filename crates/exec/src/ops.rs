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
//! * **Key hashing** mixes one word per key column (integers and doubles by their
//!   bits, a string by a SipHash of its bytes) into a secret per-process start, a
//!   column at a time with one loop per column type. No key is serialised to bytes.
//! * **Hash aggregation** evaluates the group and the distinct aggregate-input
//!   expressions once per batch, resolves each row's key hash to a group id
//!   (`Groups`: keys stored once per group, as columns), and folds the batch into
//!   typed per-group arrays — one pass over its rows for the row count and every
//!   NULL-free sum. When every key column is dictionary-coded
//!   ([`datablocks::column`]), each distinct code tuple of a batch is resolved
//!   once, on its first row, and the other rows look its group id up by codes —
//!   numbered, hashed and partitioned exactly as row by row.
//! * **Hash join** keeps the build side as one columnar batch; the table maps a key
//!   to build *row numbers*, and matches are emitted by gathering build and probe
//!   columns (coded strings gather codes). A tag filter over the build keys'
//!   hashes picks a probe batch's candidate rows, branch-free, before any of
//!   them touches the table.
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

use std::borrow::Cow;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::hash::{BuildHasher, Hasher};

use datablocks::{Bitmap, Column, ColumnData, DataType, Strings, Value};
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

/// The word of a NULL (NULLs are one key).
const NULL_WORD: u64 = 0x1319_8A2E_0370_7344;

/// The hash of an empty key, drawn at random once per process: [`mix`] is keyless and
/// invertible, so from a known start a client could put any number of two-column keys
/// on one hash (`(a, mix(start, a) ^ c)`). One value for all threads.
fn start() -> u64 {
    static START: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *START.get_or_init(|| RandomState::new().hash_one(1u8))
}

/// A string's word: SipHash-1-3 under the fixed key (`DefaultHasher`) of its bytes.
fn str_word(s: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(s.as_bytes());
    hasher.finish()
}

/// One key column's step of the key hash: MurmurHash3's 64-bit finaliser of
/// `hash ^ word` — a bijection, so distinct one-`Int` keys never share a hash.
fn mix(hash: u64, word: u64) -> u64 {
    let fold = |h: u64| h ^ (h >> 33);
    let h = fold(hash ^ word).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    fold(fold(h).wrapping_mul(0xC4CE_B9FE_1A85_EC53))
}

/// The word of row `row` of a key column: an `Int` as `u64`, a `Double` by its
/// bits, a string by [`str_word`]. Distinct keys may share words (an `Int` and a
/// `Double` with its bits): key identity is [`same_cell`]'s, never the hash's.
fn cell_word(column: &Column, row: usize) -> u64 {
    if column.is_null(row) {
        return NULL_WORD;
    }
    match &column.data {
        ColumnData::Int(v) => v[row] as u64,
        ColumnData::Double(v) => v[row].to_bits(),
        data => str_word(data.strings().expect("a string column").get(row)),
    }
}

/// The hash of a group/join key: `h = `[`start`]`()`, then `h = mix(h, word)` per key
/// column — within a process a pure function of the key values. Its leading bits
/// pick the radix partition, all of it feeds the group table.
fn key_hash(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(start(), mix)
}

/// [`key_hash`] of every row of the key columns, a key column at a time with one
/// loop per column type. A coded column hashes each row's string, like a plain one.
fn hash_rows(keys: &[&Column], rows: usize) -> Vec<u64> {
    let mut hashes = vec![start(); rows];
    for column in keys {
        let (h, valid) = (&mut hashes[..], column.validity.as_ref());
        match &column.data {
            ColumnData::Int(v) => mix_rows(h, valid, |row| v[row] as u64),
            ColumnData::Double(v) => mix_rows(h, valid, |row| v[row].to_bits()),
            ColumnData::Str(v) => mix_rows(h, valid, |row| str_word(&v[row])),
            ColumnData::Dict { dict, codes } => {
                mix_rows(h, valid, |row| str_word(&dict[codes[row] as usize]))
            }
        }
    }
    hashes
}

/// `hashes[row] = mix(hashes[row], word(row))`, [`NULL_WORD`] for a NULL row.
fn mix_rows(hashes: &mut [u64], valid: Option<&Bitmap>, word: impl Fn(usize) -> u64) {
    for (row, hash) in hashes.iter_mut().enumerate() {
        let null = valid.is_some_and(|valid| !valid.get(row));
        *hash = mix(*hash, if null { NULL_WORD } else { word(row) });
    }
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
                for (row, (tuple, &code)) in tuples.iter_mut().zip(codes).enumerate() {
                    *tuple += (if valid.get(row) { code } else { null }) * stride;
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
/// assigned to by the parallel pipeline breakers: within a process a pure function of
/// the key values, whatever the thread count or the morsel schedule, which makes
/// the partition-wise merge of per-worker tables deterministic. It differs between
/// processes (the key hash starts from a random value); no output depends on it.
pub fn radix_partition(values: &[Value]) -> usize {
    let types = (values.iter()).map(|v| v.data_type().unwrap_or(DataType::Int));
    let key = Batch::from_rows(&types.collect::<Vec<_>>(), &[values.to_vec()]);
    partition_of(key_hash(key.columns().iter().map(|c| cell_word(c, 0))))
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
/// under a per-table random seed. A client who chooses keys knows neither the hash
/// (its [`start`] is secret) nor which hashes share a slot. Keys are told apart by
/// value ([`same_cell`]).
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

/// The running value of one accumulator for every group: a sum, or the minimum or
/// maximum so far, typed like the aggregate's input.
#[derive(Debug, Clone)]
enum Acc {
    Int(Vec<i64>),
    /// Starts at `-0.0`, the one double `x` with `x + v == v` bit for bit for every
    /// `v` — so a sum "starts from its first value", and merging in a group no row
    /// reached changes nothing.
    Double(Vec<f64>),
    Str(Vec<String>),
}

impl Acc {
    fn new(ty: DataType) -> Acc {
        match ty {
            DataType::Int => Acc::Int(Vec::new()),
            DataType::Double => Acc::Double(Vec::new()),
            DataType::Str => Acc::Str(Vec::new()),
        }
    }

    fn resize(&mut self, groups: usize) {
        match self {
            Acc::Int(acc) => acc.resize(groups, 0),
            Acc::Double(acc) => acc.resize(groups, -0.0),
            Acc::Str(acc) => acc.resize(groups, String::new()),
        }
    }

    fn take(&self, rows: &[u32]) -> Acc {
        match self {
            Acc::Int(acc) => Acc::Int(pick(acc, rows)),
            Acc::Double(acc) => Acc::Double(pick(acc, rows)),
            Acc::Str(acc) => Acc::Str(pick(acc, rows)),
        }
    }

    fn values(&self) -> Values<'_> {
        match self {
            Acc::Int(acc) => Values::Int(acc),
            Acc::Double(acc) => Values::Double(acc),
            Acc::Str(acc) => Values::Str(Strings::Plain(acc)),
        }
    }

    fn into_data(self) -> ColumnData {
        match self {
            Acc::Int(acc) => ColumnData::Int(acc),
            Acc::Double(acc) => ColumnData::Double(acc),
            Acc::Str(acc) => ColumnData::Str(acc),
        }
    }
}

/// Typed values to fold into accumulators: the payload of an input column, or the
/// accumulators of another table's state.
enum Values<'a> {
    Int(&'a [i64]),
    Double(&'a [f64]),
    Str(Strings<'a>),
}

impl<'a> Values<'a> {
    fn of(column: &'a Column) -> Values<'a> {
        match &column.data {
            ColumnData::Int(values) => Values::Int(values),
            ColumnData::Double(values) => Values::Double(values),
            data => Values::Str(data.strings().expect("a string column")),
        }
    }
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

/// A numeric accumulator: its addition, and the strict order `min`/`max` fold
/// by, which must be total on the values they meet so that neither depends on
/// the order the values arrive in.
trait Numeric: Copy {
    fn add(&mut self, value: Self);
    fn less(self, other: Self) -> bool;
}

impl Numeric for i64 {
    fn add(&mut self, value: i64) {
        *self += value;
    }

    fn less(self, other: i64) -> bool {
        self < other
    }
}

impl Numeric for f64 {
    fn add(&mut self, value: f64) {
        *self += value;
    }

    /// `<`, with the one tie `==` leaves between distinct bit patterns,
    /// `-0.0 == 0.0`, broken as [`f64::total_cmp`] breaks it — so `min` keeps
    /// −0.0 and `max` keeps +0.0 in any input order.
    fn less(self, other: f64) -> bool {
        self < other || (self == other && self.total_cmp(&other).is_lt())
    }
}

/// The sums of one input and the values to add to them, of one numeric type.
enum Addends<'a> {
    Int(&'a mut [i64], &'a [i64]),
    Double(&'a mut [f64], &'a [f64]),
}

impl<'a> Addends<'a> {
    fn of(sums: &'a mut Acc, values: Values<'a>) -> Addends<'a> {
        match (sums, values) {
            (Acc::Int(sums), Values::Int(values)) => Addends::Int(sums, values),
            (Acc::Double(sums), Values::Double(values)) => Addends::Double(sums, values),
            _ => panic!("the input of an aggregate changed type"),
        }
    }

    /// Add value `r` to the sum of group `groups[r]` where `weight(r) != 0`, in
    /// order.
    fn add(self, groups: &[u32], weight: impl Fn(usize) -> i64) {
        fn add<T: Numeric>(
            sums: &mut [T],
            values: &[T],
            groups: &[u32],
            weight: impl Fn(usize) -> i64,
        ) {
            for (row, &group) in groups.iter().enumerate() {
                if weight(row) != 0 {
                    sums[group as usize].add(values[row]);
                }
            }
        }
        match self {
            Addends::Int(sums, values) => add(sums, values, groups, weight),
            Addends::Double(sums, values) => add(sums, values, groups, weight),
        }
    }
}

/// The one pass over a NULL-free stretch of rows: row `r` counts in group
/// `groups[r]`, and its value of every input in `ints` and `doubles` adds to that
/// input's sum of the group. Each accumulator still takes its values in row order;
/// what the single pass saves is a pass — a read-modify-write chain through the
/// group's slot — per aggregate.
fn fold_rows(
    rows: &mut [i64],
    ints: &mut [(&mut [i64], &[i64])],
    doubles: &mut [(&mut [f64], &[f64])],
    groups: &[u32],
) {
    for (row, &group) in groups.iter().enumerate() {
        let group = group as usize;
        rows[group] += 1;
        for (sums, values) in ints.iter_mut() {
            sums[group] += values[row];
        }
        for (sums, values) in doubles.iter_mut() {
            sums[group] += values[row];
        }
    }
}

/// Are two aggregate inputs the same expression? Like `==`, but constants compare
/// as [`same_cell`] compares keys — doubles by bit pattern — so two inputs share an
/// accumulator only when they compute the same bits.
fn same_expr(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Col(a), Expr::Col(b)) => a == b,
        (Expr::Const(a), Expr::Const(b)) => match (a, b) {
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        },
        (Expr::Arith(op, a, b), Expr::Arith(op2, a2, b2)) => {
            op == op2 && same_expr(a, a2) && same_expr(b, b2)
        }
        (Expr::Cmp(op, a, b), Expr::Cmp(op2, a2, b2)) => {
            op == op2 && same_expr(a, a2) && same_expr(b, b2)
        }
        (Expr::And(a, b), Expr::And(a2, b2)) | (Expr::Or(a, b), Expr::Or(a2, b2)) => {
            same_expr(a, a2) && same_expr(b, b2)
        }
        (Expr::Case(c, a, b), Expr::Case(c2, a2, b2)) => {
            same_expr(c, c2) && same_expr(a, a2) && same_expr(b, b2)
        }
        _ => false,
    }
}

/// One distinct input expression of a table's aggregates, for every group.
#[derive(Debug)]
struct Input {
    /// The first aggregate reading this input: the one whose expression is
    /// evaluated.
    spec: usize,
    /// NULLs met per group: the group's `count(e)` is its row count minus these.
    nulls: Vec<i64>,
    /// The sum of the non-NULL values, when a `sum` or an `avg` reads this input.
    sum: Option<Acc>,
}

/// A `min` or a `max` of one input, folded value by value.
#[derive(Debug)]
struct Extreme {
    input: usize,
    max: bool,
    /// Values folded in: a group's first value is kept whatever it is.
    count: Vec<i64>,
    acc: Acc,
}

impl Extreme {
    /// Fold `values` in, value `r` standing for `weight(r)` inputs of group
    /// `groups[r]`.
    fn fold(&mut self, values: Values<'_>, groups: &[u32], weight: impl Fn(usize) -> i64) {
        fn numbers<T: Numeric>(
            max: bool,
            count: &mut [i64],
            acc: &mut [T],
            values: &[T],
            groups: &[u32],
            weight: impl Fn(usize) -> i64,
        ) {
            let values = values.iter().copied();
            fold(count, acc, values, groups, weight, |acc, v, first| {
                let better = if max { acc.less(v) } else { v.less(*acc) };
                if first || better {
                    *acc = v;
                }
            })
        }
        let (max, count) = (self.max, &mut self.count[..]);
        match (&mut self.acc, values) {
            (Acc::Int(acc), Values::Int(values)) => {
                numbers(max, count, acc, values, groups, weight)
            }
            (Acc::Double(acc), Values::Double(values)) => {
                numbers(max, count, acc, values, groups, weight)
            }
            // A string is copied only when it becomes its group's minimum or maximum.
            (Acc::Str(acc), Values::Str(values)) => {
                let values = (0..values.len()).map(|row| values.get(row));
                fold(count, acc, values, groups, weight, |acc, v, first| {
                    let order = v.cmp(acc.as_str());
                    let better = if max { order.is_gt() } else { order.is_lt() };
                    if first || better {
                        acc.clear();
                        acc.push_str(v);
                    }
                })
            }
            _ => panic!("the input of an aggregate changed type"),
        }
    }
}

/// Where an aggregate's value comes from.
#[derive(Debug, Clone, Copy)]
enum Output {
    /// `count(*)`: the row count.
    Rows,
    /// `count(e)`, `sum(e)`, `avg(e)` of input `i`: its row count less its NULLs,
    /// its sum, their quotient.
    Count(usize),
    Sum(usize),
    Avg(usize),
    /// The next [`Extreme`].
    Extreme,
}

/// Every aggregate's state for every group of a table, as typed arrays indexed by
/// group id, in as few accumulators as the aggregates need: one row count for the
/// whole table (`count(*)`, and `count(e)` less `e`'s NULLs), one NULL count and at
/// most one sum per distinct input expression (`sum(x)` and `avg(x)` share one),
/// and one accumulator per `min` or `max`.
///
/// A batch is folded in one pass over its rows that counts them and adds every
/// NULL-free integer and double input to its sum. An input with NULLs in the batch
/// takes a pass of its own that skips them, and so does every `min`/`max` — a
/// fold value by value, weighted. Within a group every sum still adds its values
/// in row order, so the result is bit for bit that of one fold per aggregate.
#[derive(Debug)]
struct AggState {
    rows: Vec<i64>,
    inputs: Vec<Input>,
    extremes: Vec<Extreme>,
    /// One per aggregate, in declaration order.
    outputs: Vec<Output>,
}

impl AggState {
    /// The state of `aggregates` over an input of the given column types, with no
    /// groups yet.
    fn new(aggregates: &[AggSpec], input: &[DataType]) -> AggState {
        let (mut inputs, mut extremes) = (Vec::<Input>::new(), Vec::new());
        let mut outputs = Vec::with_capacity(aggregates.len());
        for (spec_no, spec) in aggregates.iter().enumerate() {
            if spec.func == AggFunc::CountStar {
                outputs.push(Output::Rows);
                continue;
            }
            let ty = spec.expr.static_type(input).unwrap_or(DataType::Int);
            let same = |input: &Input| same_expr(&aggregates[input.spec].expr, &spec.expr);
            let i = inputs.iter().position(same).unwrap_or_else(|| {
                inputs.push(Input {
                    spec: spec_no,
                    nulls: Vec::new(),
                    sum: None,
                });
                inputs.len() - 1
            });
            if matches!(spec.func, AggFunc::Sum | AggFunc::Avg) {
                assert_ne!(
                    ty,
                    DataType::Str,
                    "sum and avg are not defined over strings"
                );
                inputs[i].sum.get_or_insert_with(|| Acc::new(ty));
            }
            outputs.push(match spec.func {
                AggFunc::Count => Output::Count(i),
                AggFunc::Sum => Output::Sum(i),
                AggFunc::Avg => Output::Avg(i),
                AggFunc::Min | AggFunc::Max => {
                    extremes.push(Extreme {
                        input: i,
                        max: spec.func == AggFunc::Max,
                        count: Vec::new(),
                        acc: Acc::new(ty),
                    });
                    Output::Extreme
                }
                AggFunc::CountStar => unreachable!("handled above"),
            });
        }
        AggState {
            rows: Vec::new(),
            inputs,
            extremes,
            outputs,
        }
    }

    /// Make room for `groups` groups.
    fn resize(&mut self, groups: usize) {
        self.rows.resize(groups, 0);
        for input in &mut self.inputs {
            input.nulls.resize(groups, 0);
            if let Some(sum) = &mut input.sum {
                sum.resize(groups);
            }
        }
        for extreme in &mut self.extremes {
            extreme.count.resize(groups, 0);
            extreme.acc.resize(groups);
        }
    }

    /// Fold one batch in, row `r` into group `groups[r]`, in row order:
    /// `columns[i]` is input `i` evaluated over the batch.
    fn update(&mut self, columns: &[Cow<'_, Column>], groups: &[u32]) {
        let (mut ints, mut doubles) = (Vec::new(), Vec::new());
        for (input, column) in self.inputs.iter_mut().zip(columns) {
            let nulls = (column.validity.as_ref()).filter(|valid| valid.count_ones() < valid.len());
            match (nulls, &mut input.sum) {
                (None, None) => {}
                (None, Some(sum)) => match Addends::of(sum, Values::of(column)) {
                    Addends::Int(sums, values) => ints.push((sums, values)),
                    Addends::Double(sums, values) => doubles.push((sums, values)),
                },
                (Some(valid), sum) => {
                    for (row, &group) in groups.iter().enumerate() {
                        input.nulls[group as usize] += i64::from(!valid.get(row));
                    }
                    if let Some(sum) = sum {
                        Addends::of(sum, Values::of(column))
                            .add(groups, |row| i64::from(valid.get(row)));
                    }
                }
            }
        }
        fold_rows(&mut self.rows, &mut ints, &mut doubles, groups);
        for extreme in &mut self.extremes {
            let column = &*columns[extreme.input];
            match &column.validity {
                None => extreme.fold(Values::of(column), groups, |_| 1),
                Some(valid) => {
                    extreme.fold(Values::of(column), groups, |row| i64::from(valid.get(row)))
                }
            }
        }
    }

    /// Fold another table's state for the same aggregates in: its group `g` into
    /// this table's group `groups[g]` (the merge phase of parallel aggregation) —
    /// an accumulator is one value standing for as many inputs as it took.
    /// Counts, min/max and integer sums are exact whatever the merge order; double
    /// sums can differ from the serial scan order in the last ulps, exactly like any
    /// parallel floating-point reduction.
    fn merge(&mut self, other: &AggState, groups: &[u32]) {
        for (&group, &rows) in groups.iter().zip(&other.rows) {
            self.rows[group as usize] += rows;
        }
        for (input, theirs) in self.inputs.iter_mut().zip(&other.inputs) {
            for (&group, &nulls) in groups.iter().zip(&theirs.nulls) {
                input.nulls[group as usize] += nulls;
            }
            if let (Some(sum), Some(their_sum)) = (&mut input.sum, &theirs.sum) {
                let folded = |group: usize| other.rows[group] - theirs.nulls[group];
                Addends::of(sum, their_sum.values()).add(groups, folded);
            }
        }
        for (extreme, theirs) in self.extremes.iter_mut().zip(&other.extremes) {
            extreme.fold(theirs.acc.values(), groups, |group| theirs.count[group]);
        }
    }

    /// The state of the groups `rows`, renumbered in that order.
    fn take(&self, rows: &[u32]) -> AggState {
        AggState {
            rows: pick(&self.rows, rows),
            inputs: (self.inputs.iter())
                .map(|input| Input {
                    spec: input.spec,
                    nulls: pick(&input.nulls, rows),
                    sum: input.sum.as_ref().map(|sum| sum.take(rows)),
                })
                .collect(),
            extremes: (self.extremes.iter())
                .map(|extreme| Extreme {
                    input: extreme.input,
                    max: extreme.max,
                    count: pick(&extreme.count, rows),
                    acc: extreme.acc.take(rows),
                })
                .collect(),
            outputs: self.outputs.clone(),
        }
    }

    /// Every aggregate's value for every group, in declaration order; NULL where no
    /// value was folded in.
    fn finish(self) -> Vec<Column> {
        let AggState {
            rows,
            inputs,
            extremes,
            outputs,
        } = self;
        let valid_where = |count: &[i64]| {
            (count.contains(&0)).then(|| Bitmap::from_fn(count.len(), |group| count[group] > 0))
        };
        let count_of = |input: &Input| -> Vec<i64> {
            rows.iter()
                .zip(&input.nulls)
                .map(|(&rows, &nulls)| rows - nulls)
                .collect()
        };
        fn sum_of(input: &Input) -> &Acc {
            input.sum.as_ref().expect("a sum over this input")
        }
        let mut extremes = extremes.into_iter();
        (outputs.into_iter())
            .map(|output| match output {
                Output::Rows => Column::from_data(ColumnData::Int(rows.clone())),
                Output::Count(i) => Column::from_data(ColumnData::Int(count_of(&inputs[i]))),
                Output::Sum(i) => Column {
                    data: sum_of(&inputs[i]).clone().into_data(),
                    validity: valid_where(&count_of(&inputs[i])),
                },
                Output::Avg(i) => {
                    let count = count_of(&inputs[i]);
                    let data = match sum_of(&inputs[i]) {
                        Acc::Int(sum) => (sum.iter().zip(&count))
                            .map(|(&s, &n)| s as f64 / n as f64)
                            .collect(),
                        Acc::Double(sum) => (sum.iter().zip(&count))
                            .map(|(&s, &n)| s / n as f64)
                            .collect(),
                        Acc::Str(_) => unreachable!("no sum over strings"),
                    };
                    let validity = valid_where(&count);
                    Column {
                        data: ColumnData::Double(data),
                        validity,
                    }
                }
                Output::Extreme => {
                    let Extreme { count, acc, .. } = extremes.next().expect("one per min/max");
                    Column {
                        validity: valid_where(&count),
                        data: acc.into_data(),
                    }
                }
            })
            .collect()
    }
}

/// Output column types of an aggregation: group keys then aggregates.
fn agg_output_types(group_types: &[DataType], aggregates: &[AggSpec]) -> Vec<DataType> {
    let mut types = group_types.to_vec();
    types.extend(aggregates.iter().map(|a| a.output));
    types
}

/// A group table with the aggregate state of its groups: what a worker builds over
/// its morsels, what one radix partition of it is, and what partitions merge into.
struct AggTable {
    groups: Groups,
    state: AggState,
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
            state: AggState::new(aggregates, input),
        }
    }

    /// The groups `rows` with their states.
    fn take(&self, rows: &[u32]) -> AggTable {
        AggTable {
            groups: self.groups.take(rows),
            state: self.state.take(rows),
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
        self.state.resize(self.groups.len());
        self.state.merge(&other.state, &groups);
    }

    /// One output row per group — key columns then aggregate values, of the
    /// declared `types` — in group-id order.
    fn into_batch(self, types: &[DataType]) -> Batch {
        let columns = (self.groups.keys.into_iter())
            .chain(self.state.finish())
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
        let table = &mut self.table.groups;
        let group_of = |row| {
            let hash = key_hash(keys.iter().map(|column| cell_word(column, row)));
            table.resolve(&keys, row, hash)
        };
        let groups = per_code_tuple(&keys, batch.len(), group_of).unwrap_or_else(|| {
            let hashes = hash_rows(&keys, batch.len());
            (0..batch.len())
                .map(|row| self.table.groups.resolve(&keys, row, hashes[row]))
                .collect()
        });
        // … and every distinct aggregate input evaluated and folded in, in one pass
        // over the rows where it has no NULL.
        let state = &mut self.table.state;
        let inputs: Vec<_> = (state.inputs.iter())
            .map(|input| self.aggregates[input.spec].expr.evaluate(&batch, None))
            .collect();
        state.resize(self.table.groups.len());
        state.update(&inputs, &groups);
    }
}

/// Hash aggregation (a pipeline breaker): every worker consumes its share of the
/// input into a group table, the barrier splits the tables into
/// [`crate::morsel::RADIX_PARTITIONS`] radix partitions and merges them
/// partition-wise, then one tuple per group is emitted — the group-key expressions
/// followed by the aggregates — sorted by group key.
///
/// Aggregates share state: one row count per group serves `count(*)`, and
/// aggregates over equal input expressions share one evaluation, one NULL count
/// and one sum (`sum(x)`, `avg(x)`, `count(x)`). A batch's NULL-free sums are
/// folded in one pass over its rows, each still in row order within its group.
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
    /// Inner equi-join; output = build columns ++ probe columns (probe ++ build
    /// under [`HashJoinOp::with_probe_columns_first`]).
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
    /// The tag filter: bit [`tag_bit`] of every distinct key's hash set (every bit,
    /// when the filter is off); [`TAG_WORDS`] words.
    tags: Vec<u64>,
}

impl JoinTable {
    /// The rows whose key hash (`hashes[row]`) has its tag bit set, ascending: one
    /// pass without a branch per row, which writes every row number and moves
    /// past it by its bit.
    fn candidates(&self, hashes: &[u64]) -> Vec<u32> {
        let mut candidates = vec![0u32; hashes.len()];
        let mut passed = 0;
        for (row, &hash) in hashes.iter().enumerate() {
            let (word, bit) = tag_bit(hash);
            candidates[passed] = row as u32;
            passed += (self.tags[word] >> bit & 1) as usize;
        }
        candidates.truncate(passed);
        candidates
    }
}

/// Words of a join's tag filter: 2^17 bits, 16 KiB — small enough for L1/L2, large
/// enough to be selective for the build sizes used here.
const TAG_WORDS: usize = 2048;

/// The word and the bit in that word of a key hash's tag: its low 17 bits.
fn tag_bit(hash: u64) -> (usize, u64) {
    ((hash >> 6) as usize & (TAG_WORDS - 1), hash & 63)
}

/// Hash equi-join. The build side is materialised (the pipeline breaker) as one
/// columnar batch plus a table from key to build row numbers; the probe side
/// streams through and matches are emitted by gathering columns. The first pull
/// builds on the calling thread: it pulls the build side once, hashing each batch's
/// keys as the batch arrives, so build rows — and a key's matches — are in
/// build-stream order. A scan on the build side still runs its own
/// [`crate::ScanConfig::threads`] workers, and its stream is the same at every worker
/// count, so join output is too. A key's values — build or probe — are
/// hashed exactly once.
///
/// A probe batch goes through two stages. A tag filter — one bit per distinct build
/// key in a 16 KiB bitmap, standing in for the tagged hash-table pointers of
/// Appendix E — first takes every row's key hash in one branch-free pass: each row
/// number is written into a candidate selection, whose length then grows by the
/// row's tag bit. Only the candidates are looked up in the hash table. A NULL key may
/// pass the filter, but finds no key there: the table holds none.
pub struct HashJoinOp<'a> {
    build: BoxedOperator<'a>,
    probe: BoxedOperator<'a>,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    join_type: JoinType,
    early_probe: bool,
    probe_first: bool,
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
            early_probe: true,
            probe_first: false,
            table: None,
            output_types,
        }
    }

    /// Turn the tag filter off (`false`) or on (`true`, the default). Off, every
    /// row of a probe batch is a candidate, so the hash table is probed for each:
    /// the reference the filter's results and speed are measured against.
    pub fn with_early_probe(mut self, enabled: bool) -> Self {
        self.early_probe = enabled;
        self
    }

    /// Emit an inner join's probe columns before its build columns: the join
    /// the query planner hashes on its logical probe side keeps its logical
    /// `build ++ probe` output row. The columns are reordered as vectors, with
    /// no row copied.
    ///
    /// # Panics
    ///
    /// Panics on a [`JoinType::ProbeSemi`] join, which emits no build columns.
    pub fn with_probe_columns_first(mut self) -> Self {
        assert_eq!(
            self.join_type,
            JoinType::Inner,
            "a semi join emits probe columns only"
        );
        self.probe_first = true;
        self.output_types
            .rotate_left(self.build.output_types().len());
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
        // One tag bit per distinct key.
        let mut tags = vec![if self.early_probe { 0 } else { !0 }; TAG_WORDS];
        for &hash in &keys.hashes {
            let (word, bit) = tag_bit(hash);
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
        // Matching (build row, probe row) pairs, in probe order, among the rows the
        // tag filter lets through.
        let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
        for row in table.candidates(&hashes) {
            let Ok(key) = table.keys.probe(&keys, row as usize, hashes[row as usize]) else {
                continue;
            };
            match self.join_type {
                JoinType::Inner => {
                    let (from, to) = (table.starts[key as usize], table.starts[key as usize + 1]);
                    build_rows.extend_from_slice(&table.matches[from as usize..to as usize]);
                    probe_rows.extend((from..to).map(|_| row));
                }
                JoinType::ProbeSemi => probe_rows.push(row),
            }
        }
        Ok(Some(match self.join_type {
            JoinType::Inner => {
                let mut columns = table.rows.take(&build_rows).into_columns();
                let probe_columns = batch.take(&probe_rows).into_columns();
                if self.probe_first {
                    columns.splice(0..0, probe_columns);
                } else {
                    columns.extend(probe_columns);
                }
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

    /// The tag filter against the filter turned off, for inner and semi joins, on
    /// probe batches the filter passes none of, all of, or some of: NULL keys (which
    /// reach the hash table with the filter off and must still not join), a
    /// two-column key, and an empty build side. Output must be byte-identical.
    #[test]
    fn early_probe_does_not_change_results() {
        let types = [DataType::Int, DataType::Int, DataType::Str];
        let row = |k1: Option<i64>, k2: i64, tag: &str| {
            vec![
                k1.map_or(Value::Null, Value::Int),
                Value::Int(k2),
                Value::Str(tag.into()),
            ]
        };
        // build: k1 in 0, 2, …, 38 (each twice, as (k1, 0) and (k1, 1)) and a NULL k1
        let build: Vec<Vec<Value>> = (0..40)
            .map(|i| row((i != 7).then_some(i / 2 * 2), i % 2, &format!("b{i}")))
            .collect();
        let join = |build: &[Vec<Value>], probe: &[Vec<Value>], keys: &[usize], join_type| {
            HashJoinOp::new(
                Box::new(ValuesOp::new(Batch::from_rows(&types, build))),
                Box::new(ValuesOp::new(Batch::from_rows(&types, probe))),
                keys.to_vec(),
                keys.to_vec(),
                join_type,
            )
        };
        let table = join(&build, &[], &[0], JoinType::Inner)
            .build_table()
            .unwrap();
        let hash_of = |k1: Option<i64>| {
            let column = Batch::from_rows(&types, &[row(k1, 0, "")]).into_columns();
            hash_rows(&[&column[0]], 1)[0]
        };
        // keys no build key shares a tag bit with, and keys of the build
        let untagged: Vec<i64> = (1_000..)
            .filter(|&k| table.candidates(&[hash_of(Some(k))]).is_empty())
            .take(50)
            .collect();
        let none_pass: Vec<_> = untagged.iter().map(|&k| row(Some(k), 0, "miss")).collect();
        let all_pass: Vec<_> = (0..50)
            .map(|i| row(Some(i % 20 * 2), i % 3, "hit"))
            .collect();
        let hashes = |k1s: &[Vec<Value>]| -> Vec<u64> {
            (k1s.iter()).map(|r| hash_of(r[0].as_int())).collect()
        };
        assert!(table.candidates(&hashes(&none_pass)).is_empty());
        assert_eq!(table.candidates(&hashes(&all_pass)).len(), all_pass.len());
        // half NULL keys, the rest hits and misses; with the filter off every row,
        // NULL keys included, is a candidate
        let with_nulls: Vec<_> = (0..60)
            .map(|i| row((i % 2 == 0).then_some(i % 45), i % 2, &format!("p{i}")))
            .collect();
        let off = join(&build, &[], &[0], JoinType::Inner)
            .with_early_probe(false)
            .build_table()
            .unwrap();
        assert_eq!(off.candidates(&hashes(&with_nulls)).len(), with_nulls.len());

        let mixed: Vec<_> = (0..60).map(|i| row(Some(i % 45), i % 3, "mix")).collect();
        let empty = Vec::new();
        let cases = [
            ("no row passes", &build, &none_pass, vec![0]),
            ("every row passes", &build, &all_pass, vec![0]),
            ("NULL probe keys", &build, &with_nulls, vec![0]),
            ("two-column key", &build, &mixed, vec![0, 1]),
            ("empty build", &empty, &mixed, vec![0]),
        ];
        for (name, build, probe, keys) in cases {
            for join_type in [JoinType::Inner, JoinType::ProbeSemi] {
                let filtered = join(build, probe, &keys, join_type).collect_all_helper();
                let plain = join(build, probe, &keys, join_type)
                    .with_early_probe(false)
                    .collect_all_helper();
                let context = format!("{name}, {join_type:?}");
                assert_rows_identical(&filtered, &rows_of(&plain), &context);
                let expect_rows = !matches!(name, "no row passes" | "empty build");
                assert_eq!(!plain.is_empty(), expect_rows, "{context}");
                let null_keys = (0..plain.len()).filter(|&r| {
                    let probe_k1 = if join_type == JoinType::Inner { 3 } else { 0 };
                    plain.value(r, probe_k1).is_null()
                });
                assert_eq!(null_keys.count(), 0, "{context}: a NULL key joined");
            }
        }
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

    /// A relation holding `rows` in order: the first half frozen into blocks of 32
    /// rows, the rest a hot tail over several 32-row chunks — so scan workers race
    /// over cold and hot morsels alike.
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
        let mut rel = Relation::with_chunk_capacity("r", schema, 32);
        let (frozen, tail) = rows.split_at(rows.len() / 2);
        for row in frozen {
            rel.insert(row.clone());
        }
        rel.freeze_full_chunks();
        for row in tail {
            rel.insert(row.clone());
        }
        rel
    }

    /// Every column of `rel`, scanned by `threads` workers (a morsel per block and
    /// per hot chunk).
    fn scan_op(rel: &Relation, threads: usize) -> BoxedOperator<'_> {
        let config = crate::ScanConfig::default().with_threads(threads);
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

    /// The one-pass fold against a row-order fold, at 1, 2 and 4 workers (each
    /// taking a run of the batches): batches alternate without and with NULLs in
    /// the integer input `x` (column 0), read by `sum`, `avg`, `count`, `min` and
    /// `max`, beside `count(*)`, `sum` and `avg` of `x + 1` written twice (equal
    /// expressions: one input), and a double `min`/`max`. One group meets only
    /// NULLs of `x`. Every value is exact at any worker count; doubles by bits.
    #[test]
    fn one_pass_folds_equal_the_row_order_fold_at_every_worker_count() {
        let mut input = rows(300);
        for (row, values) in input.iter_mut().enumerate() {
            let (batch, at) = (row / 25, row % 25);
            if batch % 2 == 1 && at % 4 == 0 {
                values[0] = Value::Null;
                if at % 8 == 0 {
                    values[2] = Value::Str("only NULLs".into());
                }
            }
        }
        let batches = batches_of(&input, 25);
        for (idx, batch) in batches.iter().enumerate() {
            assert_eq!(batch.column(0).validity.is_some(), idx % 2 == 1);
        }
        let x_plus_1 = || Expr::col(0).add(Expr::lit(1i64));
        let aggregates = vec![
            AggSpec::new(AggFunc::Sum, Expr::col(0), DataType::Int),
            AggSpec::new(AggFunc::CountStar, Expr::lit(0i64), DataType::Int),
            AggSpec::new(AggFunc::Avg, Expr::col(0), DataType::Double),
            AggSpec::new(AggFunc::Count, Expr::col(0), DataType::Int),
            AggSpec::new(AggFunc::Min, Expr::col(0), DataType::Int),
            AggSpec::new(AggFunc::Max, Expr::col(0), DataType::Int),
            AggSpec::new(AggFunc::Sum, x_plus_1(), DataType::Int),
            AggSpec::new(AggFunc::Avg, x_plus_1(), DataType::Double),
            AggSpec::new(AggFunc::Min, Expr::col(3), DataType::Double),
            AggSpec::new(AggFunc::Max, Expr::col(3), DataType::Double),
        ];
        let state = AggState::new(&aggregates, &TYPES);
        assert_eq!((state.inputs.len(), state.extremes.len()), (3, 4));

        // The reference, grouped by column 2, written without the operator's code.
        let mut groups: Vec<(Value, i64, Vec<i64>, Vec<f64>)> = Vec::new();
        for row in &input {
            let idx = (groups.iter().position(|g| g.0 == row[2])).unwrap_or_else(|| {
                groups.push((row[2].clone(), 0, Vec::new(), Vec::new()));
                groups.len() - 1
            });
            let group = &mut groups[idx];
            group.1 += 1;
            group.2.extend(row[0].as_int());
            group.3.push(row[3].as_double().unwrap());
        }
        groups.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(
            groups.iter().any(|g| g.2.is_empty()),
            "a group of only NULLs"
        );
        let expected: Vec<Vec<Value>> = (groups.into_iter())
            .map(|(key, rows, xs, ds)| {
                let (count, sum) = (xs.len() as i64, xs.iter().sum::<i64>());
                let some = |v: Value| if count == 0 { Value::Null } else { v };
                let total_min = |a: f64, b: f64| if b.total_cmp(&a).is_lt() { b } else { a };
                let total_max = |a: f64, b: f64| if b.total_cmp(&a).is_gt() { b } else { a };
                vec![
                    key,
                    some(Value::Int(sum)),
                    Value::Int(rows),
                    some(Value::Double(sum as f64 / count as f64)),
                    Value::Int(count),
                    some(Value::Int(xs.iter().copied().min().unwrap_or(0))),
                    some(Value::Int(xs.iter().copied().max().unwrap_or(0))),
                    some(Value::Int(sum + count)),
                    some(Value::Double((sum + count) as f64 / count as f64)),
                    Value::Double(ds.iter().copied().reduce(total_min).unwrap()),
                    Value::Double(ds.iter().copied().reduce(total_max).unwrap()),
                ]
            })
            .collect();

        let group_exprs = [Expr::col(2)];
        let types = agg_output_types(&[DataType::Str], &aggregates);
        for threads in [1usize, 2, 4] {
            let mut sinks: Vec<_> = (0..threads)
                .map(|_| AggBuildSink {
                    group_exprs: &group_exprs,
                    aggregates: &aggregates,
                    table: AggTable::new(&group_exprs, &aggregates, &TYPES),
                })
                .collect();
            for (idx, batch) in batches.iter().enumerate() {
                sinks[idx * threads / batches.len()].consume(batch.clone());
            }
            let tables = sinks.into_iter().map(|sink| sink.table).collect();
            let got = merge_and_emit(tables, threads, 1, &types);
            assert_rows_identical(&got, &expected, &format!("{threads} workers"));
        }
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
        // … `over_relation`: one morsel worker over cold blocks and hot chunks.
        let rel = relation_of(&input);
        let got = group_by_g_and_k_over(&rel, crate::ScanConfig::default()).collect_all();
        assert_rows_identical(&got, &expected, "over_relation");
    }

    #[test]
    fn more_workers_change_nothing_but_double_sum_association() {
        let input = rows(257);
        let rel = relation_of(&input);
        let one = group_by_g_and_k_over(&rel, crate::ScanConfig::default()).collect_all();
        for threads in [2usize, 4, 8] {
            let config = crate::ScanConfig::default().with_threads(threads);
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
                let config = crate::ScanConfig::default().with_threads(threads);
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

    /// `column` with every row `row % every == every - 1` NULL.
    fn with_nulls(column: Column, every: usize) -> Column {
        let validity = Some(Bitmap::from_fn(column.len(), |row| {
            row % every != every - 1
        }));
        Column { validity, ..column }
    }

    /// 24 rows of a coded string column over a dictionary of `entries` entries
    /// (`"w0"`, `"w1"`, …), its codes cycling over the first five.
    fn coded_words(entries: usize) -> Column {
        let dict: std::sync::Arc<[String]> = (0..entries).map(|i| format!("w{i}")).collect();
        let codes = (0..24).map(|row| (row * 7 % 5) as u32).collect();
        Column::from_data(ColumnData::Dict { dict, codes })
    }

    #[test]
    fn one_hash_in_both_loop_orders_across_batch_splits() {
        // Every key shape, with and without NULLs: `hash_rows` (column-wise) is
        // `key_hash` (row-wise) row for row, the hashes of the rows cut into the
        // batches any worker count makes are the same, and `radix_partition` of a
        // row's values is the partition of its hash — so partitions are a pure
        // function of the key at every thread count.
        let ints = |f: fn(i64) -> i64| Column::from_data(ColumnData::Int((0..24).map(f).collect()));
        let doubles = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
        .into_iter()
        .chain([f64::from_bits(0x7FF0_0000_0000_0001), 1.5]);
        let strs = ["", "a", "ab", "", "zzz", "a"];
        let shapes: Vec<(&str, Vec<Column>)> = vec![
            ("int", vec![ints(|i| i * 1_000_003 - 7)]),
            (
                "double",
                vec![Column::from_data(ColumnData::Double(
                    doubles.cycle().take(24).collect(),
                ))],
            ),
            (
                "str",
                vec![Column::from_data(ColumnData::Str(
                    strs.iter()
                        .cycle()
                        .take(24)
                        .map(|s| s.to_string())
                        .collect(),
                ))],
            ),
            ("dict smaller than the batch", vec![coded_words(6)]),
            ("dict larger than the batch", vec![coded_words(40)]),
            ("no key columns", vec![]),
            (
                "three ints",
                vec![ints(|i| i % 3), ints(|i| i % 4 - 2), ints(|i| i / 5)],
            ),
        ];
        let all_rows: Vec<u32> = (0..24).collect();
        for (name, columns) in shapes {
            let nullable: Vec<Column> = columns.iter().map(|c| with_nulls(c.clone(), 5)).collect();
            for (name, columns) in [
                (name.to_string(), columns),
                (format!("{name}, NULLs"), nullable),
            ] {
                let keys: Vec<&Column> = columns.iter().collect();
                let hashes = hash_rows(&keys, 24);
                for (row, &hash) in hashes.iter().enumerate() {
                    let row_wise = key_hash(keys.iter().map(|column| cell_word(column, row)));
                    assert_eq!(hash, row_wise, "{name} row {row}");
                    let values: Vec<Value> = keys.iter().map(|column| column.get(row)).collect();
                    assert_eq!(
                        radix_partition(&values),
                        partition_of(hash),
                        "{name} row {row}"
                    );
                }
                for workers in [2usize, 3, 4, 8] {
                    let mut split = Vec::new();
                    for rows in all_rows.chunks(24usize.div_ceil(workers)) {
                        let batch: Vec<Column> =
                            keys.iter().map(|column| column.take(rows)).collect();
                        split.extend(hash_rows(&batch.iter().collect::<Vec<_>>(), rows.len()));
                    }
                    assert_eq!(split, hashes, "{name}, {workers} workers");
                }
            }
        }
    }

    #[test]
    fn key_identity_never_rests_on_the_hash() {
        // Distinct keys forced onto one hash — ints, strings, and a NULL against
        // the value its payload slot holds — are distinct groups, and a third key
        // with that hash matches neither.
        let ints = Column::from_data(ColumnData::Int(vec![1, 2, 3]));
        let strs = Column::from_data(ColumnData::Str(["x", "y", "z"].map(String::from).into()));
        let null_then_zero = Column {
            data: ColumnData::Int(vec![0, 0, 5]),
            validity: Some(Bitmap::from_fn(3, |row| row > 0)),
        };
        for column in [&ints, &strs, &null_then_zero] {
            let keys = [column];
            let mut groups = Groups::new(&[column.data_type()]);
            assert_eq!(groups.resolve(&keys, 0, 7), 0, "{column:?}");
            assert_eq!(groups.resolve(&keys, 1, 7), 1, "{column:?}");
            assert!(groups.probe(&keys, 2, 7).is_err(), "{column:?}");
            assert_eq!(groups.probe(&keys, 1, 7), Ok(1), "{column:?}");
        }
    }

    #[test]
    fn keys_built_onto_one_hash_from_a_guessed_start_do_not_share_it() {
        // `mix` can be inverted: with the start known, every key
        // `(a, mix(start, a) ^ c)` of two `Int` columns hashes to `mix(c, 0)`. The
        // start is secret, so keys built from any guess — the constant it used to
        // be, zero — hash apart; built from the real start they would not.
        let keys_from = |guess: u64| {
            let a: Vec<i64> = (0..64).collect();
            let b = a.iter().map(|&a| (mix(guess, a as u64) ^ 0xC0FFEE) as i64);
            let columns = [ColumnData::Int(a.clone()), ColumnData::Int(b.collect())];
            let columns = columns.map(Column::from_data);
            let mut hashes = hash_rows(&[&columns[0], &columns[1]], 64);
            hashes.sort_unstable();
            hashes.dedup();
            hashes.len()
        };
        for guess in [0x243F_6A88_85A3_08D3, 0] {
            assert_eq!(keys_from(guess), 64, "start {guess:#x}");
        }
        assert_eq!(keys_from(start()), 1, "the construction needs the start");
    }

    #[test]
    fn double_keys_group_by_bit_pattern() {
        // 0.0 and -0.0 are `==` but two keys; two NaN payloads are two keys.
        let nan = |payload: u64| f64::from_bits(0x7FF8_0000_0000_0000 | payload);
        let keys = vec![0.0, -0.0, 0.0, nan(1), nan(2), nan(1)];
        let batch = Batch::from_columns(vec![Column::from_data(ColumnData::Double(keys))]);
        let mut agg = HashAggregateOp::new(
            Box::new(ValuesOp::new(batch)),
            vec![Expr::col(0)],
            vec![DataType::Double],
            vec![AggSpec::new(
                AggFunc::CountStar,
                Expr::lit(0i64),
                DataType::Int,
            )],
        );
        let result = agg.collect_all();
        let groups: Vec<(u64, Value)> = (0..result.len())
            .map(|row| {
                (
                    result.value(row, 0).as_double().unwrap().to_bits(),
                    result.value(row, 1),
                )
            })
            .collect();
        let expected = [(-0.0f64, 1), (0.0, 2), (nan(1), 2), (nan(2), 1)]
            .map(|(key, count)| (key.to_bits(), Value::Int(count)));
        assert_eq!(groups, expected);
    }

    #[test]
    fn a_coded_key_column_hashes_like_its_plain_twin() {
        // A dictionary out of order, with an unused entry, a duplicate and a NULL
        // row whose code points at a real entry: the hashes are those of the
        // strings, row for row — with a dictionary smaller than the batch and a
        // larger one, alone, twice and beside a plain key.
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
            validity: Some(Bitmap::from_fn(40, |row| row % 7 != 3)),
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
        // the same codes into the same entries, followed by 40 unused ones
        let mut large = coded.clone();
        if let ColumnData::Dict { dict, .. } = &mut large.data {
            *dict = dict
                .iter()
                .cloned()
                .chain((0..40).map(|i| format!("x{i}")))
                .collect();
        }
        let ints = Column::from_data(ColumnData::Int((0..40).map(|i| i % 3).collect()));
        // The aggregate's `group_of` resolves these keys once per code tuple (one
        // coded key, or two over enough rows) and row by row (a mixed key, or a
        // dictionary larger than the batch).
        assert!(code_tuples(&[&coded], 40).is_some());
        assert!(code_tuples(&[&coded, &coded], 40).is_some());
        assert!(code_tuples(&[&coded, &ints], 40).is_none());
        assert!(code_tuples(&[&large], 40).is_none());
        for (coded_keys, plain_keys) in [
            (vec![&coded], vec![&plain]),
            (vec![&coded, &coded], vec![&plain, &plain]),
            (vec![&ints, &coded], vec![&ints, &plain]),
            (vec![&large], vec![&plain]),
            (vec![&large, &coded], vec![&plain, &plain]),
        ] {
            assert_eq!(hash_rows(&coded_keys, 40), hash_rows(&plain_keys, 40));
            // … and the row-by-row hash of the same values
            let row_by_row: Vec<u64> = (0..40)
                .map(|row| key_hash(plain_keys.iter().map(|c| cell_word(c, row))))
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
        // The same rows scanned from ten frozen blocks: every block's strings come
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
