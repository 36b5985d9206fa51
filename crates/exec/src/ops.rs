//! Relational operators above the scan: filter, project, hash join, hash aggregation,
//! sort and limit.
//!
//! HyPer fuses the operators of a pipeline into generated machine code; this
//! reproduction keeps the same *pipeline structure* (scans feed non-materialising
//! operators which feed pipeline breakers like hash tables and sorts) but executes it
//! as an interpreted vector-at-a-time pull model. The relative behaviour the paper
//! evaluates — how scan flavour, compression, SMAs and PSMAs change query runtime —
//! is dominated by the scan work that happens below this module.
//!
//! The hash pipeline breakers ([`HashAggregateOp`], the [`HashJoinOp`] build) follow
//! the morsel-driven design of the paper's execution engine, and have no other
//! implementation: every worker accumulates a
//! [`crate::morsel::RADIX_PARTITIONS`]-way radix-partitioned hash table over its
//! morsels, and the barrier merges the workers' tables partition-wise (each
//! partition independently) before the single-threaded probe/output tail runs. The
//! worker count only says how many threads share that work — one worker runs it
//! inline on the calling thread. See [`crate::morsel`] for the driver.
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
//! * **Thread-count semantics** — `threads` parameters pass through
//!   [`crate::morsel::effective_threads`] (`0` = auto-detect, anything else
//!   verbatim) and choose a worker count, never an implementation: the join
//!   build is byte-identical at every worker count, and aggregation is
//!   byte-identical except for floating-point sums, which are equal up to
//!   reassociation.
//! * **Output schemas** — [`Operator::output_types`] is fixed at construction;
//!   the planner mirrors these shapes (inner join = build ++ probe columns,
//!   semi join = probe columns, aggregate = groups ++ aggregates) when it
//!   type-checks the IR, so reordering output columns is a breaking change.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use datablocks::{DataType, Value};
use storage::Relation;

use crate::batch::Batch;
use crate::expr::{arith, ArithOp, Expr};
use crate::morsel::{self, MorselSink, PipelineSpec, RADIX_BITS, RADIX_PARTITIONS};
use crate::scan::{RelationScanner, ScanStats};

/// A pull-based operator producing batches of tuples.
pub trait Operator {
    /// Produce the next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Option<Batch>;

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

/// Drain a boxed operator into a single batch. The operator's declared
/// [`Operator::output_types`] are resolved once up front; in debug builds every
/// emitted batch is asserted against them, so a producer whose batches drift from
/// its declaration fails loudly instead of corrupting the collected result.
pub fn collect_operator(op: &mut dyn Operator) -> Batch {
    let types = op.output_types();
    let mut out = Batch::new(&types);
    while let Some(batch) = op.next_batch() {
        debug_assert_eq!(
            batch.types(),
            types,
            "operator emitted a batch that does not match its declared output types"
        );
        out.append(&batch);
    }
    out
}

/// Evaluate a residual predicate tuple at a time, keeping matching rows.
pub(crate) fn filter_batch(batch: &Batch, predicate: &Expr) -> Batch {
    let keep: Vec<usize> = (0..batch.len())
        .filter(|&row| predicate.eval_bool(batch, row))
        .collect();
    batch.take(&keep)
}

/// Evaluate projection expressions row-wise into a batch of the declared types.
pub(crate) fn project_batch(batch: &Batch, exprs: &[Expr], types: &[DataType]) -> Batch {
    let mut out = Batch::new(types);
    for row in 0..batch.len() {
        out.push_row(exprs.iter().map(|e| e.eval(batch, row)).collect());
    }
    out
}

// ----------------------------------------------------------------------------- scan

/// Leaf operator: a relation scan (see [`crate::scan`]).
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
    fn next_batch(&mut self) -> Option<Batch> {
        self.scanner.next_batch()
    }

    fn output_types(&self) -> Vec<DataType> {
        self.scanner.output_types()
    }
}

// --------------------------------------------------------------------------- filter

/// Residual (non-SARGable) predicate evaluation, tuple at a time.
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
    fn next_batch(&mut self) -> Option<Batch> {
        let batch = self.input.next_batch()?;
        Some(filter_batch(&batch, &self.predicate))
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
    fn next_batch(&mut self) -> Option<Batch> {
        let batch = self.input.next_batch()?;
        Some(project_batch(&batch, &self.exprs, &self.types))
    }

    fn output_types(&self) -> Vec<DataType> {
        self.types.clone()
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

/// Hashable wrapper for group-by keys (treats NULLs as equal to each other and hashes
/// doubles by their bit pattern, which is what grouping semantics need).
#[derive(Debug, Clone, PartialEq)]
struct GroupKey(Vec<Value>);

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for value in &self.0 {
            match value {
                Value::Null => 0u8.hash(state),
                Value::Int(v) => {
                    1u8.hash(state);
                    v.hash(state);
                }
                Value::Double(v) => {
                    2u8.hash(state);
                    v.to_bits().hash(state);
                }
                Value::Str(s) => {
                    3u8.hash(state);
                    s.hash(state);
                }
            }
        }
    }
}

/// The hash of a group/join key (the same SipHash the table lookups use, seeded
/// deterministically, so partition assignment is stable across runs, thread counts
/// and morsel schedules).
fn key_hash(key: &GroupKey) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Radix partition of a key: the leading [`RADIX_BITS`] bits of its hash.
fn partition_of(key: &GroupKey) -> usize {
    (key_hash(key) >> (64 - RADIX_BITS)) as usize
}

/// A group/join key bundled with its precomputed hash. The partitioned build sinks
/// hash every key exactly once — the same value picks the radix partition and feeds
/// the hash map (whose hasher only re-mixes the 8 precomputed bytes) — instead of
/// paying two full key hashes per input row.
#[derive(Debug, Clone, PartialEq)]
struct HashedKey {
    hash: u64,
    key: GroupKey,
}

impl Eq for HashedKey {}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl HashedKey {
    fn new(key: GroupKey) -> HashedKey {
        let hash = key_hash(&key);
        HashedKey { hash, key }
    }

    /// Radix partition: same leading-bits rule as [`partition_of`], off the cached
    /// hash.
    fn partition(&self) -> usize {
        (self.hash >> (64 - RADIX_BITS)) as usize
    }
}

/// The radix partition (`0..`[`RADIX_PARTITIONS`]) a group-by or join key is
/// assigned to by the parallel pipeline breakers. A pure function of the key values
/// — independent of thread count, morsel size and scan schedule — which is what
/// makes the partition-wise merge of per-worker hash tables deterministic.
pub fn radix_partition(values: &[Value]) -> usize {
    partition_of(&GroupKey(values.to_vec()))
}

/// Deterministic output order of hash aggregation: groups sorted by key.
fn cmp_group_keys(a: &GroupKey, b: &GroupKey) -> std::cmp::Ordering {
    for (x, y) in a.0.iter().zip(&b.0) {
        let ord = x.total_cmp(y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

#[derive(Debug, Clone)]
struct AggState {
    sum: Value,
    count: i64,
    min: Value,
    max: Value,
}

impl AggState {
    fn new() -> AggState {
        AggState {
            sum: Value::Null,
            count: 0,
            min: Value::Null,
            max: Value::Null,
        }
    }

    fn update(&mut self, value: &Value, count_star: bool) {
        if count_star {
            self.count += 1;
            return;
        }
        if value.is_null() {
            return;
        }
        self.count += 1;
        self.sum = if self.sum.is_null() {
            value.clone()
        } else {
            arith(ArithOp::Add, &self.sum, value)
        };
        if self.min.is_null() || matches!(value.sql_cmp(&self.min), Some(std::cmp::Ordering::Less))
        {
            self.min = value.clone();
        }
        if self.max.is_null()
            || matches!(value.sql_cmp(&self.max), Some(std::cmp::Ordering::Greater))
        {
            self.max = value.clone();
        }
    }

    /// Fold another partial state for the same group into this one (the merge phase
    /// of parallel aggregation). Count/min/max and integer sums are exact whatever
    /// the merge order; double sums can differ from the serial scan order in the
    /// last ulps, exactly like any parallel floating-point reduction.
    fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        if self.sum.is_null() {
            self.sum = other.sum.clone();
        } else if !other.sum.is_null() {
            self.sum = arith(ArithOp::Add, &self.sum, &other.sum);
        }
        if self.min.is_null()
            || (!other.min.is_null()
                && matches!(other.min.sql_cmp(&self.min), Some(std::cmp::Ordering::Less)))
        {
            self.min = other.min.clone();
        }
        if self.max.is_null()
            || (!other.max.is_null()
                && matches!(
                    other.max.sql_cmp(&self.max),
                    Some(std::cmp::Ordering::Greater)
                ))
        {
            self.max = other.max.clone();
        }
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Sum => self.sum.clone(),
            AggFunc::Count | AggFunc::CountStar => Value::Int(self.count),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    arith(ArithOp::Div, &self.sum, &Value::Int(self.count))
                }
            }
            AggFunc::Min => self.min.clone(),
            AggFunc::Max => self.max.clone(),
        }
    }
}

/// Advance every aggregate state of one group by one input row.
fn update_states(states: &mut [AggState], specs: &[AggSpec], batch: &Batch, row: usize) {
    for (state, spec) in states.iter_mut().zip(specs) {
        if spec.func == AggFunc::CountStar {
            state.update(&Value::Null, true);
        } else {
            state.update(&spec.expr.eval(batch, row), false);
        }
    }
}

/// Output column types of an aggregation: group keys then aggregates.
fn agg_output_types(group_types: &[DataType], aggregates: &[AggSpec]) -> Vec<DataType> {
    let mut types = group_types.to_vec();
    types.extend(aggregates.iter().map(|a| a.output));
    types
}

/// Emit sorted `(key, states)` entries as the aggregation result batch.
fn emit_groups(
    mut entries: Vec<(GroupKey, Vec<AggState>)>,
    aggregates: &[AggSpec],
    output_types: &[DataType],
) -> Batch {
    entries.sort_by(|a, b| cmp_group_keys(&a.0, &b.0));
    let mut out = Batch::new(output_types);
    for (key, states) in entries {
        let mut row = key.0;
        for (state, spec) in states.iter().zip(aggregates) {
            row.push(state.finish(spec.func));
        }
        out.push_row(row);
    }
    out
}

/// One radix partition of per-worker aggregation state.
type AggPartition = HashMap<HashedKey, Vec<AggState>>;

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

/// Per-worker sink of the aggregation build phase: a radix-partitioned group hash
/// table.
struct AggBuildSink<'x> {
    group_exprs: &'x [Expr],
    aggregates: &'x [AggSpec],
    partitions: Vec<AggPartition>,
}

impl MorselSink for AggBuildSink<'_> {
    fn consume(&mut self, _morsel_idx: usize, batch: &Batch) {
        for row in 0..batch.len() {
            let key = HashedKey::new(GroupKey(
                self.group_exprs
                    .iter()
                    .map(|e| e.eval(batch, row))
                    .collect(),
            ));
            let partition = &mut self.partitions[key.partition()];
            let states = partition
                .entry(key)
                .or_insert_with(|| vec![AggState::new(); self.aggregates.len()]);
            update_states(states, self.aggregates, batch, row);
        }
    }
}

/// Fold the same radix partition of every worker into one partition, in worker
/// order. Partitions hold disjoint key sets, so this is the only cross-worker
/// combination the merge phase needs.
fn merge_agg_partition(parts: Vec<AggPartition>) -> AggPartition {
    let mut iter = parts.into_iter();
    let mut acc = iter.next().unwrap_or_default();
    for part in iter {
        for (key, states) in part {
            match acc.entry(key) {
                Entry::Occupied(mut entry) => {
                    for (state, other) in entry.get_mut().iter_mut().zip(&states) {
                        state.merge(other);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(states);
                }
            }
        }
    }
    acc
}

/// Hash aggregation (a pipeline breaker): consumes its whole input into
/// radix-partitioned hash tables ([`crate::morsel::RADIX_PARTITIONS`] per worker),
/// merges the workers' tables partition-wise, then emits one tuple per group — the
/// group-key expressions followed by the aggregates — sorted by group key.
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
    fn next_batch(&mut self) -> Option<Batch> {
        if self.done {
            return None;
        }
        self.done = true;
        let make_sink = || AggBuildSink {
            group_exprs: &self.group_exprs,
            aggregates: &self.aggregates,
            partitions: (0..RADIX_PARTITIONS).map(|_| AggPartition::new()).collect(),
        };
        let (sinks, threads) = match &mut self.input {
            AggInput::Operator(input) => {
                let batches = std::iter::from_fn(|| input.next_batch());
                (morsel::drive_batches(batches, 1, make_sink), 1)
            }
            // `Operator::next_batch` has no error channel; an unreadable cold
            // block still joins every pipeline worker first, then surfaces here
            // with its full on-disk position — the panic a scan operator raises.
            AggInput::Pipeline { relation, spec } => {
                let (sinks, stats) = morsel::drive_pipeline(relation, spec, make_sink)
                    .unwrap_or_else(|err| panic!("{err}"));
                self.scan_stats = stats;
                (sinks, spec.config.threads)
            }
        };
        let per_worker: Vec<Vec<AggPartition>> =
            sinks.into_iter().map(|sink| sink.partitions).collect();
        let merged =
            morsel::merge_partitionwise(per_worker, threads, |_, parts| merge_agg_partition(parts));
        let entries: Vec<(GroupKey, Vec<AggState>)> = merged
            .into_iter()
            .flatten()
            .map(|(hashed, states)| (hashed.key, states))
            .collect();
        Some(emit_groups(entries, &self.aggregates, &self.output_types))
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

/// One radix partition of join build state: each key's build rows, tagged with their
/// global position in the build stream so the merge can restore stream order.
type JoinPartition = HashMap<HashedKey, Vec<(u64, Vec<Value>)>>;

/// Hash equi-join. The build side is materialised into a hash table (the pipeline
/// breaker); the probe side streams through. The build runs on
/// [`HashJoinOp::with_parallel_build`] morsel workers (one by default): each builds
/// a private radix-partitioned table over the build side's batches and the barrier
/// merges them partition-wise, restoring stream order per key — so join output is
/// byte-identical for every worker count. The probe looks a key up in the one
/// merged partition its hash selects, so a key's values — build or probe — are
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
    build_threads: usize,
    /// The merged build partitions, indexed by [`HashedKey::partition`].
    table: Option<Vec<JoinPartition>>,
    tags: Vec<u64>,
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
            build_threads: 1,
            table: None,
            tags: Vec::new(),
            output_types,
        }
    }

    /// Enable the Appendix-E style early probe (tag bitmap checked before the hash
    /// table lookup).
    pub fn with_early_probe(mut self, enabled: bool) -> Self {
        self.early_probe = enabled;
        self
    }

    /// Build the hash table with `threads` morsel workers (same contract as
    /// [`crate::ScanConfig::threads`]: `1`, the default, builds on the calling
    /// thread, `0` uses every hardware thread). The probe/output tail stays
    /// streaming and single-threaded; results are byte-identical for every worker
    /// count. The query planner applies this to every join it lowers, at the
    /// session's configured thread count.
    pub fn with_parallel_build(mut self, threads: usize) -> Self {
        self.build_threads = threads;
        self
    }

    fn build_table(&mut self) {
        if self.table.is_some() {
            return;
        }
        // Partition-build over the build side's batches (an upstream scan
        // parallelises itself through its own ScanConfig).
        let build = &mut self.build;
        let build_keys = &self.build_keys;
        let batches = std::iter::from_fn(|| build.next_batch());
        let sinks = morsel::drive_batches(batches, self.build_threads, || JoinBuildSink {
            keys: build_keys,
            partitions: (0..RADIX_PARTITIONS)
                .map(|_| JoinPartition::new())
                .collect(),
        });
        let per_worker: Vec<Vec<JoinPartition>> =
            sinks.into_iter().map(|sink| sink.partitions).collect();
        let table = morsel::merge_partitionwise(per_worker, self.build_threads, |_, parts| {
            merge_join_partition(parts)
        });
        // 16 KiB of tag bits (2^17 bits): small enough for L1/L2, large enough to be
        // selective for the build sizes used here. One bit per distinct key.
        let mut tags = vec![0u64; 2048];
        for key in table.iter().flat_map(HashMap::keys) {
            let slot = tag_slot(key, tags.len());
            tags[slot.0] |= 1 << slot.1;
        }
        self.table = Some(table);
        self.tags = tags;
    }
}

/// Per-worker sink of the join build. Only fed by [`morsel::drive_batches`], where
/// each morsel is exactly one batch — so the `(morsel_idx << 32) | row` tag is the
/// row's unique global position in the build stream, and sorting a key's rows by
/// tag restores stream order.
struct JoinBuildSink<'x> {
    keys: &'x [usize],
    partitions: Vec<JoinPartition>,
}

impl MorselSink for JoinBuildSink<'_> {
    fn consume(&mut self, morsel_idx: usize, batch: &Batch) {
        for row in 0..batch.len() {
            let key = HashedKey::new(GroupKey(
                self.keys.iter().map(|&k| batch.value(row, k)).collect(),
            ));
            let tag = ((morsel_idx as u64) << 32) | row as u64;
            self.partitions[key.partition()]
                .entry(key)
                .or_default()
                .push((tag, batch.row(row)));
        }
    }
}

/// Merge one radix partition of every build worker: concatenate each key's tagged
/// rows, then sort by tag to restore the build stream's order.
fn merge_join_partition(parts: Vec<JoinPartition>) -> JoinPartition {
    let mut iter = parts.into_iter();
    let mut acc = iter.next().unwrap_or_default();
    for part in iter {
        for (key, mut rows) in part {
            acc.entry(key).or_default().append(&mut rows);
        }
    }
    for rows in acc.values_mut() {
        rows.sort_unstable_by_key(|&(tag, _)| tag);
    }
    acc
}

fn tag_slot(key: &HashedKey, words: usize) -> (usize, u32) {
    ((key.hash as usize) % words, (key.hash >> 32) as u32 % 64)
}

impl<'a> Operator for HashJoinOp<'a> {
    fn next_batch(&mut self) -> Option<Batch> {
        self.build_table();
        let table = self.table.as_ref().expect("built above");
        let batch = self.probe.next_batch()?;
        let mut out = Batch::new(&self.output_types);
        for row in 0..batch.len() {
            let key = GroupKey(
                self.probe_keys
                    .iter()
                    .map(|&k| batch.value(row, k))
                    .collect(),
            );
            if key.0.iter().any(|v| v.is_null()) {
                continue; // NULL keys never join
            }
            let key = HashedKey::new(key);
            if self.early_probe {
                let slot = tag_slot(&key, self.tags.len());
                if self.tags[slot.0] & (1 << slot.1) == 0 {
                    continue;
                }
            }
            if let Some(build_rows) = table[key.partition()].get(&key) {
                match self.join_type {
                    JoinType::Inner => {
                        for (_, build_row) in build_rows {
                            let mut row_values = build_row.clone();
                            row_values.extend(batch.row(row));
                            out.push_row(row_values);
                        }
                    }
                    JoinType::ProbeSemi => out.push_row(batch.row(row)),
                }
            }
        }
        Some(out)
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

/// Sort (and optionally limit) the full input — a pipeline breaker.
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
    fn next_batch(&mut self) -> Option<Batch> {
        if self.done {
            return None;
        }
        self.done = true;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let types = self.types.clone();
        while let Some(batch) = self.input.next_batch() {
            for row in 0..batch.len() {
                rows.push(batch.row(row));
            }
        }
        rows.sort_by(|a, b| {
            for key in &self.keys {
                let ord = a[key.column].total_cmp(&b[key.column]);
                let ord = if key.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        if let Some(limit) = self.limit {
            rows.truncate(limit);
        }
        Some(Batch::from_rows(&types, &rows))
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
    fn next_batch(&mut self) -> Option<Batch> {
        self.batch.take()
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
    fn values_op_emits_once() {
        let mut op = ValuesOp::new(numbers(3));
        assert_eq!(op.output_types().len(), 3);
        assert!(op.next_batch().is_some());
        assert!(op.next_batch().is_none());
    }

    // ------------------------------------------------- pipeline breakers on N workers

    /// Emits pre-built batches one at a time: a multi-batch build/aggregate input.
    struct BatchesOp(std::collections::VecDeque<Batch>);

    impl Operator for BatchesOp {
        fn next_batch(&mut self) -> Option<Batch> {
            self.0.pop_front()
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
        use storage::{ColumnDef, Schema};
        let schema = Schema::new(vec![
            ColumnDef::new("v", DataType::Int),
            ColumnDef::nullable("k", DataType::Int),
            ColumnDef::new("g", DataType::Str),
            ColumnDef::new("d", DataType::Double),
        ]);
        let mut rel = Relation::with_chunk_capacity("r", schema, 64);
        for row in rows {
            rel.insert(row.clone());
        }
        rel.freeze_full_chunks();
        rel
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
        let build = |order: &[usize]| -> Batch {
            let per_worker: Vec<Vec<AggPartition>> = order
                .iter()
                .map(|&w| {
                    let third: Vec<Vec<Value>> = input.iter().skip(w).step_by(3).cloned().collect();
                    let mut sink = AggBuildSink {
                        group_exprs: &group_exprs,
                        aggregates: &aggregates,
                        partitions: (0..RADIX_PARTITIONS).map(|_| AggPartition::new()).collect(),
                    };
                    sink.consume(w, &Batch::from_rows(&TYPES, &third));
                    sink.partitions
                })
                .collect();
            let merged =
                morsel::merge_partitionwise(per_worker, 2, |_, parts| merge_agg_partition(parts));
            let entries = merged
                .into_iter()
                .flatten()
                .map(|(hashed, states)| (hashed.key, states))
                .collect();
            emit_groups(
                entries,
                &aggregates,
                &agg_output_types(&[DataType::Int], &aggregates),
            )
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

    /// The join's reference: a nested loop in probe-stream order, build rows of a
    /// key in build-stream order — the per-key order the tagged merge restores.
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
        // build: skewed duplicate keys plus NULL keys, cut into many batches so
        // several build workers get work; probe: col1 of `numbers` in 0..10
        let build_rows = rows(200);
        let probe = numbers(100);
        for join_type in [JoinType::Inner, JoinType::ProbeSemi] {
            let expected = nested_loop_join(&build_rows, &probe, 1, join_type);
            assert!(!expected.is_empty());
            for threads in [1usize, 2, 4, 8] {
                for early_probe in [false, true] {
                    let got = HashJoinOp::new(
                        batches_op(&batches_of(&build_rows, 7)),
                        values_op(100),
                        vec![1],
                        vec![1],
                        join_type,
                    )
                    .with_parallel_build(threads)
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
