//! The logical → physical planner.
//!
//! [`Planner::plan`] lowers a parsed [`QueryIr`] onto the operator vocabulary of
//! [`exec::ops`], resolving relation and column names against a
//! [`storage::Database`] catalog, checking the typing rules of
//! `crates/query/README.md`, and making the physical choices the hand-built
//! workload queries make today:
//!
//! - **Aggregation inside the morsel workers** — an `aggregate` whose input is a
//!   pure scan chain (`scan`, optionally followed by `filter`/`project`) fuses
//!   with it: [`exec::ops::HashAggregateOp::over_relation`] runs the chain as a
//!   morsel [`PipelineSpec`] inside the workers. Over any other input (a join
//!   output, say) the same operator pulls batches on the calling thread
//!   ([`exec::ops::HashAggregateOp::new`]). The choice reads the plan's shape
//!   only — never the thread count, which is just the worker count the plan's
//!   [`ScanConfig`] hands to its scans and fused aggregates; every other
//!   operator, the join build included, runs on the thread that pulls it.
//! - **SARGable push-down** — conjuncts of a `filter` directly above a `scan` of
//!   the form `column <cmp> constant` (with exactly matching types) move into the
//!   scan's [`Restriction`] list, where they are evaluated on compressed Data
//!   Blocks under SMA/PSMA pruning; a `>=`/`<=` pair on the same column merges
//!   into one `between`. Residual conjuncts stay behind as a filter operator.
//! - **The smaller side hashed** — an inner join whose rows reach an aggregate
//!   that cannot see their order (counts, min/max, integer sums and averages;
//!   through filters and projections only) hashes its logical probe side when
//!   that side's estimated rows are less than half the build side's. The
//!   estimates come from block metadata ([`storage::Relation::estimate_rows`]),
//!   so planning reads no block. The output row stays `build ++ probe`
//!   ([`exec::ops::HashJoinOp::with_probe_columns_first`]).
//!
//! The resulting [`PhysicalPlan`] is self-contained (it borrows nothing): it can
//! be pretty-printed for golden-file review (`plan_dump`) and executed repeatedly
//! against any database with the same catalog.

use std::fmt;

use datablocks::scan::Restriction;
use datablocks::{DataType, Value};
use dbsimd::CmpOp;
use exec::morsel::PipelineStep;
use exec::ops::{
    AggFunc, AggSpec, BoxedOperator, FilterOp, HashAggregateOp, HashJoinOp, JoinType, ProjectOp,
    ScanOp, SortKey, SortOp,
};
use exec::{collect_operator, Batch, Expr, PipelineSpec, RelationScanner, ScanConfig, ScanMode};
use storage::{Database, DEFAULT_SELECTIVITY};

use crate::error::IrError;
use crate::ir::{AggItem, ExprKind, IrExpr, Node, PredicateKind, QueryIr, TypedExpr};
use crate::json::Pos;

// ------------------------------------------------------------------ type checking

/// The inferred type of an expression: a concrete [`DataType`], or `Any` for
/// NULL literals (which take any declared type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    Known(DataType),
    Any,
}

pub(crate) fn type_name(ty: DataType) -> &'static str {
    match ty {
        DataType::Int => "int",
        DataType::Double => "double",
        DataType::Str => "str",
    }
}

fn ty_name(ty: Ty) -> &'static str {
    match ty {
        Ty::Known(t) => type_name(t),
        Ty::Any => "null",
    }
}

pub(crate) fn value_type(value: &Value) -> Ty {
    match value {
        Value::Null => Ty::Any,
        Value::Int(_) => Ty::Known(DataType::Int),
        Value::Double(_) => Ty::Known(DataType::Double),
        Value::Str(_) => Ty::Known(DataType::Str),
    }
}

/// Reject string operands where arithmetic/logic needs numbers.
fn require_numeric(ty: Ty, pos: Pos, what: &str) -> Result<Ty, IrError> {
    if ty == Ty::Known(DataType::Str) {
        return Err(IrError::semantic(
            pos,
            format!("{what} must be numeric, found str"),
        ));
    }
    Ok(ty)
}

/// Numeric result type of a non-division arithmetic: any double operand widens,
/// two ints stay int, NULLs stay undetermined.
fn combine_numeric(lhs: Ty, rhs: Ty) -> Ty {
    match (lhs, rhs) {
        (Ty::Known(DataType::Double), _) | (_, Ty::Known(DataType::Double)) => {
            Ty::Known(DataType::Double)
        }
        (Ty::Known(DataType::Int), Ty::Known(DataType::Int)) => Ty::Known(DataType::Int),
        _ => Ty::Any,
    }
}

/// Infer the type of `expr` over an input with the given column types.
pub(crate) fn infer_type(expr: &IrExpr, input: &[DataType]) -> Result<Ty, IrError> {
    match &expr.kind {
        ExprKind::Col(idx) => input.get(*idx).map(|t| Ty::Known(*t)).ok_or_else(|| {
            IrError::semantic(
                expr.pos,
                format!(
                    "column #{idx} is out of range (the input has {} columns)",
                    input.len()
                ),
            )
        }),
        ExprKind::Lit(value) => Ok(value_type(value)),
        ExprKind::Arith(op, lhs, rhs) => {
            let lt = require_numeric(infer_type(lhs, input)?, lhs.pos, "an arithmetic operand")?;
            let rt = require_numeric(infer_type(rhs, input)?, rhs.pos, "an arithmetic operand")?;
            // Division always widens to double (matching `exec::expr`); other
            // operators widen only when a double operand is involved.
            Ok(match op {
                exec::ArithOp::Div => Ty::Known(DataType::Double),
                _ => combine_numeric(lt, rt),
            })
        }
        ExprKind::Cmp(_, lhs, rhs) => {
            let lt = infer_type(lhs, input)?;
            let rt = infer_type(rhs, input)?;
            let string = |t: Ty| t == Ty::Known(DataType::Str);
            let number = |t: Ty| matches!(t, Ty::Known(DataType::Int | DataType::Double));
            if (string(lt) && number(rt)) || (number(lt) && string(rt)) {
                return Err(IrError::semantic(
                    expr.pos,
                    format!("cannot compare {} with {}", ty_name(lt), ty_name(rt)),
                ));
            }
            Ok(Ty::Known(DataType::Int))
        }
        ExprKind::And(lhs, rhs) | ExprKind::Or(lhs, rhs) => {
            require_numeric(infer_type(lhs, input)?, lhs.pos, "a logical operand")?;
            require_numeric(infer_type(rhs, input)?, rhs.pos, "a logical operand")?;
            Ok(Ty::Known(DataType::Int))
        }
        ExprKind::Case(cond, then, otherwise) => {
            require_numeric(infer_type(cond, input)?, cond.pos, "a case condition")?;
            let tt = infer_type(then, input)?;
            let et = infer_type(otherwise, input)?;
            match (tt, et) {
                (Ty::Any, t) | (t, Ty::Any) => Ok(t),
                (a, b) if a == b => Ok(a),
                (a, b) => Err(IrError::semantic(
                    expr.pos,
                    format!(
                        "case branches have mismatched types ({} vs {})",
                        ty_name(a),
                        ty_name(b)
                    ),
                )),
            }
        }
    }
}

/// Check an inferred type against a declared one (NULL literals accept any).
pub(crate) fn check_declared(
    inferred: Ty,
    declared: DataType,
    pos: Pos,
    what: &str,
) -> Result<(), IrError> {
    match inferred {
        Ty::Any => Ok(()),
        Ty::Known(t) if t == declared => Ok(()),
        Ty::Known(t) => Err(IrError::semantic(
            pos,
            format!(
                "{what} declares type {} but the expression has type {}",
                type_name(declared),
                type_name(t)
            ),
        )),
    }
}

// ----------------------------------------------------------------- physical plan

/// A resolved base-table scan: projection and restrictions by column index, with
/// rendered labels for the plan printer.
#[derive(Debug, Clone)]
struct TableScan {
    relation: String,
    projection: Vec<usize>,
    column_names: Vec<String>,
    restrictions: Vec<Restriction>,
    restriction_labels: Vec<String>,
    types: Vec<DataType>,
}

/// One node of the lowered physical plan.
#[derive(Debug, Clone)]
enum PhysNode {
    Scan(TableScan),
    Filter {
        input: Box<PhysNode>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysNode>,
        exprs: Vec<Expr>,
        types: Vec<DataType>,
    },
    /// Hash aggregation pulling an arbitrary input on the calling thread.
    HashAggregate {
        input: Box<PhysNode>,
        groups: Vec<Expr>,
        group_types: Vec<DataType>,
        aggregates: Vec<AggSpec>,
        agg_labels: Vec<String>,
    },
    /// Hash aggregation fused with a scan pipeline (scan + in-worker steps).
    MorselAggregate {
        scan: TableScan,
        steps: Vec<PipelineStep>,
        groups: Vec<Expr>,
        group_types: Vec<DataType>,
        aggregates: Vec<AggSpec>,
        agg_labels: Vec<String>,
    },
    /// `build`/`probe` are the IR's logical sides, and the output row is always
    /// `build ++ probe`. `hash_probe` says the join hashes its logical probe
    /// side instead (see [`Planner::hash_smaller_side`]).
    HashJoin {
        join_type: JoinType,
        build: Box<PhysNode>,
        probe: Box<PhysNode>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        hash_probe: bool,
    },
    Sort {
        input: Box<PhysNode>,
        keys: Vec<SortKey>,
        limit: Option<usize>,
    },
}

/// A fully resolved physical plan: the operator tree the planner chose, plus the
/// [`ScanConfig`] it executes with.
///
/// The plan owns all its state (relation *names*, column indices, expressions),
/// so it can be [`Display`](fmt::Display)ed for golden-file review and
/// [executed](PhysicalPlan::execute) repeatedly.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    config: ScanConfig,
    root: PhysNode,
    output_types: Vec<DataType>,
}

impl PhysicalPlan {
    /// Column types of the plan's output batch.
    pub fn output_types(&self) -> &[DataType] {
        &self.output_types
    }

    /// The scan configuration the plan executes with.
    pub fn config(&self) -> ScanConfig {
        self.config
    }

    /// How many of the plan's inner joins hash their logical probe side — the
    /// joins the planner turned around because that side is estimated to be the
    /// smaller one (see [`Planner`]).
    pub fn probe_side_builds(&self) -> usize {
        fn count(node: &PhysNode) -> usize {
            match node {
                PhysNode::Scan(_) | PhysNode::MorselAggregate { .. } => 0,
                PhysNode::Filter { input, .. }
                | PhysNode::Project { input, .. }
                | PhysNode::HashAggregate { input, .. }
                | PhysNode::Sort { input, .. } => count(input),
                PhysNode::HashJoin {
                    build,
                    probe,
                    hash_probe,
                    ..
                } => usize::from(*hash_probe) + count(build) + count(probe),
            }
        }
        count(&self.root)
    }

    /// Build the operator tree and drain it to a single output batch — for
    /// callers with nothing to recover ([`exec::collect_operator`]); a query
    /// that may meet an unreadable spilled block or be cancelled runs through
    /// [`crate::Session::execute_plan`], whose stream returns the error.
    ///
    /// # Panics
    ///
    /// Panics if `db` lacks a relation the plan scans — plans are validated
    /// against the catalog they were planned with, so execute against the same
    /// database (or one with the same schema) — and if execution fails.
    pub fn execute(&self, db: &Database) -> Batch {
        let mut op = build_operator(&self.root, db, self.config);
        collect_operator(op.as_mut())
    }

    /// Instantiate the plan's operator tree against `db`, executing with
    /// `config`, without draining it — the entry point for pull-based execution
    /// ([`crate::QueryStream`] pulls one batch at a time). A session passes the
    /// plan's own [`PhysicalPlan::config`] with its budget-derived channel
    /// capacity: the cap only bounds how many morsel batches may be in flight
    /// per scan, so no planning decision depends on it. The returned tree
    /// borrows only the database; the plan itself can be dropped afterwards.
    pub(crate) fn build_tree<'a>(&self, db: &'a Database, config: ScanConfig) -> BoxedOperator<'a> {
        build_operator(&self.root, db, config)
    }
}

/// Recursively instantiate `exec` operators for a plan node.
fn build_operator<'a>(node: &PhysNode, db: &'a Database, config: ScanConfig) -> BoxedOperator<'a> {
    match node {
        PhysNode::Scan(scan) => {
            let relation = db.relation(&scan.relation);
            Box::new(ScanOp::new(RelationScanner::new(
                relation,
                scan.projection.clone(),
                scan.restrictions.clone(),
                config,
            )))
        }
        PhysNode::Filter { input, predicate } => Box::new(FilterOp::new(
            build_operator(input, db, config),
            predicate.clone(),
        )),
        PhysNode::Project {
            input,
            exprs,
            types,
        } => Box::new(ProjectOp::new(
            build_operator(input, db, config),
            exprs.clone(),
            types.clone(),
        )),
        PhysNode::HashAggregate {
            input,
            groups,
            group_types,
            aggregates,
            ..
        } => Box::new(HashAggregateOp::new(
            build_operator(input, db, config),
            groups.clone(),
            group_types.clone(),
            aggregates.clone(),
        )),
        PhysNode::MorselAggregate {
            scan,
            steps,
            groups,
            group_types,
            aggregates,
            ..
        } => {
            let relation = db.relation(&scan.relation);
            let mut spec =
                PipelineSpec::scan(scan.projection.clone(), scan.restrictions.clone(), config);
            spec.steps = steps.clone();
            Box::new(HashAggregateOp::over_relation(
                relation,
                spec,
                groups.clone(),
                group_types.clone(),
                aggregates.clone(),
            ))
        }
        PhysNode::HashJoin {
            join_type,
            build,
            probe,
            build_keys,
            probe_keys,
            hash_probe,
        } => {
            let (build, probe) = (
                build_operator(build, db, config),
                build_operator(probe, db, config),
            );
            let join = if *hash_probe {
                HashJoinOp::new(
                    probe,
                    build,
                    probe_keys.clone(),
                    build_keys.clone(),
                    *join_type,
                )
                .with_probe_columns_first()
            } else {
                HashJoinOp::new(
                    build,
                    probe,
                    build_keys.clone(),
                    probe_keys.clone(),
                    *join_type,
                )
            };
            Box::new(join)
        }
        PhysNode::Sort { input, keys, limit } => Box::new(SortOp::new(
            build_operator(input, db, config),
            keys.clone(),
            *limit,
        )),
    }
}

// ---------------------------------------------------------------------- planner

/// Lowers parsed [`QueryIr`] documents to [`PhysicalPlan`]s against one
/// database catalog and one [`ScanConfig`].
pub struct Planner<'a> {
    db: &'a Database,
    config: ScanConfig,
}

impl<'a> Planner<'a> {
    /// A planner resolving names against `db`; its plans execute with `config`
    /// (scan flavour, worker threads, channel capacity).
    pub fn new(db: &'a Database, config: ScanConfig) -> Planner<'a> {
        Planner { db, config }
    }

    /// Lower a logical plan to a physical one, or fail with a positioned
    /// [`IrError`] of kind `Semantic`.
    pub fn plan(&self, ir: &QueryIr) -> Result<PhysicalPlan, IrError> {
        let (root, output_types) = self.plan_node(&ir.root)?;
        Ok(PhysicalPlan {
            config: self.config,
            root,
            output_types,
        })
    }

    fn plan_node(&self, node: &Node) -> Result<(PhysNode, Vec<DataType>), IrError> {
        match node {
            Node::Scan {
                pos,
                relation,
                columns,
                predicates,
            } => self.plan_scan(*pos, relation, columns, predicates),
            Node::Filter {
                input, predicate, ..
            } => self.plan_filter(input, predicate),
            Node::Project { input, exprs, .. } => {
                let (phys, in_types) = self.plan_node(input)?;
                let (out_exprs, out_types) =
                    self.check_typed_exprs(exprs, &in_types, "a projected expression")?;
                // Every input column in place is the input itself: no operator.
                // (A projection that permutes, drops or repeats columns stays, and
                // executes as column moves.)
                let identity = out_exprs.len() == in_types.len()
                    && (out_exprs.iter().enumerate()).all(|(i, e)| *e == Expr::Col(i));
                if identity {
                    return Ok((phys, in_types));
                }
                Ok((
                    PhysNode::Project {
                        input: Box::new(phys),
                        exprs: out_exprs,
                        types: out_types.clone(),
                    },
                    out_types,
                ))
            }
            Node::Aggregate {
                input,
                groups,
                aggregates,
                ..
            } => self.plan_aggregate(input, groups, aggregates),
            Node::Join {
                pos,
                join_type,
                build,
                probe,
                build_keys,
                probe_keys,
            } => {
                let (build_phys, build_types) = self.plan_node(build)?;
                let (probe_phys, probe_types) = self.plan_node(probe)?;
                if build_keys.is_empty() || build_keys.len() != probe_keys.len() {
                    return Err(IrError::semantic(
                        *pos,
                        format!(
                            "join keys must pair up non-empty ({} build keys vs {} probe keys)",
                            build_keys.len(),
                            probe_keys.len()
                        ),
                    ));
                }
                for (&b, &p) in build_keys.iter().zip(probe_keys) {
                    let bt = *build_types.get(b).ok_or_else(|| {
                        IrError::semantic(
                            *pos,
                            format!(
                                "build key #{b} is out of range (the build side has {} columns)",
                                build_types.len()
                            ),
                        )
                    })?;
                    let pt = *probe_types.get(p).ok_or_else(|| {
                        IrError::semantic(
                            *pos,
                            format!(
                                "probe key #{p} is out of range (the probe side has {} columns)",
                                probe_types.len()
                            ),
                        )
                    })?;
                    if bt != pt {
                        return Err(IrError::semantic(
                            *pos,
                            format!(
                                "join key type mismatch: build column #{b} is {} but probe \
                                 column #{p} is {}",
                                type_name(bt),
                                type_name(pt)
                            ),
                        ));
                    }
                }
                let output_types = match join_type {
                    JoinType::Inner => {
                        let mut t = build_types;
                        t.extend(probe_types);
                        t
                    }
                    JoinType::ProbeSemi => probe_types,
                };
                Ok((
                    PhysNode::HashJoin {
                        join_type: *join_type,
                        build: Box::new(build_phys),
                        probe: Box::new(probe_phys),
                        build_keys: build_keys.clone(),
                        probe_keys: probe_keys.clone(),
                        hash_probe: false,
                    },
                    output_types,
                ))
            }
            Node::Sort {
                pos,
                input,
                keys,
                limit,
            } => {
                let (phys, types) = self.plan_node(input)?;
                for key in keys {
                    if key.column >= types.len() {
                        return Err(IrError::semantic(
                            *pos,
                            format!(
                                "sort key column #{} is out of range (the input has {} columns)",
                                key.column,
                                types.len()
                            ),
                        ));
                    }
                }
                Ok((
                    PhysNode::Sort {
                        input: Box::new(phys),
                        keys: keys.clone(),
                        limit: *limit,
                    },
                    types,
                ))
            }
        }
    }

    fn plan_scan(
        &self,
        pos: Pos,
        relation: &str,
        columns: &[String],
        predicates: &[crate::ir::ScanPredicate],
    ) -> Result<(PhysNode, Vec<DataType>), IrError> {
        if !self.db.contains(relation) {
            return Err(IrError::semantic(
                pos,
                format!("unknown relation {relation:?}"),
            ));
        }
        let schema = self.db.relation(relation).schema();
        let mut projection = Vec::with_capacity(columns.len());
        let mut types = Vec::with_capacity(columns.len());
        for name in columns {
            let idx = schema.index_of(name).ok_or_else(|| {
                IrError::semantic(pos, format!("relation {relation:?} has no column {name:?}"))
            })?;
            projection.push(idx);
            types.push(schema.column(idx).data_type);
        }
        let mut restrictions = Vec::with_capacity(predicates.len());
        let mut restriction_labels = Vec::with_capacity(predicates.len());
        for pred in predicates {
            let idx = schema.index_of(&pred.column).ok_or_else(|| {
                IrError::semantic(
                    pred.pos,
                    format!("relation {relation:?} has no column {:?}", pred.column),
                )
            })?;
            let col_ty = schema.column(idx).data_type;
            let check_literal = |value: &Value| -> Result<(), IrError> {
                match value_type(value) {
                    Ty::Known(t) if t == col_ty => Ok(()),
                    other => Err(IrError::semantic(
                        pred.pos,
                        format!(
                            "predicate on column {:?} compares a {} column with a {} literal",
                            pred.column,
                            type_name(col_ty),
                            ty_name(other)
                        ),
                    )),
                }
            };
            let restriction = match &pred.kind {
                PredicateKind::Cmp(op, value) => {
                    check_literal(value)?;
                    Restriction::Cmp {
                        column: idx,
                        op: *op,
                        value: value.clone(),
                    }
                }
                PredicateKind::Between(lo, hi) => {
                    check_literal(lo)?;
                    check_literal(hi)?;
                    Restriction::Between {
                        column: idx,
                        lo: lo.clone(),
                        hi: hi.clone(),
                    }
                }
                PredicateKind::IsNull => Restriction::IsNull { column: idx },
                PredicateKind::IsNotNull => Restriction::IsNotNull { column: idx },
            };
            restriction_labels.push(restriction_label(&pred.column, &restriction, false));
            restrictions.push(restriction);
        }
        Ok((
            PhysNode::Scan(TableScan {
                relation: relation.to_string(),
                projection,
                column_names: columns.to_vec(),
                restrictions,
                restriction_labels,
                types: types.clone(),
            }),
            types,
        ))
    }

    fn plan_filter(
        &self,
        input: &Node,
        predicate: &IrExpr,
    ) -> Result<(PhysNode, Vec<DataType>), IrError> {
        let (phys, types) = self.plan_node(input)?;
        let ty = infer_type(predicate, &types)?;
        if ty == Ty::Known(DataType::Str) {
            return Err(IrError::semantic(
                predicate.pos,
                "a filter predicate must be numeric (comparisons yield 1/0), found str",
            ));
        }
        match phys {
            PhysNode::Scan(mut scan) => {
                let mut conjuncts = Vec::new();
                split_conjuncts(predicate, &mut conjuncts);
                let mut pushed = Vec::new();
                let mut residual = Vec::new();
                for conjunct in conjuncts {
                    match as_sargable(conjunct, &scan) {
                        Some(restriction) => pushed.push(restriction),
                        None => residual.push(conjunct),
                    }
                }
                merge_ranges(&mut pushed);
                let schema = self.db.relation(&scan.relation).schema();
                for restriction in pushed {
                    scan.restriction_labels.push(restriction_label(
                        &schema.column(restriction.column()).name,
                        &restriction,
                        true,
                    ));
                    scan.restrictions.push(restriction);
                }
                let scan = PhysNode::Scan(scan);
                if residual.is_empty() {
                    return Ok((scan, types));
                }
                let mut iter = residual.into_iter();
                let mut expr = iter.next().expect("non-empty residual").to_exec();
                for conjunct in iter {
                    expr = Expr::And(Box::new(expr), Box::new(conjunct.to_exec()));
                }
                Ok((
                    PhysNode::Filter {
                        input: Box::new(scan),
                        predicate: expr,
                    },
                    types,
                ))
            }
            other => Ok((
                PhysNode::Filter {
                    input: Box::new(other),
                    predicate: predicate.to_exec(),
                },
                types,
            )),
        }
    }

    fn plan_aggregate(
        &self,
        input: &Node,
        groups: &[TypedExpr],
        aggregates: &[AggItem],
    ) -> Result<(PhysNode, Vec<DataType>), IrError> {
        let (mut phys, in_types) = self.plan_node(input)?;
        let (group_exprs, group_types) =
            self.check_typed_exprs(groups, &in_types, "a group key")?;
        let mut specs = Vec::with_capacity(aggregates.len());
        let mut agg_labels = Vec::with_capacity(aggregates.len());
        let mut output_types = group_types.clone();
        for agg in aggregates {
            let spec = lower_aggregate(agg, &in_types)?;
            agg_labels.push(aggregate_label(agg));
            specs.push(spec);
            output_types.push(agg.ty);
        }
        if aggregates
            .iter()
            .all(|agg| order_insensitive(agg, &in_types))
        {
            self.hash_smaller_side(&mut phys);
        }
        // A scan-chain input fuses into the morsel workers; anything else (e.g. a
        // join output) is pulled on the calling thread.
        let node = match into_pipeline(phys) {
            Ok((scan, steps)) => PhysNode::MorselAggregate {
                scan,
                steps,
                groups: group_exprs,
                group_types,
                aggregates: specs,
                agg_labels,
            },
            Err(phys) => PhysNode::HashAggregate {
                input: phys,
                groups: group_exprs,
                group_types,
                aggregates: specs,
                agg_labels,
            },
        };
        Ok((node, output_types))
    }

    /// Let the inner join an aggregate reads — directly or through row-wise
    /// filters and projections — hash its smaller side. The caller has checked
    /// that the aggregate cannot see row order, which is all a swap changes.
    /// The join hashes its logical probe side when that side's estimated rows
    /// are less than half the build side's; a side that is not a scan chain has
    /// no estimate, and its join keeps its sides.
    fn hash_smaller_side(&self, mut node: &mut PhysNode) {
        loop {
            match node {
                PhysNode::Filter { input, .. } | PhysNode::Project { input, .. } => node = input,
                PhysNode::HashJoin {
                    join_type: JoinType::Inner,
                    build,
                    probe,
                    hash_probe,
                    ..
                } => {
                    if let (Some(b), Some(p)) =
                        (self.estimate_rows(build), self.estimate_rows(probe))
                    {
                        *hash_probe = b > 2.0 * p;
                    }
                    return;
                }
                _ => return,
            }
        }
    }

    /// Estimated output rows of a scan chain, from block metadata
    /// ([`storage::Relation::estimate_rows`] prices the scan's restrictions; a
    /// residual filter keeps [`DEFAULT_SELECTIVITY`] of its input). `None` for
    /// anything else. Reads no block.
    fn estimate_rows(&self, node: &PhysNode) -> Option<f64> {
        match node {
            PhysNode::Scan(scan) => {
                Some((self.db.relation(&scan.relation)).estimate_rows(&scan.restrictions))
            }
            PhysNode::Filter { input, .. } => {
                Some(self.estimate_rows(input)? * DEFAULT_SELECTIVITY)
            }
            PhysNode::Project { input, .. } => self.estimate_rows(input),
            _ => None,
        }
    }

    fn check_typed_exprs(
        &self,
        exprs: &[TypedExpr],
        input: &[DataType],
        what: &str,
    ) -> Result<(Vec<Expr>, Vec<DataType>), IrError> {
        let mut out_exprs = Vec::with_capacity(exprs.len());
        let mut out_types = Vec::with_capacity(exprs.len());
        for te in exprs {
            let inferred = infer_type(&te.expr, input)?;
            check_declared(inferred, te.ty, te.expr.pos, what)?;
            out_exprs.push(te.expr.to_exec());
            out_types.push(te.ty);
        }
        Ok((out_exprs, out_types))
    }
}

/// Type-check one aggregate and lower it to an [`AggSpec`].
fn lower_aggregate(agg: &AggItem, input: &[DataType]) -> Result<AggSpec, IrError> {
    let expr_ty = match &agg.expr {
        Some(expr) => Some(infer_type(expr, input)?),
        None => None,
    };
    match agg.func {
        AggFunc::CountStar | AggFunc::Count => {
            if agg.ty != DataType::Int {
                return Err(IrError::semantic(
                    agg.pos,
                    format!("counts are int, not {}", type_name(agg.ty)),
                ));
            }
        }
        AggFunc::Avg => {
            let ty = expr_ty.expect("parser enforces expr presence");
            require_numeric(ty, agg.pos, "an avg argument")?;
            if agg.ty != DataType::Double {
                return Err(IrError::semantic(
                    agg.pos,
                    format!("avg yields double, not {}", type_name(agg.ty)),
                ));
            }
        }
        AggFunc::Sum => {
            let ty = expr_ty.expect("parser enforces expr presence");
            require_numeric(ty, agg.pos, "a sum argument")?;
            check_declared(ty, agg.ty, agg.pos, "the sum")?;
        }
        AggFunc::Min | AggFunc::Max => {
            let ty = expr_ty.expect("parser enforces expr presence");
            check_declared(ty, agg.ty, agg.pos, "the min/max")?;
        }
    }
    // `count_star` ignores its expression; a constant matches the hand-built plans.
    let expr = match &agg.expr {
        Some(expr) => expr.to_exec(),
        None => Expr::lit(0i64),
    };
    Ok(AggSpec::new(agg.func, expr, agg.ty))
}

/// Is an aggregate's result independent of the order its input rows arrive in?
/// Counts, min/max (whose double ties break by bit pattern) and integer sums
/// and averages are; a double sum adds in arrival order, so its last bits are not.
fn order_insensitive(agg: &AggItem, input: &[DataType]) -> bool {
    match agg.func {
        AggFunc::CountStar | AggFunc::Count | AggFunc::Min | AggFunc::Max => true,
        AggFunc::Sum | AggFunc::Avg => !(agg.expr.as_ref())
            .is_some_and(|expr| matches!(infer_type(expr, input), Ok(Ty::Known(DataType::Double)))),
    }
}

/// Flatten the left-folded `and` spine of a predicate into its conjuncts.
fn split_conjuncts<'e>(expr: &'e IrExpr, out: &mut Vec<&'e IrExpr>) {
    if let ExprKind::And(lhs, rhs) = &expr.kind {
        split_conjuncts(lhs, out);
        split_conjuncts(rhs, out);
    } else {
        out.push(expr);
    }
}

/// Is a conjunct of the form `column <cmp> constant` (either operand order) with
/// exactly matching types? Then it can run inside the scan as a [`Restriction`]
/// on the *base* column backing the scan's projected column.
fn as_sargable(conjunct: &IrExpr, scan: &TableScan) -> Option<Restriction> {
    let ExprKind::Cmp(op, lhs, rhs) = &conjunct.kind else {
        return None;
    };
    let (col, value, op) = match (&lhs.kind, &rhs.kind) {
        (ExprKind::Col(col), ExprKind::Lit(value)) => (*col, value, *op),
        (ExprKind::Lit(value), ExprKind::Col(col)) => (*col, value, op.flip()),
        _ => return None,
    };
    let col_ty = *scan.types.get(col)?;
    if value_type(value) != Ty::Known(col_ty) {
        return None;
    }
    Some(Restriction::Cmp {
        column: scan.projection[col],
        op,
        value: value.clone(),
    })
}

/// Merge a pushed `>= lo` / `<= hi` pair on the same column into one inclusive
/// `between` (which the scan kernels evaluate in a single pass and the PSMA
/// prunes as one range). The merged restriction takes the earlier pair member's
/// position.
fn merge_ranges(pushed: &mut Vec<Restriction>) {
    let mut i = 0;
    while i < pushed.len() {
        let (column, want, have_lo) = match &pushed[i] {
            Restriction::Cmp {
                column,
                op: CmpOp::Ge,
                ..
            } => (*column, CmpOp::Le, true),
            Restriction::Cmp {
                column,
                op: CmpOp::Le,
                ..
            } => (*column, CmpOp::Ge, false),
            _ => {
                i += 1;
                continue;
            }
        };
        let partner = pushed[i + 1..].iter().position(
            |r| matches!(r, Restriction::Cmp { column: c, op, .. } if *c == column && *op == want),
        );
        let Some(offset) = partner else {
            i += 1;
            continue;
        };
        let j = i + 1 + offset;
        let Restriction::Cmp { value: other, .. } = pushed.remove(j) else {
            unreachable!("partner is a Cmp by construction");
        };
        let Restriction::Cmp { value: own, .. } = pushed[i].clone() else {
            unreachable!("pushed[i] is a Cmp by construction");
        };
        let (lo, hi) = if have_lo { (own, other) } else { (other, own) };
        pushed[i] = Restriction::Between { column, lo, hi };
        i += 1;
    }
}

/// Peel a scan chain (`scan` under any stack of `filter`/`project`) into the
/// scan plus in-worker pipeline steps; give the node back unchanged otherwise.
fn into_pipeline(node: PhysNode) -> Result<(TableScan, Vec<PipelineStep>), Box<PhysNode>> {
    match node {
        PhysNode::Scan(scan) => Ok((scan, Vec::new())),
        PhysNode::Filter { input, predicate } => match into_pipeline(*input) {
            Ok((scan, mut steps)) => {
                steps.push(PipelineStep::Filter(predicate));
                Ok((scan, steps))
            }
            Err(inner) => Err(Box::new(PhysNode::Filter {
                input: inner,
                predicate,
            })),
        },
        PhysNode::Project {
            input,
            exprs,
            types,
        } => match into_pipeline(*input) {
            Ok((scan, mut steps)) => {
                steps.push(PipelineStep::Project { exprs, types });
                Ok((scan, steps))
            }
            Err(inner) => Err(Box::new(PhysNode::Project {
                input: inner,
                exprs,
                types,
            })),
        },
        other => Err(Box::new(other)),
    }
}

// -------------------------------------------------------------------- rendering

fn value_str(value: &Value) -> String {
    match value {
        Value::Null => "null".to_string(),
        Value::Int(v) => format!("{v}"),
        Value::Double(v) => format!("{v:?}"),
        Value::Str(s) => format!("{s:?}"),
    }
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn restriction_label(column: &str, restriction: &Restriction, pushed: bool) -> String {
    let mut label = match restriction {
        Restriction::Cmp { op, value, .. } => {
            format!("{column} {} {}", cmp_symbol(*op), value_str(value))
        }
        Restriction::Between { lo, hi, .. } => {
            format!("{column} between {} and {}", value_str(lo), value_str(hi))
        }
        Restriction::IsNull { .. } => format!("{column} is null"),
        Restriction::IsNotNull { .. } => format!("{column} is not null"),
    };
    if pushed {
        label.push_str(" (pushed)");
    }
    label
}

/// Binding strength for the expression printer (higher binds tighter).
fn precedence(expr: &Expr) -> u8 {
    match expr {
        Expr::Or(..) => 1,
        Expr::And(..) => 2,
        Expr::Cmp(..) => 3,
        Expr::Arith(exec::ArithOp::Add | exec::ArithOp::Sub, ..) => 4,
        Expr::Arith(exec::ArithOp::Mul | exec::ArithOp::Div, ..) => 5,
        _ => 6,
    }
}

fn write_expr(out: &mut String, expr: &Expr, min_prec: u8) {
    let prec = precedence(expr);
    let parens = prec < min_prec;
    if parens {
        out.push('(');
    }
    match expr {
        Expr::Col(idx) => out.push_str(&format!("#{idx}")),
        Expr::Const(value) => out.push_str(&value_str(value)),
        Expr::Arith(op, lhs, rhs) => {
            let symbol = match op {
                exec::ArithOp::Add => " + ",
                exec::ArithOp::Sub => " - ",
                exec::ArithOp::Mul => " * ",
                exec::ArithOp::Div => " / ",
            };
            write_expr(out, lhs, prec);
            out.push_str(symbol);
            write_expr(out, rhs, prec + 1);
        }
        Expr::Cmp(op, lhs, rhs) => {
            write_expr(out, lhs, prec);
            out.push(' ');
            out.push_str(cmp_symbol(*op));
            out.push(' ');
            write_expr(out, rhs, prec + 1);
        }
        Expr::And(lhs, rhs) => {
            write_expr(out, lhs, prec);
            out.push_str(" and ");
            write_expr(out, rhs, prec + 1);
        }
        Expr::Or(lhs, rhs) => {
            write_expr(out, lhs, prec);
            out.push_str(" or ");
            write_expr(out, rhs, prec + 1);
        }
        Expr::Case(cond, then, otherwise) => {
            out.push_str("case(");
            write_expr(out, cond, 0);
            out.push_str(", ");
            write_expr(out, then, 0);
            out.push_str(", ");
            write_expr(out, otherwise, 0);
            out.push(')');
        }
    }
    if parens {
        out.push(')');
    }
}

fn expr_str(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, 0);
    out
}

fn aggregate_label(agg: &AggItem) -> String {
    let func = match agg.func {
        AggFunc::Sum => "sum",
        AggFunc::Count => "count",
        AggFunc::CountStar => "count",
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    };
    let arg = match &agg.expr {
        Some(expr) => expr_str(&expr.to_exec()),
        None => "*".to_string(),
    };
    format!("{func}({arg}):{}", type_name(agg.ty))
}

fn exprs_label(exprs: &[Expr]) -> String {
    exprs.iter().map(expr_str).collect::<Vec<_>>().join(", ")
}

fn scan_label(scan: &TableScan) -> String {
    let mut label = format!(
        "scan {} cols=[{}]",
        scan.relation,
        scan.column_names.join(", ")
    );
    if !scan.restriction_labels.is_empty() {
        label.push_str(&format!(" preds=[{}]", scan.restriction_labels.join(", ")));
    }
    label
}

fn step_label(step: &PipelineStep) -> String {
    match step {
        PipelineStep::Filter(predicate) => format!("filter {}", expr_str(predicate)),
        PipelineStep::Project { exprs, types } => {
            let cols: Vec<String> = exprs
                .iter()
                .zip(types)
                .map(|(e, t)| format!("{}:{}", expr_str(e), type_name(*t)))
                .collect();
            format!("project [{}]", cols.join(", "))
        }
    }
}

struct DisplayNode {
    label: String,
    children: Vec<DisplayNode>,
}

fn display_tree(node: &PhysNode) -> DisplayNode {
    match node {
        PhysNode::Scan(scan) => DisplayNode {
            label: scan_label(scan),
            children: Vec::new(),
        },
        PhysNode::Filter { input, predicate } => DisplayNode {
            label: format!("filter {}", expr_str(predicate)),
            children: vec![display_tree(input)],
        },
        PhysNode::Project {
            input,
            exprs,
            types,
        } => DisplayNode {
            label: step_label(&PipelineStep::Project {
                exprs: exprs.clone(),
                types: types.clone(),
            }),
            children: vec![display_tree(input)],
        },
        PhysNode::HashAggregate {
            input,
            groups,
            agg_labels,
            ..
        } => DisplayNode {
            label: format!(
                "hash-aggregate groups=[{}] aggs=[{}]",
                exprs_label(groups),
                agg_labels.join(", ")
            ),
            children: vec![display_tree(input)],
        },
        PhysNode::MorselAggregate {
            scan,
            steps,
            groups,
            agg_labels,
            ..
        } => {
            let mut chain = DisplayNode {
                label: scan_label(scan),
                children: Vec::new(),
            };
            for step in steps {
                chain = DisplayNode {
                    label: step_label(step),
                    children: vec![chain],
                };
            }
            DisplayNode {
                label: format!(
                    "morsel-aggregate groups=[{}] aggs=[{}]",
                    exprs_label(groups),
                    agg_labels.join(", ")
                ),
                children: vec![chain],
            }
        }
        PhysNode::HashJoin {
            join_type,
            build,
            probe,
            build_keys,
            probe_keys,
            hash_probe,
        } => {
            let kind = match join_type {
                JoinType::Inner => "inner",
                JoinType::ProbeSemi => "semi",
            };
            let mut label =
                format!("hash-join {kind} build_keys={build_keys:?} probe_keys={probe_keys:?}");
            if *hash_probe {
                label.push_str(" builds_on=probe");
            }
            let mut build_child = display_tree(build);
            build_child.label = format!("build: {}", build_child.label);
            let mut probe_child = display_tree(probe);
            probe_child.label = format!("probe: {}", probe_child.label);
            DisplayNode {
                label,
                children: vec![build_child, probe_child],
            }
        }
        PhysNode::Sort { input, keys, limit } => {
            let key_labels: Vec<String> = keys
                .iter()
                .map(|k| {
                    format!(
                        "#{} {}",
                        k.column,
                        if k.descending { "desc" } else { "asc" }
                    )
                })
                .collect();
            let mut label = format!("sort keys=[{}]", key_labels.join(", "));
            if let Some(limit) = limit {
                label.push_str(&format!(" limit={limit}"));
            }
            DisplayNode {
                label,
                children: vec![display_tree(input)],
            }
        }
    }
}

fn write_children(f: &mut fmt::Formatter<'_>, node: &DisplayNode, prefix: &str) -> fmt::Result {
    for (i, child) in node.children.iter().enumerate() {
        let last = i + 1 == node.children.len();
        writeln!(
            f,
            "{prefix}{}{}",
            if last { "└─ " } else { "├─ " },
            child.label
        )?;
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        write_children(f, child, &child_prefix)?;
    }
    Ok(())
}

impl fmt::Display for PhysicalPlan {
    /// Renders the plan as a header line (the [`ScanConfig`] it executes with) and
    /// an indented tree — the format the `plan_dump` golden files pin in CI. The
    /// tree is a function of the IR alone; the thread count appears in the header
    /// only (`threads=0` resolves to the hardware at execution time).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.config.mode {
            ScanMode::Jit => "jit",
            ScanMode::Vectorized { sarg: true } => "vectorized+sarg",
            ScanMode::Vectorized { sarg: false } => "vectorized",
        };
        writeln!(
            f,
            "physical plan (threads={}, mode={mode}, psma={})",
            self.config.threads, self.config.options.use_psma
        )?;
        let tree = display_tree(&self.root);
        writeln!(f, "{}", tree.label)?;
        write_children(f, &tree, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_ir;
    use crate::IrErrorKind;
    use storage::{ColumnDef, Relation, Schema};

    fn tiny_db() -> Database {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("qty", DataType::Int),
            ColumnDef::new("price", DataType::Int),
            ColumnDef::new("tag", DataType::Str),
        ]);
        let mut rel = Relation::with_chunk_capacity("t", schema, 512);
        for i in 0..2_000i64 {
            rel.insert(vec![
                Value::Int(i),
                Value::Int(i % 50),
                Value::Int(100 + i % 900),
                Value::Str(if i % 3 == 0 { "A" } else { "B" }.to_string()),
            ]);
        }
        rel.freeze_all();
        let mut db = Database::new();
        db.add_relation(rel);
        db
    }

    fn plan_text(db: &Database, config: ScanConfig, text: &str) -> PhysicalPlan {
        let ir = parse_ir(text).unwrap();
        Planner::new(db, config).plan(&ir).unwrap()
    }

    const COUNT_WHERE: &str = r#"{
      "version": 1,
      "plan": {
        "op": "aggregate",
        "input": {
          "op": "filter",
          "input": {"op": "scan", "relation": "t", "columns": ["qty", "price"]},
          "predicate": {"and": [
            {"ge": [{"col": 0}, {"int": 10}]},
            {"le": [{"col": 0}, {"int": 19}]},
            {"ne": [{"col": 1}, {"col": 0}]}
          ]}
        },
        "groups": [],
        "aggregates": [{"func": "count_star", "type": "int"}]
      }
    }"#;

    #[test]
    fn pushdown_merges_range_pairs_and_keeps_residual() {
        let db = tiny_db();
        let plan = plan_text(&db, ScanConfig::default(), COUNT_WHERE);
        let rendered = plan.to_string();
        assert!(
            rendered.contains("qty between 10 and 19 (pushed)"),
            "{rendered}"
        );
        assert!(rendered.contains("filter #1 != #0"), "{rendered}");
        // 2000 rows, qty = i % 50: ids with qty in 10..=19 → 10 per 50 → 400 rows;
        // minus rows where price == qty (price >= 100 > 49, never) → 400.
        let batch = plan.execute(&db);
        assert_eq!(batch.value(0, 0), Value::Int(400));
    }

    #[test]
    fn identity_projection_is_elided() {
        let db = tiny_db();
        let plan_sql = |text: &str| {
            let ir = crate::parse_sql(&db, text).unwrap();
            Planner::new(&db, ScanConfig::default()).plan(&ir).unwrap()
        };
        // the shape of bench_layers' fetch: the scan already yields the select list
        let fetch = plan_sql("SELECT id, qty, price FROM t WHERE qty BETWEEN 10 AND 14");
        let text = fetch.to_string();
        let tree = text.split_once('\n').expect("header line, then the tree").1;
        assert_eq!(
            tree, "scan t cols=[id, qty, price] preds=[qty between 10 and 14]\n",
            "{text}"
        );
        assert_eq!(fetch.output_types(), [DataType::Int; 3]);
        assert_eq!(fetch.execute(&db).len(), 200);
        // a permutation and a repetition are real projections
        for (exprs, head) in [
            ("[1, 0]", "project [#1:int, #0:int]"),
            ("[0, 0]", "project [#0:int, #0:int]"),
            ("[0]", "project [#0:int]"),
        ] {
            let exprs: Vec<String> = (exprs.trim_matches(['[', ']']).split(", "))
                .map(|col| format!(r#"{{"expr": {{"col": {col}}}, "type": "int"}}"#))
                .collect();
            let plan = plan_text(
                &db,
                ScanConfig::default(),
                &format!(
                    r#"{{"version": 1, "plan": {{
                        "op": "project",
                        "input": {{"op": "scan", "relation": "t", "columns": ["qty", "id"]}},
                        "exprs": [{}]
                    }}}}"#,
                    exprs.join(", ")
                ),
            );
            let text = plan.to_string();
            assert!(text.contains(head), "{text}");
            let batch = plan.execute(&db);
            assert_eq!(batch.len(), 2_000, "{head}");
            let last = batch.column_count() - 1;
            assert_eq!(
                batch.value(57, last),
                Value::Int(7),
                "{head}: qty of row 57"
            );
        }
    }

    #[test]
    fn plan_shape_is_independent_of_thread_count() {
        let db = tiny_db();
        let render = |threads: usize| {
            let plan = plan_text(
                &db,
                ScanConfig::default().with_threads(threads),
                COUNT_WHERE,
            );
            let text = plan.to_string();
            let (header, tree) = text.split_once('\n').expect("header line, then the tree");
            assert!(header.contains(&format!("threads={threads},")), "{header}");
            (plan, tree.to_string())
        };
        let (serial, tree) = render(1);
        assert!(tree.starts_with("morsel-aggregate groups=[]"), "{tree}");
        for threads in [2usize, 4, 0] {
            assert_eq!(render(threads).1, tree, "threads {threads}");
        }
        let (parallel, _) = render(4);
        let (one, four) = (serial.execute(&db), parallel.execute(&db));
        assert_eq!(one.len(), four.len());
        for row in 0..one.len() {
            assert_eq!(one.row(row), four.row(row), "row {row}");
        }
    }

    #[test]
    fn unknown_relation_and_column_are_semantic_errors() {
        let db = tiny_db();
        let planner = Planner::new(&db, ScanConfig::default());
        let ir = parse_ir(
            r#"{"version": 1, "plan": {"op": "scan", "relation": "nope", "columns": ["x"]}}"#,
        )
        .unwrap();
        let err = planner.plan(&ir).unwrap_err();
        assert_eq!(err.kind, IrErrorKind::Semantic);
        assert!(err.message.contains("unknown relation \"nope\""), "{err}");

        let ir = parse_ir(
            r#"{"version": 1, "plan": {"op": "scan", "relation": "t", "columns": ["zz"]}}"#,
        )
        .unwrap();
        let err = planner.plan(&ir).unwrap_err();
        assert!(err.message.contains("has no column \"zz\""), "{err}");
    }

    #[test]
    fn declared_type_mismatch_is_a_semantic_error() {
        let db = tiny_db();
        let ir = parse_ir(
            r#"{"version": 1, "plan": {
                "op": "project",
                "input": {"op": "scan", "relation": "t", "columns": ["qty"]},
                "exprs": [{"expr": {"add": [{"col": 0}, {"int": 1}]}, "type": "double"}]
            }}"#,
        )
        .unwrap();
        let err = Planner::new(&db, ScanConfig::default())
            .plan(&ir)
            .unwrap_err();
        assert_eq!(err.kind, IrErrorKind::Semantic);
        assert!(
            err.message.contains("declares type double") && err.message.contains("type int"),
            "{err}"
        );
    }

    #[test]
    fn string_int_comparison_is_rejected() {
        let db = tiny_db();
        let ir = parse_ir(
            r#"{"version": 1, "plan": {
                "op": "filter",
                "input": {"op": "scan", "relation": "t", "columns": ["tag"]},
                "predicate": {"eq": [{"col": 0}, {"int": 3}]}
            }}"#,
        )
        .unwrap();
        let err = Planner::new(&db, ScanConfig::default())
            .plan(&ir)
            .unwrap_err();
        assert!(err.message.contains("cannot compare str with int"), "{err}");
    }

    #[test]
    fn mistyped_scan_predicate_literal_is_rejected() {
        let db = tiny_db();
        let ir = parse_ir(
            r#"{"version": 1, "plan": {"op": "scan", "relation": "t", "columns": ["qty"],
                "predicates": [{"column": "qty", "cmp": "le", "value": {"str": "9"}}]}}"#,
        )
        .unwrap();
        let err = Planner::new(&db, ScanConfig::default())
            .plan(&ir)
            .unwrap_err();
        assert!(
            err.message
                .contains("compares a int column with a str literal"),
            "{err}"
        );
    }

    #[test]
    fn typed_string_predicates_stay_sargable() {
        let db = tiny_db();
        let plan = plan_text(
            &db,
            ScanConfig::default(),
            r#"{"version": 1, "plan": {
                "op": "aggregate",
                "input": {
                  "op": "filter",
                  "input": {"op": "scan", "relation": "t", "columns": ["tag", "qty"]},
                  "predicate": {"eq": [{"col": 0}, {"str": "A"}]}
                },
                "groups": [],
                "aggregates": [{"func": "count_star", "type": "int"}]
            }}"#,
        );
        let rendered = plan.to_string();
        assert!(rendered.contains("tag = \"A\" (pushed)"), "{rendered}");
        assert!(!rendered.contains("filter"), "{rendered}");
        let batch = plan.execute(&db);
        // i % 3 == 0 for 667 of 0..2000
        assert_eq!(batch.value(0, 0), Value::Int(667));
    }

    #[test]
    fn join_key_type_mismatch_is_rejected() {
        let db = tiny_db();
        let ir = parse_ir(
            r#"{"version": 1, "plan": {
                "op": "join", "type": "inner",
                "build": {"op": "scan", "relation": "t", "columns": ["id"]},
                "probe": {"op": "scan", "relation": "t", "columns": ["tag"]},
                "build_keys": [0], "probe_keys": [0]
            }}"#,
        )
        .unwrap();
        let err = Planner::new(&db, ScanConfig::default())
            .plan(&ir)
            .unwrap_err();
        assert!(err.message.contains("join key type mismatch"), "{err}");
    }

    #[test]
    fn display_is_stable_and_tree_shaped() {
        let db = tiny_db();
        let plan = plan_text(&db, ScanConfig::default().with_threads(2), COUNT_WHERE);
        let expected = "\
physical plan (threads=2, mode=vectorized+sarg, psma=true)
morsel-aggregate groups=[] aggs=[count(*):int]
└─ filter #1 != #0
   └─ scan t cols=[qty, price] preds=[qty between 10 and 19 (pushed)]
";
        assert_eq!(plan.to_string(), expected);
    }
}
