//! Seeded generation of catalogs, adversarial data, and well-typed IR plans.
//!
//! Everything derives from one xorshift64* stream (the `FaultInjector` PRNG,
//! no external deps), so a seed fully determines the case. Plans are
//! constructed to be *well-typed by the planner's rules* — a planner rejection
//! of a generated plan is itself a finding. Two engine-level hazards are
//! designed out rather than tolerated, because they are contracts the engine
//! genuinely does not offer:
//!
//! * **Floating-point reassociation.** Parallel double sums/averages may
//!   reassociate, so their outputs are only equal up to a relative tolerance.
//!   The generator tracks this as an `fp` taint per column and only lets
//!   tainted columns flow into tolerance-compatible positions: bare projection,
//!   join/sort *payload* (never keys), and count/min/max aggregation.
//!   Squaring double sum/avg inputs (`x*x`) keeps every term non-negative, so
//!   reassociated partial sums cannot cancel catastrophically and the 1e-9
//!   relative comparison stays meaningful.
//! * **Signed-zero keys.** Group/join key identity hashes double bit patterns
//!   (`-0.0 != 0.0` as a key) while `==` says they are equal. Base data never
//!   contains `-0.0`, and any double expression that could produce one
//!   (multiplication, division, or anything built atop them) is tracked as
//!   `nz` and kept out of key position. Comparisons and sort orders over `nz`
//!   doubles are fine — both sides use the same total order.
//!
//! Integer arithmetic is unchecked in the engine (overflow panics in debug
//! builds), so the generator tracks a saturating magnitude bound per
//! expression/column and refuses to build an expression — or an integer
//! `sum`/`avg` — whose bound exceeds [`INT_LIMIT`].

use datablocks::{DataType, Value};
use dbsimd::CmpOp;
use exec::ops::{AggFunc, JoinType, SortKey};
use exec::ArithOp;

use crate::ir::{
    AggItem, ExprKind, IrExpr, Node, PredicateKind, QueryIr, ScanPredicate, TypedExpr,
};
use crate::json::Pos;
use crate::IR_VERSION;

use super::{Catalog, ColumnSpec, FuzzCase, RelationData};

/// Generated nodes carry no source text, so every position is the origin.
const P0: Pos = Pos { line: 0, col: 0 };

/// Magnitude ceiling for integer expressions: large enough to keep boundary
/// constants interesting, small enough that sums over a few hundred rows and
/// one further addition stay far from `i64::MAX`.
const INT_LIMIT: i64 = 1 << 45;

/// Cap on the estimated row count of a join output (all-duplicate keys make
/// the worst case the full cross product).
const JOIN_ROWS_LIMIT: u64 = 60_000;

/// Integer constants around storage/compression boundaries (byte widths,
/// truncation offsets) plus small values that collide with generated data.
const INT_BOUNDARY: &[i64] = &[
    0,
    1,
    -1,
    2,
    3,
    255,
    256,
    65_535,
    65_536,
    -65_536,
    (1 << 31) - 1,
    1 << 31,
    -(1 << 31),
    1 << 40,
];

/// Double constants: exact binary fractions and round decimals, **never**
/// `-0.0`, NaN, or infinities (see the module docs on signed-zero keys; NaN
/// and infinities are unrepresentable in the IR's JSON anyway).
const DOUBLES: &[f64] = &[
    0.0, 1.0, -1.0, 0.5, -2.5, 3.25, 100.0, -1000.5, 1e6, -1e6, 0.125,
];

/// String constants: empty (falsy!), shared prefixes, non-ASCII, digit-looking.
const STRINGS: &[&str] = &["", "a", "b", "abc", "zzz", "héllo", "0", "aa"];

/// xorshift64* — the same generator the storage fault injector uses; good
/// enough mixing for fuzzing, fully deterministic, no dependencies.
pub(crate) struct Rng {
    state: u64,
}

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        // Zero is a fixed point of xorshift, and consecutive small seeds start
        // in similar states — force odd and warm up two steps to decorrelate.
        let mut rng = Rng { state: seed | 1 };
        rng.next_u64();
        rng.next_u64();
        rng
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub(crate) fn usize_below(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// True with probability `num/den`.
    pub(crate) fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    pub(crate) fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_below(items.len())]
    }
}

/// What the generator knows about one column of a node's output.
#[derive(Clone)]
struct ColInfo {
    ty: DataType,
    /// Value may differ between regimes up to the reassociation tolerance
    /// (parallel double sum/avg output, or min/max over such).
    fp: bool,
    /// Double value may be `-0.0` (unsafe as a group/join key).
    nz: bool,
    /// Magnitude bound for integer values (≥ 1).
    bound: i64,
}

/// A node plus everything needed to keep building well-typed operators on top.
struct Typed {
    node: Node,
    cols: Vec<ColInfo>,
    /// Upper bound on the number of rows this node can produce.
    rows: u64,
}

/// What the generator knows about a scalar expression it just built.
struct ExprInfo {
    nz: bool,
    bound: i64,
}

impl ExprInfo {
    fn int(bound: i64) -> ExprInfo {
        ExprInfo { nz: false, bound }
    }
}

/// Generate the full case for a seed: catalog, data, and a well-typed plan.
pub fn generate_case(seed: u64) -> FuzzCase {
    let mut rng = Rng::new(seed);
    let catalog = gen_catalog(&mut rng);
    let ir = QueryIr {
        version: IR_VERSION,
        root: gen_plan(&mut rng, &catalog),
    };
    FuzzCase { seed, catalog, ir }
}

// ----------------------------------------------------------------- catalog

fn gen_catalog(rng: &mut Rng) -> Catalog {
    let relation_count = 1 + rng.usize_below(3);
    let mut relations = Vec::with_capacity(relation_count);
    for r in 0..relation_count {
        relations.push(gen_relation(rng, &format!("r{r}")));
    }
    Catalog { relations }
}

fn gen_relation(rng: &mut Rng, name: &str) -> RelationData {
    let column_count = 1 + rng.usize_below(5);
    let columns: Vec<ColumnSpec> = (0..column_count)
        .map(|c| ColumnSpec {
            name: format!("c{c}"),
            ty: match rng.below(4) {
                0 => DataType::Double,
                1 => DataType::Str,
                _ => DataType::Int,
            },
            nullable: rng.chance(1, 2),
        })
        .collect();

    // Row-count shapes: empty and single-row relations are common on purpose
    // (degenerate build sides, zero-row aggregates), with an occasional larger
    // relation so morsel parallelism and block boundaries actually trigger.
    let row_count = match rng.below(8) {
        0 => 0,
        1 => 1,
        2..=4 => 2 + rng.usize_below(9),
        _ => 40 + rng.usize_below(161),
    };

    // Per-column data profiles: all-NULL columns, NULL sprinkles, a "hot"
    // value repeated in ~90% of rows (duplicate keys / skew for joins and
    // group-by), otherwise draws from the adversarial pools.
    struct Profile {
        all_null: bool,
        null_in_8: u64,
        hot: Option<Value>,
    }
    let profiles: Vec<Profile> = columns
        .iter()
        .map(|col| {
            let all_null = col.nullable && rng.chance(1, 8);
            let null_in_8 = if col.nullable { 1 + rng.below(3) } else { 0 };
            let hot = rng.chance(1, 3).then(|| gen_value(rng, col.ty));
            Profile {
                all_null,
                null_in_8,
                hot,
            }
        })
        .collect();

    let rows: Vec<Vec<Value>> = (0..row_count)
        .map(|_| {
            columns
                .iter()
                .zip(&profiles)
                .map(|(col, profile)| {
                    if profile.all_null || rng.below(8) < profile.null_in_8 {
                        Value::Null
                    } else if let Some(hot) = &profile.hot {
                        if rng.chance(9, 10) {
                            hot.clone()
                        } else {
                            gen_value(rng, col.ty)
                        }
                    } else {
                        gen_value(rng, col.ty)
                    }
                })
                .collect()
        })
        .collect();

    RelationData {
        name: name.to_string(),
        chunk_capacity: *rng.pick(&[8usize, 32, 256]),
        freeze: rng.chance(5, 6),
        columns,
        rows,
    }
}

fn gen_value(rng: &mut Rng, ty: DataType) -> Value {
    match ty {
        DataType::Int => {
            if rng.chance(1, 2) {
                Value::Int(rng.below(10) as i64)
            } else {
                Value::Int(*rng.pick(INT_BOUNDARY))
            }
        }
        DataType::Double => Value::Double(*rng.pick(DOUBLES)),
        DataType::Str => Value::Str(rng.pick(STRINGS).to_string()),
    }
}

// -------------------------------------------------------------------- plan

fn gen_plan(rng: &mut Rng, catalog: &Catalog) -> Node {
    let depth = 1 + rng.below(4) as u32;
    gen_node(rng, catalog, depth).node
}

fn gen_node(rng: &mut Rng, catalog: &Catalog, depth: u32) -> Typed {
    if depth == 0 {
        return gen_scan(rng, catalog);
    }
    match rng.below(12) {
        0..=2 => gen_filter(rng, catalog, depth),
        3..=5 => gen_project(rng, catalog, depth),
        6..=7 => gen_aggregate(rng, catalog, depth),
        8..=9 => gen_join(rng, catalog, depth),
        _ => gen_sort(rng, catalog, depth),
    }
}

fn gen_scan(rng: &mut Rng, catalog: &Catalog) -> Typed {
    let rel = rng.pick(&catalog.relations).clone();

    // Magnitude bound per base column, from the actual data.
    let bounds: Vec<i64> = (0..rel.columns.len())
        .map(|c| {
            rel.rows
                .iter()
                .filter_map(|row| match &row[c] {
                    Value::Int(v) => Some(v.saturating_abs()),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
                .max(1)
        })
        .collect();

    // Projection: 1..=n columns, duplicates allowed (a column scanned twice
    // must agree with itself).
    let out_count = 1 + rng.usize_below(rel.columns.len());
    let mut columns = Vec::with_capacity(out_count);
    let mut cols = Vec::with_capacity(out_count);
    for _ in 0..out_count {
        let c = rng.usize_below(rel.columns.len());
        columns.push(rel.columns[c].name.clone());
        cols.push(ColInfo {
            ty: rel.columns[c].ty,
            fp: false,
            nz: false,
            bound: bounds[c],
        });
    }

    // SARGable predicates over any schema column (projected or not); literal
    // types must exactly match the column type.
    let mut predicates = Vec::new();
    for _ in 0..rng.below(3) {
        let c = rng.usize_below(rel.columns.len());
        let ty = rel.columns[c].ty;
        let kind = match rng.below(8) {
            0..=3 => PredicateKind::Cmp(gen_cmp_op(rng), gen_value(rng, ty)),
            4..=5 => PredicateKind::Between(gen_value(rng, ty), gen_value(rng, ty)),
            6 => PredicateKind::IsNull,
            _ => PredicateKind::IsNotNull,
        };
        predicates.push(ScanPredicate {
            pos: P0,
            column: rel.columns[c].name.clone(),
            kind,
        });
    }

    Typed {
        node: Node::Scan {
            pos: P0,
            relation: rel.name.clone(),
            columns,
            predicates,
        },
        cols,
        rows: rel.rows.len() as u64,
    }
}

fn gen_cmp_op(rng: &mut Rng) -> CmpOp {
    *rng.pick(&[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

fn gen_filter(rng: &mut Rng, catalog: &Catalog, depth: u32) -> Typed {
    let input = gen_node(rng, catalog, depth - 1);

    // Directly over a scan, favour conjunctions of sargable comparisons so the
    // planner's push-down and range-merging paths get differential coverage.
    let sargable_input = matches!(input.node, Node::Scan { .. });
    let predicate = if sargable_input && rng.chance(1, 2) {
        let mut conjuncts = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let conjunct = if rng.chance(3, 4) {
                let c = rng.usize_below(input.cols.len());
                let lit = IrExpr {
                    pos: P0,
                    kind: ExprKind::Lit(gen_value(rng, input.cols[c].ty)),
                };
                let col = IrExpr {
                    pos: P0,
                    kind: ExprKind::Col(c),
                };
                let op = gen_cmp_op(rng);
                // Literal-first operand order exercises the planner's flip.
                let (l, r) = if rng.chance(1, 4) {
                    (lit, col)
                } else {
                    (col, lit)
                };
                IrExpr {
                    pos: P0,
                    kind: ExprKind::Cmp(op, Box::new(l), Box::new(r)),
                }
            } else {
                gen_expr(rng, &input.cols, DataType::Int, 2).0
            };
            conjuncts.push(conjunct);
        }
        conjuncts
            .into_iter()
            .reduce(|acc, next| IrExpr {
                pos: P0,
                kind: ExprKind::And(Box::new(acc), Box::new(next)),
            })
            .expect("at least one conjunct")
    } else {
        let depth = 2 + rng.below(2) as u32;
        gen_expr(rng, &input.cols, DataType::Int, depth).0
    };

    Typed {
        node: Node::Filter {
            pos: P0,
            input: Box::new(input.node),
            predicate,
        },
        cols: input.cols,
        rows: input.rows,
    }
}

fn gen_project(rng: &mut Rng, catalog: &Catalog, depth: u32) -> Typed {
    let input = gen_node(rng, catalog, depth - 1);
    let expr_count = 1 + rng.usize_below(4);
    let mut exprs = Vec::with_capacity(expr_count);
    let mut cols = Vec::with_capacity(expr_count);
    for _ in 0..expr_count {
        if rng.chance(1, 3) {
            // Bare pass-through — the only projection shape fp-tainted columns
            // may flow through.
            let c = rng.usize_below(input.cols.len());
            exprs.push(TypedExpr {
                expr: IrExpr {
                    pos: P0,
                    kind: ExprKind::Col(c),
                },
                ty: input.cols[c].ty,
            });
            cols.push(input.cols[c].clone());
        } else {
            let want = *rng.pick(&[
                DataType::Int,
                DataType::Int,
                DataType::Double,
                DataType::Str,
            ]);
            let depth = 2 + rng.below(2) as u32;
            let (expr, info) = gen_expr(rng, &input.cols, want, depth);
            exprs.push(TypedExpr { expr, ty: want });
            cols.push(ColInfo {
                ty: want,
                fp: false,
                nz: info.nz,
                bound: info.bound,
            });
        }
    }
    Typed {
        node: Node::Project {
            pos: P0,
            input: Box::new(input.node),
            exprs,
        },
        cols,
        rows: input.rows,
    }
}

fn gen_aggregate(rng: &mut Rng, catalog: &Catalog, depth: u32) -> Typed {
    // An aggregate reading a join of two scan chains is the one place the
    // planner may turn a join around (it hashes the side its block metadata
    // estimates smaller), so draw that shape on purpose.
    let input = if depth >= 2 && rng.chance(1, 2) {
        gen_join(rng, catalog, 1)
    } else {
        gen_node(rng, catalog, depth - 1)
    };
    let in_rows = input.rows.max(1);

    let mut groups = Vec::new();
    let mut cols = Vec::new();
    for _ in 0..rng.below(3) {
        // Group keys must be hashable without regime-dependence: never
        // fp-tainted (gen_expr already refuses fp columns) and, for doubles,
        // never able to produce -0.0 — so double keys are restricted to clean
        // column references and literals.
        let (expr, ty, bound) = match rng.below(3) {
            0 => {
                let (e, info) = gen_expr(rng, &input.cols, DataType::Int, 2);
                (e, DataType::Int, info.bound)
            }
            1 => {
                let (e, _) = gen_expr(rng, &input.cols, DataType::Str, 2);
                (e, DataType::Str, 1)
            }
            _ => {
                let clean: Vec<usize> = (0..input.cols.len())
                    .filter(|&c| {
                        input.cols[c].ty == DataType::Double
                            && !input.cols[c].fp
                            && !input.cols[c].nz
                    })
                    .collect();
                let e = if !clean.is_empty() && rng.chance(3, 4) {
                    IrExpr {
                        pos: P0,
                        kind: ExprKind::Col(*rng.pick(&clean)),
                    }
                } else {
                    IrExpr {
                        pos: P0,
                        kind: ExprKind::Lit(Value::Double(*rng.pick(DOUBLES))),
                    }
                };
                (e, DataType::Double, 1)
            }
        };
        groups.push(TypedExpr { expr, ty });
        cols.push(ColInfo {
            ty,
            fp: false,
            nz: false,
            bound,
        });
    }

    let fp_cols: Vec<usize> = (0..input.cols.len())
        .filter(|&c| input.cols[c].fp)
        .collect();
    let mut aggregates = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let (item, info) = gen_aggregate_item(rng, &input.cols, &fp_cols, in_rows);
        cols.push(info);
        aggregates.push(item);
    }

    let rows = if groups.is_empty() { 1 } else { input.rows };
    Typed {
        node: Node::Aggregate {
            pos: P0,
            input: Box::new(input.node),
            groups,
            aggregates,
        },
        cols,
        rows,
    }
}

fn gen_aggregate_item(
    rng: &mut Rng,
    cols: &[ColInfo],
    fp_cols: &[usize],
    in_rows: u64,
) -> (AggItem, ColInfo) {
    let count_item = |func: AggFunc, expr: Option<IrExpr>, rows: u64| {
        (
            AggItem {
                pos: P0,
                func,
                expr,
                ty: DataType::Int,
            },
            ColInfo {
                ty: DataType::Int,
                fp: false,
                nz: false,
                bound: rows.max(1) as i64,
            },
        )
    };
    match rng.below(10) {
        0..=1 => count_item(AggFunc::CountStar, None, in_rows),
        2..=3 => {
            // `count` accepts any expression — including a bare fp-tainted
            // column, whose NULL-ness is regime-independent.
            let expr = if !fp_cols.is_empty() && rng.chance(1, 2) {
                IrExpr {
                    pos: P0,
                    kind: ExprKind::Col(*rng.pick(fp_cols)),
                }
            } else {
                let want = *rng.pick(&[DataType::Int, DataType::Double, DataType::Str]);
                gen_expr(rng, cols, want, 2).0
            };
            count_item(AggFunc::Count, Some(expr), in_rows)
        }
        4..=6 => {
            if rng.chance(1, 2) {
                // Integer sum: exact in every regime, but the accumulator is
                // unchecked — require bound × rows to stay under the limit,
                // else degrade to a count.
                let (expr, info) = gen_expr(rng, cols, DataType::Int, 2);
                let total = info.bound.saturating_mul(in_rows as i64);
                if total > INT_LIMIT {
                    return count_item(AggFunc::Count, Some(expr), in_rows);
                }
                (
                    AggItem {
                        pos: P0,
                        func: AggFunc::Sum,
                        expr: Some(expr),
                        ty: DataType::Int,
                    },
                    ColInfo {
                        ty: DataType::Int,
                        fp: false,
                        nz: false,
                        bound: total,
                    },
                )
            } else {
                // Double sum reassociates under parallel execution: square the
                // term so partial sums are monotone (no cancellation), and
                // taint the output column as fp.
                let (expr, _) = gen_expr(rng, cols, DataType::Double, 2);
                let squared = IrExpr {
                    pos: P0,
                    kind: ExprKind::Arith(ArithOp::Mul, Box::new(expr.clone()), Box::new(expr)),
                };
                (
                    AggItem {
                        pos: P0,
                        func: AggFunc::Sum,
                        expr: Some(squared),
                        ty: DataType::Double,
                    },
                    ColInfo {
                        ty: DataType::Double,
                        fp: true,
                        nz: false,
                        bound: 1,
                    },
                )
            }
        }
        7 => {
            if rng.chance(1, 2) {
                // Integer avg: integer sum (exact) + one division — regime
                // independent, but the sum still needs the overflow bound.
                let (expr, info) = gen_expr(rng, cols, DataType::Int, 2);
                if info.bound.saturating_mul(in_rows as i64) > INT_LIMIT {
                    return count_item(AggFunc::Count, Some(expr), in_rows);
                }
                (
                    AggItem {
                        pos: P0,
                        func: AggFunc::Avg,
                        expr: Some(expr),
                        ty: DataType::Double,
                    },
                    ColInfo {
                        ty: DataType::Double,
                        fp: false,
                        nz: false,
                        bound: 1,
                    },
                )
            } else {
                let (expr, _) = gen_expr(rng, cols, DataType::Double, 2);
                let squared = IrExpr {
                    pos: P0,
                    kind: ExprKind::Arith(ArithOp::Mul, Box::new(expr.clone()), Box::new(expr)),
                };
                (
                    AggItem {
                        pos: P0,
                        func: AggFunc::Avg,
                        expr: Some(squared),
                        ty: DataType::Double,
                    },
                    ColInfo {
                        ty: DataType::Double,
                        fp: true,
                        nz: false,
                        bound: 1,
                    },
                )
            }
        }
        _ => {
            let func = if rng.chance(1, 2) {
                AggFunc::Min
            } else {
                AggFunc::Max
            };
            // min/max select an element rather than combine values, so they
            // tolerate fp-tainted inputs (the selected value carries the
            // taint through).
            if !fp_cols.is_empty() && rng.chance(1, 2) {
                let c = *rng.pick(fp_cols);
                (
                    AggItem {
                        pos: P0,
                        func,
                        expr: Some(IrExpr {
                            pos: P0,
                            kind: ExprKind::Col(c),
                        }),
                        ty: cols[c].ty,
                    },
                    ColInfo {
                        ty: cols[c].ty,
                        fp: true,
                        nz: false,
                        bound: cols[c].bound,
                    },
                )
            } else {
                let want = *rng.pick(&[
                    DataType::Int,
                    DataType::Int,
                    DataType::Double,
                    DataType::Str,
                ]);
                let (expr, info) = gen_expr(rng, cols, want, 2);
                (
                    AggItem {
                        pos: P0,
                        func,
                        expr: Some(expr),
                        ty: want,
                    },
                    ColInfo {
                        ty: want,
                        fp: false,
                        nz: info.nz,
                        bound: info.bound,
                    },
                )
            }
        }
    }
}

fn gen_join(rng: &mut Rng, catalog: &Catalog, depth: u32) -> Typed {
    let build = gen_node(rng, catalog, depth - 1);
    let probe = gen_node(rng, catalog, depth - 1);

    // Worst case (all-duplicate keys) the inner join emits the cross product.
    if build.rows.saturating_mul(probe.rows) > JOIN_ROWS_LIMIT {
        return build;
    }

    // Key pairs: same declared type on both sides, neither side fp-tainted,
    // and double keys must be provably signed-zero-free (see module docs).
    let candidates: Vec<(usize, usize)> = (0..build.cols.len())
        .flat_map(|i| (0..probe.cols.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| {
            let (b, p) = (&build.cols[i], &probe.cols[j]);
            b.ty == p.ty && !b.fp && !p.fp && !(b.ty == DataType::Double && (b.nz || p.nz))
        })
        .collect();
    if candidates.is_empty() {
        return build;
    }

    let mut build_keys = Vec::new();
    let mut probe_keys = Vec::new();
    for _ in 0..1 + rng.below(2) {
        let &(i, j) = rng.pick(&candidates);
        if !build_keys.contains(&i) && !probe_keys.contains(&j) {
            build_keys.push(i);
            probe_keys.push(j);
        }
    }

    let join_type = if rng.chance(2, 3) {
        JoinType::Inner
    } else {
        JoinType::ProbeSemi
    };
    let cols = match join_type {
        JoinType::Inner => build.cols.iter().chain(&probe.cols).cloned().collect(),
        JoinType::ProbeSemi => probe.cols.clone(),
    };
    let rows = match join_type {
        JoinType::Inner => build.rows.saturating_mul(probe.rows),
        JoinType::ProbeSemi => probe.rows,
    };
    // The draw that chose a join's early-probe flag before every join filtered:
    // kept, so that every seed still generates the case it always has.
    let _ = rng.chance(1, 3);

    Typed {
        node: Node::Join {
            pos: P0,
            join_type,
            build: Box::new(build.node),
            probe: Box::new(probe.node),
            build_keys,
            probe_keys,
        },
        cols,
        rows,
    }
}

fn gen_sort(rng: &mut Rng, catalog: &Catalog, depth: u32) -> Typed {
    let input = gen_node(rng, catalog, depth - 1);

    // Sorting BY an fp-tainted column could order rows differently per regime
    // when two values sit within tolerance of each other; fp columns ride
    // along as payload only. `nz` doubles are fine — total_cmp is total.
    let sortable: Vec<usize> = (0..input.cols.len())
        .filter(|&c| !input.cols[c].fp)
        .collect();
    if sortable.is_empty() {
        return input;
    }

    let key_count = 1 + rng.usize_below(sortable.len().min(3));
    let mut keys = Vec::new();
    for _ in 0..key_count {
        let column = *rng.pick(&sortable);
        if keys.iter().any(|k: &SortKey| k.column == column) {
            continue;
        }
        keys.push(SortKey {
            column,
            descending: rng.chance(1, 2),
        });
    }

    let limit = rng
        .chance(1, 2)
        .then(|| rng.usize_below(input.rows as usize + 3));
    let rows = limit.map_or(input.rows, |l| input.rows.min(l as u64));

    Typed {
        node: Node::Sort {
            pos: P0,
            input: Box::new(input.node),
            keys,
            limit,
        },
        cols: input.cols,
        rows,
    }
}

// ------------------------------------------------------------- expressions

/// Generate an expression over `cols` whose planner-inferred type is `want` or
/// `Any` — and, by construction, whose runtime value is of type `want` or NULL
/// (`Any`-inferred subexpressions always evaluate to NULL). Never references
/// fp-tainted columns.
fn gen_expr(rng: &mut Rng, cols: &[ColInfo], want: DataType, depth: u32) -> (IrExpr, ExprInfo) {
    match want {
        DataType::Int => gen_int_expr(rng, cols, depth),
        DataType::Double => gen_double_expr(rng, cols, depth),
        DataType::Str => gen_str_expr(rng, cols, depth),
    }
}

fn clean_cols_of(cols: &[ColInfo], ty: DataType) -> Vec<usize> {
    (0..cols.len())
        .filter(|&c| cols[c].ty == ty && !cols[c].fp)
        .collect()
}

fn expr(kind: ExprKind) -> IrExpr {
    IrExpr { pos: P0, kind }
}

fn lit(value: Value) -> IrExpr {
    expr(ExprKind::Lit(value))
}

fn gen_int_leaf(rng: &mut Rng, cols: &[ColInfo]) -> (IrExpr, ExprInfo) {
    let int_cols = clean_cols_of(cols, DataType::Int);
    if rng.chance(1, 10) {
        return (lit(Value::Null), ExprInfo::int(1));
    }
    if !int_cols.is_empty() && rng.chance(1, 2) {
        let c = *rng.pick(&int_cols);
        (expr(ExprKind::Col(c)), ExprInfo::int(cols[c].bound))
    } else {
        let v = if rng.chance(1, 2) {
            rng.below(10) as i64
        } else {
            *rng.pick(INT_BOUNDARY)
        };
        (lit(Value::Int(v)), ExprInfo::int(v.saturating_abs().max(1)))
    }
}

fn gen_int_expr(rng: &mut Rng, cols: &[ColInfo], depth: u32) -> (IrExpr, ExprInfo) {
    if depth == 0 || rng.chance(1, 3) {
        return gen_int_leaf(rng, cols);
    }
    match rng.below(6) {
        0 | 1 => {
            let op = *rng.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul]);
            let (l, li) = gen_int_expr(rng, cols, depth - 1);
            let (r, ri) = gen_int_expr(rng, cols, depth - 1);
            let bound = match op {
                ArithOp::Mul => li.bound.saturating_mul(ri.bound),
                _ => li.bound.saturating_add(ri.bound),
            };
            if bound > INT_LIMIT {
                // The combination could overflow the unchecked integer ops;
                // keep the left operand instead.
                return (l, li);
            }
            (
                expr(ExprKind::Arith(op, Box::new(l), Box::new(r))),
                ExprInfo::int(bound),
            )
        }
        2 => {
            // Comparison family: both operands from the same type family
            // (string↔number comparisons are planner errors).
            let op = gen_cmp_op(rng);
            let family = *rng.pick(&[
                DataType::Int,
                DataType::Int,
                DataType::Double,
                DataType::Str,
            ]);
            let (l, _) = gen_expr(rng, cols, family, depth - 1);
            let (r, _) = gen_expr(rng, cols, family, depth - 1);
            (
                expr(ExprKind::Cmp(op, Box::new(l), Box::new(r))),
                ExprInfo::int(1),
            )
        }
        3 => {
            let (l, _) = gen_int_expr(rng, cols, depth - 1);
            let (r, _) = gen_int_expr(rng, cols, depth - 1);
            let kind = if rng.chance(1, 2) {
                ExprKind::And(Box::new(l), Box::new(r))
            } else {
                ExprKind::Or(Box::new(l), Box::new(r))
            };
            (expr(kind), ExprInfo::int(1))
        }
        4 => {
            let (c, _) = gen_int_expr(rng, cols, depth - 1);
            let (t, ti) = gen_int_expr(rng, cols, depth - 1);
            let (e, ei) = gen_int_expr(rng, cols, depth - 1);
            (
                expr(ExprKind::Case(Box::new(c), Box::new(t), Box::new(e))),
                ExprInfo::int(ti.bound.max(ei.bound)),
            )
        }
        _ => gen_int_leaf(rng, cols),
    }
}

fn gen_double_leaf(rng: &mut Rng, cols: &[ColInfo]) -> (IrExpr, ExprInfo) {
    let double_cols = clean_cols_of(cols, DataType::Double);
    if rng.chance(1, 10) {
        return (
            lit(Value::Null),
            ExprInfo {
                nz: false,
                bound: 1,
            },
        );
    }
    if !double_cols.is_empty() && rng.chance(1, 2) {
        let c = *rng.pick(&double_cols);
        (
            expr(ExprKind::Col(c)),
            ExprInfo {
                nz: cols[c].nz,
                bound: 1,
            },
        )
    } else {
        (
            lit(Value::Double(*rng.pick(DOUBLES))),
            ExprInfo {
                nz: false,
                bound: 1,
            },
        )
    }
}

fn gen_double_expr(rng: &mut Rng, cols: &[ColInfo], depth: u32) -> (IrExpr, ExprInfo) {
    if depth == 0 || rng.chance(1, 3) {
        return gen_double_leaf(rng, cols);
    }
    match rng.below(4) {
        0 => {
            // add/sub/mul with at least the left operand double-want, so the
            // inferred type can never be Int (see module invariant).
            let op = *rng.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul]);
            let (l, li) = gen_double_expr(rng, cols, depth - 1);
            let (r, ri) = if rng.chance(1, 3) {
                let (r, _) = gen_int_expr(rng, cols, depth - 1);
                (
                    r,
                    ExprInfo {
                        nz: false,
                        bound: 1,
                    },
                )
            } else {
                gen_double_expr(rng, cols, depth - 1)
            };
            let nz = match op {
                // A product of doubles can round to -0.0 (e.g. -1e-200 * 1e-200
                // underflows); treat every multiply as signed-zero-capable.
                ArithOp::Mul => true,
                _ => li.nz || ri.nz,
            };
            (
                expr(ExprKind::Arith(op, Box::new(l), Box::new(r))),
                ExprInfo { nz, bound: 1 },
            )
        }
        1 => {
            // Division always infers double, whatever the operand mix; ÷0 is
            // NULL, and a negative-over-huge quotient can be -0.0.
            let want_l = *rng.pick(&[DataType::Int, DataType::Double]);
            let want_r = *rng.pick(&[DataType::Int, DataType::Double]);
            let (l, _) = gen_expr(rng, cols, want_l, depth - 1);
            let (r, _) = gen_expr(rng, cols, want_r, depth - 1);
            (
                expr(ExprKind::Arith(ArithOp::Div, Box::new(l), Box::new(r))),
                ExprInfo { nz: true, bound: 1 },
            )
        }
        2 => {
            let (c, _) = gen_int_expr(rng, cols, depth - 1);
            let (t, ti) = gen_double_expr(rng, cols, depth - 1);
            let (e, ei) = gen_double_expr(rng, cols, depth - 1);
            (
                expr(ExprKind::Case(Box::new(c), Box::new(t), Box::new(e))),
                ExprInfo {
                    nz: ti.nz || ei.nz,
                    bound: 1,
                },
            )
        }
        _ => gen_double_leaf(rng, cols),
    }
}

fn gen_str_expr(rng: &mut Rng, cols: &[ColInfo], depth: u32) -> (IrExpr, ExprInfo) {
    let str_cols = clean_cols_of(cols, DataType::Str);
    let leaf = |rng: &mut Rng| {
        if rng.chance(1, 8) {
            lit(Value::Null)
        } else if !str_cols.is_empty() && rng.chance(1, 2) {
            expr(ExprKind::Col(str_cols[rng.usize_below(str_cols.len())]))
        } else {
            lit(Value::Str(rng.pick(STRINGS).to_string()))
        }
    };
    if depth == 0 || rng.chance(2, 3) {
        return (
            leaf(rng),
            ExprInfo {
                nz: false,
                bound: 1,
            },
        );
    }
    // The only non-leaf string constructor is CASE with string branches.
    let (c, _) = gen_int_expr(rng, cols, depth - 1);
    let (t, e) = (leaf(rng), leaf(rng));
    (
        expr(ExprKind::Case(Box::new(c), Box::new(t), Box::new(e))),
        ExprInfo {
            nz: false,
            bound: 1,
        },
    )
}
