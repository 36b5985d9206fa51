//! Obviously-correct row-at-a-time reference interpreter — the oracle of the
//! differential harness.
//!
//! The interpreter evaluates the IR directly over the catalog's in-memory row
//! vectors: no planner, no compression, no morsels, no push-down, no hash
//! tables beyond a plain `HashMap`. It shares **no evaluation code** with the
//! engine: expressions are walked per row over [`Value`]s with the scalar
//! arithmetic written out below ([`arith`]), while the engine evaluates typed
//! columns under selection vectors (`exec::expr`) — so the differential covers
//! scalar semantics as well as plan-level behaviour (push-down, morsel
//! scheduling, compression, spilling, join and aggregation strategy). What the
//! two sides do share is the value model of `datablocks` (`Value::sql_cmp`,
//! `Value::total_cmp`, `CmpOp::eval_ordering`), which the storage layer's own
//! tests pin.
//!
//! Ordering contracts mirrored here (the engine guarantees them at every
//! thread count):
//! * scans produce rows in insertion order;
//! * aggregates emit groups sorted by `total_cmp` over the key values;
//! * inner joins emit, per probe row (in probe order), the matching build rows
//!   in build insertion order;
//! * sort is stable.
//!
//! Errors are returned, never panicked, so the shrinker can probe arbitrarily
//! mangled candidate cases safely.

use std::collections::HashMap;

use datablocks::scan::CmpOpOrderingExt;
use datablocks::{DataType, Value};
use exec::ops::{AggFunc, JoinType};
use exec::ArithOp;

use crate::ir::{AggItem, ExprKind, IrExpr, Node, PredicateKind, QueryIr, TypedExpr};

use super::Catalog;

/// A materialised intermediate result: column types plus row-major values.
pub(super) struct Table {
    /// Output column types (declared types, as the planner would infer them).
    pub types: Vec<DataType>,
    /// Rows in output order.
    pub rows: Vec<Vec<Value>>,
}

/// Interpret `ir` over `catalog` row by row.
pub(super) fn execute(catalog: &Catalog, ir: &QueryIr) -> Result<Table, String> {
    eval_node(catalog, &ir.root)
}

fn eval_node(catalog: &Catalog, node: &Node) -> Result<Table, String> {
    match node {
        Node::Scan {
            relation,
            columns,
            predicates,
            ..
        } => eval_scan(catalog, relation, columns, predicates),
        Node::Filter {
            input, predicate, ..
        } => {
            let input = eval_node(catalog, input)?;
            let mut rows = Vec::new();
            for row in input.rows {
                if truthy(&eval_expr(predicate, &row)?) == Some(true) {
                    rows.push(row);
                }
            }
            Ok(Table {
                types: input.types,
                rows,
            })
        }
        Node::Project { input, exprs, .. } => {
            let input = eval_node(catalog, input)?;
            let mut rows = Vec::with_capacity(input.rows.len());
            for row in &input.rows {
                let mut out = Vec::with_capacity(exprs.len());
                for te in exprs {
                    out.push(eval_expr(&te.expr, row)?);
                }
                rows.push(out);
            }
            Ok(Table {
                types: exprs.iter().map(|te| te.ty).collect(),
                rows,
            })
        }
        Node::Aggregate {
            input,
            groups,
            aggregates,
            ..
        } => {
            let input = eval_node(catalog, input)?;
            eval_aggregate(&input, groups, aggregates)
        }
        Node::Join {
            join_type,
            build,
            probe,
            build_keys,
            probe_keys,
            ..
        } => {
            let build = eval_node(catalog, build)?;
            let probe = eval_node(catalog, probe)?;
            eval_join(&build, &probe, *join_type, build_keys, probe_keys)
        }
        Node::Sort {
            input, keys, limit, ..
        } => {
            let mut input = eval_node(catalog, input)?;
            for key in keys {
                if key.column >= input.types.len() {
                    return Err(format!("sort key column {} out of range", key.column));
                }
            }
            // Stable sort on the full key vector: most significant key first,
            // total order over every value (the engine's SortOp contract).
            input.rows.sort_by(|a, b| {
                for key in keys {
                    let ord = a[key.column].total_cmp(&b[key.column]);
                    let ord = if key.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            if let Some(limit) = limit {
                input.rows.truncate(*limit);
            }
            Ok(input)
        }
    }
}

fn eval_scan(
    catalog: &Catalog,
    relation: &str,
    columns: &[String],
    predicates: &[crate::ir::ScanPredicate],
) -> Result<Table, String> {
    let rel = catalog
        .relations
        .iter()
        .find(|r| r.name == relation)
        .ok_or_else(|| format!("unknown relation {relation:?}"))?;
    let col_index = |name: &str| -> Result<usize, String> {
        rel.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| format!("unknown column {name:?} of relation {relation:?}"))
    };
    let projection: Vec<usize> = columns
        .iter()
        .map(|name| col_index(name))
        .collect::<Result<_, _>>()?;
    let restricted: Vec<(usize, &PredicateKind)> = predicates
        .iter()
        .map(|p| Ok((col_index(&p.column)?, &p.kind)))
        .collect::<Result<_, String>>()?;

    let mut rows = Vec::new();
    for row in &rel.rows {
        let keep = restricted
            .iter()
            .all(|(col, kind)| predicate_matches(kind, &row[*col]));
        if keep {
            rows.push(projection.iter().map(|&c| row[c].clone()).collect());
        }
    }
    Ok(Table {
        types: projection.iter().map(|&c| rel.columns[c].ty).collect(),
        rows,
    })
}

/// Mirror of `Restriction::matches_value`: NULL never satisfies a comparison
/// or range (`sql_cmp` returns `None`), only the explicit IS [NOT] NULL forms
/// look at NULL-ness.
fn predicate_matches(kind: &PredicateKind, value: &Value) -> bool {
    match kind {
        PredicateKind::Cmp(op, constant) => match value.sql_cmp(constant) {
            Some(ord) => op.eval_ordering(ord),
            None => false,
        },
        PredicateKind::Between(lo, hi) => {
            let ge = value.sql_cmp(lo).map(|o| o != std::cmp::Ordering::Less);
            let le = value.sql_cmp(hi).map(|o| o != std::cmp::Ordering::Greater);
            matches!((ge, le), (Some(true), Some(true)))
        }
        PredicateKind::IsNull => value.is_null(),
        PredicateKind::IsNotNull => !value.is_null(),
    }
}

/// Scalar arithmetic, the oracle's own: NULL propagates; Int ∘ Int stays Int except
/// for division, which is always Double; any Double operand widens the other; a
/// zero divisor yields NULL; a string operand yields NULL.
fn arith(op: ArithOp, lhs: &Value, rhs: &Value) -> Value {
    if let (Value::Int(a), Value::Int(b)) = (lhs, rhs) {
        match op {
            ArithOp::Add => return Value::Int(a + b),
            ArithOp::Sub => return Value::Int(a - b),
            ArithOp::Mul => return Value::Int(a * b),
            ArithOp::Div => {}
        }
    }
    let (Some(a), Some(b)) = (lhs.as_double(), rhs.as_double()) else {
        return Value::Null;
    };
    match op {
        ArithOp::Add => Value::Double(a + b),
        ArithOp::Sub => Value::Double(a - b),
        ArithOp::Mul => Value::Double(a * b),
        ArithOp::Div if b == 0.0 => Value::Null,
        ArithOp::Div => Value::Double(a / b),
    }
}

/// SQL-ish truthiness: NULL is unknown, zero and the empty string are false.
fn truthy(value: &Value) -> Option<bool> {
    match value {
        Value::Null => None,
        Value::Int(v) => Some(*v != 0),
        Value::Double(v) => Some(*v != 0.0),
        Value::Str(s) => Some(!s.is_empty()),
    }
}

pub(super) fn eval_expr(expr: &IrExpr, row: &[Value]) -> Result<Value, String> {
    Ok(match &expr.kind {
        ExprKind::Col(idx) => row
            .get(*idx)
            .cloned()
            .ok_or_else(|| format!("column {idx} out of range"))?,
        ExprKind::Lit(v) => v.clone(),
        ExprKind::Arith(op, l, r) => arith(*op, &eval_expr(l, row)?, &eval_expr(r, row)?),
        ExprKind::Cmp(op, l, r) => match eval_expr(l, row)?.sql_cmp(&eval_expr(r, row)?) {
            Some(ord) => Value::Int(op.eval_ordering(ord) as i64),
            None => Value::Null,
        },
        ExprKind::And(l, r) => match (truthy(&eval_expr(l, row)?), truthy(&eval_expr(r, row)?)) {
            (Some(false), _) | (_, Some(false)) => Value::Int(0),
            (Some(true), Some(true)) => Value::Int(1),
            _ => Value::Null,
        },
        ExprKind::Or(l, r) => match (truthy(&eval_expr(l, row)?), truthy(&eval_expr(r, row)?)) {
            (Some(true), _) | (_, Some(true)) => Value::Int(1),
            (Some(false), Some(false)) => Value::Int(0),
            _ => Value::Null,
        },
        ExprKind::Case(cond, then, otherwise) => {
            if truthy(&eval_expr(cond, row)?).unwrap_or(false) {
                eval_expr(then, row)?
            } else {
                eval_expr(otherwise, row)?
            }
        }
    })
}

/// Hashable value identity for group/join keys. Doubles key by bit pattern —
/// exactly like the engine's `GroupKey` hash — which is sound here because the
/// generator keeps `-0.0`-capable expressions (and NaN, unrepresentable in the
/// IR) out of key position.
#[derive(PartialEq, Eq, Hash)]
enum BitValue {
    Null,
    Int(i64),
    Double(u64),
    Str(String),
}

fn bit_key(values: &[Value]) -> Vec<BitValue> {
    values
        .iter()
        .map(|v| match v {
            Value::Null => BitValue::Null,
            Value::Int(v) => BitValue::Int(*v),
            Value::Double(v) => BitValue::Double(v.to_bits()),
            Value::Str(s) => BitValue::Str(s.clone()),
        })
        .collect()
}

/// One in-flight aggregate: a faithful mirror of the engine's `AggState`
/// (NULLs are skipped entirely, `count(*)` counts every row, sums start from
/// the first value, min/max select via `sql_cmp`).
struct RefAgg {
    count: i64,
    sum: Value,
    min: Value,
    max: Value,
}

impl RefAgg {
    fn new() -> RefAgg {
        RefAgg {
            count: 0,
            sum: Value::Null,
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

fn eval_aggregate(
    input: &Table,
    groups: &[TypedExpr],
    aggregates: &[AggItem],
) -> Result<Table, String> {
    // Entries keyed by value identity; rows processed in input order so the
    // serial engine's left-to-right accumulation is reproduced exactly.
    // An empty input yields an empty output even with no group keys — the
    // engine's hash table has no entries to emit (SQL would say one row; this
    // pins the engine's actual contract).
    let mut index: HashMap<Vec<BitValue>, usize> = HashMap::new();
    let mut entries: Vec<(Vec<Value>, Vec<RefAgg>)> = Vec::new();
    for row in &input.rows {
        let mut keys = Vec::with_capacity(groups.len());
        for g in groups {
            keys.push(eval_expr(&g.expr, row)?);
        }
        let entry = match index.get(&bit_key(&keys)) {
            Some(&i) => i,
            None => {
                index.insert(bit_key(&keys), entries.len());
                entries.push((keys, aggregates.iter().map(|_| RefAgg::new()).collect()));
                entries.len() - 1
            }
        };
        let states = &mut entries[entry].1;
        for (state, item) in states.iter_mut().zip(aggregates) {
            match &item.expr {
                None => state.update(&Value::Null, true),
                Some(expr) => state.update(&eval_expr(expr, row)?, false),
            }
        }
    }

    // Groups are emitted sorted by total order over the key values.
    entries.sort_by(|a, b| {
        a.0.iter()
            .zip(&b.0)
            .map(|(x, y)| x.total_cmp(y))
            .find(|ord| *ord != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut rows = Vec::with_capacity(entries.len());
    for (keys, states) in entries {
        let mut row = keys;
        for (state, item) in states.iter().zip(aggregates) {
            row.push(state.finish(item.func));
        }
        rows.push(row);
    }
    let mut types: Vec<DataType> = groups.iter().map(|g| g.ty).collect();
    types.extend(aggregates.iter().map(|a| a.ty));
    Ok(Table { types, rows })
}

fn eval_join(
    build: &Table,
    probe: &Table,
    join_type: JoinType,
    build_keys: &[usize],
    probe_keys: &[usize],
) -> Result<Table, String> {
    if build_keys.is_empty() || build_keys.len() != probe_keys.len() {
        return Err("join key arity mismatch".into());
    }
    for &k in build_keys {
        if k >= build.types.len() {
            return Err(format!("build key {k} out of range"));
        }
    }
    for &k in probe_keys {
        if k >= probe.types.len() {
            return Err(format!("probe key {k} out of range"));
        }
    }

    // Hash table over the build side, match lists in build insertion order —
    // the order the engine's build keeps at every scan worker count.
    let mut table: HashMap<Vec<BitValue>, Vec<usize>> = HashMap::new();
    for (i, row) in build.rows.iter().enumerate() {
        let keys: Vec<Value> = build_keys.iter().map(|&k| row[k].clone()).collect();
        table.entry(bit_key(&keys)).or_default().push(i);
    }

    let mut rows = Vec::new();
    for probe_row in &probe.rows {
        let keys: Vec<Value> = probe_keys.iter().map(|&k| probe_row[k].clone()).collect();
        // NULL keys never join.
        if keys.iter().any(Value::is_null) {
            continue;
        }
        let matches = match table.get(&bit_key(&keys)) {
            Some(m) => m,
            None => continue,
        };
        match join_type {
            JoinType::Inner => {
                for &b in matches {
                    let mut out = build.rows[b].clone();
                    out.extend(probe_row.iter().cloned());
                    rows.push(out);
                }
            }
            JoinType::ProbeSemi => rows.push(probe_row.clone()),
        }
    }

    let types = match join_type {
        JoinType::Inner => build.types.iter().chain(&probe.types).copied().collect(),
        JoinType::ProbeSemi => probe.types.clone(),
    };
    Ok(Table { types, rows })
}
