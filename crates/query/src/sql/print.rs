//! The canonical SQL printer: `to_sql` renders any [`QueryIr`] as one SQL
//! statement whose re-parse + lowering reproduces the IR exactly (verified for
//! every generated case by the fuzz harness's SQL round-trip stage).
//!
//! The canonical form is deliberately rigid — one nested `SELECT` per IR node,
//! child outputs always aliased `c0..cN`:
//!
//! * `scan` → `SELECT col AS c0, ... FROM rel [PREWHERE ...]` (the bare-scan
//!   form the lowering maps back to a verbatim projection);
//! * `filter` → `SELECT * FROM (<input>) AS t WHERE <expr>`;
//! * `project` → `SELECT <expr>::<ty> AS c0, ... FROM (<input>) AS t`;
//! * `aggregate` → group keys then aggregate calls, each `::typed`, with
//!   `GROUP BY c0, ...` naming the leading items;
//! * `join` → `SELECT * FROM (<build>) AS b [SEMI ]JOIN (<probe>) AS p
//!   ON b.cI = p.cJ [AND ...]`;
//! * `sort` → `SELECT * FROM (<input>) AS t ORDER BY cK [DESC], ... [LIMIT n]`.
//!
//! Expressions print with minimal parentheses: a left-associative operator
//! prints its left child at its own precedence and its right child one level
//! tighter, so the parser's left-fold reconstructs the tree; comparisons are
//! non-associative and parenthesize both sides.

use std::fmt::Write as _;

use datablocks::Value;
use dbsimd::CmpOp;
use exec::ops::AggFunc;
use exec::ArithOp;

use crate::ir::{ExprKind, IrExpr, Node, PredicateKind, QueryIr, ScanPredicate};
use crate::planner::type_name;

/// Render an IR document as canonical SQL text.
pub(crate) fn print_ir(ir: &QueryIr) -> String {
    print_node(&ir.root)
}

fn print_node(node: &Node) -> String {
    match node {
        Node::Scan {
            relation,
            columns,
            predicates,
            ..
        } => {
            let mut s = String::from("SELECT ");
            for (idx, name) in columns.iter().enumerate() {
                if idx > 0 {
                    s.push_str(", ");
                }
                write!(s, "{name} AS c{idx}").unwrap();
            }
            write!(s, " FROM {relation}").unwrap();
            if !predicates.is_empty() {
                s.push_str(" PREWHERE ");
                for (idx, pred) in predicates.iter().enumerate() {
                    if idx > 0 {
                        s.push_str(" AND ");
                    }
                    s.push_str(&print_predicate(pred));
                }
            }
            s
        }
        Node::Filter {
            input, predicate, ..
        } => {
            format!(
                "SELECT * FROM ({}) AS t WHERE {}",
                print_node(input),
                print_expr(predicate, 0)
            )
        }
        Node::Project { input, exprs, .. } => {
            let mut s = String::from("SELECT ");
            for (idx, item) in exprs.iter().enumerate() {
                if idx > 0 {
                    s.push_str(", ");
                }
                write!(
                    s,
                    "{}::{} AS c{idx}",
                    print_expr(&item.expr, 6),
                    type_name(item.ty)
                )
                .unwrap();
            }
            write!(s, " FROM ({}) AS t", print_node(input)).unwrap();
            s
        }
        Node::Aggregate {
            input,
            groups,
            aggregates,
            ..
        } => {
            let mut s = String::from("SELECT ");
            let mut idx = 0usize;
            for group in groups {
                if idx > 0 {
                    s.push_str(", ");
                }
                write!(
                    s,
                    "{}::{} AS c{idx}",
                    print_expr(&group.expr, 6),
                    type_name(group.ty)
                )
                .unwrap();
                idx += 1;
            }
            for agg in aggregates {
                if idx > 0 {
                    s.push_str(", ");
                }
                let call = match (&agg.func, &agg.expr) {
                    (AggFunc::CountStar, _) => "count(*)".to_string(),
                    (func, Some(expr)) => {
                        format!("{}({})", agg_name(*func), print_expr(expr, 0))
                    }
                    (func, None) => {
                        unreachable!("{:?} without an operand", func)
                    }
                };
                write!(s, "{call}::{} AS c{idx}", type_name(agg.ty)).unwrap();
                idx += 1;
            }
            write!(s, " FROM ({}) AS t", print_node(input)).unwrap();
            if !groups.is_empty() {
                s.push_str(" GROUP BY ");
                for gi in 0..groups.len() {
                    if gi > 0 {
                        s.push_str(", ");
                    }
                    write!(s, "c{gi}").unwrap();
                }
            }
            s
        }
        Node::Join {
            join_type,
            build,
            probe,
            build_keys,
            probe_keys,
            ..
        } => {
            let mut s = format!(
                "SELECT * FROM ({}) AS b {}JOIN ({}) AS p ON ",
                print_node(build),
                if *join_type == exec::ops::JoinType::ProbeSemi {
                    "SEMI "
                } else {
                    ""
                },
                print_node(probe),
            );
            for (idx, (bk, pk)) in build_keys.iter().zip(probe_keys).enumerate() {
                if idx > 0 {
                    s.push_str(" AND ");
                }
                write!(s, "b.c{bk} = p.c{pk}").unwrap();
            }
            s
        }
        Node::Sort {
            input, keys, limit, ..
        } => {
            let mut s = format!("SELECT * FROM ({}) AS t ORDER BY ", print_node(input));
            for (idx, key) in keys.iter().enumerate() {
                if idx > 0 {
                    s.push_str(", ");
                }
                write!(s, "c{}", key.column).unwrap();
                if key.descending {
                    s.push_str(" DESC");
                }
            }
            if let Some(limit) = limit {
                write!(s, " LIMIT {limit}").unwrap();
            }
            s
        }
    }
}

fn agg_name(func: AggFunc) -> &'static str {
    match func {
        AggFunc::Sum => "sum",
        AggFunc::Count => "count",
        AggFunc::CountStar => "count", // printed as count(*) by the caller
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    }
}

fn print_predicate(pred: &ScanPredicate) -> String {
    let column = &pred.column;
    match &pred.kind {
        PredicateKind::Cmp(op, value) => {
            format!("{column} {} {}", cmp_symbol(*op), print_value(value))
        }
        PredicateKind::Between(lo, hi) => {
            format!(
                "{column} BETWEEN {} AND {}",
                print_value(lo),
                print_value(hi)
            )
        }
        PredicateKind::IsNull => format!("{column} IS NULL"),
        PredicateKind::IsNotNull => format!("{column} IS NOT NULL"),
    }
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn print_value(value: &Value) -> String {
    match value {
        Value::Null => "NULL".to_string(),
        Value::Int(v) => format!("{v}"),
        Value::Double(v) => format!("{v:?}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// Operator precedence for minimal parenthesization (atoms are 6).
fn prec(expr: &IrExpr) -> u8 {
    match &expr.kind {
        ExprKind::Or(..) => 1,
        ExprKind::And(..) => 2,
        ExprKind::Cmp(..) => 3,
        ExprKind::Arith(ArithOp::Add | ArithOp::Sub, ..) => 4,
        ExprKind::Arith(ArithOp::Mul | ArithOp::Div, ..) => 5,
        ExprKind::Col(_) | ExprKind::Lit(_) | ExprKind::Case(..) => 6,
    }
}

/// Print an expression, parenthesizing if it binds looser than `min_prec`.
fn print_expr(expr: &IrExpr, min_prec: u8) -> String {
    let own = prec(expr);
    let body = match &expr.kind {
        ExprKind::Col(idx) => format!("c{idx}"),
        ExprKind::Lit(value) => print_value(value),
        ExprKind::Arith(op, lhs, rhs) => {
            let symbol = match op {
                ArithOp::Add => "+",
                ArithOp::Sub => "-",
                ArithOp::Mul => "*",
                ArithOp::Div => "/",
            };
            format!(
                "{} {symbol} {}",
                print_expr(lhs, own),
                print_expr(rhs, own + 1)
            )
        }
        ExprKind::Cmp(op, lhs, rhs) => {
            // Comparisons are non-associative: both sides print one level
            // tighter, so nested comparisons always parenthesize.
            format!(
                "{} {} {}",
                print_expr(lhs, own + 1),
                cmp_symbol(*op),
                print_expr(rhs, own + 1)
            )
        }
        ExprKind::And(lhs, rhs) => {
            format!("{} AND {}", print_expr(lhs, own), print_expr(rhs, own + 1))
        }
        ExprKind::Or(lhs, rhs) => {
            format!("{} OR {}", print_expr(lhs, own), print_expr(rhs, own + 1))
        }
        ExprKind::Case(cond, then, otherwise) => {
            format!(
                "CASE WHEN {} THEN {} ELSE {} END",
                print_expr(cond, 0),
                print_expr(then, 0),
                print_expr(otherwise, 0)
            )
        }
    };
    if own < min_prec {
        format!("({body})")
    } else {
        body
    }
}
