//! Greedy shrinking of failing fuzz cases.
//!
//! The shrinker repeatedly proposes strictly-smaller candidate cases (by the
//! [`case_size`] metric) and keeps any candidate on which the caller's
//! predicate still fails, restarting until no candidate helps or the
//! evaluation budget runs out. Candidates that are no longer well-typed are
//! rejected naturally: the planner (or the reference interpreter) refuses
//! them, the failure kind changes, and the predicate returns false.
//!
//! Proposed candidates, roughly largest-win first:
//! * replace any node by one of its children (dropping a whole operator);
//! * drop a scan predicate / projected column / project expression / group
//!   key / aggregate / join key pair / sort key / sort limit;
//! * replace an expression by one of its subexpressions or by `null` (for
//!   typed positions, with each possible declared type);
//! * drop a relation; empty a relation; halve its rows; drop single rows.

use datablocks::{DataType, Value};

use crate::ir::{AggItem, ExprKind, IrExpr, Node, QueryIr, TypedExpr};

use super::{Catalog, FuzzCase, RelationData};

/// Maximum number of predicate evaluations one [`shrink_case`] call may spend.
const EVAL_BUDGET: usize = 800;

/// Size metric driving the greedy descent: operators dominate, then
/// expression/predicate complexity, then data volume.
pub fn case_size(case: &FuzzCase) -> u64 {
    fn expr_size(expr: &IrExpr) -> u64 {
        1 + match &expr.kind {
            ExprKind::Col(_) | ExprKind::Lit(_) => 0,
            ExprKind::Arith(_, l, r) | ExprKind::Cmp(_, l, r) => expr_size(l) + expr_size(r),
            ExprKind::And(l, r) | ExprKind::Or(l, r) => expr_size(l) + expr_size(r),
            ExprKind::Case(c, t, e) => expr_size(c) + expr_size(t) + expr_size(e),
        }
    }
    fn node_size(node: &Node) -> u64 {
        match node {
            Node::Scan {
                columns,
                predicates,
                ..
            } => 10_000 + columns.len() as u64 * 100 + predicates.len() as u64 * 100,
            Node::Filter {
                input, predicate, ..
            } => 10_000 + expr_size(predicate) * 100 + node_size(input),
            Node::Project { input, exprs, .. } => {
                10_000
                    + exprs.iter().map(|e| expr_size(&e.expr)).sum::<u64>() * 100
                    + node_size(input)
            }
            Node::Aggregate {
                input,
                groups,
                aggregates,
                ..
            } => {
                10_000
                    + groups.iter().map(|g| expr_size(&g.expr)).sum::<u64>() * 100
                    + aggregates
                        .iter()
                        .map(|a| a.expr.as_ref().map_or(1, expr_size))
                        .sum::<u64>()
                        * 100
                    + node_size(input)
            }
            Node::Join {
                build,
                probe,
                build_keys,
                ..
            } => 10_000 + build_keys.len() as u64 * 100 + node_size(build) + node_size(probe),
            Node::Sort { input, keys, .. } => 10_000 + keys.len() as u64 * 100 + node_size(input),
        }
    }
    let data: u64 = case
        .catalog
        .relations
        .iter()
        .map(|r| 50 + r.rows.len() as u64)
        .sum();
    node_size(&case.ir.root) + data
}

/// Greedily shrink `case` while `fails` keeps returning true, and return the
/// smallest failing case found (possibly `case` itself).
pub fn shrink_case(case: &FuzzCase, fails: &dyn Fn(&FuzzCase) -> bool) -> FuzzCase {
    let mut best = case.clone();
    let mut best_size = case_size(&best);
    let mut evals = 0usize;
    'descend: loop {
        for candidate in candidates(&best) {
            if evals >= EVAL_BUDGET {
                return best;
            }
            let size = case_size(&candidate);
            if size >= best_size {
                continue;
            }
            evals += 1;
            if fails(&candidate) {
                best = candidate;
                best_size = size;
                continue 'descend;
            }
        }
        return best;
    }
}

fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    for root in node_variants(&case.ir.root) {
        out.push(FuzzCase {
            seed: case.seed,
            catalog: case.catalog.clone(),
            ir: QueryIr {
                version: case.ir.version,
                root,
            },
        });
    }
    for catalog in catalog_variants(&case.catalog) {
        out.push(FuzzCase {
            seed: case.seed,
            catalog,
            ir: case.ir.clone(),
        });
    }
    out
}

// ---------------------------------------------------------------- IR shrinks

fn node_variants(node: &Node) -> Vec<Node> {
    let mut out = Vec::new();
    match node {
        Node::Scan {
            pos,
            relation,
            columns,
            predicates,
        } => {
            for i in 0..predicates.len() {
                let mut p = predicates.clone();
                p.remove(i);
                out.push(Node::Scan {
                    pos: *pos,
                    relation: relation.clone(),
                    columns: columns.clone(),
                    predicates: p,
                });
            }
            if columns.len() > 1 {
                for i in 0..columns.len() {
                    let mut c = columns.clone();
                    c.remove(i);
                    out.push(Node::Scan {
                        pos: *pos,
                        relation: relation.clone(),
                        columns: c,
                        predicates: predicates.clone(),
                    });
                }
            }
        }
        Node::Filter {
            pos,
            input,
            predicate,
        } => {
            out.push((**input).clone());
            for p in expr_variants(predicate) {
                out.push(Node::Filter {
                    pos: *pos,
                    input: input.clone(),
                    predicate: p,
                });
            }
            for i in node_variants(input) {
                out.push(Node::Filter {
                    pos: *pos,
                    input: Box::new(i),
                    predicate: predicate.clone(),
                });
            }
        }
        Node::Project { pos, input, exprs } => {
            out.push((**input).clone());
            if exprs.len() > 1 {
                for i in 0..exprs.len() {
                    let mut e = exprs.clone();
                    e.remove(i);
                    out.push(Node::Project {
                        pos: *pos,
                        input: input.clone(),
                        exprs: e,
                    });
                }
            }
            for i in 0..exprs.len() {
                for te in typed_expr_variants(&exprs[i]) {
                    let mut e = exprs.clone();
                    e[i] = te;
                    out.push(Node::Project {
                        pos: *pos,
                        input: input.clone(),
                        exprs: e,
                    });
                }
            }
            for i in node_variants(input) {
                out.push(Node::Project {
                    pos: *pos,
                    input: Box::new(i),
                    exprs: exprs.clone(),
                });
            }
        }
        Node::Aggregate {
            pos,
            input,
            groups,
            aggregates,
        } => {
            out.push((**input).clone());
            let rebuild = |groups: Vec<TypedExpr>, aggregates: Vec<AggItem>| Node::Aggregate {
                pos: *pos,
                input: input.clone(),
                groups,
                aggregates,
            };
            if groups.len() + aggregates.len() > 1 {
                for i in 0..groups.len() {
                    let mut g = groups.clone();
                    g.remove(i);
                    out.push(rebuild(g, aggregates.clone()));
                }
                for i in 0..aggregates.len() {
                    let mut a = aggregates.clone();
                    a.remove(i);
                    out.push(rebuild(groups.clone(), a));
                }
            }
            for i in 0..groups.len() {
                for te in typed_expr_variants(&groups[i]) {
                    let mut g = groups.clone();
                    g[i] = te;
                    out.push(rebuild(g, aggregates.clone()));
                }
            }
            for i in 0..aggregates.len() {
                if let Some(expr) = &aggregates[i].expr {
                    for e in expr_variants(expr) {
                        let mut a = aggregates.clone();
                        a[i].expr = Some(e);
                        out.push(rebuild(groups.clone(), a));
                    }
                }
            }
            for i in node_variants(input) {
                out.push(Node::Aggregate {
                    pos: *pos,
                    input: Box::new(i),
                    groups: groups.clone(),
                    aggregates: aggregates.clone(),
                });
            }
        }
        Node::Join {
            pos,
            join_type,
            build,
            probe,
            build_keys,
            probe_keys,
        } => {
            out.push((**build).clone());
            out.push((**probe).clone());
            let rebuild = |build: Box<Node>,
                           probe: Box<Node>,
                           build_keys: Vec<usize>,
                           probe_keys: Vec<usize>| Node::Join {
                pos: *pos,
                join_type: *join_type,
                build,
                probe,
                build_keys,
                probe_keys,
            };
            if build_keys.len() > 1 {
                for i in 0..build_keys.len() {
                    let mut bk = build_keys.clone();
                    let mut pk = probe_keys.clone();
                    bk.remove(i);
                    pk.remove(i);
                    out.push(rebuild(build.clone(), probe.clone(), bk, pk));
                }
            }
            for b in node_variants(build) {
                out.push(rebuild(
                    Box::new(b),
                    probe.clone(),
                    build_keys.clone(),
                    probe_keys.clone(),
                ));
            }
            for p in node_variants(probe) {
                out.push(rebuild(
                    build.clone(),
                    Box::new(p),
                    build_keys.clone(),
                    probe_keys.clone(),
                ));
            }
        }
        Node::Sort {
            pos,
            input,
            keys,
            limit,
        } => {
            out.push((**input).clone());
            if keys.len() > 1 {
                for i in 0..keys.len() {
                    let mut k = keys.clone();
                    k.remove(i);
                    out.push(Node::Sort {
                        pos: *pos,
                        input: input.clone(),
                        keys: k,
                        limit: *limit,
                    });
                }
            }
            if limit.is_some() {
                out.push(Node::Sort {
                    pos: *pos,
                    input: input.clone(),
                    keys: keys.clone(),
                    limit: None,
                });
            }
            for i in node_variants(input) {
                out.push(Node::Sort {
                    pos: *pos,
                    input: Box::new(i),
                    keys: keys.clone(),
                    limit: *limit,
                });
            }
        }
    }
    out
}

/// Variants of a typed (projection / group) expression: every subexpression
/// replacement, offered under the original declared type and under each
/// alternative (a hoisted subexpression usually infers a different type).
fn typed_expr_variants(te: &TypedExpr) -> Vec<TypedExpr> {
    let mut out = Vec::new();
    for expr in expr_variants(&te.expr) {
        for ty in [te.ty, DataType::Int, DataType::Double, DataType::Str] {
            let candidate = TypedExpr {
                expr: expr.clone(),
                ty,
            };
            if !out.contains(&candidate) {
                out.push(candidate);
            }
        }
    }
    out
}

/// Variants of an expression: each direct subexpression hoisted into its
/// place, a plain `null` literal, and (recursively) each child shrunk in
/// place.
fn expr_variants(expr: &IrExpr) -> Vec<IrExpr> {
    let mut out = Vec::new();
    let children: Vec<&IrExpr> = match &expr.kind {
        ExprKind::Col(_) | ExprKind::Lit(_) => Vec::new(),
        ExprKind::Arith(_, l, r) | ExprKind::Cmp(_, l, r) => vec![l, r],
        ExprKind::And(l, r) | ExprKind::Or(l, r) => vec![l, r],
        ExprKind::Case(c, t, e) => vec![c, t, e],
    };
    for child in &children {
        out.push((**child).clone());
    }
    if !matches!(expr.kind, ExprKind::Lit(Value::Null)) {
        out.push(IrExpr {
            pos: expr.pos,
            kind: ExprKind::Lit(Value::Null),
        });
    }
    for (i, child) in children.iter().enumerate() {
        for variant in expr_variants(child) {
            out.push(replace_child(expr, i, variant));
        }
    }
    out
}

fn replace_child(expr: &IrExpr, index: usize, new_child: IrExpr) -> IrExpr {
    let boxed = Box::new(new_child);
    let kind = match (&expr.kind, index) {
        (ExprKind::Arith(op, _, r), 0) => ExprKind::Arith(*op, boxed, r.clone()),
        (ExprKind::Arith(op, l, _), 1) => ExprKind::Arith(*op, l.clone(), boxed),
        (ExprKind::Cmp(op, _, r), 0) => ExprKind::Cmp(*op, boxed, r.clone()),
        (ExprKind::Cmp(op, l, _), 1) => ExprKind::Cmp(*op, l.clone(), boxed),
        (ExprKind::And(_, r), 0) => ExprKind::And(boxed, r.clone()),
        (ExprKind::And(l, _), 1) => ExprKind::And(l.clone(), boxed),
        (ExprKind::Or(_, r), 0) => ExprKind::Or(boxed, r.clone()),
        (ExprKind::Or(l, _), 1) => ExprKind::Or(l.clone(), boxed),
        (ExprKind::Case(_, t, e), 0) => ExprKind::Case(boxed, t.clone(), e.clone()),
        (ExprKind::Case(c, _, e), 1) => ExprKind::Case(c.clone(), boxed, e.clone()),
        (ExprKind::Case(c, t, _), 2) => ExprKind::Case(c.clone(), t.clone(), boxed),
        _ => unreachable!("replace_child index out of range"),
    };
    IrExpr {
        pos: expr.pos,
        kind,
    }
}

// -------------------------------------------------------------- data shrinks

fn catalog_variants(catalog: &Catalog) -> Vec<Catalog> {
    let mut out = Vec::new();
    if catalog.relations.len() > 1 {
        for i in 0..catalog.relations.len() {
            let mut relations = catalog.relations.clone();
            relations.remove(i);
            out.push(Catalog { relations });
        }
    }
    for (i, rel) in catalog.relations.iter().enumerate() {
        for rows in row_variants(rel) {
            let mut relations = catalog.relations.clone();
            relations[i] = RelationData {
                rows,
                ..rel.clone()
            };
            out.push(Catalog { relations });
        }
    }
    out
}

fn row_variants(rel: &RelationData) -> Vec<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    let n = rel.rows.len();
    if n == 0 {
        return out;
    }
    out.push(Vec::new());
    if n > 1 {
        out.push(rel.rows[..n / 2].to_vec());
        out.push(rel.rows[n / 2..].to_vec());
    }
    if n <= 24 {
        for i in 0..n {
            let mut rows = rel.rows.clone();
            rows.remove(i);
            out.push(rows);
        }
    }
    out
}
