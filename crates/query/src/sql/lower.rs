//! AST → [`QueryIr`] lowering: name resolution, scan-column collection,
//! predicate classification and type inference.
//!
//! The rules are normative in `crates/query/README.md` ("SQL front end").
//! The load-bearing ones:
//!
//! * **Scan columns** are collected per base table in first-appearance order
//!   across the select items, then the `ON` conditions in join order, then the
//!   residual (non-pushed) `WHERE` conjuncts. Columns whose only references
//!   are pushed predicates are *not* projected (scan predicates restrict by
//!   name). A base table nothing references projects its first schema column.
//! * **`WHERE` classification**: the predicate is split into top-level `AND`
//!   conjuncts (textual order). A conjunct of shape `col <cmp> literal`,
//!   `literal <cmp> col` (comparison flipped) or `col BETWEEN lit AND lit` —
//!   referencing exactly one base table, with the literal type equal to the
//!   column type and no NULL literal — is **pushed** into that table's scan
//!   predicates (after any `PREWHERE` ones). Remaining conjuncts referencing a
//!   single source become a `filter` directly above that source (below joins —
//!   in this dialect single-source conjuncts are *defined* to apply pre-join,
//!   which is what makes them meaningful on the build side of a `SEMI JOIN`);
//!   conjuncts spanning several sources (or none) become a `filter` above the
//!   join tree. Within each bucket, conjuncts fold left-associatively.
//! * **Joins** fold left-deep in `FROM` order: the accumulated tree is the
//!   build side, the newly joined table the probe side. A `SEMI JOIN` keeps
//!   probe columns only, and its build-side sources leave scope.
//! * **Aggregation** is triggered by `GROUP BY` or any top-level aggregate
//!   call: the first G select items must repeat the `GROUP BY` columns in
//!   order, every remaining item must be an aggregate call. Declared types
//!   come from `::type` or inference (`count`/`count(*)` → int, `avg` →
//!   double, `sum`/`min`/`max` → operand type).
//! * A bare-columns `SELECT` from a single base table with no other clauses
//!   lowers to a plain `scan` whose projection is the select list **verbatim**
//!   (duplicates preserved) — the canonical form the SQL printer emits.

use datablocks::{DataType, Value};
use dbsimd::CmpOp;
use exec::ops::{AggFunc, JoinType, SortKey};

use super::ast::{
    AstExpr, AstExprKind, AstPred, AstPredKind, ColRef, SelectItem, SelectList, SelectStmt,
    TableRef,
};
use super::SqlCatalog;
use crate::error::IrError;
use crate::ir::{
    AggItem, ExprKind, IrExpr, Node, PredicateKind, QueryIr, ScanPredicate, TypedExpr,
};
use crate::json::Pos;
use crate::planner::{infer_type, value_type, Ty};
use crate::IR_VERSION;

/// An output column: optional name (for outer references and ORDER BY) + type.
type OutCol = (Option<String>, DataType);

/// Lower a parsed statement to an IR document.
pub(crate) fn lower_statement(
    catalog: &dyn SqlCatalog,
    stmt: &SelectStmt,
) -> Result<QueryIr, IrError> {
    let (root, _) = lower_select(catalog, stmt)?;
    Ok(QueryIr {
        version: IR_VERSION,
        root,
    })
}

/// One `FROM` source during lowering.
struct Source {
    alias: String,
    kind: SourceKind,
}

enum SourceKind {
    Base {
        pos: Pos,
        relation: String,
        /// Full schema of the relation.
        schema: Vec<(String, DataType)>,
        /// Projected schema indices, in first-appearance order.
        used: Vec<usize>,
        /// Scan predicates (PREWHERE first, then pushed WHERE conjuncts).
        preds: Vec<ScanPredicate>,
    },
    Sub {
        node: Node,
        cols: Vec<OutCol>,
    },
}

impl Source {
    /// Number of output columns the source's node will produce.
    fn width(&self) -> usize {
        match &self.kind {
            SourceKind::Base { used, .. } => used.len(),
            SourceKind::Sub { cols, .. } => cols.len(),
        }
    }

    /// Output column name + type at local position `idx`.
    fn out_col(&self, idx: usize) -> OutCol {
        match &self.kind {
            SourceKind::Base { schema, used, .. } => {
                let (name, ty) = &schema[used[idx]];
                (Some(name.clone()), *ty)
            }
            SourceKind::Sub { cols, .. } => cols[idx].clone(),
        }
    }
}

/// A column reference resolved to a source and a *schema-level* position
/// (base tables: schema index; subqueries: output index).
#[derive(Clone, Copy)]
struct Located {
    source: usize,
    raw: usize,
}

/// One classified `WHERE` conjunct.
enum Conjunct {
    /// Pushed into `source`'s scan predicates (already recorded there).
    Pushed,
    /// Residual predicate over exactly one source.
    Single(usize, AstExpr),
    /// Residual predicate spanning several sources (or none).
    Global(AstExpr),
}

struct Lowerer<'a> {
    catalog: &'a dyn SqlCatalog,
    sources: Vec<Source>,
}

/// Lower one (possibly nested) `SELECT`; returns the IR node and its output
/// columns.
fn lower_select(
    catalog: &dyn SqlCatalog,
    stmt: &SelectStmt,
) -> Result<(Node, Vec<OutCol>), IrError> {
    let mut lw = Lowerer {
        catalog,
        sources: Vec::new(),
    };
    lw.add_source(&stmt.from_first)?;
    for join in &stmt.joins {
        lw.add_source(&join.table)?;
    }

    // PREWHERE is the verbatim scan-predicate surface: single base table only.
    if !stmt.prewhere.is_empty() {
        if lw.sources.len() != 1 || !matches!(lw.sources[0].kind, SourceKind::Base { .. }) {
            return Err(IrError::semantic(
                stmt.prewhere[0].pos,
                "PREWHERE requires FROM to be a single base table".to_string(),
            ));
        }
        for pred in &stmt.prewhere {
            lw.push_prewhere(pred)?;
        }
    }

    if let Some(scan) = lw.try_simple_scan(stmt)? {
        return Ok(scan);
    }

    // Classify WHERE conjuncts (pushed predicates are recorded as we go).
    // Over a single subquery source there is nothing to push or separate, so
    // the whole predicate stays one filter — this keeps `filter` nodes a
    // round-trip fixed point of the canonical SQL form.
    let single_sub = stmt.joins.is_empty() && matches!(lw.sources[0].kind, SourceKind::Sub { .. });
    let mut conjuncts = Vec::new();
    if let Some(where_expr) = &stmt.where_clause {
        if single_sub {
            conjuncts.push(Conjunct::Single(0, where_expr.clone()));
        } else {
            let mut parts = Vec::new();
            flatten_and(where_expr, &mut parts);
            for part in parts {
                conjuncts.push(lw.classify_conjunct(part)?);
            }
        }
    }

    // Collect scan columns in normative order: select items, ON conditions,
    // residual conjuncts.
    match &stmt.list {
        SelectList::Star(_) => {
            // `*` projects everything in scope.
            for idx in 0..lw.sources.len() {
                if let SourceKind::Base { schema, .. } = &lw.sources[idx].kind {
                    for raw in 0..schema.len() {
                        lw.register(idx, raw);
                    }
                }
            }
        }
        SelectList::Items(items) => {
            for item in items {
                lw.collect_expr(&item.expr)?;
            }
        }
    }
    for join in &stmt.joins {
        for cond in &join.conds {
            lw.locate_and_register(&cond.left)?;
            lw.locate_and_register(&cond.right)?;
        }
    }
    for conjunct in &conjuncts {
        match conjunct {
            Conjunct::Pushed => {}
            Conjunct::Single(_, expr) | Conjunct::Global(expr) => lw.collect_expr(expr)?,
        }
    }
    // A base table nothing projects still needs one column to scan.
    for source in &mut lw.sources {
        if let SourceKind::Base { used, schema, .. } = &mut source.kind {
            if used.is_empty() && !schema.is_empty() {
                used.push(0);
            }
        }
    }

    // Per-source nodes, with single-source residual filters applied pre-join.
    let mut nodes: Vec<Option<Node>> = (0..lw.sources.len())
        .map(|idx| Some(lw.source_node(idx)))
        .collect();
    // All of one source's residual conjuncts fold into a single AND-combined
    // filter (matching how a hand-written plan would spell them), in WHERE
    // order.
    let mut single_filters: Vec<Option<IrExpr>> = vec![None; lw.sources.len()];
    for conjunct in &conjuncts {
        if let Conjunct::Single(idx, expr) = conjunct {
            let scope = Scope::single(&lw.sources, *idx);
            let lowered = lw.lower_expr(expr, &scope)?;
            single_filters[*idx] = Some(match single_filters[*idx].take() {
                None => lowered,
                Some(acc) => IrExpr {
                    pos: acc.pos,
                    kind: ExprKind::And(Box::new(acc), Box::new(lowered)),
                },
            });
        }
    }
    for (idx, predicate) in single_filters.into_iter().enumerate() {
        if let Some(predicate) = predicate {
            let input = nodes[idx].take().expect("source node consumed once");
            nodes[idx] = Some(Node::Filter {
                pos: predicate.pos,
                input: Box::new(input),
                predicate,
            });
        }
    }

    // Left-deep join tree; SEMI keeps probe columns only.
    let mut active = vec![0usize];
    let mut tree = nodes[0].take().expect("first source node");
    for (j, join) in stmt.joins.iter().enumerate() {
        let right = j + 1;
        let mut build_keys = Vec::new();
        let mut probe_keys = Vec::new();
        for cond in &join.conds {
            let left = lw.locate(&cond.left)?;
            let rightc = lw.locate(&cond.right)?;
            let (build, probe) = if active.contains(&left.source) && rightc.source == right {
                (left, rightc)
            } else if active.contains(&rightc.source) && left.source == right {
                (rightc, left)
            } else {
                return Err(IrError::semantic(
                    cond.pos,
                    "join condition must relate an in-scope column to the joined table".to_string(),
                ));
            };
            build_keys.push(scope_index(&lw.sources, &active, build));
            probe_keys.push(lw.local_index(probe));
        }
        let probe_node = nodes[right].take().expect("probe node");
        tree = Node::Join {
            pos: join.pos,
            join_type: if join.semi {
                JoinType::ProbeSemi
            } else {
                JoinType::Inner
            },
            build: Box::new(tree),
            probe: Box::new(probe_node),
            build_keys,
            probe_keys,
        };
        if join.semi {
            active = vec![right];
        } else {
            active.push(right);
        }
    }

    // Residual conjuncts spanning several sources go above the join tree.
    let scope = Scope::active(&lw.sources, &active);
    let mut global_filter: Option<IrExpr> = None;
    for conjunct in &conjuncts {
        if let Conjunct::Global(expr) = conjunct {
            let lowered = lw.lower_expr(expr, &scope)?;
            global_filter = Some(match global_filter {
                None => lowered,
                Some(acc) => IrExpr {
                    pos: acc.pos,
                    kind: ExprKind::And(Box::new(acc), Box::new(lowered)),
                },
            });
        }
    }
    if let Some(predicate) = global_filter {
        tree = Node::Filter {
            pos: predicate.pos,
            input: Box::new(tree),
            predicate,
        };
    }

    // SELECT list: aggregate, project, or pass-through.
    let is_aggregate = !stmt.group_by.is_empty()
        || matches!(&stmt.list, SelectList::Items(items)
            if items.iter().any(|i| matches!(i.expr.kind, AstExprKind::Agg { .. })));
    let (mut tree, out_cols) = if is_aggregate {
        let SelectList::Items(items) = &stmt.list else {
            return Err(IrError::semantic(
                stmt.pos,
                "`SELECT *` cannot be combined with GROUP BY or aggregates".to_string(),
            ));
        };
        lw.lower_aggregate(stmt, items, tree, &scope)?
    } else {
        match &stmt.list {
            SelectList::Star(_) => {
                let out_cols = star_columns(&lw.sources, &active);
                (tree, out_cols)
            }
            SelectList::Items(items) => lw.lower_project(items, tree, &scope)?,
        }
    };

    // ORDER BY / LIMIT resolve against the output columns.
    if !stmt.order_by.is_empty() {
        let mut keys = Vec::new();
        for item in &stmt.order_by {
            let idx = output_index(&out_cols, &item.name, item.pos)?;
            keys.push(if item.desc {
                SortKey::desc(idx)
            } else {
                SortKey::asc(idx)
            });
        }
        tree = Node::Sort {
            pos: stmt.order_by[0].pos,
            input: Box::new(tree),
            keys,
            limit: stmt.limit,
        };
    } else if stmt.limit.is_some() {
        return Err(IrError::semantic(
            stmt.pos,
            "LIMIT requires ORDER BY".to_string(),
        ));
    }

    Ok((tree, out_cols))
}

/// Output columns of `SELECT *`: pass-through names over a single source,
/// fresh positional names (`c0`..`cN`) over a join (whose sides may repeat
/// names).
fn star_columns(sources: &[Source], active: &[usize]) -> Vec<OutCol> {
    if let [only] = active {
        let source = &sources[*only];
        return (0..source.width()).map(|i| source.out_col(i)).collect();
    }
    let mut cols = Vec::new();
    for &idx in active {
        let source = &sources[idx];
        for i in 0..source.width() {
            cols.push((Some(format!("c{}", cols.len())), source.out_col(i).1));
        }
    }
    cols
}

/// Resolve an output-column name (ORDER BY, outer references).
fn output_index(out_cols: &[OutCol], name: &str, pos: Pos) -> Result<usize, IrError> {
    let mut found = None;
    for (idx, (col_name, _)) in out_cols.iter().enumerate() {
        if col_name.as_deref() == Some(name) {
            if found.is_some() {
                return Err(IrError::semantic(
                    pos,
                    format!("output column `{name}` is ambiguous"),
                ));
            }
            found = Some(idx);
        }
    }
    found.ok_or_else(|| IrError::semantic(pos, format!("unknown output column `{name}`")))
}

/// Resolution scope: the output columns of a set of sources, with (source,
/// local) → flat index mapping.
struct Scope<'a> {
    sources: &'a [Source],
    active: Vec<usize>,
    types: Vec<DataType>,
}

impl<'a> Scope<'a> {
    fn active(sources: &'a [Source], active: &[usize]) -> Scope<'a> {
        let mut types = Vec::new();
        for &idx in active {
            let source = &sources[idx];
            for i in 0..source.width() {
                types.push(source.out_col(i).1);
            }
        }
        Scope {
            sources,
            active: active.to_vec(),
            types,
        }
    }

    fn single(sources: &'a [Source], idx: usize) -> Scope<'a> {
        Scope::active(sources, &[idx])
    }

    /// Flat index of a located column, or an error if its source is not in
    /// this scope (e.g. referencing a semi-join build side after the join).
    fn flat_index(&self, located: Located, local: usize, pos: Pos) -> Result<usize, IrError> {
        let mut offset = 0;
        for &idx in &self.active {
            if idx == located.source {
                return Ok(offset + local);
            }
            offset += self.sources[idx].width();
        }
        Err(IrError::semantic(
            pos,
            "column's table is no longer in scope here (it was consumed by a SEMI JOIN)"
                .to_string(),
        ))
    }
}

/// Flat index of a located column within the `active` source set (panics if
/// absent — join-key resolution checks membership first).
fn scope_index(sources: &[Source], active: &[usize], located: Located) -> usize {
    let mut offset = 0;
    for &idx in active {
        if idx == located.source {
            let local = match &sources[idx].kind {
                SourceKind::Base { used, .. } => used
                    .iter()
                    .position(|&u| u == located.raw)
                    .expect("located column was registered"),
                SourceKind::Sub { .. } => located.raw,
            };
            return offset + local;
        }
        offset += sources[idx].width();
    }
    unreachable!("scope_index called with out-of-scope source")
}

/// Split an expression into its top-level AND conjuncts, in textual order.
fn flatten_and<'e>(expr: &'e AstExpr, out: &mut Vec<&'e AstExpr>) {
    if let AstExprKind::And(lhs, rhs) = &expr.kind {
        flatten_and(lhs, out);
        flatten_and(rhs, out);
    } else {
        out.push(expr);
    }
}

impl Lowerer<'_> {
    fn add_source(&mut self, table: &TableRef) -> Result<(), IrError> {
        let (alias, pos, kind) = match table {
            TableRef::Base { pos, name, alias } => {
                let Some(columns) = self.catalog.relation_columns(name) else {
                    return Err(IrError::semantic(
                        *pos,
                        format!("unknown relation `{name}`"),
                    ));
                };
                (
                    alias.clone().unwrap_or_else(|| name.clone()),
                    *pos,
                    SourceKind::Base {
                        pos: *pos,
                        relation: name.clone(),
                        schema: columns,
                        used: Vec::new(),
                        preds: Vec::new(),
                    },
                )
            }
            TableRef::Sub { pos, query, alias } => {
                let (node, cols) = lower_select(self.catalog, query)?;
                (alias.clone(), *pos, SourceKind::Sub { node, cols })
            }
        };
        if self.sources.iter().any(|s| s.alias == alias) {
            return Err(IrError::semantic(
                pos,
                format!("duplicate table alias `{alias}`"),
            ));
        }
        self.sources.push(Source { alias, kind });
        Ok(())
    }

    fn push_prewhere(&mut self, pred: &AstPred) -> Result<(), IrError> {
        let SourceKind::Base { schema, preds, .. } = &mut self.sources[0].kind else {
            unreachable!("PREWHERE legality checked by caller");
        };
        if !schema.iter().any(|(name, _)| name == &pred.column) {
            return Err(IrError::semantic(
                pred.pos,
                format!("unknown PREWHERE column `{}`", pred.column),
            ));
        }
        let kind = match &pred.kind {
            AstPredKind::Cmp(op, value) => PredicateKind::Cmp(*op, value.clone()),
            AstPredKind::Between(lo, hi) => PredicateKind::Between(lo.clone(), hi.clone()),
            AstPredKind::IsNull => PredicateKind::IsNull,
            AstPredKind::IsNotNull => PredicateKind::IsNotNull,
        };
        preds.push(ScanPredicate {
            pos: pred.pos,
            column: pred.column.clone(),
            kind,
        });
        Ok(())
    }

    /// The canonical bare-scan form: single base table, bare select columns,
    /// nothing but PREWHERE / ORDER BY / LIMIT around it. Projection is the
    /// select list **verbatim** (duplicates preserved).
    fn try_simple_scan(&self, stmt: &SelectStmt) -> Result<Option<(Node, Vec<OutCol>)>, IrError> {
        if self.sources.len() != 1 || stmt.where_clause.is_some() || !stmt.group_by.is_empty() {
            return Ok(None);
        }
        let Source {
            kind:
                SourceKind::Base {
                    pos,
                    relation,
                    schema,
                    preds,
                    ..
                },
            ..
        } = &self.sources[0]
        else {
            return Ok(None);
        };
        let (columns, out_cols): (Vec<String>, Vec<OutCol>) = match &stmt.list {
            SelectList::Star(_) => schema
                .iter()
                .map(|(name, ty)| (name.clone(), (Some(name.clone()), *ty)))
                .unzip(),
            SelectList::Items(items) => {
                let mut columns = Vec::new();
                let mut out_cols = Vec::new();
                for item in items {
                    let AstExprKind::Col(col) = &item.expr.kind else {
                        return Ok(None);
                    };
                    if item.ty.is_some()
                        || col
                            .qualifier
                            .as_deref()
                            .is_some_and(|q| q != self.sources[0].alias)
                    {
                        return Ok(None);
                    }
                    let Some((_, ty)) = schema.iter().find(|(name, _)| name == &col.name) else {
                        return Err(IrError::semantic(
                            col.pos,
                            format!("unknown column `{}` in relation `{relation}`", col.name),
                        ));
                    };
                    columns.push(col.name.clone());
                    out_cols.push((
                        Some(item.alias.clone().unwrap_or_else(|| col.name.clone())),
                        *ty,
                    ));
                }
                (columns, out_cols)
            }
        };
        let mut node = Node::Scan {
            pos: *pos,
            relation: relation.clone(),
            columns,
            predicates: preds.clone(),
        };
        if !stmt.order_by.is_empty() {
            let mut keys = Vec::new();
            for item in &stmt.order_by {
                let idx = output_index(&out_cols, &item.name, item.pos)?;
                keys.push(if item.desc {
                    SortKey::desc(idx)
                } else {
                    SortKey::asc(idx)
                });
            }
            node = Node::Sort {
                pos: stmt.order_by[0].pos,
                input: Box::new(node),
                keys,
                limit: stmt.limit,
            };
        } else if stmt.limit.is_some() {
            return Err(IrError::semantic(
                stmt.pos,
                "LIMIT requires ORDER BY".to_string(),
            ));
        }
        Ok(Some((node, out_cols)))
    }

    /// Resolve a column reference against the sources (schema-level).
    fn locate(&self, col: &ColRef) -> Result<Located, IrError> {
        if let Some(qualifier) = &col.qualifier {
            let Some(source_idx) = self.sources.iter().position(|s| &s.alias == qualifier) else {
                return Err(IrError::semantic(
                    col.pos,
                    format!("unknown table alias `{qualifier}`"),
                ));
            };
            let raw = self.locate_in(source_idx, col)?;
            return Ok(Located {
                source: source_idx,
                raw,
            });
        }
        let mut found = None;
        for source_idx in 0..self.sources.len() {
            if let Ok(raw) = self.locate_in(source_idx, col) {
                if found.is_some() {
                    return Err(IrError::semantic(
                        col.pos,
                        format!(
                            "column `{}` is ambiguous (qualify it with a table alias)",
                            col.name
                        ),
                    ));
                }
                found = Some(Located {
                    source: source_idx,
                    raw,
                });
            }
        }
        found.ok_or_else(|| IrError::semantic(col.pos, format!("unknown column `{}`", col.name)))
    }

    /// Position of `col` within one source: base-table schema index, or
    /// subquery output index.
    fn locate_in(&self, source_idx: usize, col: &ColRef) -> Result<usize, IrError> {
        match &self.sources[source_idx].kind {
            SourceKind::Base { schema, .. } => schema
                .iter()
                .position(|(name, _)| name == &col.name)
                .ok_or_else(|| {
                    IrError::semantic(col.pos, format!("unknown column `{}`", col.name))
                }),
            SourceKind::Sub { cols, .. } => {
                let mut found = None;
                for (idx, (name, _)) in cols.iter().enumerate() {
                    if name.as_deref() == Some(col.name.as_str()) {
                        if found.is_some() {
                            return Err(IrError::semantic(
                                col.pos,
                                format!("column `{}` is ambiguous in the subquery", col.name),
                            ));
                        }
                        found = Some(idx);
                    }
                }
                found.ok_or_else(|| {
                    IrError::semantic(col.pos, format!("unknown column `{}`", col.name))
                })
            }
        }
    }

    /// Register a schema column of a base table as projected.
    fn register(&mut self, source_idx: usize, raw: usize) {
        if let SourceKind::Base { used, .. } = &mut self.sources[source_idx].kind {
            if !used.contains(&raw) {
                used.push(raw);
            }
        }
    }

    fn locate_and_register(&mut self, col: &ColRef) -> Result<Located, IrError> {
        let located = self.locate(col)?;
        self.register(located.source, located.raw);
        Ok(located)
    }

    /// Register every column reference in an expression.
    fn collect_expr(&mut self, expr: &AstExpr) -> Result<(), IrError> {
        match &expr.kind {
            AstExprKind::Col(col) => {
                self.locate_and_register(col)?;
            }
            AstExprKind::Lit(_) => {}
            AstExprKind::Arith(_, lhs, rhs)
            | AstExprKind::Cmp(_, lhs, rhs)
            | AstExprKind::And(lhs, rhs)
            | AstExprKind::Or(lhs, rhs) => {
                self.collect_expr(lhs)?;
                self.collect_expr(rhs)?;
            }
            AstExprKind::Between(value, lo, hi) => {
                self.collect_expr(value)?;
                self.collect_expr(lo)?;
                self.collect_expr(hi)?;
            }
            AstExprKind::Case(cond, then, otherwise) => {
                self.collect_expr(cond)?;
                self.collect_expr(then)?;
                self.collect_expr(otherwise)?;
            }
            AstExprKind::Agg { arg, .. } => {
                if let Some(arg) = arg {
                    self.collect_expr(arg)?;
                }
            }
        }
        Ok(())
    }

    /// Classify one WHERE conjunct; pushable ones are appended to their base
    /// table's scan predicates immediately.
    fn classify_conjunct(&mut self, expr: &AstExpr) -> Result<Conjunct, IrError> {
        if let Some((located, pred)) = self.try_extract_scan_pred(expr)? {
            if let SourceKind::Base { preds, .. } = &mut self.sources[located.source].kind {
                preds.push(pred);
                return Ok(Conjunct::Pushed);
            }
        }
        let mut refs = Vec::new();
        collect_col_refs(expr, &mut refs);
        let mut source_set = Vec::new();
        for col in refs {
            let located = self.locate(col)?;
            if !source_set.contains(&located.source) {
                source_set.push(located.source);
            }
        }
        Ok(match source_set.as_slice() {
            [single] => Conjunct::Single(*single, expr.clone()),
            _ => Conjunct::Global(expr.clone()),
        })
    }

    /// Try to read a conjunct as a SARGable scan predicate over one base
    /// table: `col <cmp> lit`, `lit <cmp> col` (flipped), or
    /// `col BETWEEN lit AND lit`, with the literal type equal to the column
    /// type (no NULLs).
    fn try_extract_scan_pred(
        &self,
        expr: &AstExpr,
    ) -> Result<Option<(Located, ScanPredicate)>, IrError> {
        let (col, kind) = match &expr.kind {
            AstExprKind::Cmp(op, lhs, rhs) => match (&lhs.kind, &rhs.kind) {
                (AstExprKind::Col(col), AstExprKind::Lit(value)) => {
                    (col, PredicateKind::Cmp(*op, value.clone()))
                }
                (AstExprKind::Lit(value), AstExprKind::Col(col)) => {
                    (col, PredicateKind::Cmp(op.flip(), value.clone()))
                }
                _ => return Ok(None),
            },
            AstExprKind::Between(value, lo, hi) => match (&value.kind, &lo.kind, &hi.kind) {
                (AstExprKind::Col(col), AstExprKind::Lit(lo), AstExprKind::Lit(hi)) => {
                    (col, PredicateKind::Between(lo.clone(), hi.clone()))
                }
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        let located = self.locate(col)?;
        let SourceKind::Base { schema, .. } = &self.sources[located.source].kind else {
            return Ok(None);
        };
        let column_ty = schema[located.raw].1;
        let matches_ty = |value: &Value| value_type(value) == Ty::Known(column_ty);
        let ok = match &kind {
            PredicateKind::Cmp(_, value) => matches_ty(value),
            PredicateKind::Between(lo, hi) => matches_ty(lo) && matches_ty(hi),
            _ => unreachable!(),
        };
        if !ok {
            return Ok(None);
        }
        Ok(Some((
            located,
            ScanPredicate {
                pos: expr.pos,
                column: col.name.clone(),
                kind,
            },
        )))
    }

    /// IR node for one source (scan for base tables, the lowered subquery
    /// otherwise).
    fn source_node(&self, idx: usize) -> Node {
        match &self.sources[idx].kind {
            SourceKind::Base {
                pos,
                relation,
                schema,
                used,
                preds,
            } => Node::Scan {
                pos: *pos,
                relation: relation.clone(),
                columns: used.iter().map(|&u| schema[u].0.clone()).collect(),
                predicates: preds.clone(),
            },
            SourceKind::Sub { node, .. } => node.clone(),
        }
    }

    /// Position of a located column within its source's *output*.
    fn local_index(&self, located: Located) -> usize {
        match &self.sources[located.source].kind {
            SourceKind::Base { used, .. } => used
                .iter()
                .position(|&u| u == located.raw)
                .expect("located column was registered"),
            SourceKind::Sub { .. } => located.raw,
        }
    }

    /// Lower a scalar expression against a scope (no aggregates allowed).
    fn lower_expr(&self, expr: &AstExpr, scope: &Scope<'_>) -> Result<IrExpr, IrError> {
        let kind = match &expr.kind {
            AstExprKind::Col(col) => {
                let located = self.locate(col)?;
                let local = self.local_index(located);
                ExprKind::Col(scope.flat_index(located, local, col.pos)?)
            }
            AstExprKind::Lit(value) => ExprKind::Lit(value.clone()),
            AstExprKind::Arith(op, lhs, rhs) => ExprKind::Arith(
                *op,
                Box::new(self.lower_expr(lhs, scope)?),
                Box::new(self.lower_expr(rhs, scope)?),
            ),
            AstExprKind::Cmp(op, lhs, rhs) => ExprKind::Cmp(
                *op,
                Box::new(self.lower_expr(lhs, scope)?),
                Box::new(self.lower_expr(rhs, scope)?),
            ),
            AstExprKind::And(lhs, rhs) => ExprKind::And(
                Box::new(self.lower_expr(lhs, scope)?),
                Box::new(self.lower_expr(rhs, scope)?),
            ),
            AstExprKind::Or(lhs, rhs) => ExprKind::Or(
                Box::new(self.lower_expr(lhs, scope)?),
                Box::new(self.lower_expr(rhs, scope)?),
            ),
            AstExprKind::Between(value, lo, hi) => {
                // Desugar: value >= lo AND value <= hi (duplicating `value`).
                let value_ir = self.lower_expr(value, scope)?;
                let lo_ir = self.lower_expr(lo, scope)?;
                let hi_ir = self.lower_expr(hi, scope)?;
                ExprKind::And(
                    Box::new(IrExpr {
                        pos: expr.pos,
                        kind: ExprKind::Cmp(CmpOp::Ge, Box::new(value_ir.clone()), Box::new(lo_ir)),
                    }),
                    Box::new(IrExpr {
                        pos: expr.pos,
                        kind: ExprKind::Cmp(CmpOp::Le, Box::new(value_ir), Box::new(hi_ir)),
                    }),
                )
            }
            AstExprKind::Case(cond, then, otherwise) => ExprKind::Case(
                Box::new(self.lower_expr(cond, scope)?),
                Box::new(self.lower_expr(then, scope)?),
                Box::new(self.lower_expr(otherwise, scope)?),
            ),
            AstExprKind::Agg { .. } => {
                return Err(IrError::semantic(
                    expr.pos,
                    "aggregate calls are only allowed at the top level of a select item"
                        .to_string(),
                ))
            }
        };
        Ok(IrExpr {
            pos: expr.pos,
            kind,
        })
    }

    /// Declared type for a lowered expression: explicit `::type` or inference.
    fn declared_type(
        &self,
        lowered: &IrExpr,
        explicit: Option<DataType>,
        scope: &Scope<'_>,
        pos: Pos,
        what: &str,
    ) -> Result<DataType, IrError> {
        if let Some(ty) = explicit {
            return Ok(ty);
        }
        match infer_type(lowered, &scope.types)? {
            Ty::Known(ty) => Ok(ty),
            Ty::Any => Err(IrError::semantic(
                pos,
                format!(
                    "cannot infer the type of {what}; annotate it with ::int, ::double or ::str"
                ),
            )),
        }
    }

    /// Lower an aggregate select list (GROUP BY prefix + aggregate calls).
    fn lower_aggregate(
        &self,
        stmt: &SelectStmt,
        items: &[SelectItem],
        input: Node,
        scope: &Scope<'_>,
    ) -> Result<(Node, Vec<OutCol>), IrError> {
        let group_count = stmt.group_by.len();
        if items.len() < group_count {
            return Err(IrError::semantic(
                stmt.pos,
                "every GROUP BY column must appear as a leading select item".to_string(),
            ));
        }
        let mut groups = Vec::new();
        let mut out_cols = Vec::new();
        for (idx, (gb_pos, gb_name)) in stmt.group_by.iter().enumerate() {
            let item = &items[idx];
            let item_name = item.alias.clone().or_else(|| match &item.expr.kind {
                AstExprKind::Col(col) => Some(col.name.clone()),
                _ => None,
            });
            if item_name.as_deref() != Some(gb_name.as_str()) {
                return Err(IrError::semantic(
                    *gb_pos,
                    format!(
                        "select item #{} must be the GROUP BY column `{gb_name}` (in GROUP BY order)",
                        idx + 1
                    ),
                ));
            }
            let lowered = self.lower_expr(&item.expr, scope)?;
            let ty = self.declared_type(&lowered, item.ty, scope, item.pos, "a group key")?;
            groups.push(TypedExpr { expr: lowered, ty });
            out_cols.push((item_name, ty));
        }
        let mut aggregates = Vec::new();
        for item in &items[group_count..] {
            let AstExprKind::Agg { func, arg } = &item.expr.kind else {
                return Err(IrError::semantic(
                    item.pos,
                    "select items after the GROUP BY columns must be aggregate calls".to_string(),
                ));
            };
            let lowered = match arg {
                Some(arg) => Some(self.lower_expr(arg, scope)?),
                None => None,
            };
            let ty = match item.ty {
                Some(ty) => ty,
                None => match func {
                    AggFunc::Count | AggFunc::CountStar => DataType::Int,
                    AggFunc::Avg => DataType::Double,
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                        let operand = lowered.as_ref().expect("non-count_star has an operand");
                        match infer_type(operand, &scope.types)? {
                            Ty::Known(ty) => ty,
                            Ty::Any => {
                                return Err(IrError::semantic(
                                    item.pos,
                                    "cannot infer the aggregate's type; annotate it with ::int, ::double or ::str"
                                        .to_string(),
                                ))
                            }
                        }
                    }
                },
            };
            aggregates.push(AggItem {
                pos: item.pos,
                func: *func,
                expr: lowered,
                ty,
            });
            out_cols.push((item.alias.clone(), ty));
        }
        Ok((
            Node::Aggregate {
                pos: stmt.pos,
                input: Box::new(input),
                groups,
                aggregates,
            },
            out_cols,
        ))
    }

    /// Lower a plain (non-aggregate) select list to a `project`.
    fn lower_project(
        &self,
        items: &[SelectItem],
        input: Node,
        scope: &Scope<'_>,
    ) -> Result<(Node, Vec<OutCol>), IrError> {
        let mut exprs = Vec::new();
        let mut out_cols = Vec::new();
        for item in items {
            let lowered = self.lower_expr(&item.expr, scope)?;
            let ty = self.declared_type(&lowered, item.ty, scope, item.pos, "a select item")?;
            let name = item.alias.clone().or_else(|| match &item.expr.kind {
                AstExprKind::Col(col) => Some(col.name.clone()),
                _ => None,
            });
            exprs.push(TypedExpr { expr: lowered, ty });
            out_cols.push((name, ty));
        }
        let pos = items[0].pos;
        Ok((
            Node::Project {
                pos,
                input: Box::new(input),
                exprs,
            },
            out_cols,
        ))
    }
}

/// Collect every column reference in an expression, in textual order.
fn collect_col_refs<'e>(expr: &'e AstExpr, out: &mut Vec<&'e ColRef>) {
    match &expr.kind {
        AstExprKind::Col(col) => out.push(col),
        AstExprKind::Lit(_) => {}
        AstExprKind::Arith(_, lhs, rhs)
        | AstExprKind::Cmp(_, lhs, rhs)
        | AstExprKind::And(lhs, rhs)
        | AstExprKind::Or(lhs, rhs) => {
            collect_col_refs(lhs, out);
            collect_col_refs(rhs, out);
        }
        AstExprKind::Between(value, lo, hi) => {
            collect_col_refs(value, out);
            collect_col_refs(lo, out);
            collect_col_refs(hi, out);
        }
        AstExprKind::Case(cond, then, otherwise) => {
            collect_col_refs(cond, out);
            collect_col_refs(then, out);
            collect_col_refs(otherwise, out);
        }
        AstExprKind::Agg { arg, .. } => {
            if let Some(arg) = arg {
                collect_col_refs(arg, out);
            }
        }
    }
}
