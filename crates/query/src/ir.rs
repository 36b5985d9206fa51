//! The versioned JSON IR for logical query plans.
//!
//! This module defines the **logical** plan vocabulary — six relational node
//! kinds (`scan`, `filter`, `project`, `aggregate`, `join`, `sort`), scalar
//! expressions mirroring [`exec::expr::Expr`], typed literals, and SARGable scan
//! predicates mirroring [`datablocks::scan::Restriction`] — together with the
//! decoder from positioned JSON ([`crate::json`]) and the canonical serializer.
//!
//! The byte-level contract (every accepted field, the typing rules, the
//! versioning policy and the error taxonomy) is specified normatively in
//! `crates/query/README.md`; this module is its implementation. Decoding is
//! **strict**: unknown node kinds, unknown fields, missing fields and
//! wrongly-typed fields are all [`IrErrorKind::Schema`](crate::IrErrorKind)
//! errors anchored to a line/column of the source text. Name/type resolution
//! against a catalog happens later, in [`crate::Planner`].

use datablocks::{DataType, Value};
use dbsimd::CmpOp;
use exec::ops::{AggFunc, JoinType, SortKey};
use exec::ArithOp;

use crate::error::IrError;
use crate::json::{self, Json, JsonValue, Pos};

/// The IR version this build reads and writes.
pub const IR_VERSION: i64 = 1;

/// A complete IR document: the format version plus the root logical node.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryIr {
    /// Format version (must equal [`IR_VERSION`]).
    pub version: i64,
    /// The root of the logical plan.
    pub root: Node,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A base-table scan: named relation, projected columns (by name), and
    /// SARGable predicates evaluated inside the scan (on compressed data, with
    /// SMA/PSMA pruning). Predicate columns are independent of the projection.
    Scan {
        /// Position of the node in the source text.
        pos: Pos,
        /// Relation name, resolved against the catalog at plan time.
        relation: String,
        /// Projected column names (the node's output, in order).
        columns: Vec<String>,
        /// SARGable predicates pushed into the scan.
        predicates: Vec<ScanPredicate>,
    },
    /// Keep only tuples for which `predicate` is true (SQL-ish truthiness:
    /// NULL and zero are false).
    Filter {
        /// Position of the node in the source text.
        pos: Pos,
        /// Input node.
        input: Box<Node>,
        /// The predicate expression over the input's columns.
        predicate: IrExpr,
    },
    /// Compute new columns from expressions over the input.
    Project {
        /// Position of the node in the source text.
        pos: Pos,
        /// Input node.
        input: Box<Node>,
        /// Output expressions with their declared types.
        exprs: Vec<TypedExpr>,
    },
    /// Hash aggregation: group by `groups`, compute `aggregates` per group.
    /// Output columns are the group keys followed by the aggregates; groups are
    /// emitted in sorted key order (deterministic for every thread count).
    Aggregate {
        /// Position of the node in the source text.
        pos: Pos,
        /// Input node.
        input: Box<Node>,
        /// Group-key expressions with their declared types.
        groups: Vec<TypedExpr>,
        /// Aggregates to compute per group.
        aggregates: Vec<AggItem>,
    },
    /// Hash equi-join: the build side is materialised into a hash table, the
    /// probe side streams. `inner` output is build columns ++ probe columns;
    /// `semi` keeps probe tuples with at least one build match (probe columns
    /// only). NULL keys never join.
    Join {
        /// Position of the node in the source text.
        pos: Pos,
        /// Inner or probe-semi join.
        join_type: JoinType,
        /// Build side (materialised).
        build: Box<Node>,
        /// Probe side (streamed).
        probe: Box<Node>,
        /// Key column positions in the build output.
        build_keys: Vec<usize>,
        /// Key column positions in the probe output.
        probe_keys: Vec<usize>,
    },
    /// Sort the full input, optionally keeping only the first `limit` tuples.
    Sort {
        /// Position of the node in the source text.
        pos: Pos,
        /// Input node.
        input: Box<Node>,
        /// Sort keys (column position + direction), most significant first.
        keys: Vec<SortKey>,
        /// Optional `LIMIT`.
        limit: Option<usize>,
    },
}

impl Node {
    /// Position of the node in the source text.
    pub fn pos(&self) -> Pos {
        match self {
            Node::Scan { pos, .. }
            | Node::Filter { pos, .. }
            | Node::Project { pos, .. }
            | Node::Aggregate { pos, .. }
            | Node::Join { pos, .. }
            | Node::Sort { pos, .. } => *pos,
        }
    }
}

/// An expression with a declared output type (projection or group key).
#[derive(Debug, Clone, PartialEq)]
pub struct TypedExpr {
    /// The expression.
    pub expr: IrExpr,
    /// Declared output type; the planner checks it against the inferred type.
    pub ty: DataType,
}

/// One aggregate of an `aggregate` node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    /// Position in the source text.
    pub pos: Pos,
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated expression; absent exactly for `count_star`.
    pub expr: Option<IrExpr>,
    /// Declared output type; the planner checks it against the function.
    pub ty: DataType,
}

/// A SARGable predicate of a `scan` node (one restricted column, compared with
/// typed literal constants — the only predicate shape the compressed scan
/// kernels evaluate directly).
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPredicate {
    /// Position in the source text.
    pub pos: Pos,
    /// Restricted column, by name (need not be projected).
    pub column: String,
    /// The comparison.
    pub kind: PredicateKind,
}

/// The comparison alternatives of a [`ScanPredicate`].
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateKind {
    /// `column <op> constant`
    Cmp(CmpOp, Value),
    /// `column BETWEEN lo AND hi` (inclusive).
    Between(Value, Value),
    /// `column IS NULL`
    IsNull,
    /// `column IS NOT NULL`
    IsNotNull,
}

/// A scalar expression with a source position on every node.
#[derive(Debug, Clone, PartialEq)]
pub struct IrExpr {
    /// Position in the source text.
    pub pos: Pos,
    /// The expression alternative.
    pub kind: ExprKind,
}

/// The expression vocabulary — a positioned mirror of [`exec::expr::Expr`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Input column by position.
    Col(usize),
    /// Typed literal constant.
    Lit(Value),
    /// Arithmetic (`add`/`sub`/`mul`/`div`, SQL NULL propagation; integer
    /// division widens to double).
    Arith(ArithOp, Box<IrExpr>, Box<IrExpr>),
    /// Comparison yielding 1/0/NULL.
    Cmp(CmpOp, Box<IrExpr>, Box<IrExpr>),
    /// Three-valued logical AND.
    And(Box<IrExpr>, Box<IrExpr>),
    /// Three-valued logical OR.
    Or(Box<IrExpr>, Box<IrExpr>),
    /// `CASE WHEN cond THEN a ELSE b END` (NULL condition takes the ELSE arm).
    Case(Box<IrExpr>, Box<IrExpr>, Box<IrExpr>),
}

impl IrExpr {
    /// Convert into the executable expression form (positions dropped).
    pub fn to_exec(&self) -> exec::Expr {
        match &self.kind {
            ExprKind::Col(idx) => exec::Expr::Col(*idx),
            ExprKind::Lit(value) => exec::Expr::Const(value.clone()),
            ExprKind::Arith(op, lhs, rhs) => {
                exec::Expr::Arith(*op, Box::new(lhs.to_exec()), Box::new(rhs.to_exec()))
            }
            ExprKind::Cmp(op, lhs, rhs) => {
                exec::Expr::Cmp(*op, Box::new(lhs.to_exec()), Box::new(rhs.to_exec()))
            }
            ExprKind::And(lhs, rhs) => {
                exec::Expr::And(Box::new(lhs.to_exec()), Box::new(rhs.to_exec()))
            }
            ExprKind::Or(lhs, rhs) => {
                exec::Expr::Or(Box::new(lhs.to_exec()), Box::new(rhs.to_exec()))
            }
            ExprKind::Case(cond, then, otherwise) => exec::Expr::Case(
                Box::new(cond.to_exec()),
                Box::new(then.to_exec()),
                Box::new(otherwise.to_exec()),
            ),
        }
    }
}

/// Parse an IR document from JSON text (syntax + schema stages; no catalog
/// needed). Semantic validation happens in [`crate::Planner::plan`].
pub fn parse_ir(text: &str) -> Result<QueryIr, IrError> {
    let doc = json::parse(text)?;
    let obj = Obj::new(&doc, "IR document")?;
    obj.check_keys(&["version", "plan"])?;
    let version_json = obj.require("version")?;
    let version = match version_json.value {
        JsonValue::Int(v) => v,
        _ => {
            return Err(IrError::schema(
                version_json.pos,
                format!(
                    "`version` must be an integer, found {}",
                    version_json.value.kind_name()
                ),
            ))
        }
    };
    if version != IR_VERSION {
        return Err(IrError::schema(
            version_json.pos,
            format!("unsupported IR version {version} (this build supports version {IR_VERSION})"),
        ));
    }
    let root = parse_node(obj.require("plan")?)?;
    Ok(QueryIr { version, root })
}

// ---------------------------------------------------------------- JSON helpers

/// A borrowed JSON object with schema-error helpers.
struct Obj<'a> {
    pos: Pos,
    context: &'a str,
    fields: &'a [(String, Json)],
}

impl<'a> Obj<'a> {
    fn new(json: &'a Json, context: &'a str) -> Result<Obj<'a>, IrError> {
        match &json.value {
            JsonValue::Object(fields) => Ok(Obj {
                pos: json.pos,
                context,
                fields,
            }),
            other => Err(IrError::schema(
                json.pos,
                format!("{context} must be an object, found {}", other.kind_name()),
            )),
        }
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn require(&self, key: &str) -> Result<&'a Json, IrError> {
        self.get(key).ok_or_else(|| {
            IrError::schema(
                self.pos,
                format!("{} is missing the required field `{key}`", self.context),
            )
        })
    }

    fn check_keys(&self, allowed: &[&str]) -> Result<(), IrError> {
        for (key, value) in self.fields {
            if !allowed.contains(&key.as_str()) {
                return Err(IrError::schema(
                    value.pos,
                    format!(
                        "unknown field `{key}` in {} (accepted fields: {})",
                        self.context,
                        allowed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }
}

fn as_str<'a>(json: &'a Json, what: &str) -> Result<&'a str, IrError> {
    match &json.value {
        JsonValue::Str(s) => Ok(s),
        other => Err(IrError::schema(
            json.pos,
            format!("{what} must be a string, found {}", other.kind_name()),
        )),
    }
}

fn as_index(json: &Json, what: &str) -> Result<usize, IrError> {
    match json.value {
        JsonValue::Int(v) if v >= 0 => Ok(v as usize),
        JsonValue::Int(v) => Err(IrError::schema(
            json.pos,
            format!("{what} must be non-negative, found {v}"),
        )),
        ref other => Err(IrError::schema(
            json.pos,
            format!("{what} must be an integer, found {}", other.kind_name()),
        )),
    }
}

fn as_array<'a>(json: &'a Json, what: &str) -> Result<&'a [Json], IrError> {
    match &json.value {
        JsonValue::Array(items) => Ok(items),
        other => Err(IrError::schema(
            json.pos,
            format!("{what} must be an array, found {}", other.kind_name()),
        )),
    }
}

fn parse_type(json: &Json) -> Result<DataType, IrError> {
    match as_str(json, "a type")? {
        "int" => Ok(DataType::Int),
        "double" => Ok(DataType::Double),
        "str" => Ok(DataType::Str),
        other => Err(IrError::schema(
            json.pos,
            format!("unknown type {other:?} (accepted: int, double, str)"),
        )),
    }
}

fn cmp_op_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn parse_cmp_op(json: &Json) -> Result<CmpOp, IrError> {
    match as_str(json, "a comparison operator")? {
        "eq" => Ok(CmpOp::Eq),
        "ne" => Ok(CmpOp::Ne),
        "lt" => Ok(CmpOp::Lt),
        "le" => Ok(CmpOp::Le),
        "gt" => Ok(CmpOp::Gt),
        "ge" => Ok(CmpOp::Ge),
        other => Err(IrError::schema(
            json.pos,
            format!("unknown comparison operator {other:?} (accepted: eq, ne, lt, le, gt, ge)"),
        )),
    }
}

/// Parse a typed literal: a single-field object `{"int": ...}`, `{"double": ...}`,
/// `{"str": ...}` or `{"null": null}`.
fn parse_literal(json: &Json) -> Result<Value, IrError> {
    let obj = Obj::new(json, "a literal")?;
    if obj.fields.len() != 1 {
        return Err(IrError::schema(
            json.pos,
            "a literal must be an object with exactly one field: int, double, str or null",
        ));
    }
    let (key, value) = &obj.fields[0];
    match (key.as_str(), &value.value) {
        ("int", JsonValue::Int(v)) => Ok(Value::Int(*v)),
        ("int", other) => Err(IrError::schema(
            value.pos,
            format!(
                "`int` literal must be an integer, found {}",
                other.kind_name()
            ),
        )),
        ("double", JsonValue::Double(v)) => Ok(Value::Double(*v)),
        ("double", JsonValue::Int(v)) => Ok(Value::Double(*v as f64)),
        ("double", other) => Err(IrError::schema(
            value.pos,
            format!(
                "`double` literal must be a number, found {}",
                other.kind_name()
            ),
        )),
        ("str", JsonValue::Str(s)) => Ok(Value::Str(s.clone())),
        ("str", other) => Err(IrError::schema(
            value.pos,
            format!(
                "`str` literal must be a string, found {}",
                other.kind_name()
            ),
        )),
        ("null", JsonValue::Null) => Ok(Value::Null),
        ("null", other) => Err(IrError::schema(
            value.pos,
            format!(
                "`null` literal takes JSON null, found {}",
                other.kind_name()
            ),
        )),
        (other, _) => Err(IrError::schema(
            json.pos,
            format!("unknown literal kind {other:?} (accepted: int, double, str, null)"),
        )),
    }
}

// ------------------------------------------------------------------ expressions

fn parse_expr(json: &Json) -> Result<IrExpr, IrError> {
    let obj = Obj::new(json, "an expression")?;
    if obj.fields.len() != 1 {
        return Err(IrError::schema(
            json.pos,
            "an expression must be an object with exactly one field (col, a literal kind, \
             an operator, or case)",
        ));
    }
    let (key, value) = &obj.fields[0];
    let pos = json.pos;
    let kind = match key.as_str() {
        "col" => ExprKind::Col(as_index(value, "`col`")?),
        "int" | "double" | "str" | "null" => ExprKind::Lit(parse_literal(json)?),
        "add" => parse_binary(value, |l, r| ExprKind::Arith(ArithOp::Add, l, r), "add")?,
        "sub" => parse_binary(value, |l, r| ExprKind::Arith(ArithOp::Sub, l, r), "sub")?,
        "mul" => parse_binary(value, |l, r| ExprKind::Arith(ArithOp::Mul, l, r), "mul")?,
        "div" => parse_binary(value, |l, r| ExprKind::Arith(ArithOp::Div, l, r), "div")?,
        "eq" => parse_binary(value, |l, r| ExprKind::Cmp(CmpOp::Eq, l, r), "eq")?,
        "ne" => parse_binary(value, |l, r| ExprKind::Cmp(CmpOp::Ne, l, r), "ne")?,
        "lt" => parse_binary(value, |l, r| ExprKind::Cmp(CmpOp::Lt, l, r), "lt")?,
        "le" => parse_binary(value, |l, r| ExprKind::Cmp(CmpOp::Le, l, r), "le")?,
        "gt" => parse_binary(value, |l, r| ExprKind::Cmp(CmpOp::Gt, l, r), "gt")?,
        "ge" => parse_binary(value, |l, r| ExprKind::Cmp(CmpOp::Ge, l, r), "ge")?,
        "and" => parse_variadic(value, pos, ExprKind::And, "and")?,
        "or" => parse_variadic(value, pos, ExprKind::Or, "or")?,
        "case" => {
            let case = Obj::new(value, "a `case` expression")?;
            case.check_keys(&["when", "then", "else"])?;
            ExprKind::Case(
                Box::new(parse_expr(case.require("when")?)?),
                Box::new(parse_expr(case.require("then")?)?),
                Box::new(parse_expr(case.require("else")?)?),
            )
        }
        other => {
            return Err(IrError::schema(
                json.pos,
                format!(
                    "unknown expression kind {other:?} (accepted: col, int, double, str, null, \
                     add, sub, mul, div, eq, ne, lt, le, gt, ge, and, or, case)"
                ),
            ))
        }
    };
    Ok(IrExpr { pos, kind })
}

fn parse_binary(
    json: &Json,
    build: impl Fn(Box<IrExpr>, Box<IrExpr>) -> ExprKind,
    name: &str,
) -> Result<ExprKind, IrError> {
    let items = as_array(json, &format!("`{name}`"))?;
    if items.len() != 2 {
        return Err(IrError::schema(
            json.pos,
            format!("`{name}` takes exactly two operands, found {}", items.len()),
        ));
    }
    Ok(build(
        Box::new(parse_expr(&items[0])?),
        Box::new(parse_expr(&items[1])?),
    ))
}

/// `and`/`or` take two or more operands and fold left:
/// `{"and": [a, b, c]}` parses as `and(and(a, b), c)`.
fn parse_variadic(
    json: &Json,
    pos: Pos,
    build: impl Fn(Box<IrExpr>, Box<IrExpr>) -> ExprKind,
    name: &str,
) -> Result<ExprKind, IrError> {
    let items = as_array(json, &format!("`{name}`"))?;
    if items.len() < 2 {
        return Err(IrError::schema(
            json.pos,
            format!(
                "`{name}` takes at least two operands, found {}",
                items.len()
            ),
        ));
    }
    let mut acc = parse_expr(&items[0])?;
    for item in &items[1..] {
        let rhs = parse_expr(item)?;
        acc = IrExpr {
            pos,
            kind: build(Box::new(acc), Box::new(rhs)),
        };
    }
    match acc.kind {
        kind @ (ExprKind::And(..) | ExprKind::Or(..)) => Ok(kind),
        _ => unreachable!("fold of >= 2 operands always ends in the connective"),
    }
}

// ------------------------------------------------------------------------ nodes

fn parse_node(json: &Json) -> Result<Node, IrError> {
    let obj = Obj::new(json, "a plan node")?;
    let op_json = obj.require("op")?;
    let op = as_str(op_json, "`op`")?;
    let pos = json.pos;
    match op {
        "scan" => {
            obj.check_keys(&["op", "relation", "columns", "predicates"])?;
            let relation = as_str(obj.require("relation")?, "`relation`")?.to_string();
            let columns_json = obj.require("columns")?;
            let columns: Vec<String> = as_array(columns_json, "`columns`")?
                .iter()
                .map(|c| Ok(as_str(c, "a column name")?.to_string()))
                .collect::<Result<_, IrError>>()?;
            if columns.is_empty() {
                return Err(IrError::schema(
                    columns_json.pos,
                    "a scan must project at least one column",
                ));
            }
            let predicates = match obj.get("predicates") {
                None => Vec::new(),
                Some(p) => as_array(p, "`predicates`")?
                    .iter()
                    .map(parse_predicate)
                    .collect::<Result<_, _>>()?,
            };
            Ok(Node::Scan {
                pos,
                relation,
                columns,
                predicates,
            })
        }
        "filter" => {
            obj.check_keys(&["op", "input", "predicate"])?;
            Ok(Node::Filter {
                pos,
                input: Box::new(parse_node(obj.require("input")?)?),
                predicate: parse_expr(obj.require("predicate")?)?,
            })
        }
        "project" => {
            obj.check_keys(&["op", "input", "exprs"])?;
            let exprs_json = obj.require("exprs")?;
            let exprs: Vec<TypedExpr> = as_array(exprs_json, "`exprs`")?
                .iter()
                .map(parse_typed_expr)
                .collect::<Result<_, _>>()?;
            if exprs.is_empty() {
                return Err(IrError::schema(
                    exprs_json.pos,
                    "a project must compute at least one expression",
                ));
            }
            Ok(Node::Project {
                pos,
                input: Box::new(parse_node(obj.require("input")?)?),
                exprs,
            })
        }
        "aggregate" => {
            obj.check_keys(&["op", "input", "groups", "aggregates"])?;
            let groups: Vec<TypedExpr> = as_array(obj.require("groups")?, "`groups`")?
                .iter()
                .map(parse_typed_expr)
                .collect::<Result<_, _>>()?;
            let aggregates: Vec<AggItem> = as_array(obj.require("aggregates")?, "`aggregates`")?
                .iter()
                .map(parse_aggregate)
                .collect::<Result<_, _>>()?;
            if groups.is_empty() && aggregates.is_empty() {
                return Err(IrError::schema(
                    pos,
                    "an aggregate needs at least one group or one aggregate",
                ));
            }
            Ok(Node::Aggregate {
                pos,
                input: Box::new(parse_node(obj.require("input")?)?),
                groups,
                aggregates,
            })
        }
        "join" => {
            obj.check_keys(&["op", "type", "build", "probe", "build_keys", "probe_keys"])?;
            let type_json = obj.require("type")?;
            let join_type = match as_str(type_json, "`type`")? {
                "inner" => JoinType::Inner,
                "semi" => JoinType::ProbeSemi,
                other => {
                    return Err(IrError::schema(
                        type_json.pos,
                        format!("unknown join type {other:?} (accepted: inner, semi)"),
                    ))
                }
            };
            let parse_keys = |key: &str| -> Result<Vec<usize>, IrError> {
                as_array(obj.require(key)?, &format!("`{key}`"))?
                    .iter()
                    .map(|k| as_index(k, "a key position"))
                    .collect()
            };
            Ok(Node::Join {
                pos,
                join_type,
                build: Box::new(parse_node(obj.require("build")?)?),
                probe: Box::new(parse_node(obj.require("probe")?)?),
                build_keys: parse_keys("build_keys")?,
                probe_keys: parse_keys("probe_keys")?,
            })
        }
        "sort" => {
            obj.check_keys(&["op", "input", "keys", "limit"])?;
            let keys: Vec<SortKey> = as_array(obj.require("keys")?, "`keys`")?
                .iter()
                .map(parse_sort_key)
                .collect::<Result<_, _>>()?;
            let limit = match obj.get("limit") {
                None => None,
                Some(json) => Some(as_index(json, "`limit`")?),
            };
            Ok(Node::Sort {
                pos,
                input: Box::new(parse_node(obj.require("input")?)?),
                keys,
                limit,
            })
        }
        other => Err(IrError::schema(
            op_json.pos,
            format!(
                "unknown node kind {other:?} (accepted: scan, filter, project, aggregate, \
                 join, sort)"
            ),
        )),
    }
}

fn parse_typed_expr(json: &Json) -> Result<TypedExpr, IrError> {
    let obj = Obj::new(json, "a typed expression")?;
    obj.check_keys(&["expr", "type"])?;
    Ok(TypedExpr {
        expr: parse_expr(obj.require("expr")?)?,
        ty: parse_type(obj.require("type")?)?,
    })
}

fn parse_aggregate(json: &Json) -> Result<AggItem, IrError> {
    let obj = Obj::new(json, "an aggregate")?;
    obj.check_keys(&["func", "expr", "type"])?;
    let func_json = obj.require("func")?;
    let func = match as_str(func_json, "`func`")? {
        "sum" => AggFunc::Sum,
        "count" => AggFunc::Count,
        "count_star" => AggFunc::CountStar,
        "avg" => AggFunc::Avg,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        other => {
            return Err(IrError::schema(
                func_json.pos,
                format!(
                    "unknown aggregate function {other:?} (accepted: sum, count, count_star, \
                     avg, min, max)"
                ),
            ))
        }
    };
    let expr = match obj.get("expr") {
        Some(e) => Some(parse_expr(e)?),
        None => None,
    };
    match (func, &expr) {
        (AggFunc::CountStar, Some(_)) => {
            return Err(IrError::schema(json.pos, "`count_star` takes no `expr`"))
        }
        (AggFunc::CountStar, None) => {}
        (_, None) => {
            return Err(IrError::schema(
                json.pos,
                "this aggregate function requires an `expr`",
            ))
        }
        (_, Some(_)) => {}
    }
    Ok(AggItem {
        pos: json.pos,
        func,
        expr,
        ty: parse_type(obj.require("type")?)?,
    })
}

fn parse_sort_key(json: &Json) -> Result<SortKey, IrError> {
    let obj = Obj::new(json, "a sort key")?;
    obj.check_keys(&["column", "order"])?;
    let column = as_index(obj.require("column")?, "`column`")?;
    let descending = match obj.get("order") {
        None => false,
        Some(order_json) => match as_str(order_json, "`order`")? {
            "asc" => false,
            "desc" => true,
            other => {
                return Err(IrError::schema(
                    order_json.pos,
                    format!("unknown sort order {other:?} (accepted: asc, desc)"),
                ))
            }
        },
    };
    Ok(SortKey { column, descending })
}

fn parse_predicate(json: &Json) -> Result<ScanPredicate, IrError> {
    let obj = Obj::new(json, "a scan predicate")?;
    obj.check_keys(&["column", "cmp", "value", "between", "is"])?;
    let column = as_str(obj.require("column")?, "`column`")?.to_string();
    let cmp = obj.get("cmp");
    let between = obj.get("between");
    let is = obj.get("is");
    let kind = match (cmp, between, is) {
        (Some(cmp_json), None, None) => {
            let op = parse_cmp_op(cmp_json)?;
            let value = parse_literal(obj.require("value")?)?;
            PredicateKind::Cmp(op, value)
        }
        (None, Some(between_json), None) => {
            if obj.get("value").is_some() {
                return Err(IrError::schema(
                    json.pos,
                    "`value` is only valid together with `cmp`",
                ));
            }
            let bounds = as_array(between_json, "`between`")?;
            if bounds.len() != 2 {
                return Err(IrError::schema(
                    between_json.pos,
                    format!("`between` takes [lo, hi], found {} values", bounds.len()),
                ));
            }
            PredicateKind::Between(parse_literal(&bounds[0])?, parse_literal(&bounds[1])?)
        }
        (None, None, Some(is_json)) => match as_str(is_json, "`is`")? {
            "null" => PredicateKind::IsNull,
            "not_null" => PredicateKind::IsNotNull,
            other => {
                return Err(IrError::schema(
                    is_json.pos,
                    format!("unknown `is` test {other:?} (accepted: null, not_null)"),
                ))
            }
        },
        _ => {
            return Err(IrError::schema(
                json.pos,
                "a scan predicate needs exactly one of `cmp` (+ `value`), `between`, or `is`",
            ))
        }
    };
    Ok(ScanPredicate {
        pos: json.pos,
        column,
        kind,
    })
}

// ---------------------------------------------------------------- serialization

fn j(value: JsonValue) -> Json {
    Json {
        pos: Pos { line: 0, col: 0 },
        value,
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    j(JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    ))
}

fn literal_json(value: &Value) -> Json {
    match value {
        Value::Null => obj(vec![("null", j(JsonValue::Null))]),
        Value::Int(v) => obj(vec![("int", j(JsonValue::Int(*v)))]),
        Value::Double(v) => obj(vec![("double", j(JsonValue::Double(*v)))]),
        Value::Str(s) => obj(vec![("str", j(JsonValue::Str(s.clone())))]),
    }
}

fn type_json(ty: DataType) -> Json {
    let name = match ty {
        DataType::Int => "int",
        DataType::Double => "double",
        DataType::Str => "str",
    };
    j(JsonValue::Str(name.into()))
}

fn expr_json(expr: &IrExpr) -> Json {
    let binary = |name: &str, lhs: &IrExpr, rhs: &IrExpr| {
        obj(vec![(
            name,
            j(JsonValue::Array(vec![expr_json(lhs), expr_json(rhs)])),
        )])
    };
    match &expr.kind {
        ExprKind::Col(idx) => obj(vec![("col", j(JsonValue::Int(*idx as i64)))]),
        ExprKind::Lit(value) => literal_json(value),
        ExprKind::Arith(op, lhs, rhs) => {
            let name = match op {
                ArithOp::Add => "add",
                ArithOp::Sub => "sub",
                ArithOp::Mul => "mul",
                ArithOp::Div => "div",
            };
            binary(name, lhs, rhs)
        }
        ExprKind::Cmp(op, lhs, rhs) => binary(cmp_op_name(*op), lhs, rhs),
        ExprKind::And(lhs, rhs) => binary("and", lhs, rhs),
        ExprKind::Or(lhs, rhs) => binary("or", lhs, rhs),
        ExprKind::Case(cond, then, otherwise) => obj(vec![(
            "case",
            obj(vec![
                ("when", expr_json(cond)),
                ("then", expr_json(then)),
                ("else", expr_json(otherwise)),
            ]),
        )]),
    }
}

fn typed_expr_json(te: &TypedExpr) -> Json {
    obj(vec![
        ("expr", expr_json(&te.expr)),
        ("type", type_json(te.ty)),
    ])
}

fn predicate_json(pred: &ScanPredicate) -> Json {
    let mut fields = vec![("column", j(JsonValue::Str(pred.column.clone())))];
    match &pred.kind {
        PredicateKind::Cmp(op, value) => {
            fields.push(("cmp", j(JsonValue::Str(cmp_op_name(*op).into()))));
            fields.push(("value", literal_json(value)));
        }
        PredicateKind::Between(lo, hi) => {
            fields.push((
                "between",
                j(JsonValue::Array(vec![literal_json(lo), literal_json(hi)])),
            ));
        }
        PredicateKind::IsNull => fields.push(("is", j(JsonValue::Str("null".into())))),
        PredicateKind::IsNotNull => fields.push(("is", j(JsonValue::Str("not_null".into())))),
    }
    obj(fields)
}

fn node_json(node: &Node) -> Json {
    match node {
        Node::Scan {
            relation,
            columns,
            predicates,
            ..
        } => {
            let mut fields = vec![
                ("op", j(JsonValue::Str("scan".into()))),
                ("relation", j(JsonValue::Str(relation.clone()))),
                (
                    "columns",
                    j(JsonValue::Array(
                        columns
                            .iter()
                            .map(|c| j(JsonValue::Str(c.clone())))
                            .collect(),
                    )),
                ),
            ];
            if !predicates.is_empty() {
                fields.push((
                    "predicates",
                    j(JsonValue::Array(
                        predicates.iter().map(predicate_json).collect(),
                    )),
                ));
            }
            obj(fields)
        }
        Node::Filter {
            input, predicate, ..
        } => obj(vec![
            ("op", j(JsonValue::Str("filter".into()))),
            ("input", node_json(input)),
            ("predicate", expr_json(predicate)),
        ]),
        Node::Project { input, exprs, .. } => obj(vec![
            ("op", j(JsonValue::Str("project".into()))),
            ("input", node_json(input)),
            (
                "exprs",
                j(JsonValue::Array(
                    exprs.iter().map(typed_expr_json).collect(),
                )),
            ),
        ]),
        Node::Aggregate {
            input,
            groups,
            aggregates,
            ..
        } => obj(vec![
            ("op", j(JsonValue::Str("aggregate".into()))),
            ("input", node_json(input)),
            (
                "groups",
                j(JsonValue::Array(
                    groups.iter().map(typed_expr_json).collect(),
                )),
            ),
            (
                "aggregates",
                j(JsonValue::Array(
                    aggregates
                        .iter()
                        .map(|agg| {
                            let func = match agg.func {
                                AggFunc::Sum => "sum",
                                AggFunc::Count => "count",
                                AggFunc::CountStar => "count_star",
                                AggFunc::Avg => "avg",
                                AggFunc::Min => "min",
                                AggFunc::Max => "max",
                            };
                            let mut fields = vec![("func", j(JsonValue::Str(func.into())))];
                            if let Some(expr) = &agg.expr {
                                fields.push(("expr", expr_json(expr)));
                            }
                            fields.push(("type", type_json(agg.ty)));
                            obj(fields)
                        })
                        .collect(),
                )),
            ),
        ]),
        Node::Join {
            join_type,
            build,
            probe,
            build_keys,
            probe_keys,
            ..
        } => {
            let keys = |ks: &[usize]| {
                j(JsonValue::Array(
                    ks.iter().map(|&k| j(JsonValue::Int(k as i64))).collect(),
                ))
            };
            obj(vec![
                ("op", j(JsonValue::Str("join".into()))),
                (
                    "type",
                    j(JsonValue::Str(
                        match join_type {
                            JoinType::Inner => "inner",
                            JoinType::ProbeSemi => "semi",
                        }
                        .into(),
                    )),
                ),
                ("build", node_json(build)),
                ("probe", node_json(probe)),
                ("build_keys", keys(build_keys)),
                ("probe_keys", keys(probe_keys)),
            ])
        }
        Node::Sort {
            input, keys, limit, ..
        } => {
            let mut fields = vec![
                ("op", j(JsonValue::Str("sort".into()))),
                ("input", node_json(input)),
                (
                    "keys",
                    j(JsonValue::Array(
                        keys.iter()
                            .map(|k| {
                                obj(vec![
                                    ("column", j(JsonValue::Int(k.column as i64))),
                                    (
                                        "order",
                                        j(JsonValue::Str(
                                            if k.descending { "desc" } else { "asc" }.into(),
                                        )),
                                    ),
                                ])
                            })
                            .collect(),
                    )),
                ),
            ];
            if let Some(limit) = limit {
                fields.push(("limit", j(JsonValue::Int(*limit as i64))));
            }
            obj(fields)
        }
    }
}

impl QueryIr {
    /// Serialize to the canonical pretty JSON form. `parse_ir(ir.to_pretty())`
    /// yields an equal IR (positions aside) — the round-trip tests pin this.
    pub fn to_pretty(&self) -> String {
        let doc = obj(vec![
            ("version", j(JsonValue::Int(self.version))),
            ("plan", node_json(&self.root)),
        ]);
        json::to_pretty(&doc.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"{
  "version": 1,
  "plan": {
    "op": "aggregate",
    "input": {
      "op": "scan",
      "relation": "t",
      "columns": ["qty", "price"],
      "predicates": [
        {"column": "qty", "between": [{"int": 1}, {"int": 9}]},
        {"column": "price", "cmp": "gt", "value": {"double": 0.5}},
        {"column": "price", "is": "not_null"}
      ]
    },
    "groups": [{"expr": {"col": 0}, "type": "int"}],
    "aggregates": [
      {"func": "count_star", "type": "int"},
      {"func": "sum", "expr": {"mul": [{"col": 1}, {"int": 2}]}, "type": "double"}
    ]
  }
}"#;

    #[test]
    fn parses_a_complete_document() {
        let ir = parse_ir(TINY).unwrap();
        assert_eq!(ir.version, 1);
        let Node::Aggregate {
            input,
            groups,
            aggregates,
            ..
        } = &ir.root
        else {
            panic!("expected aggregate root");
        };
        assert_eq!(groups.len(), 1);
        assert_eq!(aggregates.len(), 2);
        assert_eq!(aggregates[0].func, AggFunc::CountStar);
        assert!(aggregates[0].expr.is_none());
        let Node::Scan {
            relation,
            columns,
            predicates,
            ..
        } = input.as_ref()
        else {
            panic!("expected scan input");
        };
        assert_eq!(relation, "t");
        assert_eq!(columns, &["qty", "price"]);
        assert_eq!(predicates.len(), 3);
        assert_eq!(
            predicates[0].kind,
            PredicateKind::Between(Value::Int(1), Value::Int(9))
        );
        assert_eq!(
            predicates[1].kind,
            PredicateKind::Cmp(CmpOp::Gt, Value::Double(0.5))
        );
        assert_eq!(predicates[2].kind, PredicateKind::IsNotNull);
    }

    #[test]
    fn round_trips_through_the_serializer() {
        let ir = parse_ir(TINY).unwrap();
        let text = ir.to_pretty();
        let reparsed = parse_ir(&text).unwrap();
        assert_eq!(reparsed.to_pretty(), text);
    }

    #[test]
    fn bad_version_is_positioned() {
        let err = parse_ir("{\n  \"version\": 2,\n  \"plan\": {\"op\": \"scan\"}\n}").unwrap_err();
        assert_eq!(err.kind, crate::IrErrorKind::Schema);
        assert!(err.message.contains("unsupported IR version 2"), "{err}");
        assert_eq!(err.pos.line, 2, "{err}");
    }

    #[test]
    fn unknown_node_kind_is_positioned() {
        let err = parse_ir("{\"version\": 1,\n \"plan\": {\"op\": \"scann\"}}").unwrap_err();
        assert!(err.message.contains("unknown node kind \"scann\""), "{err}");
        assert_eq!(err.pos.line, 2, "{err}");
    }

    #[test]
    fn unknown_field_is_rejected() {
        let err = parse_ir(
            "{\"version\": 1, \"plan\": {\"op\": \"scan\", \"relation\": \"t\", \
             \"columns\": [\"a\"], \"morsels\": 4}}",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown field `morsels`"), "{err}");
    }

    #[test]
    fn and_folds_left() {
        let ir = parse_ir(
            r#"{"version": 1, "plan": {"op": "filter",
                "input": {"op": "scan", "relation": "t", "columns": ["a"]},
                "predicate": {"and": [{"col": 0}, {"int": 1}, {"int": 2}]}}}"#,
        )
        .unwrap();
        let Node::Filter { predicate, .. } = &ir.root else {
            panic!()
        };
        let ExprKind::And(lhs, _) = &predicate.kind else {
            panic!("outer and");
        };
        assert!(matches!(lhs.kind, ExprKind::And(..)), "left fold");
    }

    #[test]
    fn count_star_with_expr_rejected() {
        let err = parse_ir(
            r#"{"version": 1, "plan": {"op": "aggregate",
                "input": {"op": "scan", "relation": "t", "columns": ["a"]},
                "groups": [],
                "aggregates": [{"func": "count_star", "expr": {"col": 0}, "type": "int"}]}}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("count_star"), "{err}");
    }

    #[test]
    fn truncated_json_is_a_syntax_error() {
        let err = parse_ir("{\"version\": 1, \"plan\": {\"op\": \"sc").unwrap_err();
        assert_eq!(err.kind, crate::IrErrorKind::Syntax);
        assert!(err.message.contains("truncated"), "{err}");
    }
}
