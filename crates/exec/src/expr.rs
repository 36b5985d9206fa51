//! Scalar expressions evaluated inside query pipelines (projections, aggregate
//! inputs, group keys, residual predicates) — a column at a time.
//!
//! The expression language is deliberately small — column references, constants,
//! arithmetic, comparisons, boolean connectives and `CASE` — which is all the
//! reproduced queries need. SARGable base-table restrictions do **not** go through
//! this module; they are pushed into the scan as [`datablocks::Restriction`]s where
//! they are evaluated on compressed data with SIMD.
//!
//! # Evaluation
//!
//! [`Expr::evaluate`] is the one way an expression is evaluated: a node, a
//! [`Batch`] and a **selection vector** go in, a typed [`Column`] comes out. Every
//! node runs one typed loop over its operands' `i64`/`f64`/string slices; a constant
//! operand stays a single value (no broadcast, no per-row [`Value`]), a bare column
//! reference is the batch's column itself, and validity bitmaps are combined slice
//! against slice. [`Expr::select`] is the filter form: it walks the top-level `AND`
//! spine and narrows the selection one conjunct at a time, so a later conjunct is
//! evaluated only on the rows the earlier ones kept.
//!
//! A string column is read in place in either of its forms, plain or
//! dictionary-coded ([`datablocks::column`]). A coded column compared with a
//! constant — or tested for truth — is evaluated once per dictionary entry, and each
//! row looks its result up by its code. That assumes no order of the dictionary,
//! so a re-coded, merged one works too. A `CASE` whose rows take both arms writes
//! plain strings.
//!
//! # The selection-vector contract
//!
//! A selection `sel` lists rows of the batch (any order, usually ascending); `None`
//! means every row. Row `k` of a result belongs to batch row `sel[k]` — results are
//! dense, one row per *selected* row. **Rows outside the selection are never
//! evaluated**: a `CASE` arm runs only on the rows whose condition chose it, and an
//! integer operation is skipped on rows where an operand is NULL, so an overflow
//! that would panic a debug build on such a row cannot happen.
//!
//! # Semantics (frozen — the reference interpreter in `query::fuzz` mirrors them)
//!
//! * NULL propagates through arithmetic and comparisons; `AND`/`OR` are SQL
//!   three-valued; a filter and a `CASE` condition treat NULL as false.
//! * Truthiness: a number is true when non-zero, a string when non-empty.
//! * Int ∘ Int stays Int for `+ - *` with the build's `i64` overflow behaviour
//!   (debug panic, release wrap); any Double operand widens the other side with
//!   `as f64`; division always yields Double and is NULL when the divisor is zero.
//! * Arithmetic on a string, and a comparison between a string and a number, are
//!   NULL on every row (the planner rejects both).
//! * Comparisons yield Int 1/0; a comparison involving NaN is NULL.
//!
//! # Static types
//!
//! A column has one type, so a node's type is a function of its input types alone
//! ([`Expr::static_type`]), never of the row. The one place the row-at-a-time
//! interpreter this replaced could answer differently is `CASE` with an Int and a
//! Double arm, where it returned whichever arm ran: the column kernel widens the Int
//! arm up front, which is the same number whenever the integer is exactly
//! representable (|i| < 2^53). A `CASE` mixing a string arm with a numeric one has no
//! column type and panics; the planner rejects it. A NULL literal is typeless and
//! takes the type of whatever it meets.

use std::borrow::Cow;
use std::cmp::Ordering;

use datablocks::scan::CmpOpOrderingExt;
use datablocks::{Bitmap, CmpOp, Column, ColumnData, DataType, Strings, Value};

use crate::batch::{pick, zeroed, Batch};

/// An arithmetic operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (NULL on division by zero, like SQL).
    Div,
}

/// A scalar expression over the columns of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to column `n` of the input batch.
    Col(usize),
    /// A literal constant.
    Const(Value),
    /// Arithmetic between two sub-expressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Comparison between two sub-expressions (yields `Int(1)` / `Int(0)` / NULL).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND of two boolean sub-expressions.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR of two boolean sub-expressions.
    Or(Box<Expr>, Box<Expr>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(idx: usize) -> Expr {
        Expr::Col(idx)
    }

    /// Literal constant.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Const(value.into())
    }

    /// `self + other`
    #[allow(clippy::should_implement_trait)] // builder API, deliberately not std::ops
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }

    /// `self / other`
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(other))
    }

    /// `self <op> other` as a boolean (0/1) expression.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(other))
    }

    /// Logical AND.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Logical OR.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// The type of the column this expression evaluates to over an input with the
    /// given column types; `None` when every row is a typeless NULL (see the module
    /// docs).
    pub fn static_type(&self, input: &[DataType]) -> Option<DataType> {
        use DataType::{Double, Int, Str};
        match self {
            Expr::Col(idx) => Some(input[*idx]),
            Expr::Const(value) => value.data_type(),
            Expr::Arith(op, lhs, rhs) => match (lhs.static_type(input)?, rhs.static_type(input)?) {
                (Str, _) | (_, Str) => None,
                (Int, Int) if *op != ArithOp::Div => Some(Int),
                _ => Some(Double),
            },
            Expr::Cmp(_, lhs, rhs) => {
                let (lt, rt) = (lhs.static_type(input)?, rhs.static_type(input)?);
                ((lt == Str) == (rt == Str)).then_some(Int)
            }
            Expr::And(..) | Expr::Or(..) => Some(Int),
            Expr::Case(_, then, otherwise) => {
                unify(then.static_type(input), otherwise.static_type(input))
            }
        }
    }

    /// Evaluate the expression over the rows of `batch` listed in `sel` (`None` =
    /// every row) into a column holding one row per selected row, in selection
    /// order. A bare column reference over every row is the batch's own column,
    /// borrowed. An expression without a type (every row a typeless NULL) comes
    /// out as an all-NULL Int column.
    pub fn evaluate<'a>(&'a self, batch: &'a Batch, sel: Option<&[u32]>) -> Cow<'a, Column> {
        let types = batch.types();
        let rows = sel.map_or(batch.len(), <[u32]>::len);
        let ty = self.static_type(&types).unwrap_or(DataType::Int);
        match self.vector(batch, &types, sel) {
            Vector::View(column) => match sel {
                None => Cow::Borrowed(column),
                Some(sel) => Cow::Owned(column.take(sel)),
            },
            Vector::Dense(column) => Cow::Owned(column),
            Vector::Const(scalar) => Cow::Owned(Column::from_data(match scalar {
                Scalar::Int(v) => ColumnData::Int(vec![v; rows]),
                Scalar::Double(v) => ColumnData::Double(vec![v; rows]),
                Scalar::Str(v) => ColumnData::Str(vec![v.to_string(); rows]),
            })),
            Vector::Null => Cow::Owned(Column {
                data: zeroed(ty, rows),
                validity: Some(Bitmap::filled(rows, false)),
            }),
        }
    }

    /// The rows of `sel` (`None` = every row of `batch`) for which the expression is
    /// true, in selection order; NULL is not true. The conjuncts of a top-level
    /// `AND` narrow the selection one after the other.
    pub fn select(&self, batch: &Batch, sel: Option<&[u32]>) -> Vec<u32> {
        if let Expr::And(lhs, rhs) = self {
            let kept = lhs.select(batch, sel);
            return if kept.is_empty() {
                kept
            } else {
                rhs.select(batch, Some(&kept))
            };
        }
        let rows = sel.map_or(batch.len(), <[u32]>::len);
        let truth = self.vector(batch, &batch.types(), sel).truth(sel, rows);
        (0..rows)
            .filter(|&k| truth.get(k) == Some(true))
            .map(|k| sel.map_or(k as u32, |sel| sel[k]))
            .collect()
    }

    /// Evaluate one node under a selection (see [`Vector`]).
    fn vector<'a>(
        &'a self,
        batch: &'a Batch,
        types: &[DataType],
        sel: Option<&[u32]>,
    ) -> Vector<'a> {
        let rows = sel.map_or(batch.len(), <[u32]>::len);
        match self {
            Expr::Col(idx) => Vector::View(batch.column(*idx)),
            Expr::Const(value) => match value {
                Value::Null => Vector::Null,
                Value::Int(v) => Vector::Const(Scalar::Int(*v)),
                Value::Double(v) => Vector::Const(Scalar::Double(*v)),
                Value::Str(v) => Vector::Const(Scalar::Str(v)),
            },
            Expr::Arith(op, lhs, rhs) => arith(
                *op,
                lhs.vector(batch, types, sel),
                rhs.vector(batch, types, sel),
                sel,
                rows,
            ),
            Expr::Cmp(op, lhs, rhs) => compare(
                *op,
                lhs.vector(batch, types, sel),
                rhs.vector(batch, types, sel),
                sel,
                rows,
            ),
            Expr::And(lhs, rhs) | Expr::Or(lhs, rhs) => {
                let lt = lhs.vector(batch, types, sel).truth(sel, rows);
                let rt = rhs.vector(batch, types, sel).truth(sel, rows);
                // The dominating value decides whatever the other side is, NULL
                // included: false for AND, true for OR.
                let dominant = matches!(self, Expr::Or(..));
                let values: Vec<Option<bool>> = (0..rows)
                    .map(|k| match (lt.get(k), rt.get(k)) {
                        (Some(a), _) | (_, Some(a)) if a == dominant => Some(dominant),
                        (Some(_), Some(_)) => Some(!dominant),
                        _ => None,
                    })
                    .collect();
                let data = values.iter().map(|&v| i64::from(v == Some(true))).collect();
                let valid = (values.contains(&None))
                    .then(|| Bitmap::from_fn(rows, |k| values[k].is_some()));
                Vector::dense(ColumnData::Int(data), valid)
            }
            Expr::Case(cond, then, otherwise) => {
                let ty = unify(then.static_type(types), otherwise.static_type(types));
                let truth = cond.vector(batch, types, sel).truth(sel, rows);
                // Positions (among the selected rows) that take each arm, and the
                // batch rows behind them: each arm is evaluated on its own rows only.
                let (then_at, else_at): (Vec<u32>, Vec<u32>) =
                    (0..rows as u32).partition(|&k| truth.get(k as usize) == Some(true));
                let batch_rows = |at: &[u32]| -> Vec<u32> {
                    at.iter()
                        .map(|&k| sel.map_or(k, |sel| sel[k as usize]))
                        .collect()
                };
                if else_at.is_empty() {
                    return then.vector(batch, types, sel).widened(ty, sel);
                }
                if then_at.is_empty() {
                    return otherwise.vector(batch, types, sel).widened(ty, sel);
                }
                let Some(ty) = ty else {
                    return Vector::Null;
                };
                let mut out = Column {
                    data: zeroed(ty, rows),
                    validity: Some(Bitmap::filled(rows, true)),
                };
                for (arm, at) in [(then, &then_at), (otherwise, &else_at)] {
                    let arm_sel = batch_rows(at);
                    arm.vector(batch, types, Some(&arm_sel))
                        .scatter(Some(&arm_sel), at, &mut out);
                }
                if out.null_count() == 0 {
                    out.validity = None;
                }
                Vector::Dense(out)
            }
        }
    }
}

/// The common type of two `CASE` arms: a typeless NULL takes the other arm's type,
/// Int widens to Double.
fn unify(a: Option<DataType>, b: Option<DataType>) -> Option<DataType> {
    use DataType::{Double, Int};
    match (a, b) {
        (None, ty) | (ty, None) => ty,
        (Some(a), Some(b)) if a == b => Some(a),
        (Some(Int), Some(Double)) | (Some(Double), Some(Int)) => Some(Double),
        (Some(a), Some(b)) => panic!("CASE arms of types {a} and {b} have no common column type"),
    }
}

/// A single non-NULL value standing for every row.
#[derive(Debug, Clone, Copy)]
enum Scalar<'a> {
    Int(i64),
    Double(f64),
    Str(&'a str),
}

/// The value of an expression node on the selected rows. Only `Dense` owns rows of
/// its own; the others stand for them, so a constant is never broadcast and a
/// column reference never copied unless a kernel needs the gathered slice.
enum Vector<'a> {
    /// NULL on every row, of no type.
    Null,
    /// The same non-NULL value on every row.
    Const(Scalar<'a>),
    /// A column of the batch, seen through the selection the node was evaluated
    /// under: row `k` is `column[sel[k]]`.
    View(&'a Column),
    /// A computed column, one row per selected row.
    Dense(Column),
}

/// A numeric operand: one value for every row, or one per row.
enum Nums<'a, T: Copy> {
    Const(T),
    Rows(Cow<'a, [T]>),
}

/// A string operand, read in place: a constant, or a column of either form seen
/// through a selection.
enum Strs<'a> {
    Const(&'a str),
    Rows(Strings<'a>, Option<&'a [u32]>),
}

impl<'a> Strs<'a> {
    fn get(&self, k: usize) -> &'a str {
        match *self {
            Strs::Const(s) => s,
            Strs::Rows(strings, None) => strings.get(k),
            Strs::Rows(strings, Some(sel)) => strings.get(sel[k] as usize),
        }
    }

    /// `f` of each of the `rows` rows. A coded column with no more dictionary
    /// entries than rows runs `f` once per entry and looks each row's result up by
    /// its code — which needs no order, or even distinctness, of the dictionary.
    fn map<R: Copy>(&self, rows: usize, f: impl Fn(&str) -> R) -> Vec<R> {
        match *self {
            Strs::Rows(Strings::Coded(dict, codes), sel) if dict.len() <= rows => {
                let per_entry: Vec<R> = dict.iter().map(|entry| f(entry)).collect();
                match sel {
                    None => codes.iter().map(|&c| per_entry[c as usize]).collect(),
                    Some(sel) => (sel.iter())
                        .map(|&row| per_entry[codes[row as usize] as usize])
                        .collect(),
                }
            }
            _ => (0..rows).map(|k| f(self.get(k))).collect(),
        }
    }
}

/// Three-valued truth of every row.
enum Truth {
    Const(Option<bool>),
    Rows(Vec<Option<bool>>),
}

impl Truth {
    fn get(&self, k: usize) -> Option<bool> {
        match self {
            Truth::Const(value) => *value,
            Truth::Rows(values) => values[k],
        }
    }
}

/// `values` seen through a selection: borrowed whole, or gathered.
fn selected<'a, T: Copy>(values: &'a [T], sel: Option<&[u32]>) -> Cow<'a, [T]> {
    match sel {
        None => Cow::Borrowed(values),
        Some(sel) => Cow::Owned(pick(values, sel)),
    }
}

impl<'a> Vector<'a> {
    fn dense(data: ColumnData, validity: Option<Bitmap>) -> Vector<'a> {
        Vector::Dense(Column { data, validity })
    }

    fn data_type(&self) -> Option<DataType> {
        match self {
            Vector::Null => None,
            Vector::Const(Scalar::Int(_)) => Some(DataType::Int),
            Vector::Const(Scalar::Double(_)) => Some(DataType::Double),
            Vector::Const(Scalar::Str(_)) => Some(DataType::Str),
            Vector::View(column) => Some(column.data_type()),
            Vector::Dense(column) => Some(column.data_type()),
        }
    }

    /// Validity of the selected rows; `None` = no NULLs.
    fn validity(&self, sel: Option<&[u32]>) -> Option<Cow<'_, Bitmap>> {
        match self {
            Vector::Null | Vector::Const(_) => None,
            Vector::View(column) => (column.validity.as_ref())
                .map(|v| sel.map_or(Cow::Borrowed(v), |sel| Cow::Owned(v.gather(sel)))),
            Vector::Dense(column) => column.validity.as_ref().map(Cow::Borrowed),
        }
    }

    /// The integer payload (the vector must be of type Int).
    fn ints(&self, sel: Option<&[u32]>) -> Nums<'_, i64> {
        match self {
            Vector::Const(Scalar::Int(v)) => Nums::Const(*v),
            Vector::View(column) => Nums::Rows(selected(column.data.as_int().expect("int"), sel)),
            Vector::Dense(column) => Nums::Rows(Cow::Borrowed(column.data.as_int().expect("int"))),
            _ => unreachable!("not an integer vector"),
        }
    }

    /// The double payload (the vector must be of type Double).
    fn doubles(&self, sel: Option<&[u32]>) -> Nums<'_, f64> {
        match self {
            Vector::Const(Scalar::Double(v)) => Nums::Const(*v),
            Vector::View(column) => {
                Nums::Rows(selected(column.data.as_double().expect("double"), sel))
            }
            Vector::Dense(column) => {
                Nums::Rows(Cow::Borrowed(column.data.as_double().expect("double")))
            }
            _ => unreachable!("not a double vector"),
        }
    }

    /// The string payload, read in place (the vector must be of type Str).
    fn strs<'b>(&'b self, sel: Option<&'b [u32]>) -> Strs<'b> {
        match self {
            Vector::Const(Scalar::Str(s)) => Strs::Const(s),
            Vector::View(column) => Strs::Rows(column.data.strings().expect("str"), sel),
            Vector::Dense(column) => Strs::Rows(column.data.strings().expect("str"), None),
            _ => unreachable!("not a string vector"),
        }
    }

    /// SQL-ish truthiness of every row: numbers are true when non-zero, strings
    /// when non-empty, NULL is unknown.
    fn truth(&self, sel: Option<&[u32]>, rows: usize) -> Truth {
        let values: Vec<bool> = match self {
            Vector::Null => return Truth::Const(None),
            Vector::Const(Scalar::Int(v)) => return Truth::Const(Some(*v != 0)),
            Vector::Const(Scalar::Double(v)) => return Truth::Const(Some(*v != 0.0)),
            Vector::Const(Scalar::Str(v)) => return Truth::Const(Some(!v.is_empty())),
            _ => match self.data_type().expect("typed") {
                DataType::Int => unary(&self.ints(sel), rows, |v| v != 0),
                DataType::Double => unary(&self.doubles(sel), rows, |v| v != 0.0),
                DataType::Str => self.strs(sel).map(rows, |s| !s.is_empty()),
            },
        };
        Truth::Rows(match self.validity(sel) {
            None => values.into_iter().map(Some).collect(),
            Some(valid) => (values.into_iter().enumerate())
                .map(|(k, value)| valid.get(k).then_some(value))
                .collect(),
        })
    }

    /// This vector as type `ty` — the Int → Double widening of a `CASE` whose other
    /// arm is Double (every other combination is already of type `ty`, or NULL).
    fn widened(self, ty: Option<DataType>, sel: Option<&[u32]>) -> Vector<'a> {
        if (self.data_type(), ty) != (Some(DataType::Int), Some(DataType::Double)) {
            return self;
        }
        match self.ints(sel) {
            Nums::Const(v) => Vector::Const(Scalar::Double(v as f64)),
            Nums::Rows(values) => Vector::dense(
                ColumnData::Double(values.iter().map(|&v| v as f64).collect()),
                self.validity(sel).map(Cow::into_owned),
            ),
        }
    }

    /// Write row `k` of this vector (evaluated under `sel`) to row `at[k]` of
    /// `out`, widening Int to a Double `out`; `out` carries a validity bitmap.
    fn scatter(&self, sel: Option<&[u32]>, at: &[u32], out: &mut Column) {
        let valid_out = out.validity.as_mut().expect("scatter target has validity");
        let Some(ty) = self.data_type() else {
            for &p in at {
                valid_out.set(p as usize, false);
            }
            return;
        };
        if let Some(valid) = self.validity(sel) {
            for (k, &p) in at.iter().enumerate() {
                valid_out.set(p as usize, valid.get(k));
            }
        }
        match (&mut out.data, ty) {
            (ColumnData::Int(out), DataType::Int) => {
                let values = self.ints(sel);
                for (k, &p) in at.iter().enumerate() {
                    out[p as usize] = values.get(k);
                }
            }
            (ColumnData::Double(out), DataType::Int) => {
                let values = self.ints(sel);
                for (k, &p) in at.iter().enumerate() {
                    out[p as usize] = values.get(k) as f64;
                }
            }
            (ColumnData::Double(out), DataType::Double) => {
                let values = self.doubles(sel);
                for (k, &p) in at.iter().enumerate() {
                    out[p as usize] = values.get(k);
                }
            }
            (ColumnData::Str(out), DataType::Str) => {
                let values = self.strs(sel);
                for (k, &p) in at.iter().enumerate() {
                    out[p as usize] = values.get(k).to_string();
                }
            }
            (out, ty) => unreachable!("{ty} arm scattered into a {} column", out.data_type()),
        }
    }
}

impl<T: Copy> Nums<'_, T> {
    fn get(&self, k: usize) -> T {
        match self {
            Nums::Const(v) => *v,
            Nums::Rows(values) => values[k],
        }
    }
}

/// `f` over every row of one operand.
fn unary<A: Copy, R>(a: &Nums<'_, A>, rows: usize, f: impl Fn(A) -> R) -> Vec<R> {
    match a {
        Nums::Const(a) => (0..rows).map(|_| f(*a)).collect(),
        Nums::Rows(a) => a.iter().map(|&a| f(a)).collect(),
    }
}

/// `f(row, a, b)` over every row of two operands: one tight loop per operand shape,
/// so a column-against-constant operation reads one slice and a register.
fn binary<A: Copy, B: Copy, R>(
    a: &Nums<'_, A>,
    b: &Nums<'_, B>,
    rows: usize,
    f: impl Fn(usize, A, B) -> R,
) -> Vec<R> {
    match (a, b) {
        (Nums::Rows(a), Nums::Rows(b)) => a
            .iter()
            .zip(b.iter())
            .enumerate()
            .map(|(k, (&a, &b))| f(k, a, b))
            .collect(),
        (Nums::Rows(a), Nums::Const(b)) => {
            a.iter().enumerate().map(|(k, &a)| f(k, a, *b)).collect()
        }
        (Nums::Const(a), Nums::Rows(b)) => {
            b.iter().enumerate().map(|(k, &b)| f(k, *a, b)).collect()
        }
        (Nums::Const(a), Nums::Const(b)) => (0..rows).map(|k| f(k, *a, *b)).collect(),
    }
}

/// Rows valid on both sides; `None` = all of them.
fn both_valid(a: Option<Cow<'_, Bitmap>>, b: Option<Cow<'_, Bitmap>>) -> Option<Bitmap> {
    match (a, b) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.into_owned()),
        (Some(a), Some(b)) => Some(a.into_owned().and(&b)),
    }
}

/// Integer or double, read as a double (`as f64`, the widening of mixed arithmetic).
trait Number: Copy {
    fn double(self) -> f64;
}

impl Number for i64 {
    fn double(self) -> f64 {
        self as f64
    }
}

impl Number for f64 {
    fn double(self) -> f64 {
        self
    }
}

/// Run `$body` with `$a`/`$b` bound to the typed numeric operands of two vectors,
/// whichever of Int and Double each is.
macro_rules! with_numbers {
    ($lhs:expr, $rhs:expr, $sel:expr, |$a:ident, $b:ident| $body:expr) => {
        match ($lhs.data_type(), $rhs.data_type()) {
            (Some(DataType::Int), Some(DataType::Int)) => {
                let ($a, $b) = ($lhs.ints($sel), $rhs.ints($sel));
                $body
            }
            (Some(DataType::Int), Some(DataType::Double)) => {
                let ($a, $b) = ($lhs.ints($sel), $rhs.doubles($sel));
                $body
            }
            (Some(DataType::Double), Some(DataType::Int)) => {
                let ($a, $b) = ($lhs.doubles($sel), $rhs.ints($sel));
                $body
            }
            _ => {
                let ($a, $b) = ($lhs.doubles($sel), $rhs.doubles($sel));
                $body
            }
        }
    };
}

/// Numeric arithmetic with SQL NULL propagation (see the module docs).
fn arith<'a>(
    op: ArithOp,
    lhs: Vector<'a>,
    rhs: Vector<'a>,
    sel: Option<&[u32]>,
    rows: usize,
) -> Vector<'a> {
    use DataType::{Int, Str};
    let (Some(lt), Some(rt)) = (lhs.data_type(), rhs.data_type()) else {
        return Vector::Null;
    };
    if lt == Str || rt == Str {
        return Vector::Null;
    }
    let valid = both_valid(lhs.validity(sel), rhs.validity(sel));
    if (lt, rt) == (Int, Int) && op != ArithOp::Div {
        let (a, b) = (lhs.ints(sel), rhs.ints(sel));
        let data = match op {
            ArithOp::Add => int_arith(&a, &b, valid.as_ref(), rows, |a, b| a + b),
            ArithOp::Sub => int_arith(&a, &b, valid.as_ref(), rows, |a, b| a - b),
            _ => int_arith(&a, &b, valid.as_ref(), rows, |a, b| a * b),
        };
        return Vector::dense(ColumnData::Int(data), valid);
    }
    let (data, nonzero) = with_numbers!(lhs, rhs, sel, |a, b| double_arith(op, &a, &b, rows));
    Vector::dense(
        ColumnData::Double(data),
        both_valid(valid.map(Cow::Owned), nonzero.map(Cow::Owned)),
    )
}

/// Integer arithmetic on the rows where both operands are valid. The payload under
/// a NULL is arbitrary, so it is left alone — it cannot overflow.
fn int_arith(
    a: &Nums<'_, i64>,
    b: &Nums<'_, i64>,
    valid: Option<&Bitmap>,
    rows: usize,
    f: impl Fn(i64, i64) -> i64,
) -> Vec<i64> {
    match valid {
        None => binary(a, b, rows, |_, a, b| f(a, b)),
        Some(valid) => binary(a, b, rows, |k, a, b| if valid.get(k) { f(a, b) } else { 0 }),
    }
}

/// Double arithmetic over two numeric operands; for a division also the rows whose
/// divisor is not zero, when some are.
fn double_arith<A: Number, B: Number>(
    op: ArithOp,
    a: &Nums<'_, A>,
    b: &Nums<'_, B>,
    rows: usize,
) -> (Vec<f64>, Option<Bitmap>) {
    let data = match op {
        ArithOp::Add => binary(a, b, rows, |_, a, b| a.double() + b.double()),
        ArithOp::Sub => binary(a, b, rows, |_, a, b| a.double() - b.double()),
        ArithOp::Mul => binary(a, b, rows, |_, a, b| a.double() * b.double()),
        ArithOp::Div => binary(a, b, rows, |_, a, b| a.double() / b.double()),
    };
    let nonzero = (op == ArithOp::Div)
        .then(|| match b {
            Nums::Const(b) => Bitmap::filled(rows, b.double() != 0.0),
            Nums::Rows(b) => Bitmap::from_fn(rows, |k| b[k].double() != 0.0),
        })
        .filter(|nonzero| nonzero.count_ones() < rows);
    (data, nonzero)
}

/// SQL comparison: Int 1/0, NULL where an operand is NULL or the two do not compare.
fn compare<'a>(
    op: CmpOp,
    lhs: Vector<'a>,
    rhs: Vector<'a>,
    sel: Option<&[u32]>,
    rows: usize,
) -> Vector<'a> {
    use DataType::{Int, Str};
    let (Some(lt), Some(rt)) = (lhs.data_type(), rhs.data_type()) else {
        return Vector::Null;
    };
    if (lt == Str) != (rt == Str) {
        return Vector::Null;
    }
    let mut valid = both_valid(lhs.validity(sel), rhs.validity(sel));
    let verdict = |ord: Ordering| i64::from(op.eval_ordering(ord));
    let data = if lt == Str {
        // Against a constant, a coded column is compared once per dictionary entry.
        match (lhs.strs(sel), rhs.strs(sel)) {
            (a, Strs::Const(b)) => a.map(rows, |a| verdict(a.cmp(b))),
            (Strs::Const(a), b) => b.map(rows, |b| verdict(a.cmp(b))),
            (a, b) => (0..rows).map(|k| verdict(a.get(k).cmp(b.get(k)))).collect(),
        }
    } else if (lt, rt) == (Int, Int) {
        binary(&lhs.ints(sel), &rhs.ints(sel), rows, |_, a, b| {
            verdict(a.cmp(&b))
        })
    } else {
        // A NaN does not compare: those rows are NULL.
        let ords = with_numbers!(lhs, rhs, sel, |a, b| binary(&a, &b, rows, |_, a, b| a
            .double()
            .partial_cmp(&b.double())));
        if ords.contains(&None) {
            let comparable = Bitmap::from_fn(rows, |k| ords[k].is_some());
            valid = both_valid(valid.map(Cow::Owned), Some(Cow::Owned(comparable)));
        }
        ords.into_iter().map(|ord| ord.map_or(0, verdict)).collect()
    };
    Vector::dense(ColumnData::Int(data), valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        Batch::from_rows(
            &[DataType::Int, DataType::Double, DataType::Str],
            &[
                vec![Value::Int(10), Value::Double(0.5), Value::Str("x".into())],
                vec![Value::Int(20), Value::Double(0.25), Value::Str("".into())],
                vec![Value::Null, Value::Double(1.0), Value::Str("z".into())],
            ],
        )
    }

    /// The expression's value on every row of [`batch`].
    fn column(expr: &Expr) -> Vec<Value> {
        let batch = batch();
        let column = expr.evaluate(&batch, None);
        (0..column.len()).map(|row| column.get(row)).collect()
    }

    /// Which rows of [`batch`] pass the expression as a filter.
    fn passes(expr: &Expr) -> Vec<bool> {
        let kept = expr.select(&batch(), None);
        (0..3).map(|row| kept.contains(&row)).collect()
    }

    fn ints(values: [Option<i64>; 3]) -> Vec<Value> {
        values
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect()
    }

    fn case(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::Case(Box::new(cond), Box::new(then), Box::new(otherwise))
    }

    #[test]
    fn column_and_const() {
        assert_eq!(column(&Expr::col(0)), ints([Some(10), Some(20), None]));
        assert_eq!(column(&Expr::lit(7i64)), ints([Some(7); 3]));
        // a bare column over every row is the batch's column, not a copy
        let batch = batch();
        assert!(matches!(
            Expr::col(2).evaluate(&batch, None),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn arithmetic_int_and_double() {
        // price * (1 - discount), the Q1/Q6 shape
        let e = Expr::col(0).mul(Expr::lit(1.0).sub(Expr::col(1)));
        assert_eq!(
            column(&e),
            vec![Value::Double(5.0), Value::Double(15.0), Value::Null]
        );
        // integer arithmetic stays integral
        assert_eq!(
            column(&Expr::col(0).add(Expr::lit(5i64))),
            ints([Some(15), Some(25), None])
        );
        assert_eq!(
            column(&Expr::col(0).sub(Expr::lit(5i64))),
            ints([Some(5), Some(15), None])
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(
            column(&Expr::col(0).div(Expr::lit(0i64))),
            vec![Value::Null; 3]
        );
        assert_eq!(
            column(&Expr::col(1).div(Expr::lit(0.0))),
            vec![Value::Null; 3]
        );
        assert_eq!(
            column(&Expr::col(0).div(Expr::lit(4i64))),
            vec![Value::Double(2.5), Value::Double(5.0), Value::Null]
        );
        // a zero divisor on some rows only
        assert_eq!(
            column(&Expr::col(1).div(Expr::col(0).sub(Expr::lit(10i64)))),
            vec![Value::Null, Value::Double(0.025), Value::Null]
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(column(&Expr::col(0).add(Expr::lit(1i64)))[2], Value::Null);
        assert_eq!(
            column(&Expr::col(0).mul(Expr::Const(Value::Null))),
            vec![Value::Null; 3]
        );
        // an integer operation never touches the payload under a NULL
        let wide = Expr::col(0).mul(Expr::lit(i64::MAX / 20));
        let nulled = case(
            Expr::col(0).cmp(CmpOp::Lt, Expr::lit(15i64)),
            Expr::col(0),
            Expr::Const(Value::Null),
        );
        assert_eq!(column(&wide)[2], Value::Null);
        assert_eq!(
            column(&nulled.mul(Expr::lit(i64::MAX / 10))),
            ints([Some(i64::MAX / 10 * 10), None, None])
        );
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let gt = Expr::col(0).cmp(CmpOp::Gt, Expr::lit(15i64));
        assert_eq!(column(&gt), ints([Some(0), Some(1), None]));
        assert_eq!(
            passes(&gt),
            [false, true, false],
            "NULL comparison filters out the row"
        );

        let and = Expr::col(0)
            .cmp(CmpOp::Ge, Expr::lit(10i64))
            .and(Expr::col(1).cmp(CmpOp::Lt, Expr::lit(0.4)));
        assert_eq!(passes(&and), [false, true, false]);

        let or = Expr::col(0)
            .cmp(CmpOp::Eq, Expr::lit(10i64))
            .or(Expr::col(2).cmp(CmpOp::Eq, Expr::lit("z")));
        assert_eq!(passes(&or), [true, false, true]);

        // mixed Int/Double comparison widens; NaN does not compare
        let mixed = Expr::col(0).cmp(CmpOp::Lt, Expr::col(1).mul(Expr::lit(50.0)));
        assert_eq!(column(&mixed), ints([Some(1), Some(0), None]));
        let nan = Expr::col(1).cmp(CmpOp::Eq, Expr::lit(f64::NAN));
        assert_eq!(column(&nan), vec![Value::Null; 3]);
        // a string never compares with a number
        let apples = Expr::col(2).cmp(CmpOp::Eq, Expr::lit(1i64));
        assert_eq!(column(&apples), vec![Value::Null; 3]);
    }

    #[test]
    fn three_valued_truth_tables() {
        // column 0 against 15: false, true, NULL on the three rows
        let t = || Expr::col(0).cmp(CmpOp::Gt, Expr::lit(15i64));
        for (other, and, or) in [
            (
                Expr::lit(1i64),
                [Some(0), Some(1), None],
                [Some(1), Some(1), Some(1)],
            ),
            (
                Expr::lit(0i64),
                [Some(0), Some(0), Some(0)],
                [Some(0), Some(1), None],
            ),
            (
                Expr::Const(Value::Null),
                [Some(0), None, None],
                [None, Some(1), None],
            ),
        ] {
            assert_eq!(column(&t().and(other.clone())), ints(and), "and {other:?}");
            assert_eq!(column(&other.clone().and(t())), ints(and), "{other:?} and");
            assert_eq!(column(&t().or(other.clone())), ints(or), "or {other:?}");
            assert_eq!(column(&other.clone().or(t())), ints(or), "{other:?} or");
        }
    }

    #[test]
    fn case_expression() {
        let e = case(
            Expr::col(0).cmp(CmpOp::Ge, Expr::lit(15i64)),
            Expr::lit("big"),
            Expr::lit("small"),
        );
        // NULL condition falls through to the ELSE branch
        assert_eq!(
            column(&e),
            vec![
                Value::Str("small".into()),
                Value::Str("big".into()),
                Value::Str("small".into())
            ]
        );
        // an Int arm beside a Double arm widens up front; a NULL arm takes the type
        let widened = case(
            Expr::col(0).cmp(CmpOp::Ge, Expr::lit(15i64)),
            Expr::col(0),
            Expr::col(1),
        );
        assert_eq!(
            column(&widened),
            vec![Value::Double(0.5), Value::Double(20.0), Value::Double(1.0)]
        );
        let all_then = case(Expr::lit(1i64), Expr::col(0), Expr::col(1));
        assert_eq!(
            column(&all_then),
            vec![Value::Double(10.0), Value::Double(20.0), Value::Null]
        );
        let null_arm = case(
            Expr::col(1).cmp(CmpOp::Lt, Expr::lit(0.4)),
            Expr::Const(Value::Null),
            Expr::col(2),
        );
        assert_eq!(
            column(&null_arm),
            vec![Value::Str("x".into()), Value::Null, Value::Str("z".into())]
        );
    }

    #[test]
    fn case_arms_run_on_their_own_rows_only() {
        // The THEN arm overflows i64 on row 1 (20 * MAX/15), which the condition
        // sends to ELSE: a debug build must not panic.
        let e = case(
            Expr::col(0).cmp(CmpOp::Lt, Expr::lit(15i64)),
            Expr::col(0).mul(Expr::lit(i64::MAX / 15)),
            Expr::lit(-1i64),
        );
        assert_eq!(
            column(&e),
            ints([Some(i64::MAX / 15 * 10), Some(-1), Some(-1)])
        );
        // … and a later conjunct of a filter sees only the rows the earlier kept.
        let filter = Expr::col(0).cmp(CmpOp::Lt, Expr::lit(15i64)).and(
            Expr::col(0)
                .mul(Expr::lit(i64::MAX / 15))
                .cmp(CmpOp::Gt, Expr::lit(0i64)),
        );
        assert_eq!(passes(&filter), [true, false, false]);
    }

    #[test]
    fn string_truthiness_in_boolean_context() {
        let e = Expr::col(2).and(Expr::lit(1i64));
        assert_eq!(passes(&e), [true, false, true], "empty string is falsy");
        assert_eq!(passes(&Expr::col(2)), [true, false, true]);
    }

    #[test]
    fn results_are_dense_under_a_selection() {
        let batch = batch();
        let e = Expr::col(0).add(Expr::lit(1i64));
        for sel in [vec![], vec![1], vec![2, 0], vec![0, 1, 2]] {
            let column = e.evaluate(&batch, Some(&sel));
            let expected: Vec<Value> = sel
                .iter()
                .map(|&row| match batch.value(row as usize, 0) {
                    Value::Int(v) => Value::Int(v + 1),
                    _ => Value::Null,
                })
                .collect();
            let got: Vec<Value> = (0..column.len()).map(|row| column.get(row)).collect();
            assert_eq!(got, expected, "{sel:?}");
            assert_eq!(
                Expr::col(2).evaluate(&batch, Some(&sel)).len(),
                sel.len(),
                "{sel:?}"
            );
        }
        let gt = Expr::col(0).cmp(CmpOp::Gt, Expr::lit(5i64));
        assert_eq!(gt.select(&batch, Some(&[2, 1])), vec![1]);
    }
}
