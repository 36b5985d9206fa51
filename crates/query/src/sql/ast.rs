//! SQL AST and the recursive-descent parser.
//!
//! The grammar (normative copy in `crates/query/README.md`):
//!
//! ```text
//! query       := select_stmt EOF
//! select_stmt := SELECT select_list FROM from_clause
//!                [PREWHERE pred {AND pred}] [WHERE expr]
//!                [GROUP BY ident {, ident}]
//!                [ORDER BY order_item {, order_item}] [LIMIT int]
//! select_list := '*' | select_item {, select_item}
//! select_item := expr ['::' type] [AS ident]
//! from_clause := table_ref { [SEMI] JOIN table_ref ON join_cond {AND join_cond} }
//! table_ref   := ident [AS ident] | '(' select_stmt ')' AS ident
//! join_cond   := col_ref '=' col_ref
//! pred        := ident (cmp_op literal | BETWEEN literal AND literal | IS [NOT] NULL)
//! order_item  := ident [ASC | DESC]
//! col_ref     := ident ['.' ident]
//! ```
//!
//! Expression precedence, loosest first: `OR` < `AND` < comparisons/`BETWEEN`
//! (non-associative) < `+ -` < `* /` < unary minus < primary. Aggregate calls
//! (`sum`/`count`/`avg`/`min`/`max`, plus `count(*)`) parse anywhere a primary
//! does; lowering rejects them outside select-item top level.

use datablocks::{DataType, Value};
use dbsimd::CmpOp;
use exec::ops::AggFunc;
use exec::ArithOp;

use super::lexer::{int_literal, tok_name, tokenize, Keyword, Tok, Token};
use crate::error::{IrError, IrErrorKind};
use crate::json::Pos;

/// A column reference, optionally qualified by a source alias.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColRef {
    pub pos: Pos,
    pub qualifier: Option<String>,
    pub name: String,
}

/// A parsed scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AstExpr {
    pub pos: Pos,
    pub kind: AstExprKind,
}

/// Expression alternatives (superset of the IR vocabulary: column refs are by
/// name, `BETWEEN` survives as a node, aggregate calls parse inline).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AstExprKind {
    Col(ColRef),
    Lit(Value),
    Arith(ArithOp, Box<AstExpr>, Box<AstExpr>),
    Cmp(CmpOp, Box<AstExpr>, Box<AstExpr>),
    And(Box<AstExpr>, Box<AstExpr>),
    Or(Box<AstExpr>, Box<AstExpr>),
    /// `expr BETWEEN lo AND hi` (inclusive both ends).
    Between(Box<AstExpr>, Box<AstExpr>, Box<AstExpr>),
    Case(Box<AstExpr>, Box<AstExpr>, Box<AstExpr>),
    /// Aggregate call; `arg` is `None` exactly for `count(*)`.
    Agg {
        func: AggFunc,
        arg: Option<Box<AstExpr>>,
    },
}

/// One `SELECT` output item.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SelectItem {
    pub pos: Pos,
    pub expr: AstExpr,
    /// Declared output type from `::type`, if any.
    pub ty: Option<DataType>,
    pub alias: Option<String>,
}

/// The select list: `*` or explicit items.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SelectList {
    Star(Pos),
    Items(Vec<SelectItem>),
}

/// A `FROM` source.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TableRef {
    Base {
        pos: Pos,
        name: String,
        alias: Option<String>,
    },
    Sub {
        pos: Pos,
        query: Box<SelectStmt>,
        alias: String,
    },
}

/// One `= `-equality join condition.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JoinCond {
    pub pos: Pos,
    pub left: ColRef,
    pub right: ColRef,
}

/// One `[SEMI] JOIN table ON ...` clause.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JoinClause {
    pub pos: Pos,
    pub semi: bool,
    pub table: TableRef,
    pub conds: Vec<JoinCond>,
}

/// A `PREWHERE` predicate (the SARGable scan-predicate shapes, verbatim).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AstPred {
    pub pos: Pos,
    pub column: String,
    pub kind: AstPredKind,
}

/// The `PREWHERE` comparison alternatives.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AstPredKind {
    Cmp(CmpOp, Value),
    Between(Value, Value),
    IsNull,
    IsNotNull,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OrderItem {
    pub pos: Pos,
    pub name: String,
    pub desc: bool,
}

/// A full `SELECT` statement (possibly nested as a `FROM` subquery).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SelectStmt {
    pub pos: Pos,
    pub list: SelectList,
    pub from_first: TableRef,
    pub joins: Vec<JoinClause>,
    pub prewhere: Vec<AstPred>,
    pub where_clause: Option<AstExpr>,
    pub group_by: Vec<(Pos, String)>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<usize>,
}

fn syntax(pos: Pos, message: impl Into<String>) -> IrError {
    IrError {
        kind: IrErrorKind::Syntax,
        message: message.into(),
        pos,
    }
}

/// Parse a complete statement (must consume the whole input).
pub(crate) fn parse_statement(text: &str) -> Result<SelectStmt, IrError> {
    let tokens = tokenize(text)?;
    let mut parser = Parser { tokens, idx: 0 };
    let stmt = parser.select_stmt()?;
    let tail = parser.peek();
    if tail.tok != Tok::Eof {
        return Err(syntax(
            tail.pos,
            format!("expected end of input, found {}", tok_name(&tail.tok)),
        ));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    idx: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.idx]
    }

    fn peek2(&self) -> &Tok {
        self.tokens
            .get(self.idx + 1)
            .map(|t| &t.tok)
            .unwrap_or(&Tok::Eof)
    }

    fn next(&mut self) -> Token {
        let token = self.tokens[self.idx].clone();
        if self.idx + 1 < self.tokens.len() {
            self.idx += 1;
        }
        token
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek().tok == Tok::Keyword(kw) {
            self.idx += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<Pos, IrError> {
        let token = self.peek().clone();
        if token.tok == Tok::Keyword(kw) {
            self.idx += 1;
            Ok(token.pos)
        } else {
            Err(syntax(
                token.pos,
                format!(
                    "expected {}, found {}",
                    format!("`{kw:?}`").to_uppercase(),
                    tok_name(&token.tok)
                ),
            ))
        }
    }

    fn eat_tok(&mut self, tok: &Tok) -> bool {
        if &self.peek().tok == tok {
            self.idx += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, tok: Tok) -> Result<Pos, IrError> {
        let token = self.peek().clone();
        if token.tok == tok {
            self.idx += 1;
            Ok(token.pos)
        } else {
            Err(syntax(
                token.pos,
                format!(
                    "expected {}, found {}",
                    tok_name(&tok),
                    tok_name(&token.tok)
                ),
            ))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(Pos, String), IrError> {
        let token = self.next();
        match token.tok {
            Tok::Ident(name) => Ok((token.pos, name)),
            other => Err(syntax(
                token.pos,
                format!("expected {what}, found {}", tok_name(&other)),
            )),
        }
    }

    // ------------------------------------------------------------- statement

    fn select_stmt(&mut self) -> Result<SelectStmt, IrError> {
        let pos = self.expect_keyword(Keyword::Select)?;
        let list = self.select_list()?;
        self.expect_keyword(Keyword::From)?;
        let from_first = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let join_pos = self.peek().pos;
            let semi = if self.peek().tok == Tok::Keyword(Keyword::Semi) {
                self.idx += 1;
                self.expect_keyword(Keyword::Join)?;
                true
            } else if self.eat_keyword(Keyword::Join) {
                false
            } else {
                break;
            };
            let table = self.table_ref()?;
            self.expect_keyword(Keyword::On)?;
            let mut conds = vec![self.join_cond()?];
            while self.eat_keyword(Keyword::And) {
                conds.push(self.join_cond()?);
            }
            joins.push(JoinClause {
                pos: join_pos,
                semi,
                table,
                conds,
            });
        }
        let mut prewhere = Vec::new();
        if self.eat_keyword(Keyword::Prewhere) {
            prewhere.push(self.prewhere_pred()?);
            while self.eat_keyword(Keyword::And) {
                prewhere.push(self.prewhere_pred()?);
            }
        }
        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.push(self.expect_ident("a group-by column")?);
            while self.eat_tok(&Tok::Comma) {
                group_by.push(self.expect_ident("a group-by column")?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            order_by.push(self.order_item()?);
            while self.eat_tok(&Tok::Comma) {
                order_by.push(self.order_item()?);
            }
        }
        let mut limit = None;
        if self.eat_keyword(Keyword::Limit) {
            let token = self.next();
            match token.tok {
                Tok::Int(v) => limit = Some(int_literal(v, false, token.pos)? as usize),
                other => {
                    return Err(syntax(
                        token.pos,
                        format!(
                            "LIMIT takes a non-negative integer, found {}",
                            tok_name(&other)
                        ),
                    ))
                }
            }
        }
        Ok(SelectStmt {
            pos,
            list,
            from_first,
            joins,
            prewhere,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_list(&mut self) -> Result<SelectList, IrError> {
        if self.peek().tok == Tok::Star {
            let pos = self.next().pos;
            return Ok(SelectList::Star(pos));
        }
        let mut items = vec![self.select_item()?];
        while self.eat_tok(&Tok::Comma) {
            items.push(self.select_item()?);
        }
        Ok(SelectList::Items(items))
    }

    fn select_item(&mut self) -> Result<SelectItem, IrError> {
        let pos = self.peek().pos;
        let expr = self.expr()?;
        let ty = if self.eat_tok(&Tok::DoubleColon) {
            Some(self.type_name()?)
        } else {
            None
        };
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident("an output alias")?.1)
        } else {
            None
        };
        Ok(SelectItem {
            pos,
            expr,
            ty,
            alias,
        })
    }

    fn type_name(&mut self) -> Result<DataType, IrError> {
        let (pos, name) = self.expect_ident("a type (`int`, `double` or `str`)")?;
        match name.as_str() {
            "int" => Ok(DataType::Int),
            "double" => Ok(DataType::Double),
            "str" => Ok(DataType::Str),
            other => Err(syntax(
                pos,
                format!("unknown type `{other}` (expected `int`, `double` or `str`)"),
            )),
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, IrError> {
        let token = self.peek().clone();
        if token.tok == Tok::LParen {
            self.idx += 1;
            let query = self.select_stmt()?;
            self.expect_tok(Tok::RParen)?;
            self.expect_keyword(Keyword::As)?;
            let (_, alias) = self.expect_ident("a subquery alias")?;
            return Ok(TableRef::Sub {
                pos: token.pos,
                query: Box::new(query),
                alias,
            });
        }
        let (pos, name) = self.expect_ident("a relation name")?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident("a table alias")?.1)
        } else {
            None
        };
        Ok(TableRef::Base { pos, name, alias })
    }

    fn join_cond(&mut self) -> Result<JoinCond, IrError> {
        let left = self.col_ref()?;
        self.expect_tok(Tok::Eq)?;
        let right = self.col_ref()?;
        Ok(JoinCond {
            pos: left.pos,
            left,
            right,
        })
    }

    fn col_ref(&mut self) -> Result<ColRef, IrError> {
        let (pos, first) = self.expect_ident("a column reference")?;
        if self.eat_tok(&Tok::Dot) {
            let (_, name) = self.expect_ident("a column name after `.`")?;
            Ok(ColRef {
                pos,
                qualifier: Some(first),
                name,
            })
        } else {
            Ok(ColRef {
                pos,
                qualifier: None,
                name: first,
            })
        }
    }

    fn order_item(&mut self) -> Result<OrderItem, IrError> {
        let (pos, name) = self.expect_ident("an order-by column")?;
        let desc = if self.eat_keyword(Keyword::Desc) {
            true
        } else {
            self.eat_keyword(Keyword::Asc);
            false
        };
        Ok(OrderItem { pos, name, desc })
    }

    // -------------------------------------------------------------- PREWHERE

    fn prewhere_pred(&mut self) -> Result<AstPred, IrError> {
        let (pos, column) = self.expect_ident("a PREWHERE column")?;
        let token = self.next();
        let kind = match token.tok {
            Tok::Eq => AstPredKind::Cmp(CmpOp::Eq, self.literal()?),
            Tok::Ne => AstPredKind::Cmp(CmpOp::Ne, self.literal()?),
            Tok::Lt => AstPredKind::Cmp(CmpOp::Lt, self.literal()?),
            Tok::Le => AstPredKind::Cmp(CmpOp::Le, self.literal()?),
            Tok::Gt => AstPredKind::Cmp(CmpOp::Gt, self.literal()?),
            Tok::Ge => AstPredKind::Cmp(CmpOp::Ge, self.literal()?),
            Tok::Keyword(Keyword::Between) => {
                let lo = self.literal()?;
                self.expect_keyword(Keyword::And)?;
                let hi = self.literal()?;
                AstPredKind::Between(lo, hi)
            }
            Tok::Keyword(Keyword::Is) => {
                if self.eat_keyword(Keyword::Not) {
                    self.expect_keyword(Keyword::Null)?;
                    AstPredKind::IsNotNull
                } else {
                    self.expect_keyword(Keyword::Null)?;
                    AstPredKind::IsNull
                }
            }
            other => {
                return Err(syntax(
                    token.pos,
                    format!(
                        "expected a comparison, BETWEEN or IS [NOT] NULL, found {}",
                        tok_name(&other)
                    ),
                ))
            }
        };
        Ok(AstPred { pos, column, kind })
    }

    /// A literal constant: `[-] number`, string, or NULL.
    fn literal(&mut self) -> Result<Value, IrError> {
        let token = self.next();
        match token.tok {
            Tok::Int(v) => Ok(Value::Int(int_literal(v, false, token.pos)?)),
            Tok::Double(v) => Ok(Value::Double(v)),
            Tok::Str(s) => Ok(Value::Str(s)),
            Tok::Keyword(Keyword::Null) => Ok(Value::Null),
            Tok::Minus => {
                let inner = self.next();
                match inner.tok {
                    Tok::Int(v) => Ok(Value::Int(int_literal(v, true, inner.pos)?)),
                    Tok::Double(v) => Ok(Value::Double(-v)),
                    other => Err(syntax(
                        inner.pos,
                        format!(
                            "`-` must precede a number literal, found {}",
                            tok_name(&other)
                        ),
                    )),
                }
            }
            other => Err(syntax(
                token.pos,
                format!("expected a literal, found {}", tok_name(&other)),
            )),
        }
    }

    // ----------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<AstExpr, IrError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr, IrError> {
        let mut lhs = self.and_expr()?;
        while self.peek().tok == Tok::Keyword(Keyword::Or) {
            self.idx += 1;
            let rhs = self.and_expr()?;
            lhs = AstExpr {
                pos: lhs.pos,
                kind: AstExprKind::Or(Box::new(lhs), Box::new(rhs)),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<AstExpr, IrError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek().tok == Tok::Keyword(Keyword::And) {
            self.idx += 1;
            let rhs = self.cmp_expr()?;
            lhs = AstExpr {
                pos: lhs.pos,
                kind: AstExprKind::And(Box::new(lhs), Box::new(rhs)),
            };
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<AstExpr, IrError> {
        let lhs = self.add_expr()?;
        let op = match self.peek().tok {
            Tok::Eq => Some(CmpOp::Eq),
            Tok::Ne => Some(CmpOp::Ne),
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::Ge => Some(CmpOp::Ge),
            Tok::Keyword(Keyword::Between) => {
                self.idx += 1;
                let lo = self.add_expr()?;
                self.expect_keyword(Keyword::And)?;
                let hi = self.add_expr()?;
                return Ok(AstExpr {
                    pos: lhs.pos,
                    kind: AstExprKind::Between(Box::new(lhs), Box::new(lo), Box::new(hi)),
                });
            }
            _ => None,
        };
        match op {
            None => Ok(lhs),
            Some(op) => {
                self.idx += 1;
                let rhs = self.add_expr()?;
                Ok(AstExpr {
                    pos: lhs.pos,
                    kind: AstExprKind::Cmp(op, Box::new(lhs), Box::new(rhs)),
                })
            }
        }
    }

    fn add_expr(&mut self) -> Result<AstExpr, IrError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().tok {
                Tok::Plus => ArithOp::Add,
                Tok::Minus => ArithOp::Sub,
                _ => break,
            };
            self.idx += 1;
            let rhs = self.mul_expr()?;
            lhs = AstExpr {
                pos: lhs.pos,
                kind: AstExprKind::Arith(op, Box::new(lhs), Box::new(rhs)),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<AstExpr, IrError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().tok {
                Tok::Star => ArithOp::Mul,
                Tok::Slash => ArithOp::Div,
                _ => break,
            };
            self.idx += 1;
            let rhs = self.unary_expr()?;
            lhs = AstExpr {
                pos: lhs.pos,
                kind: AstExprKind::Arith(op, Box::new(lhs), Box::new(rhs)),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<AstExpr, IrError> {
        let token = self.peek().clone();
        if token.tok == Tok::Minus {
            self.idx += 1;
            let inner = self.next();
            let value = match inner.tok {
                Tok::Int(v) => Value::Int(int_literal(v, true, inner.pos)?),
                Tok::Double(v) => Value::Double(-v),
                other => {
                    return Err(syntax(
                        inner.pos,
                        format!(
                            "unary `-` must precede a number literal, found {}",
                            tok_name(&other)
                        ),
                    ))
                }
            };
            return Ok(AstExpr {
                pos: token.pos,
                kind: AstExprKind::Lit(value),
            });
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<AstExpr, IrError> {
        let token = self.next();
        let kind = match token.tok {
            Tok::Int(v) => AstExprKind::Lit(Value::Int(int_literal(v, false, token.pos)?)),
            Tok::Double(v) => AstExprKind::Lit(Value::Double(v)),
            Tok::Str(s) => AstExprKind::Lit(Value::Str(s)),
            Tok::Keyword(Keyword::Null) => AstExprKind::Lit(Value::Null),
            Tok::LParen => {
                let inner = self.expr()?;
                self.expect_tok(Tok::RParen)?;
                return Ok(inner);
            }
            Tok::Keyword(Keyword::Case) => {
                self.expect_keyword(Keyword::When)?;
                let cond = self.expr()?;
                self.expect_keyword(Keyword::Then)?;
                let then = self.expr()?;
                self.expect_keyword(Keyword::Else)?;
                let otherwise = self.expr()?;
                self.expect_keyword(Keyword::End)?;
                AstExprKind::Case(Box::new(cond), Box::new(then), Box::new(otherwise))
            }
            Tok::Ident(name) if self.peek().tok == Tok::LParen => {
                // Contextual aggregate function call.
                let func = match name.as_str() {
                    "sum" => AggFunc::Sum,
                    "count" => AggFunc::Count,
                    "avg" => AggFunc::Avg,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    other => {
                        return Err(syntax(
                            token.pos,
                            format!(
                                "unknown function `{other}` (expected sum, count, avg, min or max)"
                            ),
                        ))
                    }
                };
                self.idx += 1; // consume `(`
                if func == AggFunc::Count && self.peek().tok == Tok::Star {
                    self.idx += 1;
                    self.expect_tok(Tok::RParen)?;
                    AstExprKind::Agg {
                        func: AggFunc::CountStar,
                        arg: None,
                    }
                } else {
                    let arg = self.expr()?;
                    self.expect_tok(Tok::RParen)?;
                    AstExprKind::Agg {
                        func,
                        arg: Some(Box::new(arg)),
                    }
                }
            }
            Tok::Ident(first) => {
                if self.peek().tok == Tok::Dot && matches!(self.peek2(), Tok::Ident(_)) {
                    self.idx += 1;
                    let (_, name) = self.expect_ident("a column name after `.`")?;
                    AstExprKind::Col(ColRef {
                        pos: token.pos,
                        qualifier: Some(first),
                        name,
                    })
                } else {
                    AstExprKind::Col(ColRef {
                        pos: token.pos,
                        qualifier: None,
                        name: first,
                    })
                }
            }
            other => {
                return Err(syntax(
                    token.pos,
                    format!("expected an expression, found {}", tok_name(&other)),
                ))
            }
        };
        Ok(AstExpr {
            pos: token.pos,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_select() {
        let stmt = parse_statement("SELECT a FROM t").unwrap();
        assert!(matches!(stmt.list, SelectList::Items(ref v) if v.len() == 1));
        assert!(matches!(stmt.from_first, TableRef::Base { ref name, .. } if name == "t"));
        assert!(stmt.joins.is_empty() && stmt.where_clause.is_none());
    }

    #[test]
    fn between_binds_tighter_than_and() {
        let stmt = parse_statement("SELECT a FROM t WHERE a BETWEEN 1 AND 2 AND b < 3").unwrap();
        let expr = stmt.where_clause.unwrap();
        let AstExprKind::And(lhs, _) = expr.kind else {
            panic!("top level must be AND, got {expr:?}");
        };
        assert!(matches!(lhs.kind, AstExprKind::Between(..)));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = parse_statement("SELECT a FROM t )").unwrap_err();
        assert_eq!(err.kind, IrErrorKind::Syntax);
        assert_eq!((err.pos.line, err.pos.col), (1, 17));
    }

    #[test]
    fn semi_join_then_inner_join() {
        let stmt =
            parse_statement("SELECT * FROM a SEMI JOIN b ON a.x = b.y JOIN c ON c1 = c2").unwrap();
        assert_eq!(stmt.joins.len(), 2);
        assert!(stmt.joins[0].semi && !stmt.joins[1].semi);
    }

    #[test]
    fn unary_minus_only_folds_literals() {
        assert!(parse_statement("SELECT -1.5 FROM t").is_ok());
        let err = parse_statement("SELECT -a FROM t").unwrap_err();
        assert_eq!(err.kind, IrErrorKind::Syntax);
    }
}
