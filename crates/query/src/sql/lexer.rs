//! The SQL lexer: positioned tokens over the dialect of `crates/query/README.md`.
//!
//! Every token carries the 1-based line/column of its first character (the same
//! [`Pos`] convention as [`crate::json`]), so parser and lowering errors anchor
//! to the query text exactly like JSON-IR errors do. `--` starts a comment that
//! runs to the end of the line. Keywords are case-insensitive; identifiers are
//! case-sensitive. String literals are single-quoted with `''` escaping the
//! quote.

use crate::error::IrError;
use crate::json::Pos;

/// A token kind plus its literal payload where applicable.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Identifier or (contextual) function name.
    Ident(String),
    /// Case-normalised keyword (SELECT, FROM, ...).
    Keyword(Keyword),
    /// Integer literal's magnitude (unary minus is a separate token, so the parser
    /// range-checks it: `9223372036854775808` is only valid negated).
    Int(u64),
    /// Double literal (contains `.` or an exponent).
    Double(f64),
    /// Single-quoted string literal (unescaped).
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `::`
    DoubleColon,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

/// The reserved words of the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs, clippy::upper_case_acronyms)]
pub(crate) enum Keyword {
    Select,
    From,
    Prewhere,
    Where,
    Group,
    Order,
    By,
    Limit,
    As,
    And,
    Or,
    Not,
    Between,
    Is,
    Null,
    Case,
    When,
    Then,
    Else,
    End,
    Join,
    Semi,
    Early,
    On,
    Asc,
    Desc,
}

fn keyword(word: &str) -> Option<Keyword> {
    Some(match word.to_ascii_uppercase().as_str() {
        "SELECT" => Keyword::Select,
        "FROM" => Keyword::From,
        "PREWHERE" => Keyword::Prewhere,
        "WHERE" => Keyword::Where,
        "GROUP" => Keyword::Group,
        "ORDER" => Keyword::Order,
        "BY" => Keyword::By,
        "LIMIT" => Keyword::Limit,
        "AS" => Keyword::As,
        "AND" => Keyword::And,
        "OR" => Keyword::Or,
        "NOT" => Keyword::Not,
        "BETWEEN" => Keyword::Between,
        "IS" => Keyword::Is,
        "NULL" => Keyword::Null,
        "CASE" => Keyword::Case,
        "WHEN" => Keyword::When,
        "THEN" => Keyword::Then,
        "ELSE" => Keyword::Else,
        "END" => Keyword::End,
        "JOIN" => Keyword::Join,
        "SEMI" => Keyword::Semi,
        "EARLY" => Keyword::Early,
        "ON" => Keyword::On,
        "ASC" => Keyword::Asc,
        "DESC" => Keyword::Desc,
        _ => return None,
    })
}

/// A positioned token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub pos: Pos,
    pub tok: Tok,
}

/// Human-readable name of a token for error messages.
pub(crate) fn tok_name(tok: &Tok) -> String {
    match tok {
        Tok::Ident(name) => format!("identifier `{name}`"),
        Tok::Keyword(kw) => format!("keyword `{kw:?}`").to_uppercase(),
        Tok::Int(v) => format!("integer {v}"),
        Tok::Double(v) => format!("number {v:?}"),
        Tok::Str(s) => format!("string {s:?}"),
        Tok::Comma => "`,`".into(),
        Tok::LParen => "`(`".into(),
        Tok::RParen => "`)`".into(),
        Tok::Dot => "`.`".into(),
        Tok::DoubleColon => "`::`".into(),
        Tok::Star => "`*`".into(),
        Tok::Slash => "`/`".into(),
        Tok::Plus => "`+`".into(),
        Tok::Minus => "`-`".into(),
        Tok::Eq => "`=`".into(),
        Tok::Ne => "`<>`".into(),
        Tok::Lt => "`<`".into(),
        Tok::Le => "`<=`".into(),
        Tok::Gt => "`>`".into(),
        Tok::Ge => "`>=`".into(),
        Tok::Eof => "end of input".into(),
    }
}

fn syntax(pos: Pos, message: impl Into<String>) -> IrError {
    IrError {
        kind: crate::IrErrorKind::Syntax,
        message: message.into(),
        pos,
    }
}

/// The error for an integer literal (written as `digits` at `pos`) that no `i64`
/// holds.
fn out_of_range(pos: Pos, digits: &str) -> IrError {
    syntax(pos, format!("integer literal `{digits}` is out of range"))
}

/// The `i64` an integer literal of magnitude `magnitude` at `pos` stands for,
/// negated when a `-` precedes it.
pub(crate) fn int_literal(magnitude: u64, negated: bool, pos: Pos) -> Result<i64, IrError> {
    let value = match negated {
        true => 0i64.checked_sub_unsigned(magnitude),
        false => i64::try_from(magnitude).ok(),
    };
    value.ok_or_else(|| out_of_range(pos, &magnitude.to_string()))
}

/// Tokenize the whole input (appending a final [`Tok::Eof`]).
pub(crate) fn tokenize(text: &str) -> Result<Vec<Token>, IrError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! advance {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let pos = Pos { line, col };
        match c {
            ' ' | '\t' | '\r' | '\n' => advance!(),
            '-' if chars.get(i + 1) == Some(&'-') => {
                while i < chars.len() && chars[i] != '\n' {
                    advance!();
                }
            }
            ',' | '(' | ')' | '.' | '*' | '/' | '+' | '-' | '=' => {
                let tok = match c {
                    ',' => Tok::Comma,
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '.' => Tok::Dot,
                    '*' => Tok::Star,
                    '/' => Tok::Slash,
                    '+' => Tok::Plus,
                    '-' => Tok::Minus,
                    _ => Tok::Eq,
                };
                advance!();
                tokens.push(Token { pos, tok });
            }
            ':' => {
                advance!();
                if chars.get(i) != Some(&':') {
                    return Err(syntax(pos, "expected `::` (a single `:` is not a token)"));
                }
                advance!();
                tokens.push(Token {
                    pos,
                    tok: Tok::DoubleColon,
                });
            }
            '<' => {
                advance!();
                let tok = match chars.get(i) {
                    Some('=') => {
                        advance!();
                        Tok::Le
                    }
                    Some('>') => {
                        advance!();
                        Tok::Ne
                    }
                    _ => Tok::Lt,
                };
                tokens.push(Token { pos, tok });
            }
            '>' => {
                advance!();
                let tok = if chars.get(i) == Some(&'=') {
                    advance!();
                    Tok::Ge
                } else {
                    Tok::Gt
                };
                tokens.push(Token { pos, tok });
            }
            '\'' => {
                advance!();
                let mut s = String::new();
                loop {
                    match chars.get(i) {
                        None => return Err(syntax(pos, "unterminated string literal")),
                        Some('\'') => {
                            advance!();
                            if chars.get(i) == Some(&'\'') {
                                s.push('\'');
                                advance!();
                            } else {
                                break;
                            }
                        }
                        Some(&ch) => {
                            s.push(ch);
                            advance!();
                        }
                    }
                }
                tokens.push(Token {
                    pos,
                    tok: Tok::Str(s),
                });
            }
            '0'..='9' => {
                let mut digits = String::new();
                let mut is_double = false;
                while matches!(chars.get(i), Some('0'..='9')) {
                    digits.push(chars[i]);
                    advance!();
                }
                // A fraction only when a digit follows the dot (so `c0.x` style
                // qualified names never collide — column refs start with a letter).
                if chars.get(i) == Some(&'.') && matches!(chars.get(i + 1), Some('0'..='9')) {
                    is_double = true;
                    digits.push('.');
                    advance!();
                    while matches!(chars.get(i), Some('0'..='9')) {
                        digits.push(chars[i]);
                        advance!();
                    }
                }
                if matches!(chars.get(i), Some('e' | 'E')) {
                    let mut j = i + 1;
                    if matches!(chars.get(j), Some('+' | '-')) {
                        j += 1;
                    }
                    if matches!(chars.get(j), Some('0'..='9')) {
                        is_double = true;
                        while i < j {
                            digits.push(chars[i]);
                            advance!();
                        }
                        while matches!(chars.get(i), Some('0'..='9')) {
                            digits.push(chars[i]);
                            advance!();
                        }
                    }
                }
                let tok = if is_double {
                    let v: f64 = digits
                        .parse()
                        .map_err(|_| syntax(pos, format!("invalid number literal `{digits}`")))?;
                    Tok::Double(v)
                } else {
                    let v: u64 = digits.parse().map_err(|_| out_of_range(pos, &digits))?;
                    Tok::Int(v)
                };
                tokens.push(Token { pos, tok });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut word = String::new();
                while chars
                    .get(i)
                    .is_some_and(|&ch| ch.is_alphanumeric() || ch == '_')
                {
                    word.push(chars[i]);
                    advance!();
                }
                let tok = match keyword(&word) {
                    Some(kw) => Tok::Keyword(kw),
                    None => Tok::Ident(word),
                };
                tokens.push(Token { pos, tok });
            }
            other => {
                return Err(syntax(pos, format!("unexpected character {other:?}")));
            }
        }
    }
    tokens.push(Token {
        pos: Pos { line, col },
        tok: Tok::Eof,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<Tok> {
        tokenize(text).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_basic_query() {
        let toks = kinds("SELECT a FROM t WHERE a <= 1.5 -- tail\n");
        assert_eq!(
            toks,
            vec![
                Tok::Keyword(Keyword::Select),
                Tok::Ident("a".into()),
                Tok::Keyword(Keyword::From),
                Tok::Ident("t".into()),
                Tok::Keyword(Keyword::Where),
                Tok::Ident("a".into()),
                Tok::Le,
                Tok::Double(1.5),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn strings_escape_quotes_and_keep_unicode() {
        assert_eq!(
            kinds("'it''s' 'héllo' ''"),
            vec![
                Tok::Str("it's".into()),
                Tok::Str("héllo".into()),
                Tok::Str(String::new()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers_split_int_vs_double() {
        assert_eq!(
            kinds("7 0.5 1e6 3.25"),
            vec![
                Tok::Int(7),
                Tok::Double(0.5),
                Tok::Double(1e6),
                Tok::Double(3.25),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn positions_are_one_based() {
        let toks = tokenize("SELECT\n  a").unwrap();
        assert_eq!((toks[0].pos.line, toks[0].pos.col), (1, 1));
        assert_eq!((toks[1].pos.line, toks[1].pos.col), (2, 3));
    }

    #[test]
    fn unterminated_string_is_positioned() {
        let err = tokenize("SELECT 'oops").unwrap_err();
        assert_eq!(err.kind, crate::IrErrorKind::Syntax);
        assert_eq!((err.pos.line, err.pos.col), (1, 8));
    }
}
