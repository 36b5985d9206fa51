//! The SQL-ish front end: a dependency-free, positioned lexer + recursive-
//! descent parser whose only output is the existing [`QueryIr`].
//!
//! Every SQL query becomes an IR document first — there is no second semantic
//! surface. The planner, the plan goldens, `ir_differential` and the fuzz
//! oracle therefore pin the SQL front end end to end: [`parse_sql`] produces
//! the same `QueryIr` the JSON surface would, and [`to_sql`] renders any IR
//! back as canonical SQL whose re-parse reproduces it exactly (the fuzz
//! harness checks that round trip for every generated case).
//!
//! The grammar and lowering rules are specified normatively in
//! `crates/query/README.md` ("SQL front end"). Errors carry 1-based line/column
//! positions into the SQL text, with the same [`IrErrorKind`](crate::IrErrorKind)
//! split as the JSON
//! surface: [`IrErrorKind::Syntax`](crate::IrErrorKind::Syntax) for lexing and
//! parsing, [`IrErrorKind::Semantic`](crate::IrErrorKind::Semantic) for name
//! resolution, scope and typing.

mod ast;
mod lexer;
mod lower;
mod print;

use datablocks::DataType;

use crate::error::IrError;
use crate::ir::QueryIr;

/// The schema information SQL lowering needs: relation names and their ordered
/// `(column name, type)` lists.
///
/// Implemented for [`storage::Database`] (the usual case) and for
/// [`crate::fuzz::Catalog`] (so the fuzz harness round-trips SQL without
/// building a database).
pub trait SqlCatalog {
    /// The ordered columns of `relation`, or `None` if it does not exist.
    fn relation_columns(&self, relation: &str) -> Option<Vec<(String, DataType)>>;
}

impl SqlCatalog for storage::Database {
    fn relation_columns(&self, relation: &str) -> Option<Vec<(String, DataType)>> {
        if !self.contains(relation) {
            return None;
        }
        Some(
            self.relation(relation)
                .schema()
                .columns()
                .iter()
                .map(|col| (col.name.clone(), col.data_type))
                .collect(),
        )
    }
}

/// Parse SQL text and lower it to an IR document.
///
/// ```
/// use query::sql::parse_sql;
/// # let mut db = storage::Database::new();
/// # let schema = storage::Schema::new(vec![
/// #     storage::ColumnDef::new("a", datablocks::DataType::Int),
/// # ]);
/// # db.create_relation("t", schema);
/// let ir = parse_sql(&db, "SELECT a FROM t WHERE a < 10").unwrap();
/// assert_eq!(ir.version, query::IR_VERSION);
/// ```
pub fn parse_sql(catalog: &dyn SqlCatalog, text: &str) -> Result<QueryIr, IrError> {
    let stmt = ast::parse_statement(text)?;
    lower::lower_statement(catalog, &stmt)
}

/// Render an IR document as canonical SQL (see the module docs for the form).
///
/// Re-parsing the result against any catalog containing the scanned relations
/// reproduces the IR exactly.
pub fn to_sql(ir: &QueryIr) -> String {
    print::print_ir(ir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datablocks::DataType;

    /// A trivial in-memory catalog for tests.
    struct TestCatalog(Vec<(String, Vec<(String, DataType)>)>);

    impl SqlCatalog for TestCatalog {
        fn relation_columns(&self, relation: &str) -> Option<Vec<(String, DataType)>> {
            self.0
                .iter()
                .find(|(name, _)| name == relation)
                .map(|(_, cols)| cols.clone())
        }
    }

    fn catalog() -> TestCatalog {
        TestCatalog(vec![
            (
                "t".to_string(),
                vec![
                    ("a".to_string(), DataType::Int),
                    ("b".to_string(), DataType::Double),
                    ("s".to_string(), DataType::Str),
                ],
            ),
            (
                "u".to_string(),
                vec![
                    ("k".to_string(), DataType::Int),
                    ("v".to_string(), DataType::Int),
                ],
            ),
        ])
    }

    fn roundtrip(sql: &str) {
        let cat = catalog();
        let ir = parse_sql(&cat, sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
        let printed = to_sql(&ir);
        let reparsed = parse_sql(&cat, &printed).unwrap_or_else(|err| panic!("{printed}: {err}"));
        assert_eq!(
            reparsed.to_pretty(),
            ir.to_pretty(),
            "canonical SQL did not round-trip:\noriginal: {sql}\nprinted: {printed}"
        );
    }

    #[test]
    fn bare_scan_keeps_duplicate_columns() {
        let ir = parse_sql(&catalog(), "SELECT a, a, b FROM t").unwrap();
        match &ir.root {
            crate::Node::Scan { columns, .. } => {
                assert_eq!(columns, &["a", "a", "b"], "duplicates must be preserved")
            }
            other => panic!("expected a bare scan, got {other:?}"),
        }
        roundtrip("SELECT a, a, b FROM t");
    }

    #[test]
    fn where_conjuncts_push_into_scan_predicates() {
        let ir = parse_sql(
            &catalog(),
            "SELECT sum(a) FROM t WHERE a BETWEEN 1 AND 5 AND b < 2.5 AND a + 1 < 3",
        )
        .unwrap();
        let pretty = ir.to_pretty();
        // `a BETWEEN` and `b <` push; `a + 1 < 3` stays a filter.
        assert!(pretty.contains(r#""between""#), "{pretty}");
        assert!(pretty.contains(r#""op": "filter""#), "{pretty}");
        roundtrip("SELECT sum(a) FROM t WHERE a BETWEEN 1 AND 5 AND b < 2.5 AND a + 1 < 3");
    }

    #[test]
    fn literal_type_mismatch_is_not_pushed() {
        // Int literal against a double column: stays a residual filter (the
        // scan kernels compare exactly-typed constants only).
        let ir = parse_sql(&catalog(), "SELECT sum(a) FROM t WHERE b < 2").unwrap();
        let pretty = ir.to_pretty();
        assert!(!pretty.contains(r#""predicates""#), "{pretty}");
        assert!(pretty.contains(r#""op": "filter""#), "{pretty}");
    }

    #[test]
    fn joins_fold_left_deep_with_semi_scope() {
        roundtrip(
            "SELECT k, sum(v) FROM t SEMI JOIN u ON a = k WHERE s = 'x' GROUP BY k ORDER BY k",
        );
        // After the semi join `t` is out of scope for the select list.
        let err = parse_sql(&catalog(), "SELECT a FROM t SEMI JOIN u ON a = k").unwrap_err();
        assert_eq!(err.kind, crate::IrErrorKind::Semantic);
    }

    #[test]
    fn aggregate_shape_is_enforced() {
        let err = parse_sql(&catalog(), "SELECT a, sum(b) FROM t").unwrap_err();
        assert!(
            err.message.contains("GROUP BY"),
            "unexpected message: {err}"
        );
        let err = parse_sql(&catalog(), "SELECT sum(sum(a)) FROM t").unwrap_err();
        assert_eq!(err.kind, crate::IrErrorKind::Semantic);
    }

    #[test]
    fn order_by_resolves_aliases_and_limit_requires_order() {
        roundtrip("SELECT a, count(*) AS n FROM t GROUP BY a ORDER BY n DESC, a LIMIT 3");
        let err = parse_sql(&catalog(), "SELECT a FROM t LIMIT 3").unwrap_err();
        assert!(err.message.contains("ORDER BY"), "{err}");
    }

    #[test]
    fn canonical_forms_round_trip() {
        for sql in [
            "SELECT * FROM t",
            "SELECT a AS x, s FROM t PREWHERE a BETWEEN -3 AND 7 AND s IS NOT NULL",
            "SELECT a + 1 ::int AS y FROM t",
            "SELECT CASE WHEN a > 0 THEN b ELSE 0.0 END::double AS c FROM t",
            "SELECT t.a, u.v FROM t JOIN u ON t.a = u.k",
            "SELECT a, b FROM t ORDER BY b DESC, a LIMIT 10",
            "SELECT sum(a * 2), avg(b), min(s), count(*) FROM t WHERE a <> 0 OR b >= 1.5",
            "SELECT a FROM t PREWHERE a > -9223372036854775808",
            "SELECT a * -9223372036854775808 AS m FROM t",
        ] {
            roundtrip(sql);
        }
    }

    #[test]
    fn i64_min_survives_ir_to_sql_and_back() {
        let doc = r#"{"version": 1, "plan": {"op": "scan", "relation": "t", "columns": ["a"],
            "predicates": [{"column": "a", "cmp": "gt", "value": {"int": -9223372036854775808}}]}}"#;
        let ir = crate::parse_ir(doc).unwrap();
        let sql = to_sql(&ir);
        assert!(sql.contains("-9223372036854775808"), "{sql}");
        let reparsed = parse_sql(&catalog(), &sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
        assert_eq!(reparsed.to_pretty(), ir.to_pretty());
        // Only negated does that magnitude fit: unnegated, one past it, or as a
        // LIMIT, it is the out-of-range error, positioned at its digits.
        for (sql, col) in [
            ("SELECT a FROM t PREWHERE a > 9223372036854775808", 30),
            ("SELECT a - 9223372036854775808 AS m FROM t", 12),
            ("SELECT a FROM t PREWHERE a > -9223372036854775809", 31),
            ("SELECT a FROM t ORDER BY a LIMIT 9223372036854775808", 34),
        ] {
            let err = parse_sql(&catalog(), sql).unwrap_err();
            let digits = sql[col as usize - 1..].split(' ').next().unwrap();
            let message = format!("integer literal `{digits}` is out of range");
            let expected = (crate::IrErrorKind::Syntax, message, col);
            assert_eq!((err.kind, err.message, err.pos.col), expected, "{sql}");
        }
    }

    #[test]
    fn errors_are_positioned() {
        let err = parse_sql(&catalog(), "SELECT a\nFROM missing").unwrap_err();
        assert_eq!(err.kind, crate::IrErrorKind::Semantic);
        assert_eq!((err.pos.line, err.pos.col), (2, 6));
        let err = parse_sql(&catalog(), "SELECT nope FROM t").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (1, 8));
    }
}
