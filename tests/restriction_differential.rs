//! Restriction-kernel differential: every comparison and `BETWEEN`, with
//! constants at the edges of each type (±0.0, ±∞, NaN, the smallest subnormal,
//! `f64::MAX`, `i64::MIN`/`MAX`, `""`, strings between dictionary entries) and
//! across types (Int↔Double, Str↔number, NULL), is evaluated
//!
//! * by a hot chunk's find and, behind a restriction that passes every row, its
//!   reduce — over the whole chunk and over a window that starts and ends off a
//!   64-row word, alone and paired with a seeded second restriction on the same
//!   attribute,
//! * by a frozen block's scan at every compression scheme — single value,
//!   truncation at each code width, integer and string dictionaries, doubles —
//!   with SMA and PSMA each on and off,
//!
//! over nullable and non-nullable attributes with deleted rows, and each answer
//! must be, position for position, the rows `Restriction::matches_value`
//! keeps. The SMA gate must never rule out a block that holds a match. Last,
//! `RelationScanner` must read the same rows from both tiers.

use data_blocks::datablocks::builder::freeze;
use data_blocks::datablocks::{
    scan_collect, CmpOp, Column, DataBlock, DataType, Restriction, ScanOptions, SchemeKind, Value,
};
use data_blocks::exec::{RelationScanner, ScanConfig};
use data_blocks::storage::{ColumnDef, HotChunk, Relation, Schema};

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// The smallest positive subnormal double.
const SUBNORMAL: f64 = 5e-324;

/// Comparison constants: the edges of every type and values between the
/// entries of the columns below.
fn constants() -> Vec<Value> {
    let ints = [
        i64::MIN,
        i64::MIN + 1,
        -1,
        0,
        1,
        2,
        5,
        199,
        255,
        256,
        65_535,
        1 << 32,
        1 << 40,
        i64::MAX - 1,
        i64::MAX,
    ];
    let doubles = [
        f64::NEG_INFINITY,
        -f64::MAX,
        -1.5,
        -SUBNORMAL,
        -0.0,
        0.0,
        SUBNORMAL,
        1.0,
        2.5,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ];
    let strings = ["", "a", "a0", "b", "b00", "zz", "zzz"];
    (ints.into_iter().map(Value::Int))
        .chain(doubles.into_iter().map(Value::Double))
        .chain(strings.into_iter().map(Value::from))
        .chain([Value::Null])
        .collect()
}

/// Every comparison against every constant, both NULL tests, and `BETWEEN`
/// over every ordered pair of a smaller set that mixes the types.
fn restrictions() -> Vec<Restriction> {
    let bounds = [
        Value::Null,
        Value::Int(i64::MIN),
        Value::Int(-1),
        Value::Int(1),
        Value::Int(i64::MAX),
        Value::Double(f64::NEG_INFINITY),
        Value::Double(-0.0),
        Value::Double(0.0),
        Value::Double(SUBNORMAL),
        Value::Double(2.5),
        Value::Double(f64::MAX),
        Value::Double(f64::INFINITY),
        Value::Double(f64::NAN),
        Value::from(""),
        Value::from("b"),
    ];
    let mut all = vec![
        Restriction::IsNull { column: 0 },
        Restriction::IsNotNull { column: 0 },
    ];
    for value in constants() {
        all.extend(OPS.map(|op| Restriction::cmp(0, op, value.clone())));
    }
    for lo in &bounds {
        all.extend(
            bounds
                .iter()
                .map(|hi| Restriction::between(0, lo.clone(), hi.clone())),
        );
    }
    all
}

/// One attribute of [`ROWS`] values and the scheme it must freeze to: a
/// scheme that drifts would leave a kernel untested.
struct Case {
    name: &'static str,
    data_type: DataType,
    values: Vec<Value>,
    scheme: SchemeKind,
}

const ROWS: i64 = 300;

fn cases() -> Vec<Case> {
    let int = |name, scheme, f: &dyn Fn(i64) -> i64| Case {
        name,
        data_type: DataType::Int,
        values: (0..ROWS).map(|i| Value::Int(f(i))).collect(),
        scheme,
    };
    // From i64::MIN to i64::MAX in even steps.
    let spread = |i: i64| match i {
        i if i == ROWS - 1 => i64::MAX,
        i => (i64::MIN as i128 + i as i128 * (u64::MAX / (ROWS as u64 - 1)) as i128) as i64,
    };
    let edges = [i64::MIN, -1, 0, 1, 5, 1 << 40, i64::MAX];
    let doubles = [
        f64::NEG_INFINITY,
        -f64::MAX,
        -1.5,
        -SUBNORMAL,
        -0.0,
        0.0,
        SUBNORMAL,
        1.0,
        2.5,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ];
    let strings = ["", "a", "aa", "b", "b0", "b01", "c", "zz"];
    vec![
        int("single int", SchemeKind::SingleValue, &|_| 5),
        int("truncated, 1 byte", SchemeKind::Truncated(1), &|i| {
            i % 201 - 1
        }),
        int("truncated, 2 bytes", SchemeKind::Truncated(2), &|i| {
            i * 219 - 1
        }),
        int("truncated, 4 bytes", SchemeKind::Truncated(4), &|i| {
            (i << 23) - 2
        }),
        int("truncated, 8 bytes", SchemeKind::Truncated(8), &spread),
        int("dictionary int", SchemeKind::DictInt(1), &|i| {
            edges[i as usize % edges.len()]
        }),
        Case {
            name: "single double",
            data_type: DataType::Double,
            values: vec![Value::Double(-0.0); ROWS as usize],
            scheme: SchemeKind::SingleValue,
        },
        Case {
            name: "double",
            data_type: DataType::Double,
            values: (0..ROWS as usize)
                .map(|i| Value::Double(doubles[i % doubles.len()]))
                .collect(),
            scheme: SchemeKind::Double,
        },
        Case {
            name: "single string",
            data_type: DataType::Str,
            values: vec![Value::from("b"); ROWS as usize],
            scheme: SchemeKind::SingleValue,
        },
        Case {
            name: "dictionary string",
            data_type: DataType::Str,
            values: (0..ROWS as usize)
                .map(|i| Value::from(strings[i % strings.len()]))
                .collect(),
            scheme: SchemeKind::DictStr(1),
        },
    ]
}

/// Every seventh row NULL.
fn with_nulls(values: &[Value]) -> Vec<Value> {
    (values.iter().enumerate())
        .map(|(i, v)| if i % 7 == 3 { Value::Null } else { v.clone() })
        .collect()
}

/// Every eleventh row deleted.
fn is_deleted(row: usize) -> bool {
    row % 11 == 4
}

fn frozen(case: &Case, values: &[Value]) -> DataBlock {
    let mut column = Column::new(case.data_type);
    for value in values {
        column.push(value.clone());
    }
    let mut block = freeze(&[column]);
    for row in (0..values.len()).filter(|&row| is_deleted(row)) {
        block.delete(row);
    }
    block
}

/// The case's attribute, then one that [`every_row`] passes in full.
fn hot(case: &Case, values: &[Value]) -> HotChunk {
    let schema = Schema::new(vec![
        ColumnDef::new("a", case.data_type),
        ColumnDef::new("row", DataType::Int),
    ]);
    let mut chunk = HotChunk::new(&schema, values.len());
    for (row, value) in values.iter().enumerate() {
        chunk.insert(vec![value.clone(), Value::Int(row as i64)]);
        if is_deleted(row) {
            chunk.delete(row);
        }
    }
    chunk
}

/// Passes every row of a [`hot`] chunk: put first, it finds the whole window,
/// so the restriction after it runs as the reduce step.
fn every_row() -> Restriction {
    Restriction::cmp(1, CmpOp::Ge, 0i64)
}

/// The positions a hot chunk's `find_matches` returns for `restrictions` over
/// rows `[from, to)`.
fn hot_find(chunk: &HotChunk, restrictions: &[Restriction], from: usize, to: usize) -> Vec<u32> {
    let mut found = Vec::new();
    chunk.find_matches(restrictions, from, to, &mut found);
    found
}

fn scan_options() -> [(&'static str, ScanOptions); 4] {
    let full = ScanOptions::default();
    [
        ("sma+psma", full),
        (
            "sma",
            ScanOptions {
                use_psma: false,
                ..full
            },
        ),
        (
            "psma",
            ScanOptions {
                use_sma: false,
                ..full
            },
        ),
        ("plain", ScanOptions::plain()),
    ]
}

#[test]
fn every_tier_and_scheme_matches_the_row_at_a_time_definition() {
    let restrictions = restrictions();
    // xorshift64: picks the second restriction of each hot pair.
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut pick = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        &restrictions[seed as usize % restrictions.len()]
    };
    for case in cases() {
        for nullable in [false, true] {
            let values = match nullable {
                false => case.values.clone(),
                true => with_nulls(&case.values),
            };
            let block = frozen(&case, &values);
            let chunk = hot(&case, &values);
            if !nullable {
                assert_eq!(block.layout_combination(), [case.scheme], "{}", case.name);
            }
            for restriction in &restrictions {
                let label = format!("{} (nullable: {nullable}) {restriction:?}", case.name);
                let expected: Vec<u32> = (0..values.len())
                    .filter(|&row| !is_deleted(row) && restriction.matches_value(&values[row]))
                    .map(|row| row as u32)
                    .collect();
                let (from, to) = (3, values.len() - 5);
                let within = |rows: &[u32]| -> Vec<u32> {
                    let window = from as u32..to as u32;
                    rows.iter()
                        .copied()
                        .filter(|r| window.contains(r))
                        .collect()
                };
                let alone = [restriction.clone()];
                let reduced = [every_row(), restriction.clone()];
                for (from, to, expected) in [
                    (0, values.len(), expected.clone()),
                    (from, to, within(&expected)),
                ] {
                    let label = format!("[{from}, {to}) {label}");
                    assert_eq!(
                        hot_find(&chunk, &alone, from, to),
                        expected,
                        "hot find: {label}"
                    );
                    assert_eq!(
                        hot_find(&chunk, &reduced, from, to),
                        expected,
                        "hot reduce: {label}"
                    );
                }
                let second = pick();
                let both: Vec<u32> = (expected.iter().copied())
                    .filter(|&row| second.matches_value(&values[row as usize]))
                    .collect();
                let pair = [restriction.clone(), second.clone()];
                assert_eq!(
                    hot_find(&chunk, &pair, from, to),
                    within(&both),
                    "hot pair with {second:?}: {label}"
                );
                for (name, options) in scan_options() {
                    let got = scan_collect(&block, std::slice::from_ref(restriction), options);
                    assert_eq!(got, expected, "frozen, {name}: {label}");
                }
                if !expected.is_empty() {
                    assert!(
                        block.column(0).sma.may_match(restriction),
                        "SMA gate: {label}"
                    );
                }
            }
        }
    }
}

/// A frozen block once read `BETWEEN 1 AND 2.5` on an integer attribute as
/// `= 1`, while a hot chunk read it as `1 <= k <= 2.5`. The planner casts no
/// literal, so only a hand-built restriction reaches this.
#[test]
fn a_between_with_a_double_bound_reads_the_same_rows_from_both_tiers() {
    let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]);
    let mut rel = Relation::with_chunk_capacity("t", schema, 1_024);
    for k in 0..5 {
        rel.insert(vec![Value::Int(k)]);
    }
    let between = vec![Restriction::between(0, 1i64, 2.5f64)];
    let scan = |rel: &Relation| {
        let mut scanner =
            RelationScanner::new(rel, vec![0], between.clone(), ScanConfig::default());
        let mut rows = Vec::new();
        while let Some(batch) = scanner.try_next_batch().expect("resident blocks read") {
            rows.extend((0..batch.len()).map(|row| batch.row(row)));
        }
        rows
    };
    let expected = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
    assert_eq!(scan(&rel), expected, "hot");
    rel.freeze_all();
    assert_eq!(rel.cold_block_count(), 1);
    assert_eq!(scan(&rel), expected, "frozen");
}
