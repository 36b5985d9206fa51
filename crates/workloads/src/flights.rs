//! Synthetic flight on-time-performance data set (Table 1, Section 5.2, Appendix D).
//!
//! The paper uses the US DOT on-time performance records (all commercial flights
//! October 1987 – April 2008, ~120 M rows). The generator reproduces the properties
//! the experiments depend on: the relation is **naturally ordered by date** (so SMAs
//! skip most blocks for date-restricted queries), carriers and airports are
//! low-cardinality strings, and arrival delays are small integers centred near zero.
//! The Appendix D query — average arrival delay per carrier into SFO for 1998–2008 —
//! is provided as a ready-made plan.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use datablocks::scan::Restriction;
use datablocks::{DataType, Value};
use exec::prelude::*;
use storage::{ColumnDef, Relation, Schema};

const CARRIERS: &[&str] = &[
    "AA", "AS", "B6", "CO", "DL", "EV", "F9", "FL", "HA", "MQ", "NW", "OO", "UA", "US", "WN", "XE",
    "YV", "9E", "OH", "TZ",
];

const AIRPORTS: &[&str] = &[
    "ATL", "ORD", "DFW", "DEN", "LAX", "PHX", "IAH", "LAS", "DTW", "SFO", "SLC", "MSP", "MCO",
    "EWR", "CLT", "SEA", "BOS", "LGA", "JFK", "BWI", "MIA", "SAN", "OAK", "PDX", "SMF", "STL",
    "TPA", "MDW", "HOU", "RDU",
];

/// Generate `rows` flight records covering October 1987 through April 2008 in date
/// order.
pub fn generate(rows: usize, chunk_capacity: usize) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("year", DataType::Int),
        ColumnDef::new("month", DataType::Int),
        ColumnDef::new("dayofmonth", DataType::Int),
        ColumnDef::new("dayofweek", DataType::Int),
        ColumnDef::new("uniquecarrier", DataType::Str),
        ColumnDef::new("origin", DataType::Str),
        ColumnDef::new("dest", DataType::Str),
        ColumnDef::new("depdelay", DataType::Int),
        ColumnDef::new("arrdelay", DataType::Int),
        ColumnDef::new("distance", DataType::Int),
    ]);
    let mut rel = Relation::with_chunk_capacity("flights", schema, chunk_capacity);
    let mut rng = StdRng::seed_from_u64(0xF11_6475);

    // 247 months from 1987-10 to 2008-04, visited in order so the data is naturally
    // date-clustered like the real data set.
    let total_months = (2008 - 1987) * 12 + (4 - 10) + 1; // 247
    for i in 0..rows {
        let month_index = (i * total_months as usize) / rows;
        let year = 1987 + (month_index + 9) / 12;
        let month = (month_index + 9) % 12 + 1;
        let dayofmonth = rng.gen_range(1..=28i64);
        let dayofweek = rng.gen_range(1..=7i64);
        let carrier = CARRIERS[rng.gen_range(0..CARRIERS.len())];
        let origin = AIRPORTS[rng.gen_range(0..AIRPORTS.len())];
        let mut dest = AIRPORTS[rng.gen_range(0..AIRPORTS.len())];
        if dest == origin {
            dest = AIRPORTS[(rng.gen_range(0..AIRPORTS.len() - 1) + 1) % AIRPORTS.len()];
        }
        let depdelay = rng.gen_range(-10..=120i64);
        // arrival delay correlates with departure delay, carriers differ slightly
        let carrier_bias = (carrier.as_bytes()[0] % 7) as i64 - 3;
        let arrdelay = depdelay + rng.gen_range(-15..=15) + carrier_bias;
        rel.insert(vec![
            Value::Int(year as i64),
            Value::Int(month as i64),
            Value::Int(dayofmonth),
            Value::Int(dayofweek),
            Value::Str(carrier.to_string()),
            Value::Str(origin.to_string()),
            Value::Str(dest.to_string()),
            Value::Int(depdelay),
            Value::Int(arrdelay),
            Value::Int(rng.gen_range(100..=2_500)),
        ]);
    }
    rel
}

/// The Appendix D query: carriers and their average arrival delay into SFO for the
/// years 1998–2008, most delayed first.
pub fn sfo_delay_query(flights: &Relation, config: ScanConfig) -> (Batch, ScanStats) {
    let s = flights.schema();
    let scanner = RelationScanner::new(
        flights,
        vec![s.idx("uniquecarrier"), s.idx("arrdelay")],
        vec![
            Restriction::between(s.idx("year"), 1998i64, 2008i64),
            Restriction::eq(s.idx("dest"), "SFO"),
        ],
        config,
    );
    let mut scan = ScanOp::new(scanner);
    let agg = HashAggregateOp::new(
        Box::new(PassThrough(&mut scan)),
        vec![Expr::col(0)],
        vec![DataType::Str],
        vec![AggSpec::new(AggFunc::Avg, Expr::col(1), DataType::Double)],
    );
    let mut sort = SortOp::new(Box::new(agg), vec![SortKey::desc(1)], None);
    let batch = sort.collect_all();
    drop(sort);
    (batch, scan.stats())
}

struct PassThrough<'a, 'b>(&'b mut ScanOp<'a>);

impl<'a, 'b> Operator for PassThrough<'a, 'b> {
    fn next_batch(&mut self) -> Result<Option<Batch>, exec::Error> {
        self.0.next_batch()
    }
    fn output_types(&self) -> Vec<DataType> {
        self.0.output_types()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_is_date_ordered_and_plausible() {
        let rel = generate(10_000, 2_048);
        let s = rel.schema();
        let mut prev = 0i64;
        for (chunk_idx, chunk) in rel.hot_chunks().iter().enumerate() {
            for row in 0..chunk.len() {
                let year = chunk.get(row, s.idx("year")).as_int().unwrap();
                let month = chunk.get(row, s.idx("month")).as_int().unwrap();
                let stamp = year * 12 + month;
                assert!(
                    stamp >= prev,
                    "date order violated at chunk {chunk_idx} row {row}"
                );
                prev = stamp;
                assert!((1987..=2008).contains(&year));
                assert!((1..=12).contains(&month));
            }
        }
    }

    #[test]
    fn sfo_query_agrees_across_scan_configs_and_skips_blocks() {
        let mut rel = generate(30_000, 2_048);
        rel.freeze_all();
        let (jit_result, _) = sfo_delay_query(&rel, ScanConfig::named("jit"));
        let (db_result, stats) = sfo_delay_query(&rel, ScanConfig::named("datablocks+psma"));
        assert_eq!(jit_result.len(), db_result.len());
        for row in 0..jit_result.len() {
            assert_eq!(jit_result.row(row), db_result.row(row));
        }
        // The relation is date-ordered, so the year restriction lets SMAs skip the
        // pre-1998 blocks entirely.
        assert!(stats.blocks_skipped > 0, "stats {stats:?}");
        // Result is sorted by average delay, descending.
        for row in 1..db_result.len() {
            let prev = db_result.value(row - 1, 1).as_double().unwrap();
            let this = db_result.value(row, 1).as_double().unwrap();
            assert!(prev >= this);
        }
    }
}
