//! Figure 12: byte-addressable Data Blocks vs horizontal bit-packing.
//!
//! (a) cost of evaluating a SARGable between-predicate at varying selectivities,
//! (b) cost of unpacking the matching tuples of three attributes.
//! The setup follows Section 5.4: three columns of 2^16 values, domains chosen one
//! bit past the 1-/2-byte truncation limits (worst case for Data Blocks).

use bitpack::BitPackedColumn;
use datablocks::builder::{freeze, int_column};
use datablocks::{scan_collect, Column, DataType, Restriction, ScanOptions};
use db_bench::{print_table_header, print_table_row, time_median, xorshift};

use crate::{Claim, Ctx, Paper};

/// Values per column.
const N: usize = 1 << 16;

const WIDTHS: [usize; 4] = [12, 14, 16, 20];

/// `A BETWEEN 0 AND hi` for the `hi` that selects `sel`% of A's domain.
fn restriction(sel: u64) -> (u32, [Restriction; 1]) {
    let hi = ((1u64 << 16) * sel / 100) as u32;
    (hi, [Restriction::between(0, 0i64, hi as i64)])
}

pub fn run(_: &Ctx) -> Vec<Claim> {
    // A, B in [0, 2^16] (17 bits), C in [0, 2^8] (9 bits), as (values, bits)
    let columns = [(1u64, 17u32), (2, 17), (3, 9)].map(|(seed, bits)| {
        let mut x = seed | 1;
        let domain = (1 << (bits - 1)) + 1;
        let values: Vec<i64> = (0..N).map(|_| (xorshift(&mut x) % domain) as i64).collect();
        (values, bits)
    });
    // Data Block over the three columns (forced to 4-, 4- and 2-byte codes).
    let block = freeze(&columns.each_ref().map(|c| int_column(c.0.clone())));
    // Horizontal bit-packed columns at 17 / 17 / 9 bits.
    let [pa, pb, pc] = columns.map(|(values, bits)| {
        let values: Vec<u32> = values.into_iter().map(|v| v as u32).collect();
        BitPackedColumn::pack(&values, bits)
    });
    let options = ScanOptions {
        use_psma: false,
        use_sma: false,
        ..ScanOptions::default()
    };

    print_table_header(
        "Figure 12(a): predicate evaluation cost (ns per tuple)",
        &[
            "selectivity",
            "Data Blocks",
            "bit-packed",
            "bit-packed+table",
        ],
        &WIDTHS,
    );
    // the least, over all selectivities, of the faster bit-packed scan's cost over
    // the Data Block's
    let mut least_gain = f64::INFINITY;
    for sel in [0u64, 10, 25, 50, 75, 100] {
        let (hi, restriction) = restriction(sel);
        let (_, dur_db) = time_median(5, || scan_collect(&block, &restriction, options));
        let mut positions = Vec::new();
        let (_, dur_branchy) = time_median(5, || pa.scan_between_branchy(0, hi, &mut positions));
        let (_, dur_robust) = time_median(5, || pa.scan_between_robust(0, hi, &mut positions));
        let ns = [dur_db, dur_branchy, dur_robust].map(|d| d.as_secs_f64() * 1e9 / N as f64);
        let mut cells = vec![format!("{sel}%")];
        cells.extend(ns.map(|ns| format!("{ns:.2}")));
        print_table_row(&cells, &WIDTHS);
        least_gain = least_gain.min(ns[1].min(ns[2]) / ns[0]);
    }

    print_table_header(
        "Figure 12(b): unpacking cost for 3 attributes (ns per matching tuple)",
        &[
            "selectivity",
            "Data Blocks",
            "bit-packed (pos)",
            "bit-packed (all)",
        ],
        &WIDTHS,
    );
    let mut unpack_wins = 0;
    for sel in [1u64, 10, 25, 50, 75, 100] {
        let matches = scan_collect(&block, &restriction(sel).1, options);
        let count = matches.len().max(1);

        // Data Blocks: positional unpack of the three columns
        let (_, dur_db) = time_median(5, || {
            let mut out: [Column; 3] = std::array::from_fn(|_| Column::new(DataType::Int));
            datablocks::unpack::unpack_columns(&block, &[0, 1, 2], &matches, &mut out);
            out[0].len()
        });
        // bit-packed positional access
        let (_, dur_pos) = time_median(5, || {
            let mut o = Vec::new();
            pa.unpack_positions(&matches, &mut o);
            pb.unpack_positions(&matches, &mut o);
            pc.unpack_positions(&matches, &mut o);
            o.len()
        });
        // bit-packed unpack-all-and-filter
        let (_, dur_all) = time_median(5, || {
            let mut all = Vec::new();
            let mut filtered = 0usize;
            for packed in [&pa, &pb, &pc] {
                packed.unpack_all(&mut all);
                for &m in &matches {
                    filtered += all[m as usize] as usize & 1;
                }
            }
            filtered
        });
        let ns = [dur_db, dur_pos, dur_all].map(|d| d.as_secs_f64() * 1e9 / count as f64);
        let mut cells = vec![format!("{sel}%")];
        cells.extend(ns.map(|ns| format!("{ns:.1}")));
        print_table_row(&cells, &WIDTHS);
        unpack_wins += usize::from(ns[0] < ns[1].min(ns[2]));
    }

    vec![
        Paper("Data Blocks evaluate predicates faster than bit-packing at every selectivity (~1.8x)")
            .ours(format!("at least {least_gain:.2}x"), least_gain > 1.0),
        Paper("Data Blocks unpack matches faster than bit-packing almost always (≥ 5 of 6 selectivities)")
            .ours(format!("{unpack_wins} of 6"), unpack_wins >= 5),
    ]
}
