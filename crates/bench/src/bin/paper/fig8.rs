//! Figure 8: speedup of SIMD predicate evaluation (l <= A <= r, 20% selectivity)
//! over scalar x86 code, by data-type width and ISA (SSE, AVX2).

use db_bench::{print_table_header, print_table_row, time_median, xorshift};
use dbsimd::{find_matches, IsaLevel, RangePredicate, ScanWord};

use crate::{Claim, Ctx, Paper};

/// Values per width.
const ROWS: usize = 4_000_000;

const WIDTHS: [usize; 4] = [8, 10, 10, 10];

/// Print one width's row; returns the speedup over scalar code of scalar, SSE
/// and AVX2 code (`None` where the host lacks the ISA).
fn print_speedups<T: ScanWord>(
    label: &str,
    data: &[T],
    pred: RangePredicate<T>,
) -> [Option<f64>; 3] {
    let available = IsaLevel::available();
    let seconds = [IsaLevel::Scalar, IsaLevel::Sse, IsaLevel::Avx2].map(|isa| {
        available.contains(&isa).then(|| {
            let mut matches = Vec::new();
            let (_, elapsed) = time_median(7, || {
                matches.clear();
                find_matches(isa, data, &pred, 0, &mut matches)
            });
            elapsed.as_secs_f64()
        })
    });
    let speedups = seconds.map(|t| t.map(|t| seconds[0].expect("scalar runs everywhere") / t));
    let mut cells = vec![label.to_string()];
    cells.extend(speedups.map(fmt_speedup));
    print_table_row(&cells, &WIDTHS);
    speedups
}

fn fmt_speedup(speedup: Option<f64>) -> String {
    speedup.map_or("n/a".to_string(), |s| format!("{s:.2}x"))
}

pub fn run(_: &Ctx) -> Vec<Claim> {
    print_table_header(
        "Figure 8: SIMD speedup of between-predicate evaluation (selectivity 20%)",
        &["width", "x86", "SSE", "AVX2"],
        &WIDTHS,
    );
    // values uniform in [0, 1000); predicate selects 20%
    let mut x = 0x2545_F491u64;
    let mut next = || xorshift(&mut x) % 1000;
    let d8: Vec<u8> = (0..ROWS).map(|_| (next() % 250) as u8).collect();
    let d16: Vec<u16> = (0..ROWS).map(|_| next() as u16).collect();
    let d32: Vec<u32> = (0..ROWS).map(|_| next() as u32).collect();
    let d64: Vec<u64> = (0..ROWS).map(|_| next()).collect();
    // the rows the claims below are about
    let narrow = [
        print_speedups("8-bit", &d8, RangePredicate::between(0u8, 49)),
        print_speedups("16-bit", &d16, RangePredicate::between(0u16, 199)),
        print_speedups("32-bit", &d32, RangePredicate::between(0u32, 199)),
    ];
    print_speedups("64-bit", &d64, RangePredicate::between(0u64, 199));

    let beats_scalar = |isa: usize| {
        let speedups = narrow.map(|row| row[isa]);
        let holds = speedups.iter().all(|s| s.is_some_and(|s| s > 1.0));
        (speedups.map(fmt_speedup).join(" / "), holds)
    };
    let [(sse, sse_holds), (avx2, avx2_holds)] = [1, 2].map(beats_scalar);
    vec![
        Paper("SSE beats scalar on 8/16/32-bit (~4x)").ours(sse, sse_holds),
        Paper("AVX2 beats scalar on 8/16/32-bit (>5x)").ours(avx2, avx2_holds),
    ]
}
