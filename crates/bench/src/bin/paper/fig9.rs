//! Figure 9: cost of applying an additional restriction (reduce-matches) as a
//! function of the selectivity of the first predicate, scalar x86 vs AVX2, for
//! 8/16/32/64-bit data. The second predicate always selects 40% of its input.

use db_bench::{print_table_header, print_table_row, time_median, xorshift};
use dbsimd::{find_matches, reduce_matches, IsaLevel, RangePredicate, ScanWord};

use crate::{Claim, Ctx, Paper};

/// Values per width.
const ROWS: usize = 2_000_000;

const WIDTHS: [usize; 4] = [8, 10, 12, 12];

/// Print one width's rows; returns the log of each row's AVX2 speedup over scalar
/// code (`None` where the host lacks AVX2).
fn run_width<T: ScanWord + TryFrom<u64>>(label: &str, data: &[T], domain: u64) -> Vec<Option<f64>> {
    let to_t = |v: u64| T::try_from(v.min(domain - 1)).unwrap_or(T::MAX_VALUE);
    let mut log_speedups = Vec::new();
    for first_sel in [1u64, 10, 25, 50, 75, 100] {
        // first predicate keeps `first_sel`% of the domain
        let first = RangePredicate::between(to_t(0), to_t(domain * first_sel / 100));
        let mut initial = Vec::new();
        find_matches(IsaLevel::Scalar, data, &first, 0, &mut initial);
        // second predicate keeps 40% of the domain
        let second = RangePredicate::between(to_t(domain * 30 / 100), to_t(domain * 70 / 100));
        let ns = [IsaLevel::Scalar, IsaLevel::Avx2].map(|isa| {
            IsaLevel::available().contains(&isa).then(|| {
                let mut work = Vec::new();
                let (_, elapsed) = time_median(5, || {
                    work.clone_from(&initial);
                    reduce_matches(isa, data, &second, 0, &mut work)
                });
                elapsed.as_secs_f64() * 1e9 / initial.len().max(1) as f64
            })
        });
        let mut cells = vec![label.to_string(), format!("{first_sel}%")];
        cells.extend(ns.map(|ns| ns.map_or("n/a".to_string(), |ns| format!("{ns:.2}"))));
        print_table_row(&cells, &WIDTHS);
        log_speedups.push(ns[0].zip(ns[1]).map(|(scalar, avx2)| (scalar / avx2).ln()));
    }
    log_speedups
}

/// The geometric mean of the speedups whose logs are `logs`; `None` if one is
/// missing.
fn gmean(logs: &[Option<f64>]) -> Option<f64> {
    let sum: Option<f64> = logs.iter().copied().sum();
    sum.map(|sum| (sum / logs.len() as f64).exp())
}

pub fn run(_: &Ctx) -> Vec<Claim> {
    print_table_header(
        "Figure 9: reduce-matches cost vs selectivity of the first predicate (ns/element)",
        &["width", "1st sel", "x86", "AVX2"],
        &WIDTHS,
    );
    let mut x = 0x9E37_79B9u64;
    let mut next = |modulus: u64| xorshift(&mut x) % modulus;
    let d8: Vec<u8> = (0..ROWS).map(|_| next(256) as u8).collect();
    let d16: Vec<u16> = (0..ROWS).map(|_| next(65_536) as u16).collect();
    let d32: Vec<u32> = (0..ROWS).map(|_| next(1 << 20) as u32).collect();
    let d64: Vec<u64> = (0..ROWS).map(|_| next(1 << 40)).collect();
    let mut narrow = run_width("8-bit", &d8, 256);
    narrow.extend(run_width("16-bit", &d16, 65_536));
    narrow.extend(run_width("32-bit", &d32, 1 << 20));
    let (narrow, wide) = (gmean(&narrow), gmean(&run_width("64-bit", &d64, 1 << 40)));
    let fmt = |g: Option<f64>| g.map_or("n/a".into(), |g| format!("{g:.2}x (geometric mean)"));
    vec![
        Paper("AVX2 reduce-matches beats scalar for up to 32-bit values (1.0–1.25x)")
            .ours(fmt(narrow), narrow.is_some_and(|g| g > 1.0)),
        Paper("AVX2 reduce-matches gains nothing on 64-bit values")
            .ours(fmt(wide), wide.is_some_and(|g| g <= 1.0)),
    ]
}
