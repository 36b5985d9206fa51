//! Figure 5: compile time of a query plan with a scan of 8 attributes as the number
//! of storage layout combinations grows, for the tuple-at-a-time JIT scan vs the
//! pre-compiled interpreted vectorized scan.
//!
//! LLVM is not embedded; the JIT cost comes from the calibrated cost model plus the
//! measured cost of actually generating one specialised scan path per layout (see
//! `db_bench::jit` and DESIGN.md).

use db_bench::jit::{specialize_scan_paths, synthetic_layouts, JitCostModel, ScanCodegen};
use db_bench::{fmt_duration, print_table_header, print_table_row};

fn main() {
    let attrs = 8;
    let model = JitCostModel::default();
    let widths = [12usize, 16, 18, 20];
    print_table_header(
        "Figure 5: compile time vs storage layout combinations (8 attributes)",
        &[
            "layouts",
            "JIT (model)",
            "vectorized (model)",
            "path-gen (measured)",
        ],
        &widths,
    );
    for exp in 0..=12u32 {
        let layouts = 1usize << exp;
        let jit = model.compile_time(ScanCodegen::JitPerLayout, layouts, attrs);
        let vectorized = model.compile_time(ScanCodegen::VectorizedInterpreted, layouts, attrs);
        let generated = specialize_scan_paths(&synthetic_layouts(layouts, attrs));
        print_table_row(
            &[
                format!("{layouts}"),
                fmt_duration(jit),
                fmt_duration(vectorized),
                fmt_duration(generated.generation_time),
            ],
            &widths,
        );
    }
    println!("\nExpected shape (paper): JIT compile time grows linearly with the number of");
    println!("layout combinations (10ms -> ~10s at 4096), the vectorized scan stays flat.");
}
