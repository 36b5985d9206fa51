//! Dump the physical plans of the checked-in TPC-H IR queries
//! (`crates/workloads/queries/*.json`) and check them against the golden files
//! in `crates/workloads/queries/plans/`.
//!
//! Each plan is rendered once, at the default `ScanConfig`: a plan's tree is a
//! function of its IR alone (the thread count is only the worker count in the
//! header line), so the goldens do not depend on the machine running the check.
//!
//! The SQL texts in `crates/workloads/queries/sql/*.sql` are pinned to the
//! same goldens: each must lower (via `query::parse_sql`) to exactly the
//! checked-in IR document, so SQL, JSON and physical plan stay one artifact.
//!
//! Usage:
//!   plan_dump            print every plan to stdout
//!   plan_dump --check    diff against the golden files, exit 1 on any mismatch
//!   plan_dump --update   rewrite the golden files (plans + IR JSON from SQL)

use std::path::PathBuf;
use std::process::ExitCode;

use query::Connect;
use workloads::tpch::{query_ir, query_sql, TpchDb};

const QUERIES: &[&str] = &["Q1", "Q6", "Q3", "Q12", "Q14"];

fn queries_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../workloads/queries")
}

fn golden_dir() -> PathBuf {
    queries_dir().join("plans")
}

/// The IR document the query's checked-in SQL lowers to, rendered canonically
/// (this is the byte content of `queries/<q>.json`).
fn lowered_ir(db: &TpchDb, name: &str) -> String {
    let ir = query::parse_sql(&db.db, query_sql(name))
        .unwrap_or_else(|err| panic!("lowering {name} SQL: {err}"));
    ir.to_pretty()
}

/// Render one query's plan. Only the relation schemas matter for planning, so
/// the database is generated at a tiny scale and never scanned.
fn render(db: &TpchDb, name: &str) -> String {
    let plan = db
        .db
        .connect()
        .compile_ir(query_ir(name))
        .unwrap_or_else(|err| panic!("planning {name}: {err}"));
    format!("-- {name}\n{plan}\n")
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let db = TpchDb::generate_with_chunk(0.001, 1_024);

    let mut failed = false;
    for &name in QUERIES {
        let ir_json = lowered_ir(&db, name);
        let ir_path = queries_dir().join(format!("{}.json", name.to_lowercase()));
        let rendered = render(&db, name);
        let path = golden_dir().join(format!("{}.plan", name.to_lowercase()));
        match mode.as_str() {
            "--update" => {
                std::fs::write(&ir_path, &ir_json).expect("write IR golden");
                std::fs::write(&path, &rendered).expect("write golden");
                println!("updated {} and {}", ir_path.display(), path.display());
            }
            "--check" => {
                if query_ir(name) != ir_json {
                    failed = true;
                    eprintln!(
                        "SQL/IR drift for {name}: {} does not match the lowered SQL\n--- checked in\n{}--- lowered from SQL\n{ir_json}",
                        ir_path.display(),
                        query_ir(name)
                    );
                }
                let golden = std::fs::read_to_string(&path)
                    .unwrap_or_else(|err| panic!("read golden {}: {err}", path.display()));
                if golden != rendered {
                    failed = true;
                    eprintln!(
                        "plan drift for {name} (golden {}):\n--- golden\n{golden}--- current\n{rendered}",
                        path.display()
                    );
                }
            }
            _ => print!("{rendered}"),
        }
    }

    if failed {
        eprintln!("plan goldens are stale: run `cargo run --bin plan_dump -- --update` and review the diff");
        ExitCode::FAILURE
    } else {
        if mode == "--check" {
            println!("plan goldens match ({} queries)", QUERIES.len());
        }
        ExitCode::SUCCESS
    }
}
