//! Tables 1 & 2: efficiency and the four precision metrics for every
//! program × {CI, 2obj, 2type, Zipper-e, CSC}. For all numbers, smaller is
//! better; timed-out analyses print `>Ns` like the paper's `>2h`.
//!
//! The table is a reproduction, not a gate: the precision metrics (and
//! the propagation and points-to byte counts) of every row are pinned
//! exactly by `crates/core/tests/golden.rs`, and the time column is one
//! sample.

use csc_bench::{analyses, budget_label, fmt_time, run_row, Row};

fn print_row(program: &str, row: &Row<'_>) {
    match &row.metrics {
        Some(m) => println!(
            "{:<11} {:<9} {:>8} {:>10} {:>11} {:>11} {:>11}",
            program,
            row.label,
            fmt_time(row.outcome.total_time),
            m.fail_casts,
            m.reach_methods,
            m.poly_calls,
            m.call_edges
        ),
        None => println!(
            "{:<11} {:<9} {:>8} {:>10} {:>11} {:>11} {:>11}",
            program,
            row.label,
            budget_label(),
            "-",
            "-",
            "-",
            "-"
        ),
    }
}

fn main() {
    let only: Option<String> = std::env::args().nth(1);
    println!(
        "{:<11} {:<9} {:>8} {:>10} {:>11} {:>11} {:>11}",
        "Program", "Analysis", "Time", "#fail-cast", "#reach-mtd", "#poly-call", "#call-edge"
    );
    println!("{}", "-".repeat(78));
    for bench in csc_workloads::suite() {
        if let Some(only) = &only {
            if only != bench.name {
                continue;
            }
        }
        let program = csc_workloads::compiled(bench.name).expect("suite benchmark compiles");
        for analysis in analyses() {
            print_row(bench.name, &run_row(program, analysis));
        }
        println!("{}", "-".repeat(78));
    }
}
