//! Tables 1 & 2: efficiency and the four precision metrics for every
//! program × {CI, 2obj, 2type, Zipper-e, CSC}. For all numbers, smaller is
//! better; timed-out analyses print `>Ns` like the paper's `>2h`.
//!
//! Besides the human-readable table, the run writes a machine-readable
//! perf snapshot to `BENCH_main.json` (path overridable via
//! `CSC_BENCH_JSON`) so CI can track wall-clock and precision drift.
//! Each row's `peak_rss_kb` is that row's own peak: the high-water mark
//! is reset before every row. `CSC_XL=1` appends the 10⁵+-statement `xl`
//! program.

use std::fmt::Write as _;

use csc_bench::{analyses, budget_label, fmt_time, run_row, Row};

fn json_row(out: &mut String, program: &str, row: &Row<'_>, cpu: &str, cores: u64) {
    let stats = &row.outcome.result.state.stats;
    let _ = write!(
        out,
        "    {{\"program\": \"{program}\", \"analysis\": \"{}\", \
         \"time_secs\": {:.6}, \"completed\": {}, \
         \"propagations\": {}, \"pfg_edges\": {}, \"pointers\": {}, \
         \"scc_runs\": {}, \"sccs_collapsed\": {}, \"ptrs_collapsed\": {}, \
         \"incr_fallbacks\": {}, \"resolve_secs\": {:.6}",
        row.label,
        row.outcome.total_time.as_secs_f64(),
        row.outcome.completed(),
        stats.propagations,
        stats.edges,
        stats.pointers,
        stats.scc_runs,
        stats.sccs_collapsed,
        stats.ptrs_collapsed,
        stats.incr_fallbacks,
        stats.resolve_secs,
    );
    // Memory-plane columns: exact per-structure byte accounting from the
    // solver, plus the peak RSS since the reset before this row.
    let _ = write!(
        out,
        ", \"pts_bytes\": {}, \"edge_bytes\": {}, \"shared_chunks\": {}",
        stats.pts_bytes, stats.edge_bytes, stats.shared_chunks
    );
    if let Some(kb) = csc_core::peak_rss_kb() {
        let _ = write!(out, ", \"peak_rss_kb\": {kb}");
    }
    if let Some(m) = &row.metrics {
        let _ = write!(
            out,
            ", \"fail_casts\": {}, \"reach_methods\": {}, \"poly_calls\": {}, \
             \"call_edges\": {}",
            m.fail_casts, m.reach_methods, m.poly_calls, m.call_edges
        );
    }
    let _ = write!(out, ", \"cpu\": \"{cpu}\", \"cores\": {cores}");
    out.push('}');
}

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
    let (cpu, cores) = csc_bench::hardware_fingerprint();
    let mut json_rows: Vec<String> = Vec::new();
    println!(
        "{:<11} {:<9} {:>8} {:>10} {:>11} {:>11} {:>11}",
        "Program", "Analysis", "Time", "#fail-cast", "#reach-mtd", "#poly-call", "#call-edge"
    );
    println!("{}", "-".repeat(78));
    for bench in csc_bench::bench_programs() {
        if let Some(only) = &only {
            if only != bench.name {
                continue;
            }
        }
        let program = csc_workloads::compiled(bench.name).expect("suite benchmark compiles");
        for analysis in analyses() {
            csc_core::reset_peak_rss();
            let row = run_row(program, analysis);
            print_row(bench.name, &row);
            let mut buf = String::new();
            json_row(&mut buf, bench.name, &row, &cpu, cores);
            json_rows.push(buf);
        }
        println!("{}", "-".repeat(78));
    }
    let path = std::env::var("CSC_BENCH_JSON").unwrap_or_else(|_| "BENCH_main.json".to_owned());
    let snapshot = format!(
        "{{\n  \"budget\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        budget_label(),
        json_rows.join(",\n")
    );
    match std::fs::write(&path, snapshot) {
        Ok(()) => eprintln!("perf snapshot written to {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
