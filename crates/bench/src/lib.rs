//! # csc-bench — harness regenerating every table and figure of the paper
//!
//! Binaries (run with `--release`; see EXPERIMENTS.md for the mapping):
//!
//! * `table_time`     — Figure 12 (analysis time per program per analysis)
//! * `table_main`     — Tables 1 & 2 (time + the four precision metrics)
//! * `table_overlap`  — Table 3 (Zipper-e selected vs CSC involved methods)
//! * `table_recall`   — §5.1 recall (soundness) experiment
//! * `table_ablation` — §5.1 per-pattern precision impact
//!
//! The analysis budget (the paper's "2h") defaults to 8 seconds per
//! analysis; override with `CSC_BUDGET_SECS`. Rows whose analysis exceeded
//! the budget print as `>Ns`, mirroring the paper's `>2h` entries.

use std::time::Duration;

use csc_core::{
    run_analysis_opts, Analysis, AnalysisOutcome, Budget, PrecisionMetrics, SolverOptions,
};
use csc_ir::Program;

/// The analysis budget, from `CSC_BUDGET_SECS` (default 8s).
pub fn budget() -> Budget {
    let secs = std::env::var("CSC_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(8);
    Budget::with_time(Duration::from_secs(secs))
}

/// Human form of the configured budget, for `>Ns` cells.
pub fn budget_label() -> String {
    let secs = std::env::var("CSC_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(8);
    format!(">{secs}s")
}

/// Engine options for bench runs: SCC-collapsed propagation is on by
/// default; `CSC_SCC=0` (or `off`) selects the uncollapsed reference
/// engine for A/B comparisons.
pub fn solver_options() -> SolverOptions {
    match std::env::var("CSC_SCC").as_deref() {
        Ok("0") | Ok("off") => SolverOptions::no_collapse(),
        _ => SolverOptions::default(),
    }
}

/// The five analyses of the paper's comparison, in table order.
pub fn analyses() -> Vec<Analysis> {
    vec![
        Analysis::Ci,
        Analysis::KObj(2),
        Analysis::KType(2),
        Analysis::ZipperE,
        Analysis::CutShortcut,
    ]
}

/// One table row: an analysis outcome with its metrics (when completed).
pub struct Row<'p> {
    /// Short analysis label (`CI`, `2obj`, …).
    pub label: &'static str,
    /// The outcome (carries timing, status, CSC/Zipper extras).
    pub outcome: AnalysisOutcome<'p>,
    /// Metrics, absent on timeout.
    pub metrics: Option<PrecisionMetrics>,
}

/// Runs one analysis and computes metrics unless it timed out.
pub fn run_row(program: &Program, analysis: Analysis) -> Row<'_> {
    let label = analysis.label();
    let outcome = run_analysis_opts(program, analysis, budget(), solver_options());
    let metrics = outcome
        .completed()
        .then(|| PrecisionMetrics::compute(&outcome.result));
    Row {
        label,
        outcome,
        metrics,
    }
}

/// The bench programs for this run: the ten-program suite, plus the
/// 10⁵+-statement `xl` stress program when `CSC_XL=1` (opt-in — its 2obj
/// row blows any small budget by design).
pub fn bench_programs() -> Vec<csc_workloads::Benchmark> {
    let mut benches = csc_workloads::suite();
    if matches!(std::env::var("CSC_XL").as_deref(), Ok("1") | Ok("on")) {
        benches.push(csc_workloads::xl());
    }
    benches
}

/// A fingerprint of the machine the bench ran on: `(cpu model, core
/// count)`. The model string comes from `/proc/cpuinfo`'s first
/// `model name` line (the architecture name as a fallback off Linux),
/// sanitized so it can be embedded in the hand-rolled JSON rows; cores
/// are the available parallelism. `bench_diff` compares fingerprints
/// between snapshots and downgrades wall-clock regressions to warnings
/// when they differ — cross-machine timings are not comparable, while
/// propagation counts still are.
pub fn hardware_fingerprint() -> (String, u64) {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                let (key, val) = l.split_once(':')?;
                (key.trim() == "model name").then(|| val.trim().to_owned())
            })
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_owned());
    let model: String = model
        .chars()
        .filter(|c| !matches!(c, '"' | '\\' | ','))
        .collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    (model, cores)
}

/// Formats a duration the way the paper's tables do (seconds with one
/// decimal for >1s, milliseconds below).
pub fn fmt_time(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.1}s", d.as_secs_f64())
    } else {
        format!("{}ms", d.as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(Duration::from_millis(12)), "12ms");
        assert_eq!(fmt_time(Duration::from_millis(2500)), "2.5s");
    }

    #[test]
    fn analyses_cover_the_paper_matrix() {
        let labels: Vec<&str> = analyses().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["CI", "2obj", "2type", "Zipper-e", "CSC"]);
    }
}
