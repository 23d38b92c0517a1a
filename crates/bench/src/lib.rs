//! # csc-bench — harness regenerating every table and figure of the paper
//!
//! Binaries (run with `--release`):
//!
//! * `table_time`     — Figure 12 (analysis time per program per analysis)
//! * `table_main`     — Tables 1 & 2 (time + the four precision metrics)
//! * `table_overlap`  — Table 3 (Zipper-e selected vs CSC involved methods)
//! * `table_recall`   — §5.1 recall (soundness) experiment
//! * `table_ablation` — §5.1 per-pattern precision impact
//!
//! They print the paper's tables as a reproduction; none of them is a
//! gate. The exact counters behind Tables 1–2 are pinned by
//! `crates/core/tests/golden.rs`, and `benchmark/run.py` is what measures
//! time and memory.
//!
//! The analysis budget (the paper's "2h") defaults to 8 seconds per
//! analysis; override with `CSC_BUDGET_SECS`. Rows whose analysis exceeded
//! the budget print as `>Ns`, mirroring the paper's `>2h` entries.

use std::time::Duration;

use csc_core::{run_analysis, Analysis, AnalysisOutcome, Budget, PrecisionMetrics};
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
    let outcome = run_analysis(program, analysis, budget());
    let metrics = outcome
        .completed()
        .then(|| PrecisionMetrics::compute(&outcome.result));
    Row {
        label,
        outcome,
        metrics,
    }
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
