//! Regression pin for budget-exhaustion semantics.
//!
//! A timed-out solve must look the same whichever engine variant
//! (collapsed or uncollapsed propagation) hit the budget: `status ==
//! Timeout`, not a completion — and a later incremental re-solve on top
//! of it must decline with [`FallbackReason::BaseIncomplete`] and
//! full-solve instead, because an interrupted fixpoint cannot be
//! extended.

use std::time::Duration;

use csc_core::{
    resolve_analysis_opts, run_analysis_opts, Analysis, Budget, FallbackReason, SolveStatus,
    SolverOptions,
};

/// Both engine variants report budget exhaustion as `Timeout`.
#[test]
fn timeout_outcome_is_engine_invariant() {
    let program = csc_workloads::compiled("hsqldb").expect("hsqldb compiles");
    let budget = || Budget::with_time(Duration::ZERO);
    for (leg, opts) in [
        ("collapsed", SolverOptions::default()),
        ("uncollapsed", SolverOptions::no_collapse()),
    ] {
        let out = run_analysis_opts(program, Analysis::Ci, budget(), opts);
        assert!(!out.completed(), "{leg}: zero budget cannot complete");
        assert_eq!(
            out.result.status,
            SolveStatus::Timeout,
            "{leg}: exhaustion must report Timeout"
        );
    }
}

/// Rebasing a delta onto a budget-aborted solve falls back to a full
/// solve with `BaseIncomplete` — and the full solve then completes.
#[test]
fn rebase_on_timed_out_base_falls_back() {
    let program = csc_workloads::compiled("hsqldb").expect("hsqldb compiles");
    let prev = run_analysis_opts(
        program,
        Analysis::Ci,
        Budget::with_time(Duration::ZERO),
        SolverOptions::default(),
    );
    assert!(!prev.completed());
    let delta = csc_workloads::generate_delta(
        program,
        &csc_workloads::DeltaGenConfig {
            seed: 11,
            actions: 6,
            removals: false,
        },
    );
    let (patched, fx) = delta.apply(program).expect("delta applies");
    let out = resolve_analysis_opts(
        prev,
        &patched,
        &fx,
        Analysis::Ci,
        Budget::unlimited(),
        SolverOptions::default(),
    );
    assert!(out.completed(), "fallback full solve must complete");
    assert_eq!(
        out.result.state.stats.incr_fallback_reason,
        Some(FallbackReason::BaseIncomplete),
        "an incomplete base must decline the incremental path"
    );
    assert_eq!(
        out.result.state.stats.incr_fallbacks, 1,
        "the declined attempt must be counted as a fallback"
    );
}
