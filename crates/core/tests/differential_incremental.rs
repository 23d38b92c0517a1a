//! Differential harness for the incremental re-solver.
//!
//! The incremental contract is absolute: for every base program, every
//! generated delta, and every analysis configuration,
//! [`csc_core::resolve_analysis_opts`] on the base outcome must produce
//! **bit-identical projections** to running the analysis on the patched
//! program from scratch — whether the resolve took the localized
//! re-propagation path or fell back to a full solve. This harness crosses
//! suite programs × the four pipeline configurations (`ci`, `csc`,
//! `zipper`, `csc-hybrid`) and compares:
//!
//! * the projected points-to set of **every** variable (base and
//!   delta-added),
//! * the projected reachable-method set,
//! * the projected call-graph edge set,
//! * the four precision metrics.
//!
//! Deltas come from the seeded generator (`csc_workloads::generate_delta`)
//! in both monotone (additions-only) and mixed (add/remove) modes, and
//! chain: each step resolves on top of the previous step's outcome, so
//! incremental state survives repeated rebasing.

use std::collections::BTreeSet;

use csc_core::{
    resolve_analysis_opts, run_analysis_opts, Analysis, AnalysisOutcome, Budget, PrecisionMetrics,
    PtaResult, SolverOptions,
};
use csc_ir::{CallSiteId, MethodId, ObjId, Program, VarId};
use csc_workloads::{generate_delta, DeltaGenConfig};

/// The four configurations the acceptance criteria name.
fn configurations() -> Vec<(&'static str, Analysis)> {
    vec![
        ("ci", Analysis::Ci),
        ("csc", Analysis::CutShortcut),
        ("zipper", Analysis::ZipperE),
        ("csc-hybrid", Analysis::CscHybrid),
    ]
}

/// Everything required to be bit-identical between the incremental and
/// from-scratch solves of the patched program.
#[derive(PartialEq, Eq)]
struct Projections {
    pts: Vec<(VarId, Vec<ObjId>)>,
    reachable: BTreeSet<MethodId>,
    call_edges: BTreeSet<(CallSiteId, MethodId)>,
    metrics: PrecisionMetrics,
}

impl Projections {
    fn capture(program: &Program, result: &PtaResult<'_>) -> Self {
        let pts = result
            .state
            .pt_vars_projected(&vec![true; program.vars().len()])
            .into_iter()
            .enumerate()
            .map(|(i, pt)| (VarId::from_usize(i), pt))
            .collect();
        Projections {
            pts,
            reachable: result.state.reachable_methods_projected(),
            call_edges: result.state.call_edges_projected(),
            metrics: PrecisionMetrics::compute(result),
        }
    }

    fn assert_identical(&self, other: &Projections, program: &Program, what: &str) {
        assert_eq!(
            self.reachable, other.reachable,
            "{what}: reachable-method sets differ"
        );
        assert_eq!(
            self.call_edges, other.call_edges,
            "{what}: call-graph edges differ"
        );
        for ((v, a), (_, b)) in self.pts.iter().zip(other.pts.iter()) {
            if a != b {
                let var = program.var(*v);
                panic!(
                    "{what}: pt({}.{}) differs\n  incremental:  {a:?}\n  from-scratch: {b:?}",
                    program.qualified_name(var.method()),
                    var.name(),
                );
            }
        }
        assert_eq!(
            self.metrics, other.metrics,
            "{what}: precision metrics differ"
        );
    }
}

/// Drives `steps` chained deltas over one (program, analysis, options)
/// cell: at each step the previous outcome is resolved incrementally
/// against the patched program and compared bit-for-bit to a from-scratch
/// solve. Returns how many steps took the incremental path (no fallback),
/// so callers can assert the machinery actually engages.
fn differential_chain(
    base: &Program,
    analysis: Analysis,
    opts: SolverOptions,
    seed: u64,
    steps: usize,
    removals: bool,
    what: &str,
) -> usize {
    // Each resolve borrows the patched program for the outcome's
    // lifetime; leaking the few chain steps keeps lifetimes trivial
    // (mirrors `csc_workloads::compiled`'s deliberate leak).
    let mut current: &'static Program = Box::leak(Box::new(base.clone()));
    let mut outcome = run_analysis_opts(current, analysis.clone(), Budget::unlimited(), opts);
    assert!(outcome.completed(), "{what}: base run hit budget");
    let mut incremental_steps = 0;
    for step in 0..steps {
        let cfg = DeltaGenConfig {
            seed: seed.wrapping_add(step as u64),
            actions: 6,
            removals,
        };
        let delta = generate_delta(current, &cfg);
        let (patched, fx) = delta
            .apply(current)
            .unwrap_or_else(|e| panic!("{what} step {step}: delta must apply: {e}"));
        let patched: &'static Program = Box::leak(Box::new(patched));
        let scratch = run_analysis_opts(patched, analysis.clone(), Budget::unlimited(), opts);
        assert!(
            scratch.completed(),
            "{what} step {step}: scratch run hit budget"
        );
        let next: AnalysisOutcome<'_> = resolve_analysis_opts(
            outcome,
            patched,
            &fx,
            analysis.clone(),
            Budget::unlimited(),
            opts,
        );
        assert!(next.completed(), "{what} step {step}: resolve hit budget");
        let stats = next.result.state.stats;
        assert!(
            stats.incr_resolves > 0,
            "{what} step {step}: resolve did not count itself"
        );
        if stats.incr_fallback_reason.is_none() {
            incremental_steps += 1;
        }
        let p_incr = Projections::capture(patched, &next.result);
        let p_scratch = Projections::capture(patched, &scratch.result);
        p_incr.assert_identical(
            &p_scratch,
            patched,
            &format!(
                "{what} step {step} (fallback={:?})",
                stats.incr_fallback_reason
            ),
        );
        outcome = next;
        current = patched;
    }
    incremental_steps
}

/// Monotone (additions-only) chains: the plain analyses must take the
/// incremental path on every step that doesn't grow the dispatch surface
/// — and in aggregate the fast matrix must exercise it.
#[test]
fn incremental_monotone_small_suite() {
    let mut incremental = 0;
    for name in ["hsqldb", "findbugs"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, analysis) in configurations() {
            let what = format!("{name}/{label} (monotone, epoch=32)");
            incremental += differential_chain(
                program,
                analysis,
                SolverOptions::with_epoch(32),
                0xadd0,
                3,
                false,
                &what,
            );
        }
    }
    assert!(
        incremental > 0,
        "no monotone step took the incremental path"
    );
}

/// Mixed add/remove chains: removal cones, fallback gates, and the
/// SCC-structure bail must all keep projections bit-identical.
#[test]
fn incremental_removals_small_suite() {
    for name in ["hsqldb", "findbugs"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, analysis) in configurations() {
            let what = format!("{name}/{label} (removals, epoch=32)");
            differential_chain(
                program,
                analysis,
                SolverOptions::with_epoch(32),
                0xde1e,
                3,
                true,
                &what,
            );
        }
    }
}

/// Context-sensitive baselines ride the same incremental machinery
/// (context-qualified cones).
#[test]
fn incremental_context_sensitive_baselines() {
    let program = csc_workloads::compiled("findbugs").unwrap();
    for (label, analysis) in [
        ("2obj", Analysis::KObj(2)),
        ("2type", Analysis::KType(2)),
        ("1cs", Analysis::KCallSite(1)),
    ] {
        let what = format!("findbugs/{label} (removals, epoch=8)");
        differential_chain(
            program,
            analysis,
            SolverOptions::with_epoch(8),
            0xc5,
            2,
            true,
            &what,
        );
    }
}

/// Collapsing disabled end-to-end: with no SCC members the taint closure
/// can never hit the SccStructure bail, so removals should still resolve
/// incrementally (for plain analyses) whenever dispatch is stable.
#[test]
fn incremental_no_collapse() {
    let program = csc_workloads::compiled("hsqldb").unwrap();
    for (label, analysis) in configurations() {
        let what = format!("hsqldb/{label} (removals, no-collapse)");
        differential_chain(
            program,
            analysis,
            SolverOptions::no_collapse(),
            0x70c0,
            3,
            true,
            &what,
        );
    }
}

/// The full-matrix leg: every suite program × four configurations,
/// chained monotone and mixed deltas. Ignored by default (run in release
/// mode; CI has a dedicated job).
#[test]
#[ignore = "full suite x 4 configs x monotone/mixed; run in release mode (see doc comment)"]
fn incremental_full_suite() {
    for bench in csc_workloads::suite() {
        let program = csc_workloads::compiled(bench.name).unwrap();
        for (label, analysis) in configurations() {
            for removals in [false, true] {
                let what = format!("{}/{label} (removals={removals})", bench.name);
                differential_chain(
                    program,
                    analysis.clone(),
                    SolverOptions::default(),
                    0xf511,
                    2,
                    removals,
                    &what,
                );
            }
        }
    }
}
