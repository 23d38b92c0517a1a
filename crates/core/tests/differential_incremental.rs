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
//! * the four precision metrics,
//! * the context-qualified counts: PFG edges (`stats.edges`), call-graph
//!   edges and reachable units — a replay that drops an edge without
//!   changing any projection still shows here.
//!
//! Each chain also carries a [`SolvedSummary`] captured at the base and
//! [`advance`](SolvedSummary::advance)d after every resolve, as `csc
//! serve` keeps its snapshot. At every step it must equal the summary
//! captured from the from-scratch solve, field by field; a fallback step
//! must re-project every variable, and an incremental step fewer.
//!
//! Deltas come from the seeded generator (`csc_workloads::generate_delta`)
//! in both monotone (additions-only) and mixed (add/remove) modes, and
//! chain: each step resolves on top of the previous step's outcome, so
//! incremental state survives repeated rebasing.

use std::collections::BTreeSet;

use csc_core::{
    resolve_analysis_opts, run_analysis_opts, Analysis, AnalysisOutcome, Budget, PrecisionMetrics,
    PtaResult, SolvedSummary, SolverOptions,
};
use csc_ir::{CallSiteId, DeltaOp, DeltaStmt, MethodId, ObjId, Program, ProgramDelta, Stmt, VarId};
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
    /// Context-qualified (PFG edges, call-graph edges, reachable units).
    counts: (u64, usize, usize),
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
            counts: (
                result.state.stats.edges,
                result.state.call_edges().len(),
                result.state.reachable().len(),
            ),
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
        assert_eq!(
            self.counts, other.counts,
            "{what}: (PFG edges, call edges, reachable units) differ"
        );
    }
}

/// Asserts that `advanced` equals `captured`, field by field.
fn assert_same_summary(advanced: &SolvedSummary, captured: &SolvedSummary, what: &str) {
    assert_eq!(
        advanced.pts.len(),
        captured.pts.len(),
        "{what}: summary var count"
    );
    for (v, (a, b)) in advanced.pts.iter().zip(&captured.pts).enumerate() {
        assert_eq!(a, b, "{what}: advanced summary pts[{v}] differs");
    }
    assert_eq!(
        advanced.reachable, captured.reachable,
        "{what}: advanced summary reachable differs"
    );
    assert_eq!(
        advanced.call_edges, captured.call_edges,
        "{what}: advanced summary call edges differ"
    );
    assert_eq!(
        advanced.metrics, captured.metrics,
        "{what}: advanced summary metrics differ"
    );
}

/// Drives `steps` chained deltas over one (program, analysis, options)
/// cell: at each step the previous outcome is resolved incrementally
/// against the patched program and compared bit-for-bit to a from-scratch
/// solve, and the chain's summary is advanced and compared to the
/// from-scratch solve's. Returns how many steps took the incremental path
/// (no fallback), so callers can assert the machinery actually engages.
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
    let mut summary = SolvedSummary::capture(current, &outcome.result);
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
        let step_what = format!(
            "{what} step {step} (fallback={:?})",
            stats.incr_fallback_reason
        );
        let p_incr = Projections::capture(patched, &next.result);
        let p_scratch = Projections::capture(patched, &scratch.result);
        p_incr.assert_identical(&p_scratch, patched, &step_what);
        let reprojected = summary.advance(patched, &next.result);
        assert_same_summary(
            &summary,
            &SolvedSummary::capture(patched, &scratch.result),
            &step_what,
        );
        if stats.incr_fallback_reason.is_some() {
            assert_eq!(
                reprojected,
                patched.vars().len(),
                "{step_what}: a fallback must re-project every variable"
            );
        } else {
            assert!(
                reprojected < patched.vars().len(),
                "{step_what}: an incremental step re-projected every variable"
            );
        }
        outcome = next;
        current = patched;
    }
    incremental_steps
}

/// A condensation epoch that merges a cycle before any member steps still
/// shows in the advanced summary: the delta closes a cycle between two
/// variables with different sets, and with an epoch of one edge the merge
/// hands both the union before the worklist reaches either, so only the
/// merge itself tells `advance` that their sets changed.
#[test]
fn advance_sees_a_cycle_merged_before_it_steps() {
    let base = csc_frontend::compile(
        r#"
        class A { }
        class B extends A { }
        class Main {
            static void main() {
                A x = new A();
                A y = new B();
            }
        }
        "#,
    )
    .expect("compiles");
    let main = base.entry();
    let var = |name: &str| {
        base.method(main)
            .vars()
            .iter()
            .copied()
            .find(|&v| base.var(v).name() == name)
            .expect("variable exists")
    };
    let (x, y) = (var("x"), var("y"));
    let assign = |lhs, rhs| DeltaOp::AddStmt {
        method: main,
        stmt: DeltaStmt::Assign { lhs, rhs },
    };
    let delta = ProgramDelta {
        ops: vec![assign(x, y), assign(y, x)],
    };
    let (patched, fx) = delta.apply(&base).expect("delta applies");
    let opts = SolverOptions::with_epoch(1);
    let outcome = run_analysis_opts(&base, Analysis::Ci, Budget::unlimited(), opts);
    let mut summary = SolvedSummary::capture(&base, &outcome.result);
    let next = resolve_analysis_opts(
        outcome,
        &patched,
        &fx,
        Analysis::Ci,
        Budget::unlimited(),
        opts,
    );
    assert_eq!(next.result.state.stats.incr_fallback_reason, None);
    assert!(next.result.state.stats.ptrs_collapsed > 0, "no merge");
    assert_eq!(summary.advance(&patched, &next.result), 2);
    let scratch = run_analysis_opts(&patched, Analysis::Ci, Budget::unlimited(), opts);
    assert_same_summary(
        &summary,
        &SolvedSummary::capture(&patched, &scratch.result),
        "added cycle",
    );
    assert_eq!(summary.pts[x.index()].len(), 2);
}

/// A removal that cuts a method off from the entry drops it, its call
/// edge and its variables' sets from the advanced summary, under a
/// context-insensitive and a context-sensitive analysis.
#[test]
fn advance_drops_a_method_cut_off_by_a_removal() {
    let base = csc_frontend::compile(
        r#"
        class A { }
        class Helper {
            A make() { A a = new A(); Object o = a; A c = (A) o; return c; }
        }
        class Main {
            static void main() {
                A keep = new A();
                Helper h = new Helper();
                A got = h.make();
            }
        }
        "#,
    )
    .expect("compiles");
    let main = base.entry();
    let call = base
        .method(main)
        .body()
        .iter()
        .position(|s| matches!(s, Stmt::Call(_)))
        .expect("main calls make");
    let delta = ProgramDelta {
        ops: vec![DeltaOp::RemoveStmt {
            method: main,
            index: call as u32,
        }],
    };
    let (patched, fx) = delta.apply(&base).expect("delta applies");
    for (label, analysis) in [("ci", Analysis::Ci), ("2obj", Analysis::KObj(2))] {
        let opts = SolverOptions::default();
        let outcome = run_analysis_opts(&base, analysis.clone(), Budget::unlimited(), opts);
        let mut summary = SolvedSummary::capture(&base, &outcome.result);
        let next = resolve_analysis_opts(
            outcome,
            &patched,
            &fx,
            analysis.clone(),
            Budget::unlimited(),
            opts,
        );
        assert_eq!(
            next.result.state.stats.incr_fallback_reason, None,
            "{label}"
        );
        let before = (summary.reachable.len(), summary.call_edges.len());
        summary.advance(&patched, &next.result);
        assert_eq!(
            (summary.reachable.len(), summary.call_edges.len()),
            (before.0 - 1, before.1 - 1),
            "{label}: make and its call edge must go"
        );
        let scratch = run_analysis_opts(&patched, analysis, Budget::unlimited(), opts);
        assert_same_summary(
            &summary,
            &SolvedSummary::capture(&patched, &scratch.result),
            label,
        );
    }
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

/// Mixed add/remove chains: removal cones (split SCCs included) and the
/// fallback gates must all keep projections bit-identical, and the plain
/// analysis must resolve removals in place.
#[test]
fn incremental_removals_small_suite() {
    let mut ci_incremental = 0;
    for name in ["hsqldb", "findbugs"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, analysis) in configurations() {
            let what = format!("{name}/{label} (removals, epoch=32)");
            let n = differential_chain(
                program,
                analysis,
                SolverOptions::with_epoch(32),
                0xde1e,
                3,
                true,
                &what,
            );
            if label == "ci" {
                ci_incremental += n;
            }
        }
    }
    assert!(
        ci_incremental > 0,
        "no ci removal step took the incremental path"
    );
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
        let incremental = differential_chain(
            program,
            analysis,
            SolverOptions::with_epoch(8),
            0xc5,
            2,
            true,
            &what,
        );
        assert!(incremental > 0, "{what}: no step took the incremental path");
    }
}

/// Collapsing disabled end-to-end: removal cones over a state with no SCC
/// members, the reference for the split path above.
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
