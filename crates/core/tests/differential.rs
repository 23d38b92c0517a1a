//! Differential harness for SCC-collapsed propagation.
//!
//! Collapsing must be *precision-neutral*: for every program and every
//! analysis configuration, the solver with cycle collapsing enabled must
//! produce bit-identical projected results to the uncollapsed reference
//! engine. This harness runs every suite program under the four
//! configurations of the paper's pipeline — `ci`, `csc`, `zipper`,
//! `csc-hybrid` — with collapsing on and off and compares:
//!
//! * the projected points-to set of **every** variable of the program,
//! * the projected reachable-method set,
//! * the projected call-graph edge set,
//! * the four precision metrics.
//!
//! The fast tests additionally force a tiny condensation epoch
//! (`SolverOptions::with_epoch`) so merge/catch-up paths run even on small
//! programs; the full-suite test uses the production (adaptive) epoch.
//! Programs come from the process-wide compiled-IR map
//! (`csc_workloads::compiled`), so each benchmark is lowered once per test
//! process, not once per configuration.

use std::collections::BTreeSet;

use csc_core::{run_analysis_opts, Analysis, Budget, PrecisionMetrics, PtaResult, SolverOptions};
use csc_ir::{CallSiteId, MethodId, ObjId, Program, VarId};

/// The four configurations the acceptance criteria name.
fn configurations() -> Vec<(&'static str, Analysis)> {
    vec![
        ("ci", Analysis::Ci),
        ("csc", Analysis::CutShortcut),
        ("zipper", Analysis::ZipperE),
        ("csc-hybrid", Analysis::CscHybrid),
    ]
}

/// Everything we require to be bit-identical between the collapsed and
/// uncollapsed engines.
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

    /// Panics with a readable location on the first difference.
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
                    "{what}: pt({}.{}) differs\n  collapsed:   {a:?}\n  uncollapsed: {b:?}",
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

/// Runs one (program, analysis) pair under both engines and asserts
/// bit-identical projections. Returns the two propagation counts so
/// callers can assert the collapsed engine actually saved work.
fn differential(
    program: &Program,
    analysis: Analysis,
    collapsed_opts: SolverOptions,
    what: &str,
) -> (u64, u64) {
    let on = run_analysis_opts(
        program,
        analysis.clone(),
        Budget::unlimited(),
        collapsed_opts,
    );
    let off = run_analysis_opts(
        program,
        analysis,
        Budget::unlimited(),
        SolverOptions::no_collapse(),
    );
    assert!(on.completed(), "{what}: collapsed run hit budget");
    assert!(off.completed(), "{what}: uncollapsed run hit budget");
    let p_on = Projections::capture(program, &on.result);
    let p_off = Projections::capture(program, &off.result);
    p_on.assert_identical(&p_off, program, what);
    (
        on.result.state.stats.propagations,
        off.result.state.stats.propagations,
    )
}

/// Small programs under an aggressive epoch (condense after every 32 copy
/// edges) so the merge, catch-up, and requeue paths are exercised hard.
#[test]
fn differential_small_suite_aggressive_epochs() {
    for name in ["hsqldb", "findbugs", "jython"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, analysis) in configurations() {
            let what = format!("{name}/{label} (epoch=32)");
            differential(program, analysis, SolverOptions::with_epoch(32), &what);
        }
    }
}

/// The full ten-program suite × four configurations under the production
/// (adaptive) epoch. The heavy configs must also show the point of the
/// exercise: fewer propagations with collapsing on.
///
/// Ignored by default: the 80 solver runs take tens of minutes unoptimized.
/// CI runs it in release mode; locally use
/// `cargo test --release -p csc-core --test differential -- --ignored`.
#[test]
#[ignore = "full suite x 4 configs, collapsed and uncollapsed; run in release mode (see doc comment)"]
fn differential_full_suite() {
    let mut heavy_savings = Vec::new();
    for bench in csc_workloads::suite() {
        let program = csc_workloads::compiled(bench.name).unwrap();
        for (label, analysis) in configurations() {
            let what = format!("{}/{label}", bench.name);
            let (on, off) = differential(program, analysis, SolverOptions::default(), &what);
            if matches!(bench.name, "freecol" | "eclipse") {
                heavy_savings.push((what, on, off));
            }
        }
    }
    for (what, on, off) in heavy_savings {
        assert!(
            on <= off,
            "{what}: collapsed engine propagated more ({on} > {off})"
        );
    }
}

/// Collapsing must also commute with the per-pattern ablations (the Doop
/// configuration exercises the relay rule hardest).
#[test]
fn differential_ablations_on_hsqldb() {
    use csc_core::CscConfig;
    let program = csc_workloads::compiled("hsqldb").unwrap();
    for (label, cfg) in [
        ("doop", CscConfig::doop()),
        ("only-field", CscConfig::only_field()),
        ("only-container", CscConfig::only_container()),
        ("only-local-flow", CscConfig::only_local_flow()),
    ] {
        let what = format!("hsqldb/csc-{label} (epoch=32)");
        differential(
            program,
            Analysis::CutShortcutWith(cfg),
            SolverOptions::with_epoch(32),
            &what,
        );
    }
}

/// The object-sensitive baselines go through the same propagation engine;
/// keep them honest too (context-qualified nodes must collapse safely).
#[test]
fn differential_context_sensitive_baselines() {
    let program = csc_workloads::compiled("findbugs").unwrap();
    for (label, analysis) in [
        ("2obj", Analysis::KObj(2)),
        ("2type", Analysis::KType(2)),
        ("1cs", Analysis::KCallSite(1)),
    ] {
        let what = format!("findbugs/{label} (epoch=8)");
        differential(program, analysis, SolverOptions::with_epoch(8), &what);
    }
}
