//! Differential harness for SCC-collapsed and sharded parallel propagation.
//!
//! Both engine variants must be *precision-neutral*: for every program and
//! every analysis configuration, the solver with cycle collapsing enabled
//! must produce bit-identical projected results to the uncollapsed
//! reference engine, and the sharded parallel engine (threads ≥ 2) must
//! produce bit-identical projected results to the sequential engine for
//! every thread count. This harness runs every suite program under the
//! four configurations of the paper's pipeline — `ci`, `csc`, `zipper`,
//! `csc-hybrid` — across those engine variants and compares:
//!
//! * the projected points-to set of **every** variable of the program,
//! * the projected reachable-method set,
//! * the projected call-graph edge set,
//! * the four precision metrics.
//!
//! The fast tests additionally force a tiny condensation epoch
//! (`SolverOptions::with_epoch`) so merge/catch-up paths run even on small
//! programs — for the parallel tests that also forces condensation epochs
//! to interleave with parallel rounds; the full-suite tests use the
//! production (adaptive) epoch. Programs come from the process-wide
//! compiled-IR cache (`csc_workloads::compiled`), so each benchmark is
//! lowered once per test process, not once per configuration.

use std::collections::BTreeSet;

use csc_core::{
    run_analysis_opts, Analysis, Budget, Engine, PrecisionMetrics, PtaResult, SolverOptions,
};
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

/// Runs one (program, analysis) pair on the sequential engine and on
/// *both* multi-threaded engines at each requested thread count,
/// asserting bit-identical projections throughout:
///
/// * `CSC_ENGINE=bsp` — the bulk-synchronous engine, under both commit
///   modes: the sharded commit plane (worker-owned edge growth + stride
///   interning) and the coordinator-replay fallback (the
///   `CSC_PAR_COMMIT=0` path);
/// * `CSC_ENGINE=async` — the work-stealing engine, whose determinism
///   contract is results-only (schedule-free): projections and metrics
///   must still match the sequential engine exactly, which is precisely
///   what this harness checks. The commit switch is irrelevant there
///   (async phases always commit fan-out at the pause point), so it runs
///   once per thread count.
///
/// Engine and commit mode are pinned through [`SolverOptions`] rather
/// than the env vars so the matrix is race-free under parallel test
/// execution. `base_opts` carries the epoch configuration so
/// collapse-during-parallel paths get stressed too.
fn differential_threads(
    program: &Program,
    analysis: Analysis,
    base_opts: SolverOptions,
    threads: &[usize],
    what: &str,
) {
    let seq = run_analysis_opts(
        program,
        analysis.clone(),
        Budget::unlimited(),
        base_opts.with_threads(1),
    );
    assert!(seq.completed(), "{what}: sequential run hit budget");
    let p_seq = Projections::capture(program, &seq.result);
    for &t in threads {
        for engine in [Engine::Bsp, Engine::Async] {
            let commits: &[bool] = match engine {
                Engine::Bsp => &[true, false],
                Engine::Async => &[true],
            };
            for &commit in commits {
                let par = run_analysis_opts(
                    program,
                    analysis.clone(),
                    Budget::unlimited(),
                    base_opts
                        .with_threads(t)
                        .with_par_commit(commit)
                        .with_engine(engine),
                );
                assert!(
                    par.completed(),
                    "{what}: {t}-thread ({engine:?}, commit={commit}) run hit budget"
                );
                let p_par = Projections::capture(program, &par.result);
                p_par.assert_identical(
                    &p_seq,
                    program,
                    &format!("{what} [threads={t}, engine={engine:?}, commit={commit} vs 1]"),
                );
            }
        }
    }
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

/// The sharded parallel engine against the sequential engine: small
/// programs × the four pipeline configurations × {2, 4, 8} threads, with
/// the aggressive epoch so condensation interleaves with parallel rounds.
/// 8 threads oversubscribes small programs on purpose — shards with empty
/// batches and sparse outboxes are where routing bugs hide.
#[test]
fn differential_parallel_small_suite() {
    for name in ["hsqldb", "findbugs", "jython"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, analysis) in configurations() {
            let what = format!("{name}/{label} (parallel, epoch=32)");
            differential_threads(
                program,
                analysis,
                SolverOptions::with_epoch(32),
                &[2, 4, 8],
                &what,
            );
        }
    }
}

/// Topology-aware shard routing (`CSC_SHARD_ROUTE=balanced`) re-homes
/// slots at condensation epochs; the differential contract is unchanged —
/// routing is a physical-placement lever, so projections must stay
/// bit-identical to the sequential engine under both commit modes. The
/// mode is pinned through [`SolverOptions`] (race-free, like the commit
/// switch); the aggressive epoch forces many rebalance passes, so rows
/// migrate while strides, outboxes, and edge commits are in flight
/// between epochs.
#[test]
fn differential_parallel_balanced_route() {
    for name in ["hsqldb", "findbugs"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, analysis) in configurations() {
            differential_threads(
                program,
                analysis,
                SolverOptions::with_epoch(32).with_balanced_route(true),
                &[2, 4],
                &format!("{name}/{label} (parallel, balanced route, epoch=32)"),
            );
        }
    }
}

/// BSP round fusion (`SolverOptions::with_round_fusion`) adaptively
/// raises the inline-round threshold, so consecutive small rounds run on
/// the coordinator instead of being dispatched — a pure scheduling
/// lever, so projections must stay bit-identical to the sequential
/// engine. Pinned through options (race-free under parallel test
/// execution); the async engine ignores the knob, so the crossing inside
/// [`differential_threads`] doubles as a no-interference check.
#[test]
fn differential_parallel_round_fusion() {
    for name in ["hsqldb", "jython"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, analysis) in configurations() {
            differential_threads(
                program,
                analysis,
                SolverOptions::with_epoch(32).with_round_fusion(true),
                &[2, 4],
                &format!("{name}/{label} (parallel, round fusion, epoch=32)"),
            );
        }
    }
}

/// The parallel engine must also commute with the context-sensitive
/// baselines (context-qualified pointers shard like any other slot) and
/// with collapsing disabled entirely.
#[test]
fn differential_parallel_context_sensitive() {
    let program = csc_workloads::compiled("findbugs").unwrap();
    for (label, analysis) in [
        ("2obj", Analysis::KObj(2)),
        ("2type", Analysis::KType(2)),
        ("1cs", Analysis::KCallSite(1)),
    ] {
        differential_threads(
            program,
            analysis.clone(),
            SolverOptions::with_epoch(8),
            &[2, 4, 8],
            &format!("findbugs/{label} (parallel, epoch=8)"),
        );
        differential_threads(
            program,
            analysis,
            SolverOptions::no_collapse(),
            &[2, 4, 8],
            &format!("findbugs/{label} (parallel, no-collapse)"),
        );
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
#[ignore = "full suite x 4 configs x 2 engines; run in release mode (see doc comment)"]
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

/// The full ten-program suite × four configurations on the parallel engine
/// at 2, 4 and 8 threads, against the sequential engine, under the
/// production (adaptive) epoch. Ignored for the same reason as
/// [`differential_full_suite`]; CI runs it in release mode.
#[test]
#[ignore = "full suite x 4 configs x 4 thread counts; run in release mode (see doc comment)"]
fn differential_parallel_full_suite() {
    for bench in csc_workloads::suite() {
        let program = csc_workloads::compiled(bench.name).unwrap();
        for (label, analysis) in configurations() {
            let what = format!("{}/{label} (parallel)", bench.name);
            differential_threads(
                program,
                analysis,
                SolverOptions::default(),
                &[2, 4, 8],
                &what,
            );
        }
    }
}

/// Runs one (program, analysis) pair under both points-to
/// representations (the chunked hybrid vs the legacy whole-range
/// bitmap) across engines and thread counts, asserting bit-identical
/// projections against a sequential chunked reference. The
/// representation is a pure data-plane swap — same elements, different
/// layout — so *every* projection must survive the flip exactly. The
/// mode is pinned through [`SolverOptions::with_pts_repr`], race-free
/// under parallel test execution up to the process-global promotion
/// knob (which any concurrent solve re-pins at its own start; a
/// mid-solve flip only changes which layout new sets promote into,
/// never their contents — that is what this leg proves).
fn differential_repr(
    program: &Program,
    analysis: Analysis,
    base_opts: SolverOptions,
    threads: &[usize],
    what: &str,
) {
    use csc_core::PtsRepr;
    let reference = run_analysis_opts(
        program,
        analysis.clone(),
        Budget::unlimited(),
        base_opts.with_threads(1).with_pts_repr(PtsRepr::Chunked),
    );
    assert!(
        reference.completed(),
        "{what}: chunked reference hit budget"
    );
    let p_ref = Projections::capture(program, &reference.result);
    for repr in [PtsRepr::Legacy, PtsRepr::Chunked] {
        for &t in threads {
            let engines: &[Engine] = if t <= 1 {
                &[Engine::Bsp] // below two threads both engines are the sequential path
            } else {
                &[Engine::Bsp, Engine::Async]
            };
            for &engine in engines {
                if repr == PtsRepr::Chunked && t <= 1 {
                    continue; // that run *is* the reference
                }
                let run = run_analysis_opts(
                    program,
                    analysis.clone(),
                    Budget::unlimited(),
                    base_opts
                        .with_threads(t)
                        .with_engine(engine)
                        .with_pts_repr(repr),
                );
                assert!(
                    run.completed(),
                    "{what}: {repr:?} ({t} threads, {engine:?}) run hit budget"
                );
                let p = Projections::capture(program, &run.result);
                p.assert_identical(
                    &p_ref,
                    program,
                    &format!("{what} [{repr:?}, threads={t}, engine={engine:?} vs chunked seq]"),
                );
            }
        }
    }
}

/// The chunked points-to representation against the legacy bitmap on the
/// small suite: repr × four configurations × {1, 4} threads × both
/// parallel engines, with the aggressive epoch so CoW-shared chunks live
/// through SCC merges and row migrations.
#[test]
fn differential_pts_repr() {
    for name in ["hsqldb", "findbugs", "jython"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, analysis) in configurations() {
            differential_repr(
                program,
                analysis,
                SolverOptions::with_epoch(32),
                &[1, 4],
                &format!("{name}/{label} (pts-repr, epoch=32)"),
            );
        }
    }
}

/// The full ten-program suite × four configurations across both
/// representations under the production epoch. Ignored for the same
/// reason as [`differential_full_suite`]; CI runs it in release mode.
#[test]
#[ignore = "full suite x 4 configs x 2 reprs; run in release mode (see doc comment)"]
fn differential_pts_repr_full_suite() {
    for bench in csc_workloads::suite() {
        let program = csc_workloads::compiled(bench.name).unwrap();
        for (label, analysis) in configurations() {
            differential_repr(
                program,
                analysis,
                SolverOptions::default(),
                &[1, 4],
                &format!("{}/{label} (pts-repr)", bench.name),
            );
        }
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
