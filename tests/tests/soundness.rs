//! Cross-crate soundness suite: for every benchmark and every analysis,
//! (1) the dynamic trace is fully recalled, and (2) Cut-Shortcut's results
//! are a subset of context-insensitivity's (CSC only ever *removes*
//! spurious facts).

use csc_core::{run_analysis, Analysis, Budget, CscConfig};
use csc_interp::{check_recall, execute, InterpConfig};
use csc_workloads::Benchmark;

/// The small benchmarks, cheap enough to run every analysis to completion
/// in tests.
fn small_suite() -> Vec<Benchmark> {
    ["hsqldb", "findbugs", "jython"]
        .iter()
        .map(|n| csc_workloads::by_name(n).unwrap())
        .collect()
}

#[test]
fn recall_is_total_for_all_analyses() {
    for bench in small_suite() {
        let program = bench.compile();
        let trace = execute(&program, InterpConfig::default()).expect("bounded execution");
        for analysis in [
            Analysis::Ci,
            Analysis::CutShortcut,
            Analysis::CutShortcutWith(CscConfig::doop()),
            Analysis::KObj(2),
            Analysis::KType(2),
            Analysis::KCallSite(2),
            Analysis::ZipperE,
        ] {
            let label = analysis.label().to_owned();
            let out = run_analysis(&program, analysis, Budget::unlimited());
            assert!(out.completed());
            let report = check_recall(
                &trace,
                &out.result.state.reachable_methods_projected(),
                &out.result.state.call_edges_projected(),
            );
            assert!(
                report.full_recall(),
                "{label} on {}: missed {} methods, {} edges",
                bench.name,
                report.missed_methods.len(),
                report.missed_edges.len()
            );
        }
    }
}

#[test]
fn csc_results_subset_of_ci() {
    for bench in small_suite() {
        let program = bench.compile();
        let ci = run_analysis(&program, Analysis::Ci, Budget::unlimited());
        let csc = run_analysis(&program, Analysis::CutShortcut, Budget::unlimited());
        // Reachability and call graph shrink (or stay equal).
        let ci_methods = ci.result.state.reachable_methods_projected();
        let csc_methods = csc.result.state.reachable_methods_projected();
        assert!(
            csc_methods.is_subset(&ci_methods),
            "{}: CSC reached methods not in CI",
            bench.name
        );
        let ci_edges = ci.result.state.call_edges_projected();
        let csc_edges = csc.result.state.call_edges_projected();
        assert!(
            csc_edges.is_subset(&ci_edges),
            "{}: spurious CSC call edges",
            bench.name
        );
        // Per-variable points-to sets shrink.
        let all = vec![true; program.vars().len()];
        let ci_pts = ci.result.state.pt_vars_projected(&all);
        let csc_pts = csc.result.state.pt_vars_projected(&all);
        for m in 0..program.methods().len() {
            let m = csc_ir::MethodId::from_usize(m);
            for &v in program.method(m).vars() {
                let (ci_pt, csc_pt) = (&ci_pts[v.index()], &csc_pts[v.index()]);
                // Both projections are sorted vectors.
                assert!(
                    csc_pt.iter().all(|o| ci_pt.binary_search(o).is_ok()),
                    "{}: pt({}) grew under CSC: {:?} vs {:?}",
                    bench.name,
                    program.var_name(v),
                    csc_pt,
                    ci_pt
                );
            }
        }
    }
}

#[test]
fn each_pattern_alone_is_sound_and_no_worse_than_ci() {
    let bench = csc_workloads::by_name("hsqldb").unwrap();
    let program = bench.compile();
    let trace = execute(&program, InterpConfig::default()).expect("bounded execution");
    let ci = run_analysis(&program, Analysis::Ci, Budget::unlimited());
    let ci_metrics = csc_core::PrecisionMetrics::compute(&ci.result);
    for (name, cfg) in [
        ("field", CscConfig::only_field()),
        ("container", CscConfig::only_container()),
        ("local-flow", CscConfig::only_local_flow()),
        ("doop", CscConfig::doop()),
        ("all", CscConfig::all()),
    ] {
        let out = run_analysis(
            &program,
            Analysis::CutShortcutWith(cfg),
            Budget::unlimited(),
        );
        let report = check_recall(
            &trace,
            &out.result.state.reachable_methods_projected(),
            &out.result.state.call_edges_projected(),
        );
        assert!(report.full_recall(), "pattern `{name}` is unsound");
        let m = csc_core::PrecisionMetrics::compute(&out.result);
        assert!(
            m.fail_casts <= ci_metrics.fail_casts,
            "pattern `{name}` worse than CI"
        );
        assert!(m.poly_calls <= ci_metrics.poly_calls);
        assert!(m.call_edges <= ci_metrics.call_edges);
        assert!(m.reach_methods <= ci_metrics.reach_methods);
    }
}

#[test]
fn analysis_precision_ordering_on_suite() {
    // 2obj refines CI; CSC refines CI; everything stays sound (checked
    // above). The paper's headline: CSC precision is between CI and 2obj,
    // close to 2obj.
    let bench = csc_workloads::by_name("findbugs").unwrap();
    let program = bench.compile();
    let ci = csc_core::PrecisionMetrics::compute(
        &run_analysis(&program, Analysis::Ci, Budget::unlimited()).result,
    );
    let csc = csc_core::PrecisionMetrics::compute(
        &run_analysis(&program, Analysis::CutShortcut, Budget::unlimited()).result,
    );
    let obj2 = csc_core::PrecisionMetrics::compute(
        &run_analysis(&program, Analysis::KObj(2), Budget::unlimited()).result,
    );
    assert!(csc.fail_casts < ci.fail_casts, "CSC improves over CI");
    assert!(obj2.fail_casts < ci.fail_casts);
    assert!(csc.call_edges < ci.call_edges);
    // CSC must recover a large share of 2obj's improvement.
    let ci_to_obj2 = ci.fail_casts - obj2.fail_casts.min(ci.fail_casts);
    let ci_to_csc = ci.fail_casts - csc.fail_casts.min(ci.fail_casts);
    assert!(
        ci_to_csc * 2 >= ci_to_obj2,
        "CSC recovers at least half of 2obj's fail-cast improvement \
         (CI={}, CSC={}, 2obj={})",
        ci.fail_casts,
        csc.fail_casts,
        obj2.fail_casts
    );
}
