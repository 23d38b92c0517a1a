//! Golden snapshot tests for the projected analysis results on three
//! small programs (the paper's motivating and pattern examples).
//!
//! The differential and property harnesses catch *divergence* between
//! engines, but a determinism regression that shifts both engines at once
//! (e.g. an iteration-order change leaking into projections) would slip
//! through them and only surface as an unreadable proptest failure
//! downstream. These snapshots pin the exact projected output — points-to
//! sets, reachable methods, call edges — so such a regression fails with a
//! line-level diff instead.
//!
//! Bless new snapshots with `CSC_UPDATE_GOLDEN=1 cargo test -p csc-core
//! --test golden` after verifying a change is intentional.

use std::fmt::Write as _;
use std::path::PathBuf;

use csc_core::{run_analysis_opts, Analysis, Budget, PtaResult, SolverOptions};
use csc_ir::{Program, VarId};

/// Renders every projection of a result as a deterministic text snapshot.
fn render(program: &Program, result: &PtaResult<'_>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## points-to");
    let pts = result
        .state
        .pt_vars_projected(&vec![true; program.vars().len()]);
    for (i, pt) in pts.iter().enumerate() {
        if pt.is_empty() {
            continue;
        }
        let var = program.var(VarId::from_usize(i));
        let labels: Vec<&str> = pt.iter().map(|&o| program.obj(o).label()).collect();
        let _ = writeln!(
            out,
            "{}/{} -> [{}]",
            program.qualified_name(var.method()),
            var.name(),
            labels.join(", ")
        );
    }
    let _ = writeln!(out, "## reachable");
    for m in result.state.reachable_methods_projected() {
        let _ = writeln!(out, "{}", program.qualified_name(m));
    }
    let _ = writeln!(out, "## call-edges");
    for (site, callee) in result.state.call_edges_projected() {
        let cs = program.call_site(site);
        let _ = writeln!(
            out,
            "cs{}@{} -> {}",
            site.index(),
            program.qualified_name(cs.method()),
            program.qualified_name(callee)
        );
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares a rendered snapshot against the committed golden file, with a
/// readable first-difference report. `CSC_UPDATE_GOLDEN=1` re-blesses.
fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("CSC_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    if want == got {
        return;
    }
    let mut diff = String::new();
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            let _ = writeln!(diff, "  line {}:\n    golden: {w}\n    got:    {g}", i + 1);
        }
    }
    let (wn, gn) = (want.lines().count(), got.lines().count());
    if wn != gn {
        let _ = writeln!(diff, "  line counts differ: golden {wn}, got {gn}");
    }
    panic!(
        "golden snapshot {name} drifted (re-bless with CSC_UPDATE_GOLDEN=1 \
         if intentional):\n{diff}"
    );
}

/// The three snapshot subjects: the paper's motivating example (field
/// pattern), the container example, and the local-flow example.
fn subjects() -> Vec<(&'static str, String)> {
    vec![
        ("figure1", csc_workloads::examples::FIGURE1.to_owned()),
        ("figure4", csc_workloads::examples::figure4()),
        ("figure5", csc_workloads::examples::FIGURE5.to_owned()),
    ]
}

#[test]
fn golden_projections_are_stable() {
    for (name, src) in subjects() {
        let program = csc_frontend::compile(&src).expect("example compiles");
        for (label, analysis) in [
            ("ci", Analysis::Ci),
            ("csc", Analysis::CutShortcut),
            ("2obj", Analysis::KObj(2)),
        ] {
            let out = run_analysis_opts(
                &program,
                analysis,
                Budget::unlimited(),
                SolverOptions::default(),
            );
            assert!(out.completed());
            let got = render(&program, &out.result);
            check_golden(&format!("{name}_{label}"), &got);
        }
    }
}

/// The snapshot must not depend on the engine variant: uncollapsed and
/// aggressively-collapsed runs render byte-identical text.
#[test]
fn golden_projections_are_engine_invariant() {
    for (name, src) in subjects() {
        let program = csc_frontend::compile(&src).expect("example compiles");
        for (label, analysis) in [("ci", Analysis::Ci), ("csc", Analysis::CutShortcut)] {
            for opts in [SolverOptions::no_collapse(), SolverOptions::with_epoch(2)] {
                let out = run_analysis_opts(&program, analysis.clone(), Budget::unlimited(), opts);
                assert!(out.completed());
                let got = render(&program, &out.result);
                check_golden(&format!("{name}_{label}"), &got);
            }
        }
    }
}
