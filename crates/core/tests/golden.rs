//! Golden snapshot tests, in two kinds.
//!
//! *Projections* of three small programs (the paper's motivating and
//! pattern examples): points-to sets, reachable methods and call edges.
//! The differential and property harnesses catch *divergence* between
//! engines, but a determinism regression that shifts both engines at once
//! (e.g. an iteration-order change leaking into projections) would slip
//! through them and only surface as an unreadable proptest failure
//! downstream. These snapshots pin the exact projected output, so such a
//! regression fails with a line-level diff instead.
//!
//! *Suite counters* (`golden/suite_counters.txt`): one line per
//! (program, analysis) cell of the paper's Tables 1–2, for all ten suite
//! programs under every analysis the CLI accepts, with the solve's
//! propagation count and points-to bytes and the four precision metrics.
//! The solver is sequential, so all six are exact; a change that moves
//! any of them (an extra propagation the differential harness cannot see,
//! a lost precision pattern) fails here. The full 80-row matrix is
//! `#[ignore]`d for release mode; a fast leg checks the two smallest
//! programs' rows against the same file in every test run. Time is not
//! pinned: `table_main` prints it as a reproduction, and
//! `benchmark/run.py` measures it.
//!
//! *Cut-Shortcut counters* (`golden/csc_stats.txt`): one line per suite
//! program under each Cut-Shortcut analysis (`csc`, `csc-doop`,
//! `csc-hybrid`) with every `CscStats` counter: cut sites, the five
//! shortcut-edge kinds, temp stores and loads, and involved methods. They
//! read the plugin's static tables directly, so a table change that keeps
//! the solver's counters but shifts a pattern classification fails here.
//! Like the suite counters, the full 30-row matrix is `#[ignore]`d and a
//! fast leg checks hsqldb's and findbugs's rows in every test run.
//!
//! Bless new snapshots with `CSC_UPDATE_GOLDEN=1 cargo test --release -p
//! csc-core --test golden -- --include-ignored` after verifying a change
//! is intentional. Only the full suite legs write `suite_counters.txt` and
//! `csc_stats.txt`.

use std::fmt::Write as _;
use std::path::PathBuf;

use csc_core::{
    run_analysis, run_analysis_opts, Analysis, AnalysisOutcome, Budget, PrecisionMetrics,
    PtaResult, SolverOptions,
};
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

fn read_golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()))
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
    let want = read_golden(name);
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

/// Solves each named suite program under each named analysis with an
/// unlimited budget and renders one line per row: the program, the
/// analysis's CLI name, then `counters` of the outcome.
fn render_rows(
    programs: &[&str],
    analyses: &[&str],
    counters: impl Fn(&AnalysisOutcome<'_>) -> String,
) -> String {
    let mut out = String::new();
    for name in programs {
        let program = csc_workloads::by_name(name)
            .expect("suite program")
            .compile();
        for analysis in analyses {
            let outcome = run_analysis(
                &program,
                Analysis::from_name(analysis).expect("listed name parses"),
                Budget::unlimited(),
            );
            assert!(outcome.completed(), "{name}/{analysis} did not complete");
            let _ = writeln!(out, "{name:<9} {analysis:<10} {}", counters(&outcome));
        }
    }
    out
}

/// Every CLI analysis ([`Analysis::names`]) with the six exact counters.
fn suite_rows(programs: &[&str]) -> String {
    let analyses: Vec<&str> = Analysis::names().collect();
    render_rows(programs, &analyses, |outcome| {
        let stats = &outcome.result.state.stats;
        let m = PrecisionMetrics::compute(&outcome.result);
        format!(
            "propagations={} pts_bytes={} fail_casts={} reach_methods={} poly_calls={} \
             call_edges={}",
            stats.propagations,
            stats.pts_bytes,
            m.fail_casts,
            m.reach_methods,
            m.poly_calls,
            m.call_edges
        )
    })
}

/// The exact gate over the whole evaluation matrix: 10 programs x 8
/// analyses, about a minute in release.
#[test]
#[ignore = "solves 80 suite rows; run in release"]
fn suite_counters_are_exact() {
    let programs: Vec<&str> = csc_workloads::suite().iter().map(|b| b.name).collect();
    check_golden("suite_counters", &suite_rows(&programs));
}

/// The fast leg of [`suite_counters_are_exact`]: hsqldb's and findbugs's
/// 16 rows, each checked against its line of the committed file.
#[test]
fn suite_counters_fast_leg() {
    check_rows("suite_counters", &suite_rows(&["hsqldb", "findbugs"]));
}

/// Every Cut-Shortcut analysis with every `CscStats` counter.
fn csc_stats_rows(programs: &[&str]) -> String {
    render_rows(programs, &["csc", "csc-doop", "csc-hybrid"], |outcome| {
        let s = outcome.csc.as_ref().expect("a Cut-Shortcut outcome");
        format!(
            "cut_store_sites={} cut_return_methods={} shortcut_store_edges={} \
             shortcut_load_edges={} relay_edges={} container_edges={} local_flow_edges={} \
             temp_stores={} temp_loads={} involved_methods={}",
            s.cut_store_sites,
            s.cut_return_methods,
            s.shortcut_store_edges,
            s.shortcut_load_edges,
            s.relay_edges,
            s.container_edges,
            s.local_flow_edges,
            s.temp_stores,
            s.temp_loads,
            s.involved_methods.len()
        )
    })
}

/// The exact gate over the plugin's counters: 10 programs x the three
/// Cut-Shortcut analyses.
#[test]
#[ignore = "solves 30 suite rows; run in release"]
fn csc_stats_are_exact() {
    let programs: Vec<&str> = csc_workloads::suite().iter().map(|b| b.name).collect();
    check_golden("csc_stats", &csc_stats_rows(&programs));
}

/// The fast leg of [`csc_stats_are_exact`]: hsqldb's and findbugs's six
/// rows, each checked against its line of the committed file.
#[test]
fn csc_stats_fast_leg() {
    check_rows("csc_stats", &csc_stats_rows(&["hsqldb", "findbugs"]));
}

/// Checks each rendered row against the line of golden file `name` with
/// the same program and analysis. It never writes the file (a partial
/// render would truncate it), so under `CSC_UPDATE_GOLDEN` it leaves
/// re-blessing to the full leg.
fn check_rows(name: &str, rows: &str) {
    if std::env::var("CSC_UPDATE_GOLDEN").is_ok() {
        return;
    }
    let want = read_golden(name);
    fn key(line: &str) -> Vec<&str> {
        line.split_whitespace().take(2).collect()
    }
    let mut diff = String::new();
    for got in rows.lines() {
        match want.lines().find(|w| key(w) == key(got)) {
            Some(w) if w == got => {}
            Some(w) => {
                let _ = writeln!(diff, "    golden: {w}\n    got:    {got}");
            }
            None => {
                let _ = writeln!(diff, "    missing: {got}");
            }
        }
    }
    assert!(
        diff.is_empty(),
        "{name} drifted (re-bless with CSC_UPDATE_GOLDEN=1 and \
         --include-ignored in release if intentional):\n{diff}"
    );
}
