//! End-to-end run of `csc resolve`: a seeded delta chain over a built-in
//! benchmark, solved and re-solved in a fresh process each time. Two
//! runs of the same command must print the same answer, and both must
//! actually propagate. The final line must count fallbacks apart from
//! incremental re-solves.

use std::process::Command;

const DELTAS: usize = 2;

/// Runs `csc resolve hsqldb --analysis ci --gen-deltas 2 --metrics` and
/// returns its stdout.
fn run() -> String {
    run_with(&["--analysis", "ci", "--metrics"])
}

/// Runs `csc resolve hsqldb --gen-deltas 2` with `args` and returns its
/// stdout.
fn run_with(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_csc"))
        .args(["resolve", "hsqldb"])
        .args(args)
        .args(["--gen-deltas", &DELTAS.to_string()])
        .env_remove("CSC_FAULT")
        .output()
        .expect("spawn csc resolve");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "csc resolve failed: {}\n{stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The one line of `stdout` containing `needle`.
fn line_with<'a>(stdout: &'a str, needle: &str) -> &'a str {
    let mut lines = stdout.lines().filter(|l| l.contains(needle));
    let line = lines
        .next()
        .unwrap_or_else(|| panic!("no `{needle}` line in:\n{stdout}"));
    assert!(
        lines.next().is_none(),
        "several `{needle}` lines in:\n{stdout}"
    );
    line
}

#[test]
fn resolve_solves_the_chain_on_every_run() {
    let runs = [run(), run()];
    for stdout in &runs {
        line_with(stdout, "base solve completed");
        for i in 0..DELTAS {
            line_with(stdout, &format!("delta {i}:"));
        }
        let final_line = line_with(stdout, ": final (");
        let propagations: u64 = final_line
            .split(" propagations")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no propagation count in: {final_line}"));
        assert!(propagations > 0, "nothing propagated: {final_line}");
    }
    for needle in [": final (", "#fail-cast="] {
        assert_eq!(
            line_with(&runs[0], needle),
            line_with(&runs[1], needle),
            "the two runs disagree"
        );
    }
}

/// The final line counts a fallback once, as a fallback: under `csc` both
/// generated deltas remove statements, which the Cut-Shortcut plugin
/// cannot rebase, so both steps are full solves.
#[test]
fn resolve_counts_fallbacks_apart_from_incremental_steps() {
    let stdout = run_with(&["--analysis", "csc"]);
    for i in 0..DELTAS {
        let line = line_with(&stdout, &format!("delta {i}:"));
        assert!(line.contains("fallback (csc-obligations)"), "{line}");
    }
    let final_line = line_with(&stdout, ": final (");
    assert!(
        final_line.ends_with("0 incremental re-solves, 2 fallbacks)"),
        "{final_line}"
    );
}
