//! CI perf-regression gate: diffs a fresh `BENCH_main.json` against the
//! committed baseline snapshot and fails (exit code 1) when any
//! (program, analysis) row regressed by more than the tolerance in
//! wall-clock time or propagation count.
//!
//! ```text
//! bench_diff <baseline.json> <fresh.json> [--time-tol PCT] [--prop-tol PCT] [--mem-tol PCT]
//! ```
//!
//! Defaults: 10% for all three, per the roadmap's CI perf-tracking item. The
//! tolerances can also be set via `CSC_DIFF_TIME_TOL` / `CSC_DIFF_PROP_TOL`
//! (flags win). Propagation counts are deterministic, so their check is
//! exact modulo the tolerance; wall-clock is machine-dependent, so the
//! time tolerance is only meaningful against a baseline recorded on
//! comparable hardware (CI compares runner against runner via the cached
//! snapshot, and regenerates the baseline when the cache rotates).
//!
//! Rows that timed out (`completed: false`) are compared on completion
//! status only: a row that completed in the baseline but times out fresh
//! is always a failure; a row that was already timed out is skipped.
//!
//! Rows are keyed by `(program, analysis)`. Snapshots recorded while the
//! solver still had parallel engines also carry rows with a `threads`
//! field above 1; those rows are skipped, so such a snapshot compares by
//! its sequential rows.
//!
//! Wall-clock drift is a *warning*, never a failure, when the two
//! snapshots carry different hardware fingerprints (`cpu`/`cores`
//! fields): cross-machine timings are not comparable, while propagation
//! counts still are.
//!
//! The incremental-resolve counters (`incr_fallbacks`, `resolve_secs`)
//! are likewise informational: from-scratch table rows record 0 for
//! both, and rows produced by incremental harnesses surface how often
//! the localized path bailed. Old snapshots predate the fields and
//! print `-`.
//!
//! The memory columns (`peak_rss_kb`, `pts_bytes`, `edge_bytes`,
//! `shared_chunks`) gate with `--mem-tol` / `CSC_DIFF_MEM_TOL`:
//! `peak_rss_kb` growth beyond the tolerance fails the run when the
//! hardware fingerprints match (downgraded to a warning otherwise, like
//! wall-clock — RSS depends on the allocator and page behaviour), and
//! `pts_bytes` growth always fails. `peak_rss_kb` is the row's own peak:
//! `table_main` resets the high-water mark before each row. `edge_bytes`
//! and `shared_chunks` are informational. Rows where either snapshot
//! predates a memory field print `-` for it and never gate.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed snapshot row.
#[derive(Clone, Debug)]
struct Row {
    time_secs: f64,
    completed: bool,
    propagations: u64,
    /// Incremental re-solves that fell back to a full solve (absent on
    /// snapshots predating the incremental resolver; 0 on table rows,
    /// which always solve from scratch).
    incr_fallbacks: Option<u64>,
    /// Seconds of the most recent incremental re-solve (absent on old
    /// snapshots).
    resolve_secs: Option<f64>,
    /// Peak RSS (kB) while the row ran (absent on snapshots predating the
    /// memory plane, and on non-Linux recorders).
    peak_rss_kb: Option<u64>,
    /// Exact heap bytes of every live points-to set (absent on old
    /// snapshots).
    pts_bytes: Option<u64>,
    /// Exact heap bytes of the PFG edge structures (absent on old
    /// snapshots).
    edge_bytes: Option<u64>,
    /// Dense chunk blocks reached through more than one set (absent on
    /// old snapshots).
    shared_chunks: Option<u64>,
}

/// Extracts `"key": <value>` from a single JSON row line. The snapshot is
/// machine-written with one row per line (see `table_main`), so a scanning
/// parser is enough — no external JSON dependency in the container.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Row key: `(program, analysis)`.
type Key = (String, String);

/// One parsed snapshot: its rows plus the hardware fingerprint recorded
/// in them (absent on snapshots predating the `cpu`/`cores` fields).
struct Snapshot {
    rows: BTreeMap<Key, Row>,
    fingerprint: Option<(String, u64)>,
}

fn parse(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {path}: {e}"));
    let mut rows = BTreeMap::new();
    let mut fingerprint = None;
    for line in text.lines() {
        if !line.trim_start().starts_with("{\"program\"") {
            continue;
        }
        if field(line, "threads").is_some_and(|t| t != "1") {
            continue;
        }
        let program = field(line, "program").expect("program field").to_owned();
        let analysis = field(line, "analysis").expect("analysis field").to_owned();
        if fingerprint.is_none() {
            if let (Some(cpu), Some(cores)) = (
                field(line, "cpu"),
                field(line, "cores").and_then(|v| v.parse::<u64>().ok()),
            ) {
                fingerprint = Some((cpu.to_owned(), cores));
            }
        }
        let row = Row {
            time_secs: field(line, "time_secs")
                .and_then(|v| v.parse().ok())
                .expect("time_secs field"),
            completed: field(line, "completed") == Some("true"),
            propagations: field(line, "propagations")
                .and_then(|v| v.parse().ok())
                .expect("propagations field"),
            incr_fallbacks: field(line, "incr_fallbacks").and_then(|v| v.parse().ok()),
            resolve_secs: field(line, "resolve_secs").and_then(|v| v.parse().ok()),
            peak_rss_kb: field(line, "peak_rss_kb").and_then(|v| v.parse().ok()),
            pts_bytes: field(line, "pts_bytes").and_then(|v| v.parse().ok()),
            edge_bytes: field(line, "edge_bytes").and_then(|v| v.parse().ok()),
            shared_chunks: field(line, "shared_chunks").and_then(|v| v.parse().ok()),
        };
        rows.insert((program, analysis), row);
    }
    assert!(!rows.is_empty(), "no rows parsed from {path}");
    Snapshot { rows, fingerprint }
}

fn tol(flag_val: Option<f64>, env: &str, default: f64) -> f64 {
    flag_val
        .or_else(|| std::env::var(env).ok().and_then(|s| s.parse().ok()))
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&String> = Vec::new();
    let (mut time_flag, mut prop_flag, mut mem_flag) = (None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // A present-but-unparsable tolerance must be a hard error: CI
            // relies on these flags to select which gate applies, and a
            // silent fallback to the default would gate wall-clock against
            // a snapshot from incomparable hardware.
            flag @ ("--time-tol" | "--prop-tol" | "--mem-tol") => {
                let Some(value) = it.next() else {
                    eprintln!("bench_diff: {flag} requires a percentage value");
                    return ExitCode::from(2);
                };
                let Ok(pct) = value.parse::<f64>() else {
                    eprintln!("bench_diff: cannot parse {flag} value {value:?} as a percentage");
                    return ExitCode::from(2);
                };
                match flag {
                    "--time-tol" => time_flag = Some(pct),
                    "--prop-tol" => prop_flag = Some(pct),
                    _ => mem_flag = Some(pct),
                }
            }
            _ => paths.push(a),
        }
    }
    let [baseline_path, fresh_path] = paths[..] else {
        eprintln!(
            "usage: bench_diff <baseline.json> <fresh.json> \
             [--time-tol PCT] [--prop-tol PCT] [--mem-tol PCT]"
        );
        return ExitCode::from(2);
    };
    let time_tol = tol(time_flag, "CSC_DIFF_TIME_TOL", 10.0);
    let prop_tol = tol(prop_flag, "CSC_DIFF_PROP_TOL", 10.0);
    let mem_tol = tol(mem_flag, "CSC_DIFF_MEM_TOL", 10.0);

    let baseline = parse(baseline_path);
    let fresh = parse(fresh_path);
    // Wall-clock is only gated when both snapshots come from the same
    // hardware; otherwise (or when either predates the fingerprint
    // fields) time regressions print as warnings and never fail the run.
    let same_hardware = match (&baseline.fingerprint, &fresh.fingerprint) {
        (Some(b), Some(f)) => b == f,
        _ => false,
    };
    if !same_hardware {
        eprintln!(
            "bench_diff: hardware fingerprints differ or are missing \
             (baseline {:?}, fresh {:?}); wall-clock drift downgraded to warnings",
            baseline.fingerprint, fresh.fingerprint
        );
    }
    let mut failures = 0usize;
    let mut warnings = 0usize;
    println!(
        "{:<11} {:<9} {:>12} {:>12} {:>9} {:>14} {:>14} {:>9} {:>7} {:>8} \
         {:>10} {:>7} {:>9} {:>7} {:>8} {:>7}",
        "Program",
        "Analysis",
        "base-time",
        "fresh-time",
        "Δtime%",
        "base-props",
        "fresh-props",
        "Δprops%",
        "fallbk",
        "resolve",
        "rss-kb",
        "Δrss%",
        "pts-MB",
        "Δpts%",
        "edge-MB",
        "shared"
    );
    for ((program, analysis), base) in &baseline.rows {
        let Some(new) = fresh.rows.get(&(program.clone(), analysis.clone())) else {
            println!("{program:<11} {analysis:<9} MISSING from fresh snapshot");
            failures += 1;
            continue;
        };
        if !base.completed {
            println!("{program:<11} {analysis:<9} skipped (baseline timed out)");
            continue;
        }
        if !new.completed {
            println!("{program:<11} {analysis:<9} REGRESSION: now times out");
            failures += 1;
            continue;
        }
        let dt = (new.time_secs - base.time_secs) / base.time_secs.max(1e-9) * 100.0;
        let dp = (new.propagations as f64 - base.propagations as f64)
            / (base.propagations as f64).max(1.0)
            * 100.0;
        let (mut time_bad, prop_bad) = (dt > time_tol, dp > prop_tol);
        let mut time_warn = false;
        if time_bad && !same_hardware {
            time_bad = false;
            time_warn = true;
        }
        // Informational incremental-resolve counters (never gated).
        let fallbk = new
            .incr_fallbacks
            .map(|n| format!("{n:>7}"))
            .unwrap_or_else(|| format!("{:>7}", "-"));
        let resolve = new
            .resolve_secs
            .map(|s| format!("{s:>7.3}s"))
            .unwrap_or_else(|| format!("{:>8}", "-"));
        // Memory gate: a delta only exists when *both* snapshots carry the
        // field — a row from an old snapshot prints `-` and never gates.
        let pct = |b: u64, f: u64| (f as f64 - b as f64) / (b as f64).max(1.0) * 100.0;
        let drss = base
            .peak_rss_kb
            .zip(new.peak_rss_kb)
            .map(|(b, f)| pct(b, f));
        let dpts = base.pts_bytes.zip(new.pts_bytes).map(|(b, f)| pct(b, f));
        let (mut rss_bad, pts_bad) = (
            drss.is_some_and(|d| d > mem_tol),
            dpts.is_some_and(|d| d > mem_tol),
        );
        let mut rss_warn = false;
        // RSS depends on the allocator and page behaviour — only gate it
        // runner-against-runner, like wall-clock.
        if rss_bad && !same_hardware {
            rss_bad = false;
            rss_warn = true;
        }
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        let rss = new
            .peak_rss_kb
            .map(|kb| format!("{kb:>10}"))
            .unwrap_or_else(|| format!("{:>10}", "-"));
        let rss_d = drss
            .map(|d| format!("{d:>6.1}%"))
            .unwrap_or_else(|| format!("{:>7}", "-"));
        let pts = new
            .pts_bytes
            .map(|b| format!("{:>9.2}", mb(b)))
            .unwrap_or_else(|| format!("{:>9}", "-"));
        let pts_d = dpts
            .map(|d| format!("{d:>6.1}%"))
            .unwrap_or_else(|| format!("{:>7}", "-"));
        let edge = new
            .edge_bytes
            .map(|b| format!("{:>8.2}", mb(b)))
            .unwrap_or_else(|| format!("{:>8}", "-"));
        let shared = new
            .shared_chunks
            .map(|n| format!("{n:>7}"))
            .unwrap_or_else(|| format!("{:>7}", "-"));
        let mut note = String::new();
        if time_bad || prop_bad {
            note.push_str(match (time_bad, prop_bad) {
                (true, true) => "  <- TIME+PROP REGRESSION",
                (true, false) => "  <- TIME REGRESSION",
                _ => "  <- PROP REGRESSION",
            });
        }
        if rss_bad || pts_bad {
            note.push_str(match (rss_bad, pts_bad) {
                (true, true) => "  <- RSS+PTS MEMORY REGRESSION",
                (true, false) => "  <- RSS MEMORY REGRESSION",
                _ => "  <- PTS MEMORY REGRESSION",
            });
        }
        if time_warn {
            note.push_str("  (time drift: WARNING, hardware differs)");
        }
        if rss_warn {
            note.push_str("  (rss drift: WARNING, hardware differs)");
        }
        println!(
            "{program:<11} {analysis:<9} {:>11.3}s {:>11.3}s {:>8.1}% \
             {:>14} {:>14} {:>8.1}% {fallbk} {resolve} \
             {rss} {rss_d} {pts} {pts_d} {edge} {shared}{note}",
            base.time_secs, new.time_secs, dt, base.propagations, new.propagations, dp,
        );
        failures += usize::from(time_bad)
            + usize::from(prop_bad)
            + usize::from(rss_bad)
            + usize::from(pts_bad);
        warnings += usize::from(time_warn) + usize::from(rss_warn);
    }
    for (program, analysis) in fresh.rows.keys() {
        if !baseline
            .rows
            .contains_key(&(program.clone(), analysis.clone()))
        {
            println!("{program:<11} {analysis:<9} new row (no baseline)");
        }
    }
    if warnings > 0 {
        eprintln!("bench_diff: {warnings} warning(s) (not gated)");
    }
    if failures > 0 {
        eprintln!(
            "bench_diff: {failures} regression(s) beyond tolerance \
             (time {time_tol}%, propagations {prop_tol}%, memory {mem_tol}%)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench_diff: no regressions beyond tolerance \
         (time {time_tol}%, propagations {prop_tol}%, memory {mem_tol}%)"
    );
    ExitCode::SUCCESS
}
