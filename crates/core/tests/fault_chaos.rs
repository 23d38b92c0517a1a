//! Chaos matrix for the deterministic fault-injection layer.
//!
//! Every leg arms exactly one fault (`point`, `nth`, `mode`), runs a
//! solve (or the delta decoder the `delta-decode` point lives on), and
//! asserts the failure-plane contract:
//!
//! 1. the process survives — no injected fault escapes the typed plane;
//! 2. if the fault fired, the failure is *typed*: `err` mode surfaces as
//!    [`SolveError::Fault`] naming the point (or a string error from the
//!    delta decoder), `panic` mode as
//!    [`SolveError::Poisoned`] carrying the payload;
//! 3. a clean retry immediately afterwards completes and is
//!    bit-identical to an undisturbed baseline solve (full projected
//!    points-to sets, reachable set, and call graph).
//!
//! The fault registry is process-global, so each matrix lives in a
//! single `#[test]` body and the two bodies serialize on a shared lock
//! (`cargo test -- --include-ignored` would otherwise interleave them).
//!
//! `chaos_smoke` is tier-1; `chaos_matrix` (every point x mode, plus a
//! deeper strike) is `#[ignore]`d and run in release by the CI `chaos`
//! leg.

use std::sync::Mutex;

use csc_core::fault::{self, FaultMode, FaultPoint};
use csc_core::{
    decode_delta_guarded, run_analysis_guarded, Analysis, Budget, SolveError, SolvedSummary,
    SolverOptions,
};
use csc_ir::Program;

/// Serializes the two test bodies: the fault registry is process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Checks that a typed error matches the armed (point, mode).
fn check_typed(err: &SolveError, point: FaultPoint, mode: FaultMode) {
    match (mode, err) {
        (FaultMode::Err, SolveError::Fault { point: p }) => {
            assert_eq!(*p, point, "err-mode fault must name its point");
        }
        (FaultMode::Panic, SolveError::Poisoned { payload }) => {
            assert!(
                payload.contains("injected fault"),
                "panic-mode payload should carry the injected message, got: {payload}"
            );
        }
        (m, e) => panic!("fault {point:?} in mode {m:?} produced mismatched error {e}"),
    }
}

/// Runs one `worker-round` leg: arm, solve, classify, clean-retry,
/// compare. The fault unwinds out of the solve, so the guarded entry
/// point must return it as a typed error.
fn solve_leg(program: &Program, nth: u64, mode: FaultMode, baseline: &SolvedSummary) {
    let point = FaultPoint::WorkerRound;
    fault::clear_all();
    fault::arm(point, nth, mode);
    let res = run_analysis_guarded(
        program,
        Analysis::Ci,
        Budget::unlimited(),
        SolverOptions::default(),
    );
    let fired = fault::fired(point);
    fault::clear_all();
    let leg = format!("{point:?}/{mode:?}/nth={nth}");
    assert!(fired, "{leg}: the solve must reach the fault point");
    match res {
        Err(e) => check_typed(&e, point, mode),
        Ok(_) => panic!("{leg}: a fired fault must surface as a typed error"),
    }
    // Clean retry: same program, nothing armed. The solve must complete
    // and project bit-identically to the baseline — an unwound solve
    // leaks nothing into the next one.
    let retry = run_analysis_guarded(
        program,
        Analysis::Ci,
        Budget::unlimited(),
        SolverOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{leg}: clean retry errored: {e}"));
    assert!(retry.completed(), "{leg}: clean retry must complete");
    let sum = SolvedSummary::capture(program, &retry.result);
    assert_eq!(sum.pts, baseline.pts, "{leg}: retry points-to differs");
    assert_eq!(
        sum.reachable, baseline.reachable,
        "{leg}: retry reachable differs"
    );
    assert_eq!(
        sum.call_edges, baseline.call_edges,
        "{leg}: retry call graph differs"
    );
}

/// Delta-decode legs: `err` becomes a string error, `panic` stays a
/// panic (callers route it through a guard); both leave the decoder
/// usable afterwards.
fn delta_leg(delta_bytes: &[u8], mode: FaultMode) {
    fault::clear_all();
    fault::arm(FaultPoint::DeltaDecode, 1, mode);
    match mode {
        FaultMode::Err => {
            let res = decode_delta_guarded(delta_bytes);
            assert!(res.is_err(), "err-mode decode fault must surface as Err");
        }
        _ => {
            let res = std::panic::catch_unwind(|| decode_delta_guarded(delta_bytes));
            assert!(res.is_err(), "panic-mode decode fault must panic");
        }
    }
    assert!(fault::fired(FaultPoint::DeltaDecode));
    fault::clear_all();
    decode_delta_guarded(delta_bytes).expect("clean decode after chaos");
}

/// Installs a silent panic hook for the duration of the matrix (injected
/// panics would otherwise spray backtraces over the test output), and
/// restores the previous hook afterwards. If a leg assertion fails, the
/// drop runs while the thread is already panicking — the hook must be
/// left alone then (`take_hook` from a panicking thread is itself a
/// panic, and a panic inside a drop during unwinding aborts).
struct QuietPanics;

impl QuietPanics {
    fn install() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            // Injected panics are the expected noise of this matrix.
            let injected = msg.contains("injected fault")
                || payload.downcast_ref::<fault::InjectedFault>().is_some();
            if !injected {
                prev(info);
            }
        }));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::panic::take_hook();
        }
    }
}

fn fixture() -> (&'static Program, Vec<u8>) {
    let program = csc_workloads::compiled("hsqldb").expect("hsqldb compiles");
    let delta = csc_workloads::generate_delta(
        program,
        &csc_workloads::DeltaGenConfig {
            seed: 7,
            actions: 8,
            removals: true,
        },
    );
    (program, delta.to_bytes())
}

fn baseline(program: &Program) -> SolvedSummary {
    let out = run_analysis_guarded(
        program,
        Analysis::Ci,
        Budget::unlimited(),
        SolverOptions::default(),
    )
    .expect("baseline solve");
    assert!(out.completed(), "baseline must complete");
    SolvedSummary::capture(program, &out.result)
}

/// Tier-1 smoke: one leg per fault point, covering both modes on the
/// solve path. Fast enough for every `cargo test`.
#[test]
fn chaos_smoke() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let _quiet = QuietPanics::install();
    let (program, delta_bytes) = fixture();
    let base = baseline(program);
    solve_leg(program, 1, FaultMode::Panic, &base);
    solve_leg(program, 1, FaultMode::Err, &base);
    delta_leg(&delta_bytes, FaultMode::Err);
    fault::clear_all();
}

/// The full matrix: every fault point x {panic, err}, plus a deeper `nth`
/// for the hot worker-round point. Release-only via the CI `chaos` leg.
#[test]
#[ignore = "full chaos matrix is slow unoptimized; CI runs it in release"]
fn chaos_matrix() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let _quiet = QuietPanics::install();
    let (program, delta_bytes) = fixture();
    let base = baseline(program);
    for mode in [FaultMode::Panic, FaultMode::Err] {
        solve_leg(program, 1, mode, &base);
        // Deeper strike: let a few steps of work land first, so the
        // unwound state is non-trivial when the fault hits.
        solve_leg(program, 4, mode, &base);
        delta_leg(&delta_bytes, mode);
    }
    fault::clear_all();
}
