//! Deterministic fault injection for the solve lifecycle.
//!
//! The failure plane (guarded entry points, typed [`SolveError`]s,
//! serve-mode snapshots) is only trustworthy if every failure edge can be
//! exercised on demand, deterministically. This module provides
//! **named fault points** compiled into the hot paths but reduced to a single
//! relaxed atomic load when unarmed — effectively free.
//!
//! ## Arming
//!
//! Faults are armed from the environment (`CSC_FAULT`) or programmatically
//! ([`arm`] / [`arm_spec`]). The grammar is a comma-separated schedule:
//!
//! ```text
//! CSC_FAULT=point:nth[:panic|err|delay][,point:nth[:mode]...]
//! ```
//!
//! `point` is one of the [`FaultPoint`] names, `nth` is the 1-based hit count
//! at which the fault fires (each arm fires exactly once, then disarms —
//! retries after a fault observe a clean world), and `mode` defaults to
//! `panic`:
//!
//! * `panic` — panic with a human-readable payload; exercises the poisoned
//!   path (the guarded entry points).
//! * `err` — surface a typed error: `delta-decode` returns an `io::Error`,
//!   which [`decode_delta_guarded`] reports as a string error;
//!   `worker-round` unwinds with the [`InjectedFault`] marker, which the
//!   catch sites translate into [`SolveError::Fault`] instead of
//!   [`SolveError::Poisoned`].
//! * `delay` — sleep briefly at the fault point; exercises budget/timeout
//!   interleavings without killing anything.
//!
//! Hit counting is process-global, and the solver is sequential, so a
//! schedule fires at the same step of the same solve on every run.
//!
//! [`SolveError`]: crate::solver::SolveError
//! [`decode_delta_guarded`]: crate::decode_delta_guarded
//! [`SolveError::Fault`]: crate::solver::SolveError::Fault
//! [`SolveError::Poisoned`]: crate::solver::SolveError::Poisoned

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// A named fault point threaded through the solve lifecycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// The solver starting one worklist step.
    WorkerRound,
    /// Decoding a `ProgramDelta` byte stream (serve/resolve ingest).
    DeltaDecode,
}

/// All fault points, in schedule order (used by the chaos matrix).
pub const ALL_POINTS: [FaultPoint; 2] = [FaultPoint::WorkerRound, FaultPoint::DeltaDecode];

impl FaultPoint {
    /// The point's `CSC_FAULT` name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::WorkerRound => "worker-round",
            FaultPoint::DeltaDecode => "delta-decode",
        }
    }

    /// Parses a `CSC_FAULT` point name.
    pub fn parse(s: &str) -> Option<FaultPoint> {
        ALL_POINTS.iter().copied().find(|p| p.name() == s)
    }

    fn index(self) -> usize {
        ALL_POINTS.iter().position(|&p| p == self).unwrap()
    }
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How an armed fault fires.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic with a string payload (exercises the poisoned path).
    Panic,
    /// Typed error: `io::Error` at `delta-decode`, [`InjectedFault`]
    /// unwind at `worker-round`.
    Err,
    /// Sleep ~5ms at the fault point (exercises budget interleavings).
    Delay,
}

impl FaultMode {
    /// Parses a `CSC_FAULT` mode name.
    pub fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "panic" => Some(FaultMode::Panic),
            "err" => Some(FaultMode::Err),
            "delay" => Some(FaultMode::Delay),
            _ => None,
        }
    }
}

/// Panic payload marking an `err`-mode injection at a propagation fault
/// point (which has no `Result` channel to thread a typed error through).
/// Catch sites downcast to this to produce `SolveError::Fault` instead of
/// `SolveError::Poisoned`.
#[derive(Copy, Clone, Debug)]
pub struct InjectedFault(pub FaultPoint);

const MODE_PANIC: u8 = 0;
const MODE_ERR: u8 = 1;
const MODE_DELAY: u8 = 2;

/// One fault point's arm state. `nth == 0` means disarmed; a fired arm
/// records itself in `fired` and disarms.
struct Slot {
    nth: AtomicU64,
    hits: AtomicU64,
    mode: AtomicU8,
    fired: AtomicBool,
}

#[allow(clippy::declare_interior_mutable_const)]
const SLOT_INIT: Slot = Slot {
    nth: AtomicU64::new(0),
    hits: AtomicU64::new(0),
    mode: AtomicU8::new(MODE_PANIC),
    fired: AtomicBool::new(false),
};

static SLOTS: [Slot; ALL_POINTS.len()] = [SLOT_INIT; ALL_POINTS.len()];
/// Fast-path gate: false ⇒ every fault helper is a single relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("CSC_FAULT") {
            if !spec.is_empty() {
                // An unparseable env schedule is a hard error: a chaos run
                // silently testing nothing is worse than failing loudly.
                arm_spec(&spec).expect("invalid CSC_FAULT schedule");
            }
        }
    });
}

/// Arms one fault point to fire on its `nth` hit (1-based) with `mode`.
/// Replaces any existing arm for the point and resets its hit counter.
pub fn arm(point: FaultPoint, nth: u64, mode: FaultMode) {
    let slot = &SLOTS[point.index()];
    slot.hits.store(0, Ordering::SeqCst);
    slot.fired.store(false, Ordering::SeqCst);
    slot.mode.store(
        match mode {
            FaultMode::Panic => MODE_PANIC,
            FaultMode::Err => MODE_ERR,
            FaultMode::Delay => MODE_DELAY,
        },
        Ordering::SeqCst,
    );
    slot.nth.store(nth.max(1), Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Parses and arms a `point:nth[:mode]` comma-separated schedule. The
/// special spec `clear` disarms everything.
pub fn arm_spec(spec: &str) -> Result<(), String> {
    if spec.trim() == "clear" {
        clear_all();
        return Ok(());
    }
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let mut it = part.split(':');
        let point = it
            .next()
            .and_then(FaultPoint::parse)
            .ok_or_else(|| format!("unknown fault point in `{part}`"))?;
        let nth: u64 = it
            .next()
            .ok_or_else(|| format!("missing nth in `{part}`"))?
            .parse()
            .map_err(|_| format!("bad nth in `{part}`"))?;
        let mode = match it.next() {
            None => FaultMode::Panic,
            Some(m) => FaultMode::parse(m).ok_or_else(|| format!("bad mode in `{part}`"))?,
        };
        if it.next().is_some() {
            return Err(format!("trailing fields in `{part}`"));
        }
        arm(point, nth, mode);
    }
    Ok(())
}

/// Disarms every fault point and clears fired markers.
pub fn clear_all() {
    for slot in &SLOTS {
        slot.nth.store(0, Ordering::SeqCst);
        slot.hits.store(0, Ordering::SeqCst);
        slot.fired.store(false, Ordering::SeqCst);
    }
    ARMED.store(false, Ordering::SeqCst);
}

/// True if `point`'s arm has fired since it was last armed. Lets tests
/// distinguish "survived the fault" from "the fault never triggered".
pub fn fired(point: FaultPoint) -> bool {
    SLOTS[point.index()].fired.load(Ordering::SeqCst)
}

/// Counts a hit at `point`; returns the firing mode if this hit is the
/// armed `nth`. Consuming: the arm disarms once it fires. No-op (one
/// relaxed load) when nothing is armed.
pub fn fires(point: FaultPoint) -> Option<FaultMode> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let slot = &SLOTS[point.index()];
    let nth = slot.nth.load(Ordering::SeqCst);
    if nth == 0 {
        return None;
    }
    let hit = slot.hits.fetch_add(1, Ordering::SeqCst) + 1;
    if hit != nth {
        return None;
    }
    // Disarm before acting so a retry after catching observes a clean world.
    slot.nth.store(0, Ordering::SeqCst);
    slot.fired.store(true, Ordering::SeqCst);
    if !SLOTS.iter().any(|s| s.nth.load(Ordering::SeqCst) != 0) {
        ARMED.store(false, Ordering::SeqCst);
    }
    Some(match slot.mode.load(Ordering::SeqCst) {
        MODE_ERR => FaultMode::Err,
        MODE_DELAY => FaultMode::Delay,
        _ => FaultMode::Panic,
    })
}

/// Fault hook for propagation-side points: panics (`panic` mode), unwinds
/// with the [`InjectedFault`] marker (`err` mode), or sleeps (`delay`).
/// No-op when unarmed.
pub fn hit(point: FaultPoint) {
    match fires(point) {
        None => {}
        Some(FaultMode::Panic) => panic!("injected fault: {point}"),
        Some(FaultMode::Err) => std::panic::panic_any(InjectedFault(point)),
        Some(FaultMode::Delay) => std::thread::sleep(std::time::Duration::from_millis(5)),
    }
}

/// Fault hook for I/O-side points (`delta-decode`): `err` mode surfaces
/// as an `io::Error`, `panic` mode panics (the caller's guard catches
/// it), `delay` sleeps. No-op when unarmed.
pub fn hit_io(point: FaultPoint) -> std::io::Result<()> {
    match fires(point) {
        None => Ok(()),
        Some(FaultMode::Panic) => panic!("injected fault: {point}"),
        Some(FaultMode::Err) => Err(std::io::Error::other(format!("injected fault: {point}"))),
        Some(FaultMode::Delay) => {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok(())
        }
    }
}

/// Ensures the `CSC_FAULT` environment schedule (if any) is parsed and
/// armed. Called once at solve entry; cheap thereafter.
pub fn init() {
    init_from_env();
}

/// Classifies a caught panic payload into a typed [`SolveError`]: an
/// [`InjectedFault`] marker becomes [`SolveError::Fault`], anything else
/// [`SolveError::Poisoned`] with the stringified payload.
///
/// [`SolveError`]: crate::solver::SolveError
/// [`SolveError::Fault`]: crate::solver::SolveError::Fault
/// [`SolveError::Poisoned`]: crate::solver::SolveError::Poisoned
pub fn error_from_panic(payload: Box<dyn std::any::Any + Send>) -> crate::solver::SolveError {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        return crate::solver::SolveError::Fault { point: f.0 };
    }
    let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    };
    crate::solver::SolveError::Poisoned { payload: msg }
}
