//! `csc serve` — the resident analysis daemon (the "daemon half" of
//! analysis-as-a-service).
//!
//! A long-lived loop over a line-delimited JSON protocol on stdin/stdout:
//! one request object per line in, one reply object per line out. The
//! daemon holds a solved session resident — the program, the full solver
//! outcome (for incremental re-solves), and a published [`SolvedSummary`]
//! snapshot (for queries) — and is built on the typed failure plane:
//!
//! * **Per-request budgets.** `load` and `resolve` accept `budget_ms`
//!   (or inherit the `--budget-ms` default), a non-negative integer; any
//!   other value is a `bad-request` and changes nothing. A `load`'s
//!   budget bounds its solve. A `resolve`'s covers the whole request
//!   from its arrival: reading, decoding or generating the delta and
//!   applying it count, and the re-solve gets what is left. A resolve
//!   whose budget runs out before the re-solve starts gets a `timeout`
//!   error and leaves the session as it was; one whose re-solve runs out
//!   gets a degraded reply (below). Either way the daemon serves on.
//! * **Graceful degradation.** `resolve` is transactional: a timed-out
//!   or panicked re-solve leaves the resident program and the
//!   last-good snapshot untouched, answers from that snapshot, and marks
//!   the session `degraded: true` until a later resolve succeeds. A
//!   panic while a completed re-solve's snapshot is advanced drops the
//!   snapshot instead of leaving it half-patched: queries then fail with
//!   `no-snapshot` until the next successful resolve captures it afresh.
//! * **Request-scoped panic isolation.** Every request runs behind a
//!   panic guard (the solve paths through `run_analysis_guarded` /
//!   `resolve_analysis_guarded`, the dispatch itself behind one more
//!   `catch_unwind`), so one bad request cannot take the daemon down.
//!   A stack overflow is an abort that no guard can catch, so the
//!   frontend bounds its own recursion: a `load` whose source nests
//!   deeper than [`csc_frontend::MAX_DEPTH`] levels gets a `load` error
//!   reply like any other frontend error.
//!
//! ## Protocol
//!
//! ```text
//! {"cmd":"load","bench":"hsqldb"}                // or "path":"f.mj" / "source":"class ..."
//!     [,"analysis":"ci",...]["budget_ms":5000]
//! {"cmd":"resolve","seed":42}                    // seeded synthetic delta, or "delta_file":"d.bin"
//!     [,"actions":8]["budget_ms":5000]
//! {"cmd":"query","kind":"points-to","var":"Class.method.var"}
//! {"cmd":"query","kind":"call-graph"}
//! {"cmd":"query","kind":"casts"}
//! {"cmd":"stats"}
//! {"cmd":"fault","spec":"worker-round:1:panic"}  // or "clear"
//! {"cmd":"shutdown"}
//! ```
//!
//! Every reply carries `"ok"`, `elapsed_ms` (the time spent handling the
//! request) and, once a session exists, `"degraded"`. `load` and `stats`
//! name the session's analysis by its CLI name (`"analysis":"csc-doop"`).
//! While a solver outcome is resident, `stats` also reports its memory:
//! `pts_bytes` (the points-to sets' heap bytes) and `edge_bytes` (the
//! pointer-flow graph's), as `SolverStats` counts them at solve end.
//! A successful
//! `resolve` also reports its mode (`incremental`, `full`, or
//! `fallback:<reason>`), `apply_ms` (applying the delta to the resident
//! program), `resolve_ms` (wall time of the re-solve), `snapshot_ms`
//! (bringing the query snapshot up to date), `snapshot_vars` (the
//! variables re-projected: after an incremental resolve only those whose
//! points-to sets it changed, after a full solve every variable),
//! `propagations` (this resolve's own), and `cone_ptrs`
//! (pointers its removal cone reset; 0 without removals or on a full
//! solve). Request lines are capped at [`MAX_REQUEST_BYTES`]; a longer or
//! non-UTF-8 line gets a `bad-request` reply and the daemon reads on. A
//! seeded `resolve` asks for at most [`MAX_RESOLVE_ACTIONS`] edit actions
//! (default 8): the delta is generated in time and memory linear in the
//! count, and a budget is only checked once it is built, so a larger
//! `actions` is a `bad-request`.
//!
//! The snapshot is captured in full at `load` and advanced in place
//! ([`SolvedSummary::advance`]) after every successful `resolve`, in time
//! proportional to what the resolve changed.
//!
//! Programs are interned with `Box::leak`, because the resident session
//! needs `'static` borrows. Every `load` leaks its program, and every
//! `resolve` whose delta applies with budget left for the re-solve leaks
//! the patched program, whether or not the solve then succeeds. None is reclaimed before process exit, so
//! the daemon grows by one program per `load` and per `resolve` (about
//! 3.0 MB per resolve on the benchmark's jedit-scale `serve-edit`
//! workload). The ROADMAP item "Own the program; a daemon in bounded
//! memory" (`SolverState` holding an `Arc<Program>`) removes these leaks.

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use csc_core::{
    decode_delta_guarded, resolve_analysis_guarded, run_analysis_guarded, Analysis,
    AnalysisOutcome, Budget, SolveError, SolvedSummary, SolverOptions,
};
use csc_ir::{Program, VarId};

// ---- minimal JSON (the protocol is flat: string/number/bool values) ----

/// A protocol value: the flat subset of JSON the serve protocol uses.
#[derive(Clone, Debug, PartialEq)]
enum Val {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Val {
    fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Val::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"k":v,...}`). Nested containers are
/// rejected — no request needs them — and any syntax error is reported
/// with a human-readable message.
fn parse_object(line: &str) -> Result<BTreeMap<String, Val>, String> {
    let mut p = Parser {
        b: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.value()?;
            map.insert(key, val);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err("expected `,` or `}`".into()),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(map)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.next() == Some(c) {
            Ok(())
        } else {
            Err(format!("expected `{}`", c as char))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.next() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
                        }
                        // Surrogates and other invalid scalars degrade to
                        // the replacement character; the protocol never
                        // round-trips them.
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape".into()),
                },
                Some(c) if c < 0x80 => s.push(c as char),
                Some(c) => {
                    // Re-assemble UTF-8 multibyte sequences from the raw
                    // input (the line arrived as valid UTF-8).
                    let start = self.pos - 1;
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.b.len());
                    let chunk =
                        std::str::from_utf8(&self.b[start..end]).map_err(|_| "bad utf-8")?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => self.lit("true", Val::Bool(true)),
            Some(b'f') => self.lit("false", Val::Bool(false)),
            Some(b'n') => self.lit("null", Val::Null),
            Some(b'{') | Some(b'[') => Err("nested containers are not part of the protocol".into()),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.b[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Val::Num)
                    .ok_or_else(|| "bad number".into())
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(&mut self, word: &str, val: Val) -> Result<Val, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(format!("expected `{word}`"))
        }
    }
}

/// Escapes a string for JSON output.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An ordered JSON object under construction.
#[derive(Default)]
struct Reply {
    fields: Vec<(String, String)>,
}

impl Reply {
    fn ok(v: bool) -> Self {
        let mut r = Reply::default();
        r.push_raw("ok", if v { "true" } else { "false" });
        r
    }

    fn err(kind: &str, msg: &str) -> Self {
        let mut r = Reply::ok(false);
        r.push_str("kind", kind);
        r.push_str("error", msg);
        r
    }

    fn push_raw(&mut self, k: &str, v: impl Into<String>) -> &mut Self {
        self.fields.push((k.to_owned(), v.into()));
        self
    }

    fn push_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.push_raw(k, format!("\"{}\"", esc(v)))
    }

    fn push_num(&mut self, k: &str, v: impl Into<u64>) -> &mut Self {
        self.push_raw(k, v.into().to_string())
    }

    /// A duration in milliseconds, to the microsecond.
    fn push_ms(&mut self, k: &str, d: Duration) -> &mut Self {
        self.push_raw(k, format!("{:.3}", d.as_secs_f64() * 1e3))
    }

    fn push_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.push_raw(k, if v { "true" } else { "false" })
    }

    fn push_str_list(&mut self, k: &str, items: &[String]) -> &mut Self {
        let body: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
        self.push_raw(k, format!("[{}]", body.join(",")))
    }

    fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

// ---- the resident session ----

/// The daemon's resident state: the current program, the live solver
/// outcome (consumed and rebuilt per resolve), and the last-good
/// published snapshot queries answer from. `snapshot` always describes
/// `program` — both advance together, only on a fully successful solve.
struct Session {
    program: &'static Program,
    /// The analysis's CLI name, one of [`Analysis::names`].
    name: &'static str,
    analysis: Analysis,
    /// The resident solver state. `None` after a failed resolve consumed
    /// it — the next resolve then falls back to a from-scratch solve.
    outcome: Option<AnalysisOutcome<'static>>,
    /// Last-good published projections; the query plane. `None` only
    /// after a panic escaped [`SolvedSummary::advance`], which patches it
    /// in place: queries then fail with `no-snapshot` until the next
    /// successful resolve captures it afresh.
    snapshot: Option<SolvedSummary>,
    /// True while the snapshot is stale relative to the latest requested
    /// (but failed) edit; cleared by the next successful resolve.
    degraded: bool,
}

/// Counters reported by `stats`.
#[derive(Default)]
struct Counters {
    requests: u64,
    resolves_ok: u64,
    resolves_failed: u64,
    request_panics: u64,
}

/// The `serve` daemon state and defaults.
pub struct Server {
    session: Option<Session>,
    counters: Counters,
    /// The CLI name of the analysis a `load` runs by default.
    default_analysis: &'static str,
    default_budget_ms: Option<u64>,
}

/// The longest request line the daemon reads, in bytes without the
/// newline. A request is one flat JSON object; an inline `source` load
/// larger than this should name a `path` instead.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// The most edit actions a seeded `resolve` may ask for: 128 times the
/// default of 8.
pub const MAX_RESOLVE_ACTIONS: usize = 1024;

/// Reads one request line into `buf`, holding at most
/// [`MAX_REQUEST_BYTES`] of it in memory. `None` at end of input; an
/// `Err` reason for a line that is too long (the rest of it is skipped)
/// or not UTF-8.
fn read_request<'b>(
    input: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let cap = MAX_REQUEST_BYTES as u64 + 1;
    if input.by_ref().take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_REQUEST_BYTES {
        // Skip the rest of the line without holding it.
        loop {
            let chunk = input.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let n = newline.map_or(chunk.len(), |i| i + 1);
            input.consume(n);
            if newline.is_some() {
                break;
            }
        }
        return Ok(Some(Err(format!(
            "request line longer than {MAX_REQUEST_BYTES} bytes"
        ))));
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|_| "request line is not valid UTF-8".to_owned()),
    ))
}

/// Classifies a [`SolveError`] into the protocol's error kind.
fn error_kind(e: &SolveError) -> &'static str {
    match e {
        SolveError::Poisoned { .. } => "poisoned",
        SolveError::Fault { .. } => "fault",
    }
}

impl Server {
    /// Creates a server with the CLI-level defaults; `analysis` is one of
    /// [`Analysis::names`].
    pub fn new(analysis: &'static str, budget_ms: Option<u64>) -> Self {
        Server {
            session: None,
            counters: Counters::default(),
            default_analysis: analysis,
            default_budget_ms: budget_ms,
        }
    }

    /// Runs the request loop until `shutdown`, EOF, a read error, or a
    /// failed reply write. A request line that is not UTF-8 or is longer
    /// than [`MAX_REQUEST_BYTES`] is answered with `bad-request` and
    /// skipped. When stdout's reader is gone the daemon exits with status
    /// 0 and no message; any other write error prints `csc: cannot write
    /// output: …` and exits with status 1.
    pub fn run(mut self) -> ExitCode {
        let mut stdin = std::io::stdin().lock();
        let mut stdout = std::io::stdout().lock();
        let mut buf = Vec::new();
        loop {
            let request = read_request(&mut stdin, &mut buf);
            let t0 = Instant::now();
            let (mut reply, shutdown) = match request {
                Ok(Some(Ok(line))) if line.trim().is_empty() => continue,
                Ok(Some(Ok(line))) => {
                    self.counters.requests += 1;
                    self.dispatch_guarded(line)
                }
                Ok(Some(Err(why))) => {
                    self.counters.requests += 1;
                    (Reply::err("bad-request", &why), false)
                }
                Ok(None) | Err(_) => break,
            };
            reply.push_ms("elapsed_ms", t0.elapsed());
            if let Err(e) = writeln!(stdout, "{}", reply.render()).and_then(|()| stdout.flush()) {
                // No reader hears the replies any more: stop, as `main`
                // does for the one-shot commands.
                if e.kind() == std::io::ErrorKind::BrokenPipe {
                    return ExitCode::SUCCESS;
                }
                eprintln!("csc: cannot write output: {e}");
                return ExitCode::FAILURE;
            }
            if shutdown {
                return ExitCode::SUCCESS;
            }
        }
        ExitCode::SUCCESS
    }

    /// Request-scoped panic isolation: whatever a request does, the loop
    /// survives and answers. A panic escaping the handler (possible only
    /// outside the solver's own guards) may have consumed the resident
    /// outcome mid-flight; the session degrades rather than lies.
    fn dispatch_guarded(&mut self, line: &str) -> (Reply, bool) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(line))) {
            Ok(r) => r,
            Err(payload) => {
                self.counters.request_panics += 1;
                let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "request panicked".to_owned()
                };
                if let Some(sess) = self.session.as_mut() {
                    if sess.outcome.is_none() {
                        sess.degraded = true;
                    }
                }
                (Reply::err("panic", &msg), false)
            }
        }
    }

    fn dispatch(&mut self, line: &str) -> (Reply, bool) {
        let req = match parse_object(line) {
            Ok(m) => m,
            Err(e) => return (Reply::err("bad-request", &e), false),
        };
        let Some(cmd) = req.get("cmd").and_then(Val::as_str) else {
            return (Reply::err("bad-request", "missing `cmd`"), false);
        };
        match cmd {
            "load" => (self.load(&req), false),
            "resolve" => (self.resolve(&req), false),
            "query" => (self.query(&req), false),
            "stats" => (self.stats(), false),
            "fault" => (self.fault(&req), false),
            "shutdown" => {
                let mut r = Reply::ok(true);
                r.push_bool("shutdown", true);
                (r, true)
            }
            other => (
                Reply::err("bad-request", &format!("unknown cmd `{other}`")),
                false,
            ),
        }
    }

    /// Per-request budget in milliseconds: the `budget_ms` field, else
    /// the server default; `None` for no budget. A `budget_ms` that is
    /// not a non-negative integer is a `bad-request` reply.
    fn budget_ms_of(&self, req: &BTreeMap<String, Val>) -> Result<Option<u64>, Reply> {
        match req.get("budget_ms") {
            None => Ok(self.default_budget_ms),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                Reply::err("bad-request", "`budget_ms` must be a non-negative integer")
            }),
        }
    }

    fn load(&mut self, req: &BTreeMap<String, Val>) -> Reply {
        let budget = match self.budget_ms_of(req) {
            Ok(Some(ms)) => Budget::with_time(Duration::from_millis(ms)),
            Ok(None) => Budget::unlimited(),
            Err(r) => return r,
        };
        let program = if let Some(name) = req.get("bench").and_then(Val::as_str) {
            match csc_workloads::by_name(name) {
                Some(b) => b.compile(),
                None => return Reply::err("bad-request", &format!("unknown benchmark `{name}`")),
            }
        } else if let Some(path) = req.get("path").and_then(Val::as_str) {
            match crate::load(path) {
                Ok(p) => p,
                Err(e) => return Reply::err("load", &e),
            }
        } else if let Some(src) = req.get("source").and_then(Val::as_str) {
            match csc_frontend::compile(src) {
                Ok(p) => p,
                Err(e) => return Reply::err("load", &e.to_string()),
            }
        } else {
            return Reply::err("bad-request", "load needs `bench`, `path`, or `source`");
        };
        let name = match req.get("analysis").and_then(Val::as_str) {
            Some(s) => match Analysis::names().find(|&n| n == s) {
                Some(n) => n,
                None => return Reply::err("bad-request", &format!("unknown analysis `{s}`")),
            },
            None => self.default_analysis,
        };
        let analysis = Analysis::from_name(name).expect("a listed name parses");
        let program: &'static Program = Box::leak(Box::new(program));
        match run_analysis_guarded(program, analysis.clone(), budget, SolverOptions::default()) {
            Ok(out) if out.completed() => {
                let snapshot = SolvedSummary::capture(program, &out.result);
                let mut r = Reply::ok(true);
                r.push_str("analysis", name);
                r.push_num("reachable", snapshot.reachable.len() as u64);
                r.push_num("call_edges", snapshot.call_edges.len() as u64);
                r.push_bool("degraded", false);
                self.session = Some(Session {
                    program,
                    name,
                    analysis,
                    outcome: Some(out),
                    snapshot: Some(snapshot),
                    degraded: false,
                });
                r
            }
            // A load that timed out or panicked publishes nothing: there
            // is no last-good snapshot of *this* program to degrade to.
            // Any existing session stays untouched.
            Ok(_) => Reply::err("timeout", "budget exhausted"),
            Err(e) => Reply::err(error_kind(&e), &e.to_string()),
        }
    }

    fn resolve(&mut self, req: &BTreeMap<String, Val>) -> Reply {
        // The budget covers the whole request: the delta's read, decode or
        // generation and its application count against it, and the
        // re-solve gets what is left.
        let arrived = Instant::now();
        let budget_ms = match self.budget_ms_of(req) {
            Ok(ms) => ms,
            Err(r) => return r,
        };
        let Some(sess) = self.session.as_mut() else {
            return Reply::err("bad-request", "no session loaded");
        };
        // Build the delta against the *resident* program. Resolve is
        // transactional: nothing below advances the session until the
        // re-solve fully completes.
        let delta = if let Some(path) = req.get("delta_file").and_then(Val::as_str) {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return Reply::err("delta-decode", &format!("cannot read {path}: {e}")),
            };
            match decode_delta_guarded(&bytes) {
                Ok(d) => d,
                Err(e) => return Reply::err("delta-decode", &e),
            }
        } else if let Some(seed) = req.get("seed").and_then(Val::as_u64) {
            let defaults = csc_workloads::DeltaGenConfig::default();
            let actions = match req.get("actions").map(Val::as_u64) {
                None => defaults.actions,
                Some(Some(n)) if n <= MAX_RESOLVE_ACTIONS as u64 => n as usize,
                Some(_) => {
                    return Reply::err(
                        "bad-request",
                        &format!("`actions` must be an integer from 0 to {MAX_RESOLVE_ACTIONS}"),
                    )
                }
            };
            let cfg = csc_workloads::DeltaGenConfig {
                seed,
                actions,
                ..defaults
            };
            csc_workloads::generate_delta(sess.program, &cfg)
        } else {
            return Reply::err("bad-request", "resolve needs `delta_file` or `seed`");
        };
        let t_apply = Instant::now();
        let (patched, fx) = match delta.apply(sess.program) {
            Ok(pair) => pair,
            Err(e) => return Reply::err("delta-apply", &e.to_string()),
        };
        let apply_time = t_apply.elapsed();
        let budget = match budget_ms {
            None => Budget::unlimited(),
            Some(ms) => match Duration::from_millis(ms).checked_sub(arrived.elapsed()) {
                Some(left) if !left.is_zero() => Budget::with_time(left),
                // Nothing is left for the solve: the session stays as it
                // was, outcome included, and the patched program is
                // dropped.
                _ => return Reply::err("timeout", "budget exhausted before the re-solve"),
            },
        };
        let patched: &'static Program = Box::leak(Box::new(patched));
        // The attempt consumes the resident outcome; a previous failure
        // left `None`, in which case the candidate is solved from scratch.
        let before = sess
            .outcome
            .as_ref()
            .map(|o| o.result.state.stats.propagations);
        let t0 = Instant::now();
        let attempt = match sess.outcome.take() {
            Some(prev) => resolve_analysis_guarded(
                prev,
                patched,
                &fx,
                sess.analysis.clone(),
                budget,
                SolverOptions::default(),
            ),
            None => run_analysis_guarded(
                patched,
                sess.analysis.clone(),
                budget,
                SolverOptions::default(),
            ),
        };
        match attempt {
            Ok(out) if out.completed() => {
                let resolve_time = t0.elapsed();
                let t_snap = Instant::now();
                // Out of the session while it is patched, so that a panic
                // inside leaves no half-patched snapshot to answer from.
                let (snapshot, snapshot_vars) = match sess.snapshot.take() {
                    Some(mut snap) => {
                        let n = snap.advance(patched, &out.result);
                        (snap, n)
                    }
                    None => {
                        let snap = SolvedSummary::capture(patched, &out.result);
                        let n = snap.pts.len();
                        (snap, n)
                    }
                };
                let snapshot_time = t_snap.elapsed();
                sess.program = patched;
                sess.degraded = false;
                let stats = out.result.state.stats;
                sess.outcome = Some(out);
                let mut r = Reply::ok(true);
                r.push_bool("degraded", false);
                // An incremental resolve's counter continues the base's;
                // a full solve's counts from zero.
                let propagations = match (stats.incr_fallback_reason, before) {
                    (None, Some(b)) if stats.incr_resolves > 0 => {
                        r.push_str("resolve", "incremental");
                        stats.propagations - b
                    }
                    (None, _) => {
                        r.push_str("resolve", "full");
                        stats.propagations
                    }
                    (Some(reason), _) => {
                        r.push_str("resolve", &format!("fallback:{reason}"));
                        stats.propagations
                    }
                };
                r.push_num("reachable", snapshot.reachable.len() as u64);
                r.push_num("call_edges", snapshot.call_edges.len() as u64);
                sess.snapshot = Some(snapshot);
                r.push_ms("apply_ms", apply_time);
                r.push_ms("resolve_ms", resolve_time);
                r.push_ms("snapshot_ms", snapshot_time);
                r.push_num("snapshot_vars", snapshot_vars as u64);
                r.push_num("propagations", propagations);
                r.push_num("cone_ptrs", stats.incr_cone_ptrs);
                self.counters.resolves_ok += 1;
                r
            }
            Ok(_) => self.degraded_reply("timeout", "budget exhausted"),
            Err(e) => self.degraded_reply(error_kind(&e), &e.to_string()),
        }
    }

    /// The failed-resolve reply: the session keeps its last-good snapshot
    /// and answers from it, flagged `degraded: true`; the requested edit
    /// is dropped (re-send it once the cause is gone).
    fn degraded_reply(&mut self, kind: &str, msg: &str) -> Reply {
        self.counters.resolves_failed += 1;
        let sess = self.session.as_mut().expect("resolve checked the session");
        sess.degraded = true;
        let mut r = Reply::ok(true);
        r.push_bool("degraded", true);
        r.push_str("kind", kind);
        r.push_str("error", msg);
        if let Some(snap) = &sess.snapshot {
            r.push_num("reachable", snap.reachable.len() as u64);
            r.push_num("call_edges", snap.call_edges.len() as u64);
        }
        r
    }

    fn query(&mut self, req: &BTreeMap<String, Val>) -> Reply {
        let Some(sess) = self.session.as_ref() else {
            return Reply::err("bad-request", "no session loaded");
        };
        let Some(snap) = &sess.snapshot else {
            return Reply::err(
                "no-snapshot",
                "a panic interrupted the snapshot's update; the next successful resolve rebuilds it",
            );
        };
        let kind = req.get("kind").and_then(Val::as_str).unwrap_or("points-to");
        let mut r = Reply::ok(true);
        r.push_bool("degraded", sess.degraded);
        match kind {
            "points-to" => {
                let Some(q) = req.get("var").and_then(Val::as_str) else {
                    return Reply::err("bad-request", "points-to needs `var`");
                };
                let pt = |v: VarId| snap.pts[v.index()].iter().copied();
                let objs = match crate::points_to(sess.program, q, "`var`", pt) {
                    Ok(objs) => objs,
                    Err(e) => return Reply::err("bad-request", &e),
                };
                r.push_str("var", q);
                r.push_str_list("objects", &objs);
            }
            "call-graph" => {
                r.push_num("reachable", snap.reachable.len() as u64);
                r.push_num("edges", snap.call_edges.len() as u64);
            }
            "casts" => {
                let m = &snap.metrics;
                r.push_num("fail_casts", m.fail_casts as u64);
                r.push_num("poly_calls", m.poly_calls as u64);
            }
            other => return Reply::err("bad-request", &format!("unknown query kind `{other}`")),
        }
        r
    }

    fn stats(&self) -> Reply {
        let mut r = Reply::ok(true);
        r.push_num("requests", self.counters.requests);
        r.push_num("resolves_ok", self.counters.resolves_ok);
        r.push_num("resolves_failed", self.counters.resolves_failed);
        r.push_num("request_panics", self.counters.request_panics);
        match self.session.as_ref() {
            Some(sess) => {
                r.push_bool("loaded", true);
                r.push_bool("degraded", sess.degraded);
                r.push_str("analysis", sess.name);
                if let Some(snap) = &sess.snapshot {
                    r.push_num("vars", snap.pts.len() as u64);
                    r.push_num("reachable", snap.reachable.len() as u64);
                }
                if let Some(out) = &sess.outcome {
                    let stats = &out.result.state.stats;
                    r.push_num("pts_bytes", stats.pts_bytes);
                    r.push_num("edge_bytes", stats.edge_bytes);
                }
            }
            None => {
                r.push_bool("loaded", false);
            }
        }
        r
    }

    /// Arms (or clears) the deterministic fault-injection schedule — the
    /// protocol-level hook the chaos and serve integration tests drive.
    fn fault(&mut self, req: &BTreeMap<String, Val>) -> Reply {
        let Some(spec) = req.get("spec").and_then(Val::as_str) else {
            return Reply::err("bad-request", "fault needs `spec`");
        };
        match csc_core::fault::arm_spec(spec) {
            Ok(()) => {
                let mut r = Reply::ok(true);
                r.push_str("armed", spec);
                r
            }
            Err(e) => Reply::err("bad-request", &e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_flat_objects() {
        let m = parse_object(r#"{"cmd":"load","bench":"hsqldb","budget_ms":2,"fresh":true}"#)
            .expect("parses");
        assert_eq!(m["cmd"], Val::Str("load".into()));
        assert_eq!(m["bench"], Val::Str("hsqldb".into()));
        assert_eq!(m["budget_ms"].as_u64(), Some(2));
        assert_eq!(m["fresh"], Val::Bool(true));
        assert!(parse_object(r#"{"a":{"b":1}}"#).is_err(), "nested rejected");
        assert!(parse_object(r#"{"a":1} trailing"#).is_err());
        let esc = parse_object(r#"{"s":"a\"b\\c\ndA"}"#).expect("escapes");
        assert_eq!(esc["s"], Val::Str("a\"b\\c\ndA".into()));
    }

    #[test]
    fn renders_escaped_replies() {
        let mut r = Reply::ok(true);
        r.push_str("msg", "a\"b\nc");
        r.push_num("n", 7u64);
        r.push_str_list("xs", &["p".into(), "q\"r".into()]);
        assert_eq!(
            r.render(),
            r#"{"ok":true,"msg":"a\"b\nc","n":7,"xs":["p","q\"r"]}"#
        );
        // Round-trip: the reply parses back under the same parser.
        let parsed = parse_object(r#"{"ok":true,"msg":"a\"b\nc","n":7}"#).expect("parses");
        assert_eq!(parsed["msg"], Val::Str("a\"b\nc".into()));
    }

    /// What a panic inside [`SolvedSummary::advance`] leaves: no resident
    /// outcome and no snapshot. Queries fail with `no-snapshot` rather
    /// than answer from a half-patched one, and the next successful
    /// resolve captures the snapshot in full.
    #[test]
    fn lost_snapshot_fails_queries_until_a_resolve_recaptures_it() {
        let mut server = Server::new("ci", None);
        let send = |server: &mut Server, line: &str| {
            let reply = server.dispatch_guarded(line).0.render();
            parse_object(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"))
        };
        let loaded = send(&mut server, r#"{"cmd":"load","bench":"hsqldb"}"#);
        assert_eq!(loaded["ok"], Val::Bool(true));
        let sess = server.session.as_mut().expect("loaded");
        sess.outcome = None;
        sess.snapshot = None;

        for query in [
            r#"{"cmd":"query","kind":"call-graph"}"#,
            r#"{"cmd":"query","kind":"casts"}"#,
            r#"{"cmd":"query","kind":"points-to","var":"Main.main.r0"}"#,
        ] {
            let r = send(&mut server, query);
            assert_eq!(r["kind"], Val::Str("no-snapshot".into()), "{query}");
        }
        let stats = send(&mut server, r#"{"cmd":"stats"}"#);
        assert_eq!(stats["loaded"], Val::Bool(true));
        assert_eq!(stats["analysis"], Val::Str("ci".into()));
        assert!(!stats.contains_key("vars"), "no snapshot to count");

        let r = send(&mut server, r#"{"cmd":"resolve","seed":42}"#);
        assert_eq!(r["resolve"], Val::Str("full".into()));
        let stats = send(&mut server, r#"{"cmd":"stats"}"#);
        assert_eq!(r["snapshot_vars"].as_u64(), stats["vars"].as_u64());
        let r = send(&mut server, r#"{"cmd":"query","kind":"call-graph"}"#);
        assert_eq!(r["ok"], Val::Bool(true));
        assert_eq!(r["degraded"], Val::Bool(false));
    }

    /// Characters the escaper and the parser treat specially: quotes,
    /// backslashes and the multi-byte lengths; control characters and
    /// plain ASCII come from ranges.
    const SPECIAL: [char; 6] = ['"', '\\', '\u{7f}', 'é', '€', '😀'];

    fn tricky_char() -> impl Strategy<Value = char> {
        prop_oneof![
            4 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ASCII")),
            2 => (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control")),
            2 => (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        ]
    }

    fn tricky_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(tricky_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
    }

    /// The values a reply renders: strings, integers an `f64` holds
    /// exactly, and bools.
    fn reply_value() -> impl Strategy<Value = Val> {
        prop_oneof![
            2 => tricky_string().prop_map(Val::Str),
            1 => (0u64..1 << 53).prop_map(|n| Val::Num(n as f64)),
            1 => any::<bool>().prop_map(Val::Bool),
        ]
    }

    /// Fragments of flat and not-quite-flat JSON, concatenated in any
    /// order to reach the parser's error paths. The bare `t`, `f` and `n`
    /// start literals that the line then cuts short.
    const TOKENS: [&str; 27] = [
        "{", "}", "[", "]", "\"", ":", ",", " ", "\\", "\\u", "\\u00e9", "\\ud800", "\"cmd\"",
        "\"k\":", "true", "fals", "t", "f", "n", "null", "-1.5e3", "1e999", "0x1", "é", "😀",
        "\u{0}", "\n",
    ];

    /// Parses `line`, turning a panic into a test failure that names it.
    fn parse_checked(line: &str) -> Result<BTreeMap<String, Val>, String> {
        std::panic::catch_unwind(|| parse_object(line))
            .unwrap_or_else(|_| panic!("parse_object panicked on {line:?}"))
    }

    proptest! {
        #[test]
        fn parse_object_never_panics_on_lossy_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let text = String::from_utf8_lossy(&bytes);
            // Also start inside an object, so the bytes reach the key,
            // value and escape paths.
            for line in [text.to_string(), format!("{{\"{text}"), format!("{{\"k\":{text}")] {
                let _ = parse_checked(&line);
            }
        }

        #[test]
        fn parse_object_never_panics_on_json_tokens(
            picks in proptest::collection::vec(0..TOKENS.len(), 0..32),
        ) {
            let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
            for line in [text.clone(), format!("{{\"k\":{text}")] {
                let _ = parse_checked(&line);
            }
        }

        #[test]
        fn rendered_replies_parse_back(
            fields in proptest::collection::vec((tricky_string(), reply_value()), 0..8),
        ) {
            let mut reply = Reply::default();
            let mut want = BTreeMap::new();
            for (k, v) in fields {
                match &v {
                    Val::Str(s) => reply.push_str(&k, s),
                    Val::Num(n) => reply.push_num(&k, *n as u64),
                    Val::Bool(b) => reply.push_bool(&k, *b),
                    Val::Null => unreachable!("replies render no null"),
                };
                // A repeated key parses to its last value.
                want.insert(k, v);
            }
            let line = reply.render();
            prop_assert_eq!(parse_checked(&line), Ok(want), "rendered {}", line);
            // Every proper prefix lacks the closing brace: an error, not
            // a panic, wherever the cut lands (inside a literal, a number,
            // a string or an escape).
            for (cut, _) in line.char_indices() {
                let prefix = &line[..cut];
                prop_assert!(parse_checked(prefix).is_err(), "prefix {prefix:?} parsed");
            }
        }
    }
}
