//! End-to-end exercise of the `csc serve` daemon over its stdio JSON
//! protocol: load a benchmark, refuse an oversized edit, fold in a delta,
//! query, then inject a panic into the next re-solve and watch the daemon
//! degrade gracefully — answering from the last-good snapshot — and
//! recover on the following resolve. One process for the whole
//! conversation; the injected panic must not kill it. A second daemon
//! that folds in the same edits with no fault must then answer the same.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_csc"))
            .args(["serve", "--analysis", "ci"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .env_remove("CSC_FAULT")
            .spawn()
            .expect("spawn csc serve");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    /// Sends one request line and returns the reply line, which must say
    /// how long the daemon spent on it.
    fn roundtrip(&mut self, req: &str) -> String {
        writeln!(self.stdin, "{req}").expect("daemon accepts request");
        self.stdin.flush().expect("flush");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("daemon replies");
        assert!(
            !line.is_empty(),
            "daemon closed its stdout instead of replying to {req}"
        );
        let line = line.trim().to_owned();
        non_negative(&line, "elapsed_ms");
        line
    }

    /// The daemon's answers to a fixed set of queries, without their
    /// timings: the call graph, the casts, and a few variables' points-to
    /// sets.
    fn answers(&mut self) -> Vec<String> {
        let queries = [
            r#"{"cmd":"query","kind":"call-graph"}"#,
            r#"{"cmd":"query","kind":"casts"}"#,
            r#"{"cmd":"query","kind":"points-to","var":"Main.main.r0"}"#,
            r#"{"cmd":"query","kind":"points-to","var":"Scene0.run.got"}"#,
            r#"{"cmd":"query","kind":"points-to","var":"Scene0.run.mixed"}"#,
            r#"{"cmd":"query","kind":"points-to","var":"Registry.crossTouch.a"}"#,
        ];
        queries
            .iter()
            .map(|q| {
                let r = self.roundtrip(q);
                has(&r, r#""ok":true"#);
                let elapsed = format!(r#","elapsed_ms":{}"#, field(&r, "elapsed_ms"));
                r.replace(&elapsed, "")
            })
            .collect()
    }
}

/// The raw value text of `"key":` in a flat reply.
fn field<'r>(reply: &'r str, key: &str) -> &'r str {
    let tail = reply
        .split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("no `{key}` in reply: {reply}"));
    tail.split([',', '}']).next().unwrap_or_default()
}

/// The value of `"key":` in a flat reply, which must be a non-negative
/// number.
fn non_negative(reply: &str, key: &str) -> f64 {
    let value = field(reply, key);
    value
        .parse::<f64>()
        .ok()
        .filter(|v| *v >= 0.0)
        .unwrap_or_else(|| panic!("`{key}` must be a non-negative number in: {reply}"))
}

/// Asserts `reply` contains the literal `"key":value` fragment.
fn has(reply: &str, fragment: &str) {
    assert!(
        reply.contains(fragment),
        "expected `{fragment}` in reply: {reply}"
    );
}

#[test]
fn serve_survives_worker_panic_and_recovers() {
    let mut d = Daemon::spawn();

    // Queries before any load are typed protocol errors, not crashes.
    let r = d.roundtrip(r#"{"cmd":"query","kind":"call-graph"}"#);
    has(&r, r#""ok":false"#);
    has(&r, r#""kind":"bad-request""#);

    let r = d.roundtrip(r#"{"cmd":"load","bench":"hsqldb"}"#);
    has(&r, r#""ok":true"#);
    has(&r, r#""degraded":false"#);
    let loaded = field(&r, "reachable").to_owned();

    // An absurd `actions` count is refused before any delta is generated
    // (a budget is only checked once the delta is built), promptly, and
    // the session stays as loaded.
    let t0 = Instant::now();
    let r = d.roundtrip(r#"{"cmd":"resolve","seed":1,"actions":1e12}"#);
    has(&r, r#""ok":false"#);
    has(&r, r#""kind":"bad-request""#);
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(10), "refusal took {took:?}");
    let r = d.roundtrip(r#"{"cmd":"stats"}"#);
    has(&r, r#""degraded":false"#);
    assert_eq!(field(&r, "reachable"), loaded, "session changed: {r}");

    // Fold in one synthetic delta; the session advances, and the reply
    // says how the re-solve went and where its time went.
    let r = d.roundtrip(r#"{"cmd":"resolve","seed":42}"#);
    has(&r, r#""ok":true"#);
    has(&r, r#""degraded":false"#);
    for key in [
        "apply_ms",
        "resolve_ms",
        "snapshot_ms",
        "snapshot_vars",
        "propagations",
        "cone_ptrs",
    ] {
        non_negative(&r, key);
    }
    let healthy = d.roundtrip(r#"{"cmd":"query","kind":"call-graph"}"#);
    has(&healthy, r#""ok":true"#);
    has(&healthy, r#""degraded":false"#);

    // Arm a panic at the first worklist step through the protocol, then
    // ask for a re-solve. The guarded re-solve reports it as `poisoned`;
    // the daemon answers from the last-good snapshot.
    let r = d.roundtrip(r#"{"cmd":"fault","spec":"worker-round:1:panic"}"#);
    has(&r, r#""ok":true"#);
    let degraded = d.roundtrip(r#"{"cmd":"resolve","seed":43}"#);
    has(&degraded, r#""ok":true"#);
    has(&degraded, r#""degraded":true"#);
    has(&degraded, r#""kind":"poisoned""#);

    // Queries keep working, flagged degraded, with the pre-fault counts.
    let stale = d.roundtrip(r#"{"cmd":"query","kind":"call-graph"}"#);
    has(&stale, r#""degraded":true"#);
    let count = |reply: &str| {
        let tail = reply.split(r#""edges":"#).nth(1).expect("edges field");
        tail.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
    };
    assert_eq!(
        count(&healthy),
        count(&stale),
        "degraded answers come from the last-good snapshot"
    );

    // The fault is spent; re-sending the same edit recovers the session
    // (via a from-scratch solve, since the poisoned outcome was dropped).
    let recovery = d.roundtrip(r#"{"cmd":"resolve","seed":43}"#);
    has(&recovery, r#""ok":true"#);
    has(&recovery, r#""degraded":false"#);
    has(&recovery, r#""resolve":"full""#);
    let r = d.roundtrip(r#"{"cmd":"query","kind":"call-graph"}"#);
    has(&r, r#""degraded":false"#);

    // Bookkeeping made it through the whole conversation.
    let r = d.roundtrip(r#"{"cmd":"stats"}"#);
    has(&r, r#""resolves_ok":2"#);
    has(&r, r#""resolves_failed":1"#);
    has(&r, r#""request_panics":0"#);

    // The full solve re-captured the whole snapshot; the next resolve,
    // incremental on top of it, re-projects only what it changed.
    let vars = non_negative(&r, "vars");
    assert_eq!(
        non_negative(&recovery, "snapshot_vars"),
        vars,
        "a full solve re-projects every variable: {recovery}"
    );
    let r = d.roundtrip(r#"{"cmd":"resolve","seed":44}"#);
    has(&r, r#""ok":true"#);
    has(&r, r#""resolve":"incremental""#);
    assert!(
        non_negative(&r, "snapshot_vars") < vars,
        "an incremental resolve re-projected every variable: {r}"
    );
    let recovered = d.answers();

    // A daemon that folds in the same edits without the fault answers
    // the same.
    let mut clean = Daemon::spawn();
    let r = clean.roundtrip(r#"{"cmd":"load","bench":"hsqldb"}"#);
    has(&r, r#""ok":true"#);
    for seed in [42, 43, 44] {
        let r = clean.roundtrip(&format!(r#"{{"cmd":"resolve","seed":{seed}}}"#));
        has(&r, r#""ok":true"#);
        has(&r, r#""degraded":false"#);
    }
    assert_eq!(recovered, clean.answers(), "the two daemons disagree");

    for mut daemon in [d, clean] {
        let r = daemon.roundtrip(r#"{"cmd":"shutdown"}"#);
        has(&r, r#""shutdown":true"#);
        let status = daemon.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon must exit cleanly after shutdown");
    }
}

/// Bad request lines are answered, not fatal: a line that is not UTF-8
/// and one longer than the daemon's cap each get a `bad-request` reply,
/// and the daemon keeps serving the lines after them.
#[test]
fn serve_answers_bad_lines_and_keeps_serving() {
    let mut d = Daemon::spawn();
    d.stdin
        .write_all(b"\xff\xfe{\"cmd\":\"stats\"}\n")
        .expect("daemon accepts bytes");
    d.stdin.flush().expect("flush");
    let mut line = String::new();
    d.stdout.read_line(&mut line).expect("daemon replies");
    has(&line, r#""ok":false"#);
    has(&line, r#""kind":"bad-request""#);
    has(&line, "UTF-8");

    let long = format!(r#"{{"cmd":"stats","pad":"{}"}}"#, "x".repeat(2 << 20));
    let r = d.roundtrip(&long);
    has(&r, r#""ok":false"#);
    has(&r, r#""kind":"bad-request""#);
    has(&r, "longer than");

    let r = d.roundtrip(r#"{"cmd":"stats"}"#);
    has(&r, r#""ok":true"#);
    has(&r, r#""requests":3"#);

    drop(d.stdin);
    let status = d.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly at end of input");
}

/// Source nested deeper than the frontend accepts is a `load` error, not
/// a stack overflow that would abort the daemon: 10,000 parentheses (a
/// 20 KB request, well under the line cap) get an error reply, and the
/// daemon answers the next request.
#[test]
fn serve_rejects_too_deep_source_and_keeps_serving() {
    let mut d = Daemon::spawn();
    let n = 10_000;
    let src = format!(
        "class Main {{ static void main() {{ int x = {}1{}; }} }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    let r = d.roundtrip(&format!(r#"{{"cmd":"load","source":"{src}"}}"#));
    has(&r, r#""ok":false"#);
    has(&r, r#""kind":"load""#);
    has(
        &r,
        &format!("nesting deeper than {} levels", csc_frontend::MAX_DEPTH),
    );

    let r = d.roundtrip(r#"{"cmd":"stats"}"#);
    has(&r, r#""ok":true"#);
    has(&r, r#""requests":2"#);

    drop(d.stdin);
    let status = d.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly at end of input");
}

/// `load` and `stats` name a session's analysis by its CLI name, so
/// `csc-doop` is told apart from `csc`.
#[test]
fn serve_names_the_analysis_by_its_cli_name() {
    let mut d = Daemon::spawn();
    let r = d.roundtrip(r#"{"cmd":"load","bench":"hsqldb"}"#);
    has(&r, r#""analysis":"ci""#);
    for name in ["csc-doop", "zipper"] {
        let r = d.roundtrip(&format!(
            r#"{{"cmd":"load","bench":"hsqldb","analysis":"{name}"}}"#
        ));
        has(&r, r#""ok":true"#);
        has(&r, &format!(r#""analysis":"{name}""#));
        let r = d.roundtrip(r#"{"cmd":"stats"}"#);
        has(&r, &format!(r#""analysis":"{name}""#));
    }
    drop(d.stdin);
    let status = d.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly at end of input");
}

/// A `budget_ms` that is not a non-negative integer is a `bad-request`
/// for `load` and `resolve`, not "no budget", and leaves the session as
/// it was. `stats` reports the resident outcome's memory once one is
/// loaded.
#[test]
fn serve_rejects_malformed_budgets() {
    let mut d = Daemon::spawn();
    let malformed = [r#""fast""#, "-5", "1.5", "null"];
    for budget in malformed {
        let r = d.roundtrip(&format!(
            r#"{{"cmd":"load","bench":"hsqldb","budget_ms":{budget}}}"#
        ));
        has(&r, r#""ok":false"#);
        has(&r, r#""kind":"bad-request""#);
        has(&r, "budget_ms");
    }
    let r = d.roundtrip(r#"{"cmd":"stats"}"#);
    has(&r, r#""loaded":false"#);
    assert!(!r.contains("pts_bytes"), "no outcome to measure: {r}");

    let r = d.roundtrip(r#"{"cmd":"load","bench":"hsqldb","budget_ms":60000}"#);
    has(&r, r#""ok":true"#);
    let loaded = d.roundtrip(r#"{"cmd":"stats"}"#);
    for key in ["pts_bytes", "edge_bytes"] {
        assert!(
            non_negative(&loaded, key) > 0.0,
            "`{key}` positive: {loaded}"
        );
    }
    for budget in malformed {
        let r = d.roundtrip(&format!(
            r#"{{"cmd":"resolve","seed":42,"budget_ms":{budget}}}"#
        ));
        has(&r, r#""ok":false"#);
        has(&r, r#""kind":"bad-request""#);
    }
    let r = d.roundtrip(r#"{"cmd":"stats"}"#);
    has(&r, r#""degraded":false"#);
    has(&r, r#""resolves_ok":0"#);
    has(&r, r#""resolves_failed":0"#);
    for key in ["reachable", "vars", "pts_bytes", "edge_bytes"] {
        assert_eq!(field(&r, key), field(&loaded, key), "session changed: {r}");
    }
    // The resident outcome is intact: the edit resolves incrementally.
    let r = d.roundtrip(r#"{"cmd":"resolve","seed":42,"budget_ms":60000}"#);
    has(&r, r#""ok":true"#);
    has(&r, r#""resolve":"incremental""#);

    drop(d.stdin);
    let status = d.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly at end of input");
}

/// A resolve's budget covers the whole request, not only the re-solve:
/// a 5 ms delay injected into the delta's decode spends a 2 ms budget
/// before the solve starts. The reply is a `timeout` error, and the
/// session keeps its outcome and stays healthy.
#[test]
fn serve_budget_covers_the_whole_resolve() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("serve-empty-delta-{}.bin", std::process::id()));
    std::fs::write(&path, csc_ir::ProgramDelta { ops: vec![] }.to_bytes())
        .expect("write delta file");
    let resolve = |budget: &str| {
        format!(
            r#"{{"cmd":"resolve","delta_file":"{}"{budget}}}"#,
            path.display()
        )
    };
    let mut d = Daemon::spawn();
    let r = d.roundtrip(r#"{"cmd":"load","bench":"hsqldb"}"#);
    has(&r, r#""ok":true"#);
    let r = d.roundtrip(r#"{"cmd":"fault","spec":"delta-decode:1:delay"}"#);
    has(&r, r#""ok":true"#);
    let r = d.roundtrip(&resolve(r#","budget_ms":2"#));
    has(&r, r#""ok":false"#);
    has(&r, r#""kind":"timeout""#);

    let r = d.roundtrip(r#"{"cmd":"stats"}"#);
    has(&r, r#""degraded":false"#);
    has(&r, r#""resolves_failed":0"#);
    // The outcome was kept: the same edit resolves incrementally.
    let r = d.roundtrip(&resolve(""));
    has(&r, r#""ok":true"#);
    has(&r, r#""degraded":false"#);
    has(&r, r#""resolve":"incremental""#);

    drop(d.stdin);
    let status = d.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly at end of input");
    std::fs::remove_file(&path).expect("remove delta file");
}
