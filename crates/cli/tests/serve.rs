//! End-to-end exercise of the `csc serve` daemon over its stdio JSON
//! protocol: load a benchmark, refuse an oversized edit, fold in a delta,
//! query, then inject a panic into the next re-solve and watch the daemon
//! degrade gracefully — answering from the last-good snapshot — and
//! recover on the following resolve. One process for the whole
//! conversation; the injected panic must not kill it.

use std::io::{BufRead, BufReader, Write};
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

    /// Sends one request line and returns the reply line.
    fn roundtrip(&mut self, req: &str) -> String {
        writeln!(self.stdin, "{req}").expect("daemon accepts request");
        self.stdin.flush().expect("flush");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("daemon replies");
        assert!(
            !line.is_empty(),
            "daemon closed its stdout instead of replying to {req}"
        );
        line.trim().to_owned()
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
    // (generation runs outside the request budget), promptly, and the
    // session stays as loaded.
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
    // says how the re-solve went.
    let r = d.roundtrip(r#"{"cmd":"resolve","seed":42}"#);
    has(&r, r#""ok":true"#);
    has(&r, r#""degraded":false"#);
    for key in ["resolve_ms", "propagations", "cone_ptrs"] {
        let value = field(&r, key);
        assert!(
            value.parse::<f64>().is_ok_and(|v| v >= 0.0),
            "`{key}` must be a non-negative number in: {r}"
        );
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
    let r = d.roundtrip(r#"{"cmd":"resolve","seed":43}"#);
    has(&r, r#""ok":true"#);
    has(&r, r#""degraded":false"#);
    has(&r, r#""resolve":"full""#);
    let r = d.roundtrip(r#"{"cmd":"query","kind":"call-graph"}"#);
    has(&r, r#""degraded":false"#);

    // Bookkeeping made it through the whole conversation.
    let r = d.roundtrip(r#"{"cmd":"stats"}"#);
    has(&r, r#""resolves_ok":2"#);
    has(&r, r#""resolves_failed":1"#);
    has(&r, r#""request_panics":0"#);

    let r = d.roundtrip(r#"{"cmd":"shutdown"}"#);
    has(&r, r#""shutdown":true"#);
    let status = d.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly after shutdown");
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
