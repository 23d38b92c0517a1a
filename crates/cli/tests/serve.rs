//! End-to-end exercise of the `csc serve` daemon over its stdio JSON
//! protocol: load a benchmark, fold in a delta, query, then inject a
//! panic into the next re-solve and watch the daemon degrade
//! gracefully — answering from the last-good snapshot — and recover on
//! the following resolve. One process for the whole conversation; the
//! injected panic must not kill it.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

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

    // Fold in one synthetic delta; the session advances.
    let r = d.roundtrip(r#"{"cmd":"resolve","seed":42}"#);
    has(&r, r#""ok":true"#);
    has(&r, r#""degraded":false"#);
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
