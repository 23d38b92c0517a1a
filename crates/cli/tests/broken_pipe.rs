//! A `csc` whose reader goes away early (`csc bench hsqldb | head -1`)
//! stops writing and exits quietly, instead of panicking on the failed
//! write; so does a `csc serve` whose reader goes away.

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn closed_stdout_ends_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_csc"))
        .args(["bench", "hsqldb", "--analysis", "ci"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("CSC_FAULT")
        .spawn()
        .expect("spawn csc bench");
    // Close the read end before `csc` has solved anything, so its first
    // write finds a broken pipe.
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("csc exits");
    assert!(!stderr.contains("panicked"), "csc panicked:\n{stderr}");
    assert_ne!(status.code(), Some(101), "panic exit status:\n{stderr}");
    assert!(status.success(), "{status}:\n{stderr}");
}

/// `csc serve` whose reader is gone stops at its first failed reply
/// instead of reading and solving on until stdin closes.
#[test]
fn serve_stops_when_its_reader_is_gone() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_csc"))
        .args(["serve", "--analysis", "ci"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("CSC_FAULT")
        .spawn()
        .expect("spawn csc serve");
    drop(child.stdout.take());
    // Stdin stays open until the end of the test: only the failed reply
    // can end the daemon.
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(b"{\"cmd\":\"stats\"}\n")
        .and_then(|()| stdin.flush())
        .expect("write request");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll csc serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("csc serve still running 10 s after its reader went away");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    drop(stdin);
    assert!(
        !stderr.contains("panicked"),
        "csc serve panicked:\n{stderr}"
    );
    assert!(status.success(), "{status}:\n{stderr}");
}
