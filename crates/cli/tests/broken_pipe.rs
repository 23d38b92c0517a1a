//! A `csc` whose reader goes away early (`csc bench hsqldb | head -1`)
//! stops writing and exits quietly, instead of panicking on the failed
//! write.

use std::io::Read;
use std::process::{Command, Stdio};

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
