//! IR golden: pins the IR the frontend lowers each suite program to.
//!
//! `golden/suite_ir.txt` holds one line per suite program: its name, the
//! IR statement, variable, allocation-site and call-site counts, and an
//! FNV-1a 64-bit digest of `Program::display_program()`, the text `csc
//! dump-ir` prints. A frontend change that alters any statement, name,
//! label or id of the lowered IR moves the digest, so a lexer, parser or
//! lowering rewrite can show here that it emits the same IR.
//!
//! Below the suite's lines, the file pins inputs the suite does not
//! reach: the paper's figures from [`csc_workloads::examples`], and
//! hsqldb and findbugs generated with another seed (`hsqldb@7`,
//! `findbugs@7`).
//!
//! The full leg (all of them) is `#[ignore]`d for release mode; a fast
//! leg checks the lines of hsqldb, findbugs and every extra input against
//! the same file in every test run. Bless with `CSC_UPDATE_GOLDEN=1 cargo test --release -p
//! csc-workloads --test ir_golden -- --include-ignored`, only after a
//! change to the IR is intended; only the full leg writes the file.

use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suite_ir.txt")
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seed of the re-generated suite programs among [`extra_inputs`].
const OTHER_SEED: u64 = 7;

/// The named suite programs' (name, source) pairs.
fn suite_inputs(programs: &[&str]) -> Vec<(String, String)> {
    programs
        .iter()
        .map(|name| {
            let bench = csc_workloads::by_name(name).expect("suite program");
            ((*name).to_owned(), bench.source())
        })
        .collect()
}

/// The inputs pinned besides the suite: the paper's figures, and two
/// suite programs generated with [`OTHER_SEED`].
fn extra_inputs() -> Vec<(String, String)> {
    use csc_workloads::examples;
    let mut inputs = vec![
        ("figure1".to_owned(), examples::FIGURE1.to_owned()),
        ("figure3".to_owned(), examples::FIGURE3.to_owned()),
        ("figure4".to_owned(), examples::figure4()),
        ("figure5".to_owned(), examples::FIGURE5.to_owned()),
        ("map_views".to_owned(), examples::map_views()),
    ];
    for name in ["hsqldb", "findbugs"] {
        let mut config = csc_workloads::by_name(name).expect("suite program").config;
        config.seed = OTHER_SEED;
        inputs.push((
            format!("{name}@{OTHER_SEED}"),
            csc_workloads::generate(&config),
        ));
    }
    inputs
}

/// Compiles each input and renders its golden line.
fn ir_rows(inputs: &[(String, String)]) -> String {
    let mut out = String::new();
    for (name, src) in inputs {
        let program = csc_frontend::compile(src).expect("input compiles");
        let _ = writeln!(
            out,
            "{name:<9} stmts={} vars={} objs={} call_sites={} dump_ir_fnv1a64={:016x}",
            program.stmt_count(),
            program.vars().len(),
            program.objs().len(),
            program.call_sites().len(),
            fnv1a64(program.display_program().as_bytes())
        );
    }
    out
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

/// Each line of `got` against the golden line of the same program.
fn drift(want: &str, got: &str) -> String {
    let name = |line: &str| line.split_whitespace().next().map(str::to_owned);
    let mut diff = String::new();
    for g in got.lines() {
        match want.lines().find(|w| name(w) == name(g)) {
            Some(w) if w == g => {}
            Some(w) => {
                let _ = writeln!(diff, "    golden: {w}\n    got:    {g}");
            }
            None => {
                let _ = writeln!(diff, "    missing: {g}");
            }
        }
    }
    diff
}

fn read_golden() -> String {
    let path = golden_path();
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing IR golden {}: {e}", path.display()))
}

/// All ten suite programs and the extra inputs: about 2.5 s in debug,
/// under 1 s in release.
#[test]
#[ignore = "lowers all ten suite programs; run in release"]
fn suite_ir_is_exact() {
    let programs: Vec<&str> = csc_workloads::suite().iter().map(|b| b.name).collect();
    let mut inputs = suite_inputs(&programs);
    inputs.extend(extra_inputs());
    let got = ir_rows(&inputs);
    if std::env::var("CSC_UPDATE_GOLDEN").is_ok() {
        let path = golden_path();
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = read_golden();
    assert!(
        want == got,
        "lowered IR drifted (re-bless with CSC_UPDATE_GOLDEN=1 and \
         --include-ignored in release if intentional; golden {} lines, got {}):\n{}",
        want.lines().count(),
        got.lines().count(),
        drift(&want, &got)
    );
}

/// The fast leg of [`suite_ir_is_exact`]: the lines of hsqldb, findbugs
/// and the extra inputs, each checked against its line of the committed
/// file. It never writes
/// the file, so under `CSC_UPDATE_GOLDEN` it leaves re-blessing to the
/// full leg.
#[test]
fn suite_ir_fast_leg() {
    if std::env::var("CSC_UPDATE_GOLDEN").is_ok() {
        return;
    }
    let mut inputs = suite_inputs(&["hsqldb", "findbugs"]);
    inputs.extend(extra_inputs());
    let diff = drift(&read_golden(), &ir_rows(&inputs));
    assert!(
        diff.is_empty(),
        "lowered IR drifted (re-bless with CSC_UPDATE_GOLDEN=1 and \
         --include-ignored in release if intentional):\n{diff}"
    );
}
