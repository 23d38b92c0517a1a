//! The evaluation suite: ten benchmark programs named after the paper's
//! subjects (§5, Tables 1–3), generated at per-program scales.
//!
//! The paper analyzes DaCapo-era Java programs; we generate synthetic
//! MiniJava programs of increasing size and pattern density (DESIGN.md §2
//! documents the substitution). The names are kept so the harness output
//! lines up with the paper's tables row by row; the configured scales
//! roughly follow the relative sizes of the original programs (hsqldb and
//! findbugs smallest, soot and columba largest).

use crate::gen::{generate, GenConfig};

/// One benchmark program of the suite.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// The paper's program name this row corresponds to.
    pub name: &'static str,
    /// Generator configuration.
    pub config: GenConfig,
}

impl Benchmark {
    /// Generates the MiniJava source.
    pub fn source(&self) -> String {
        generate(&self.config)
    }

    /// Compiles the benchmark to IR.
    ///
    /// # Panics
    ///
    /// Panics if generation produced an invalid program (a bug, covered by
    /// tests).
    pub fn compile(&self) -> csc_ir::Program {
        csc_frontend::compile(&self.source()).expect("generated benchmark compiles")
    }
}

#[allow(clippy::too_many_arguments)]
fn cfg(
    seed: u64,
    scenarios_per_kind: usize,
    data_classes: usize,
    entities: usize,
    fields: usize,
    wrappers: usize,
    selects: usize,
    chains: usize,
    chain_depth: usize,
) -> GenConfig {
    GenConfig {
        seed,
        data_classes,
        entities,
        fields_per_entity: fields,
        wrappers,
        selects,
        chains,
        chain_depth,
        scenarios_per_kind,
        loop_iters: 3,
        registry_every: 2,
        factory_prob: 0.3,
        // Cyclic flows scale with the call-chain knobs: one recursive
        // relay pair per chain, rings one hop longer than the chain depth.
        cycle_groups: chains,
        ring_len: chain_depth + 1,
    }
}

/// The ten-program suite, ordered as in the paper's tables.
pub fn suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "eclipse",
            config: cfg(0xec11, 180, 30, 15, 4, 12, 12, 8, 5),
        },
        Benchmark {
            name: "freecol",
            config: cfg(0xf4ee, 330, 55, 27, 4, 22, 22, 10, 6),
        },
        Benchmark {
            name: "briss",
            config: cfg(0xb415, 330, 50, 25, 4, 20, 20, 9, 5),
        },
        Benchmark {
            name: "hsqldb",
            config: cfg(0x5b, 40, 8, 4, 3, 5, 5, 3, 4),
        },
        Benchmark {
            name: "jedit",
            config: cfg(0xed17, 120, 20, 10, 3, 8, 8, 5, 4),
        },
        Benchmark {
            name: "gruntspud",
            config: cfg(0x6059, 340, 54, 27, 4, 21, 21, 9, 5),
        },
        Benchmark {
            name: "soot",
            config: cfg(0x5007, 360, 60, 30, 5, 24, 24, 12, 7),
        },
        Benchmark {
            name: "columba",
            config: cfg(0xc01a, 400, 66, 33, 5, 26, 26, 11, 6),
        },
        Benchmark {
            name: "jython",
            config: cfg(0x1907, 70, 12, 6, 3, 7, 7, 4, 4),
        },
        Benchmark {
            name: "findbugs",
            config: cfg(0xf1d6, 50, 10, 5, 3, 6, 6, 4, 4),
        },
    ]
}

/// The opt-in `xl` stress program: past 10⁵ statements (the scale the
/// paper's `>2h` rows live at), with the registry/factory and cyclic-flow
/// knobs turned up so both object-sensitive context explosion and
/// assign-SCC collapsing have something to chew on. Not part of
/// [`suite`] — the bench harness appends it only under `CSC_XL=1`.
pub fn xl() -> Benchmark {
    Benchmark {
        name: "xl",
        config: cfg(0x71a9e, 850, 90, 45, 5, 34, 34, 16, 8),
    }
}

/// Looks a benchmark up by name (`"xl"` resolves the opt-in stress
/// program; everything else resolves within [`suite`]).
pub fn by_name(name: &str) -> Option<Benchmark> {
    if name == "xl" {
        return Some(xl());
    }
    suite().into_iter().find(|b| b.name == name)
}

/// Process-wide compiled-IR cache: generates and compiles each benchmark
/// at most once per process and hands out a `'static` borrow (the ROADMAP
/// "persistent workloads" item's in-memory step). The bench tables run
/// five analyses per program and the differential harness runs every
/// engine configuration per program — none of them should re-lower the
/// MiniJava source per row. The leak is deliberate: one
/// `Program` per benchmark for the life of the process.
///
/// Backing the in-memory map is the **on-disk half** (the rest of the
/// ROADMAP item): lowered IR is serialized with [`csc_ir::Program::to_bytes`]
/// to `target/csc-cache/<name>-<content-hash>.bin`, keyed by an FNV-1a-64
/// hash of the generated MiniJava source, so *fresh processes* skip
/// lowering too (generation is string building; lexing + parsing +
/// lowering + hierarchy resolution is what dominates start-up). Corrupt,
/// truncated, or stale-format files decode to an error and fall back to
/// lowering; writes go through a temp file + rename so concurrent test
/// processes never observe a half-written entry. Opt out with
/// `CSC_IR_CACHE=0`; point the directory elsewhere with
/// `CSC_IR_CACHE_DIR`.
pub fn compiled(name: &str) -> Option<&'static csc_ir::Program> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<String, &'static csc_ir::Program>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("compiled-program cache poisoned");
    if let Some(&p) = map.get(name) {
        return Some(p);
    }
    let bench = by_name(name)?;
    let p: &'static csc_ir::Program = Box::leak(Box::new(compile_via_disk_cache(&bench)));
    map.insert(name.to_owned(), p);
    Some(p)
}

/// Whether the on-disk IR cache is enabled (`CSC_IR_CACHE=0` disables).
fn disk_cache_enabled() -> bool {
    !matches!(
        std::env::var("CSC_IR_CACHE").as_deref(),
        Ok("0") | Ok("off")
    )
}

/// The cache directory: `CSC_IR_CACHE_DIR`, or the workspace
/// `target/csc-cache` (anchored at this crate's manifest so tests and
/// binaries agree on the location regardless of their working directory).
fn disk_cache_dir() -> std::path::PathBuf {
    std::env::var_os("CSC_IR_CACHE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/csc-cache")
        })
}

/// FNV-1a 64 over the generated source — the cache file's content key.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Lowers a benchmark through the on-disk cache: hit → decode, miss (or
/// any I/O / decode failure) → lower and repopulate, best-effort.
fn compile_via_disk_cache(bench: &Benchmark) -> csc_ir::Program {
    if !disk_cache_enabled() {
        return csc_frontend::compile(&bench.source()).expect("generated benchmark compiles");
    }
    compile_with_cache_dir(bench, &disk_cache_dir())
}

/// The cache mechanism with an explicit directory (separated from the
/// env-var policy so tests can target a private directory without
/// touching process-global environment state).
///
/// The content key mixes [`csc_frontend::LOWERING_VERSION`] into the
/// source hash: a frontend change that alters the IR produced for an
/// unchanged source must never reuse an entry lowered by the old
/// frontend (CI restores `target/` — cache directory included — across
/// commits, so filename-level versioning is the only reliable guard).
fn compile_with_cache_dir(bench: &Benchmark, dir: &std::path::Path) -> csc_ir::Program {
    let source = bench.source();
    let mut key = fnv1a64(source.as_bytes());
    key ^= u64::from(csc_frontend::LOWERING_VERSION).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let path = dir.join(format!("{}-{key:016x}.bin", bench.name));
    // Any failure in the read path — I/O error, corrupt entry, injected
    // `cache-read` fault, even a panic — reads as a miss and falls back
    // to lowering: the cache accelerates, it never gates.
    let hit = std::panic::catch_unwind(|| {
        csc_core::fault::hit_io(csc_core::fault::FaultPoint::CacheRead).ok()?;
        let bytes = std::fs::read(&path).ok()?;
        csc_ir::Program::from_bytes(&bytes).ok()
    })
    .unwrap_or(None);
    if let Some(program) = hit {
        return program;
    }
    let program = csc_frontend::compile(&source).expect("generated benchmark compiles");
    // Best-effort write; a read-only target dir must not fail the run.
    // The temp name is unique per process *and* per call, so concurrent
    // processes and concurrent threads both rename disjoint files; a
    // transient I/O error or rename collision gets one bounded retry with
    // a fresh temp name, then the write is skipped.
    let _ = std::panic::catch_unwind(|| {
        let attempt = || -> std::io::Result<()> {
            csc_core::fault::hit_io(csc_core::fault::FaultPoint::CacheWrite)?;
            std::fs::create_dir_all(dir)?;
            let tmp = path.with_extension(format!(
                "tmp.{}.{}",
                std::process::id(),
                csc_core::results::next_tmp_seq()
            ));
            std::fs::write(&tmp, program.to_bytes())?;
            std::fs::rename(&tmp, &path).inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })
        };
        if attempt().is_err() {
            let _ = attempt();
        }
    });
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_suite_compiles() {
        for b in suite() {
            let program = b.compile();
            assert!(
                program.methods().len() > 40,
                "{} too small: {} methods",
                b.name,
                program.methods().len()
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("soot").is_some());
        assert!(by_name("xl").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn compiled_cache_returns_same_program() {
        let a = compiled("hsqldb").unwrap();
        let b = compiled("hsqldb").unwrap();
        assert!(std::ptr::eq(a, b), "second lookup must hit the cache");
        assert!(compiled("nope").is_none());
    }

    /// The on-disk half: a decode from a populated cache entry must yield
    /// exactly the program a fresh lowering yields. Targets a private
    /// temp dir through the explicit-directory entry point, so no
    /// process-global environment state is touched and concurrent tests
    /// (threads or processes) cannot interfere.
    #[test]
    fn disk_cache_roundtrips_lowering() {
        let dir = std::env::temp_dir().join(format!("csc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = by_name("hsqldb").unwrap();
        let first = compile_with_cache_dir(&bench, &dir); // miss: lowers + writes
        let entries = std::fs::read_dir(&dir).expect("cache dir created").count();
        assert_eq!(entries, 1, "exactly one cache entry written");
        let second = compile_with_cache_dir(&bench, &dir); // hit: decodes
        assert_eq!(first, second, "decoded program differs from lowered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a corrupt cache entry must be treated as a miss — the
    /// lowering falls back to a fresh compile (bit-identical to the clean
    /// one) and the damaged entry is overwritten with a decodable one.
    /// Covers truncation, bit flips in the header region, and trailing
    /// garbage, since any of them can result from an interrupted write or
    /// a stale-format restore of `target/` in CI.
    #[test]
    fn disk_cache_corrupt_entry_falls_back_and_repopulates() {
        let dir =
            std::env::temp_dir().join(format!("csc-cache-corrupt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = by_name("findbugs").unwrap();
        let clean = compile_with_cache_dir(&bench, &dir);
        let entry = std::fs::read_dir(&dir)
            .expect("cache dir created")
            .map(|e| e.expect("dir entry").path())
            .find(|p| p.extension().is_some_and(|x| x == "bin"))
            .expect("one .bin cache entry");
        let good = std::fs::read(&entry).expect("entry readable");
        let corruptions: Vec<Vec<u8>> = vec![
            Vec::new(),                      // empty file
            good[..good.len() / 2].to_vec(), // truncated
            {
                let mut b = good.clone();
                b[0] ^= 0xff; // smashed magic/header
                b
            },
            {
                let mut b = good.clone();
                b.push(0); // trailing garbage
                b
            },
        ];
        for (i, bytes) in corruptions.iter().enumerate() {
            std::fs::write(&entry, bytes).expect("write corruption");
            let relowered = compile_with_cache_dir(&bench, &dir);
            assert_eq!(
                clean, relowered,
                "corruption {i}: fallback compile differs from clean lowering"
            );
            let repaired = std::fs::read(&entry).expect("entry rewritten");
            let decoded = csc_ir::Program::from_bytes(&repaired)
                .unwrap_or_else(|e| panic!("corruption {i}: entry not repopulated: {e:?}"));
            assert_eq!(decoded, clean, "corruption {i}: repopulated entry differs");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The xl stress program must actually cross the 10⁵-statement bar.
    /// Ignored by default (generating + lowering ~10⁵ statements is slow
    /// unoptimized); CI runs it in release mode alongside the differential
    /// harness.
    #[test]
    #[ignore = "compiles a >1e5-statement program; run in release mode"]
    fn xl_crosses_100k_statements() {
        let program = xl().compile();
        assert!(
            program.stmt_count() > 100_000,
            "xl too small: {} statements",
            program.stmt_count()
        );
    }
}
