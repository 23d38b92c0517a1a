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
/// [`suite`]; `csc bench xl` runs it.
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

/// Process-wide compiled-IR map: generates and compiles each benchmark
/// at most once per process and hands out a `'static` borrow. The bench
/// tables run five analyses per program and the differential harness
/// runs every configuration per program — none of them should re-lower
/// the MiniJava source per row. The leak is deliberate: one `Program`
/// per benchmark for the life of the process.
pub fn compiled(name: &str) -> Option<&'static csc_ir::Program> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<String, &'static csc_ir::Program>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("compiled-program cache poisoned");
    if let Some(&p) = map.get(name) {
        return Some(p);
    }
    let p: &'static csc_ir::Program = Box::leak(Box::new(by_name(name)?.compile()));
    map.insert(name.to_owned(), p);
    Some(p)
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
