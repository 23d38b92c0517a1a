//! The workloads and their seeded inputs.
//!
//! Every input is a pure function of `(workload, seed)`. The default seed
//! reproduces the built-in suite configurations exactly; any other seed
//! re-draws each program's generator seed at the same scale, and draws the
//! serve-edit delta chain and query variables.

use std::path::{Path, PathBuf};

use csc_core::Analysis;
use csc_ir::{MethodId, Program, ProgramDelta};
use csc_workloads::{Benchmark, DeltaGenConfig, GenConfig};

use crate::json::Json;

/// The seed whose programs are the built-in suite programs.
pub const DEFAULT_SEED: u64 = 0;
/// `resolve` requests in one serve-edit session.
pub const RESOLVES: usize = 24;
/// Points-to queries after each resolve; a call-graph and a casts query
/// follow them.
pub const PT_QUERIES: usize = 2;
/// Edit actions per generated delta (removals included).
pub const DELTA_ACTIONS: usize = 8;

#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Workload {
    SuiteCsc,
    Freecol2obj,
    ServeEdit,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "suite-csc" => Workload::SuiteCsc,
            "freecol-2obj" => Workload::Freecol2obj,
            "serve-edit" => Workload::ServeEdit,
            _ => return None,
        })
    }

    /// The analysis every request of the workload runs.
    pub fn analysis(self) -> Analysis {
        match self {
            Workload::SuiteCsc => Analysis::CutShortcut,
            Workload::Freecol2obj => Analysis::KObj(2),
            Workload::ServeEdit => Analysis::Ci,
        }
    }

    /// The suite programs the workload analyzes, in request order.
    pub fn programs(self) -> Vec<Benchmark> {
        let named = |n: &str| vec![csc_workloads::by_name(n).expect("suite program")];
        match self {
            Workload::SuiteCsc => csc_workloads::suite(),
            Workload::Freecol2obj => named("freecol"),
            Workload::ServeEdit => named("jedit"),
        }
    }
}

/// SplitMix64: the harness's only source of seeded choices.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generator configuration of `bench` under `seed`: the suite's own at
/// the default seed, otherwise the same scale with a re-drawn seed.
pub fn program_config(bench: &Benchmark, seed: u64) -> GenConfig {
    let mut cfg = bench.config.clone();
    if seed != DEFAULT_SEED {
        cfg.seed = mix(cfg.seed ^ mix(seed));
    }
    cfg
}

pub fn source_path(dir: &Path, bench: &Benchmark) -> PathBuf {
    dir.join(format!("{}.mj", bench.name))
}

pub fn delta_path(dir: &Path, step: usize) -> PathBuf {
    dir.join(format!("delta-{step:03}.bin"))
}

/// One serve-edit request.
pub enum Request {
    Load(PathBuf),
    Resolve(PathBuf),
    PointsTo(String),
    CallGraph,
    Casts,
}

impl Request {
    /// The protocol line `csc serve` receives.
    pub fn line(&self) -> String {
        let path = |p: &Path| Json::str(p.to_string_lossy());
        let query = |kind: &str| ("kind", Json::str(kind));
        match self {
            Request::Load(p) => Json::obj([("cmd", Json::str("load")), ("path", path(p))]),
            Request::Resolve(p) => {
                Json::obj([("cmd", Json::str("resolve")), ("delta_file", path(p))])
            }
            Request::PointsTo(var) => Json::obj([
                ("cmd", Json::str("query")),
                query("points-to"),
                ("var", Json::str(var.as_str())),
            ]),
            Request::CallGraph => Json::obj([("cmd", Json::str("query")), query("call-graph")]),
            Request::Casts => Json::obj([("cmd", Json::str("query")), query("casts")]),
        }
        .to_string()
    }
}

/// Variables a points-to query can name unambiguously as
/// `Class.method.var`: reference-typed, simply named, unique in a method
/// that its qualified name resolves back to.
fn queryable_vars(program: &Program) -> Vec<String> {
    let mut out = Vec::new();
    for (i, method) in program.methods().iter().enumerate() {
        let m = MethodId::from_usize(i);
        let qualified = program.qualified_name(m);
        if method.is_abstract() || program.method_by_qualified_name(&qualified) != Some(m) {
            continue;
        }
        let names: Vec<&str> = method
            .vars()
            .iter()
            .map(|&v| program.var(v).name())
            .collect();
        for &v in method.vars() {
            let var = program.var(v);
            let name = var.name();
            let simple =
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !name.is_empty();
            let unique = names.iter().filter(|&&n| n == name).count() == 1;
            if simple && unique && var.ty().is_reference() {
                out.push(format!("{qualified}.{name}"));
            }
        }
    }
    out
}

/// The serve-edit request script against `base` (the loaded program):
/// the load, then per delta a resolve and its queries.
pub fn serve_script(seed: u64, dir: &Path, base: &Program) -> Vec<Request> {
    let bench = &Workload::ServeEdit.programs()[0];
    let vars = queryable_vars(base);
    let mut state = mix(seed ^ 0x0051_e7ed);
    let mut script = vec![Request::Load(source_path(dir, bench))];
    for step in 0..RESOLVES {
        script.push(Request::Resolve(delta_path(dir, step)));
        for _ in 0..PT_QUERIES {
            state = mix(state);
            script.push(Request::PointsTo(
                vars[(state % vars.len() as u64) as usize].clone(),
            ));
        }
        script.push(Request::CallGraph);
        script.push(Request::Casts);
    }
    script
}

/// The delta chain: each delta is generated against the program the
/// previous ones produced, exactly as the daemon will hold it. A drawn
/// delta that does not apply (the generator can clone a primitive-field
/// access, which `apply` rejects) is re-drawn, so every resolve the
/// daemon receives is valid.
fn delta_chain(seed: u64, base: &Program) -> Vec<ProgramDelta> {
    let mut current = base.clone();
    let mut draw = mix(seed ^ 0xde17a);
    (0..RESOLVES)
        .map(|_| loop {
            draw = mix(draw);
            let cfg = DeltaGenConfig {
                seed: draw,
                actions: DELTA_ACTIONS,
                removals: true,
            };
            let delta = csc_workloads::generate_delta(&current, &cfg);
            if let Ok((next, _)) = delta.apply(&current) {
                current = next;
                break delta;
            }
        })
        .collect()
}

/// Writes the workload's inputs under `dir` and describes them.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> std::io::Result<Json> {
    std::fs::create_dir_all(dir)?;
    let mut programs = Vec::new();
    for bench in workload.programs() {
        let source = csc_workloads::generate(&program_config(&bench, seed));
        std::fs::write(source_path(dir, &bench), &source)?;
        programs.push(Json::obj([
            ("name", Json::str(bench.name)),
            (
                "file",
                Json::str(source_path(dir, &bench).to_string_lossy()),
            ),
            ("bytes", Json::int(source.len())),
        ]));
        if workload == Workload::ServeEdit {
            let base = csc_frontend::compile(&source).expect("generated program compiles");
            for (step, delta) in delta_chain(seed, &base).iter().enumerate() {
                std::fs::write(delta_path(dir, step), delta.to_bytes())?;
            }
            let lines: Vec<String> = serve_script(seed, dir, &base)
                .iter()
                .map(Request::line)
                .collect();
            std::fs::write(dir.join("script.jsonl"), lines.join("\n") + "\n")?;
        }
    }
    // The worker count `csc` resolves with no `--threads` on this machine.
    let threads = csc_core::SolverOptions::default()
        .with_threads(0)
        .resolved_threads();
    Ok(Json::obj([
        ("programs", Json::Arr(programs)),
        ("solver_threads", Json::int(threads)),
    ]))
}
