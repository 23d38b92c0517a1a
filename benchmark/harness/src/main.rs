//! `csc-bench-harness` — the in-process half of the end-to-end benchmark
//! (`benchmark/run.py` drives it).
//!
//! ```text
//! csc-bench-harness gen    <workload> <seed> <dir>            # write the inputs
//! csc-bench-harness replay <workload> <seed> <dir> [--check]  # traced replay
//! ```
//!
//! Workloads: `suite-csc`, `freecol-2obj`, `serve-edit`. Each command
//! prints one JSON document on stdout; `replay` includes its spans and,
//! with `--check`, the oracle results.

mod inputs;
mod json;
mod replay;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Workload;
use json::Json;
use trace::Tracer;

fn usage() -> ExitCode {
    eprintln!(
        "usage: csc-bench-harness gen|replay <suite-csc|freecol-2obj|serve-edit> <seed> <dir> \
         [--check]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [cmd, workload, seed, dir, rest @ ..] = &args[..] else {
        return usage();
    };
    let (Some(workload), Ok(seed)) = (Workload::parse(workload), seed.parse::<u64>()) else {
        return usage();
    };
    let dir = PathBuf::from(dir);
    let check = rest.iter().any(|a| a == "--check");
    let result = match cmd.as_str() {
        "gen" => inputs::generate(workload, seed, &dir).map_err(|e| e.to_string()),
        "replay" => {
            let mut tracer = Tracer::new();
            let replay = match workload {
                Workload::ServeEdit => replay::serve(seed, &dir, check, &mut tracer),
                _ => replay::batch(workload, &dir, check, &mut tracer),
            };
            replay.map(|r| Json::obj([("result", r), ("spans", tracer.to_json())]))
        }
        _ => return usage(),
    };
    match result {
        Ok(doc) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("csc-bench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}
