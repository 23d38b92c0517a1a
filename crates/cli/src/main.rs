//! `csc` — command-line driver for the cut-shortcut pointer analysis.
//!
//! ```text
//! csc analyze <file.mj> [--analysis ci|2obj|2type|2cs|zipper|csc|csc-doop|csc-hybrid]
//!                       [--budget <secs>] [--pt <Class.method.var>] [--metrics]
//! csc dump-ir <file.mj>
//! csc run     <file.mj>            # concrete execution + trace summary
//! csc bench   <name>               # analyze a built-in suite benchmark
//! csc suite                        # list built-in benchmarks
//! csc resolve <file.mj|name>       # incremental re-solve across deltas
//!             [--delta <d.bin>]... [--gen-deltas <n>] [--seed <s>]
//!             [--analysis ...] [--metrics]
//! csc serve   [--analysis ...] [--budget-ms <ms>]
//!                                  # resident line-delimited JSON daemon
//! ```
//!
//! `resolve` applies a sequence of program deltas (binary
//! [`csc_ir::ProgramDelta`] files via repeated `--delta`, or `--gen-deltas
//! <n>` seeded synthetic edits) and re-solves incrementally after each,
//! printing each localized step's removal cone (pointers and call edges),
//! or falling back to a full solve — with the reason printed — when a
//! delta breaks the incremental preconditions.
//!
//! Every command solves on one thread: the solver is sequential.
//!
//! `serve` starts the resident analysis daemon: a long-lived loop over a
//! line-delimited JSON protocol on stdin/stdout with per-request budgets,
//! request-scoped panic isolation, and graceful degradation to the
//! last-good snapshot. See [`serve`] for the protocol.

mod serve;

use std::process::ExitCode;
use std::time::Duration;

use csc_core::{
    resolve_analysis_opts, run_analysis_opts, Analysis, Budget, PrecisionMetrics, SolverOptions,
};
use csc_interp::{execute, InterpConfig};
use csc_ir::Program;

fn usage() -> ExitCode {
    let names = Analysis::names().collect::<Vec<_>>().join("|");
    eprintln!(
        "usage:\n  csc analyze <file.mj> [--analysis {names}] \
         [--budget <secs>] [--pt <Class.method.var>] [--metrics]\n  csc dump-ir <file.mj>\n  \
         csc run <file.mj>\n  csc bench <name> [--analysis ...]\n  csc suite\n  \
         csc resolve <file.mj|name> [--delta <d.bin>]... [--gen-deltas <n>] [--seed <s>] \
         [--analysis ...] [--metrics]\n  \
         csc serve [--analysis ...] [--budget-ms <ms>]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    csc_frontend::compile(&src).map_err(|e| format!("{path}:{e}"))
}

fn analyze(
    program: &Program,
    analysis: Analysis,
    budget: Budget,
    pt_query: Option<&str>,
    metrics: bool,
) -> ExitCode {
    let label = analysis.label().to_owned();
    let outcome = run_analysis_opts(program, analysis, budget, SolverOptions::default());
    if !outcome.completed() {
        println!("{label}: budget exhausted after {:?}", outcome.total_time);
        return ExitCode::FAILURE;
    }
    println!(
        "{label}: completed in {:?} ({} reachable methods, {} call edges)",
        outcome.total_time,
        outcome.result.state.reachable_methods_projected().len(),
        outcome.result.state.call_edges_projected().len(),
    );
    if let Some(stats) = &outcome.csc {
        println!(
            "  cut: {} store sites, {} returns; shortcuts: {} ({} store, {} load, {} relay, \
             {} container, {} local-flow); involved methods: {}",
            stats.cut_store_sites,
            stats.cut_return_methods,
            stats.shortcut_edges(),
            stats.shortcut_store_edges,
            stats.shortcut_load_edges,
            stats.relay_edges,
            stats.container_edges,
            stats.local_flow_edges,
            stats.involved_methods.len()
        );
    }
    if let Some(selected) = &outcome.selected {
        println!("  Zipper-e selected {} methods", selected.len());
    }
    if metrics {
        let m = PrecisionMetrics::compute(&outcome.result);
        println!(
            "  #fail-cast={} #reach-mtd={} #poly-call={} #call-edge={}",
            m.fail_casts, m.reach_methods, m.poly_calls, m.call_edges
        );
    }
    if let Some(q) = pt_query {
        let parts: Vec<&str> = q.split('.').collect();
        let [class, method, var] = parts[..] else {
            eprintln!("  --pt expects Class.method.var");
            return ExitCode::FAILURE;
        };
        let Some(m) = program.method_by_qualified_name(&format!("{class}.{method}")) else {
            eprintln!("  unknown method {class}.{method}");
            return ExitCode::FAILURE;
        };
        let Some(v) = program
            .method(m)
            .vars()
            .iter()
            .copied()
            .find(|&v| program.var(v).name() == var)
        else {
            eprintln!("  unknown variable {var} in {class}.{method}");
            return ExitCode::FAILURE;
        };
        let mut pt: Vec<String> = outcome
            .result
            .state
            .pt_var_projected(v)
            .into_iter()
            .map(|o| {
                format!(
                    "{} ({})",
                    program.obj(o).label(),
                    program.class(program.obj(o).class()).name()
                )
            })
            .collect();
        pt.sort();
        println!("  pt({q}) = {pt:#?}");
    }
    ExitCode::SUCCESS
}

/// Prints one metrics line.
fn print_metrics(m: &PrecisionMetrics) {
    println!(
        "  #fail-cast={} #reach-mtd={} #poly-call={} #call-edge={}",
        m.fail_casts, m.reach_methods, m.poly_calls, m.call_edges
    );
}

/// The `resolve` subcommand: apply a delta chain, re-solving incrementally
/// after each step.
fn resolve_cmd(
    base: Program,
    analysis: Analysis,
    budget: Budget,
    metrics: bool,
    delta_files: &[String],
    gen_deltas: usize,
    seed: u64,
) -> ExitCode {
    let opts = SolverOptions::default();
    // Build the whole chain of patched programs up front; a delta that
    // does not apply should fail before any solving starts.
    let mut programs: Vec<Program> = vec![base];
    let mut effects: Vec<csc_ir::DeltaEffects> = Vec::new();
    if gen_deltas > 0 {
        for step in 0..gen_deltas {
            let cfg = csc_workloads::DeltaGenConfig {
                seed: seed.wrapping_add(step as u64),
                actions: 8,
                removals: true,
            };
            let current = programs.last().expect("chain starts non-empty");
            let delta = csc_workloads::generate_delta(current, &cfg);
            match delta.apply(current) {
                Ok((p, fx)) => {
                    programs.push(p);
                    effects.push(fx);
                }
                Err(e) => {
                    eprintln!("generated delta {step} failed to apply: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        for path in delta_files {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let delta = match csc_ir::ProgramDelta::from_bytes(&bytes) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let current = programs.last().expect("chain starts non-empty");
            match delta.apply(current) {
                Ok((p, fx)) => {
                    programs.push(p);
                    effects.push(fx);
                }
                Err(e) => {
                    eprintln!("{path}: delta does not apply: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let label = analysis.label().to_owned();
    // Solve the base once, then fold each delta incrementally.
    let mut outcome = run_analysis_opts(&programs[0], analysis.clone(), budget, opts);
    if !outcome.completed() {
        println!("{label}: budget exhausted after {:?}", outcome.total_time);
        return ExitCode::FAILURE;
    }
    println!("{label}: base solve completed in {:?}", outcome.total_time);
    for (i, fx) in effects.iter().enumerate() {
        outcome = resolve_analysis_opts(
            outcome,
            &programs[i + 1],
            fx,
            analysis.clone(),
            budget,
            opts,
        );
        if !outcome.completed() {
            println!("{label}: budget exhausted at delta {i}");
            return ExitCode::FAILURE;
        }
        let stats = &outcome.result.state.stats;
        match stats.incr_fallback_reason {
            None => println!(
                "  delta {i}: incremental re-solve in {:.3}s (cone: {} pointers, {} call edges)",
                stats.resolve_secs, stats.incr_cone_ptrs, stats.incr_cone_call_edges
            ),
            Some(r) => println!(
                "  delta {i}: full-solve fallback ({r}) in {:.3}s",
                stats.resolve_secs
            ),
        }
    }
    let stats = &outcome.result.state.stats;
    println!(
        "{label}: final ({} reachable methods, {} call edges, {} propagations, \
         {} incremental re-solves, {} fallbacks)",
        outcome.result.state.reachable_methods_projected().len(),
        outcome.result.state.call_edges_projected().len(),
        stats.propagations,
        stats.incr_resolves,
        stats.incr_fallbacks,
    );
    if metrics {
        print_metrics(&PrecisionMetrics::compute(&outcome.result));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };

    // Flag parsing shared by `analyze` and `bench`.
    let mut analysis = Analysis::CutShortcut;
    let mut budget = Budget::unlimited();
    let mut pt_query: Option<String> = None;
    // Default per-request wall-clock budget for `serve` (milliseconds).
    let mut budget_ms: Option<u64> = None;
    let mut metrics = false;
    let mut delta_files: Vec<String> = Vec::new();
    let mut gen_deltas: usize = 0;
    let mut seed: u64 = 1;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--analysis" => {
                let Some(v) = it.next() else { return usage() };
                match Analysis::from_name(v) {
                    Some(a) => analysis = a,
                    None => {
                        eprintln!("unknown analysis `{v}`");
                        return usage();
                    }
                }
            }
            "--budget" => {
                let Some(v) = it.next() else { return usage() };
                match v.parse::<u64>() {
                    Ok(secs) => budget = Budget::with_time(Duration::from_secs(secs)),
                    Err(_) => return usage(),
                }
            }
            "--budget-ms" => {
                let Some(v) = it.next() else { return usage() };
                match v.parse::<u64>() {
                    Ok(ms) => budget_ms = Some(ms),
                    Err(_) => return usage(),
                }
            }
            "--pt" => {
                let Some(v) = it.next() else { return usage() };
                pt_query = Some(v.clone());
            }
            "--metrics" => metrics = true,
            "--delta" => {
                let Some(v) = it.next() else { return usage() };
                delta_files.push(v.clone());
            }
            "--gen-deltas" => {
                let Some(v) = it.next() else { return usage() };
                match v.parse::<usize>() {
                    Ok(n) => gen_deltas = n,
                    Err(_) => return usage(),
                }
            }
            "--seed" => {
                let Some(v) = it.next() else { return usage() };
                match v.parse::<u64>() {
                    Ok(s) => seed = s,
                    Err(_) => return usage(),
                }
            }
            other => positional.push(other.to_owned()),
        }
    }

    match cmd.as_str() {
        "analyze" => {
            let Some(path) = positional.first() else {
                return usage();
            };
            match load(path) {
                Ok(program) => analyze(&program, analysis, budget, pt_query.as_deref(), metrics),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "dump-ir" => {
            let Some(path) = positional.first() else {
                return usage();
            };
            match load(path) {
                Ok(program) => {
                    print!("{}", program.display_program());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let Some(path) = positional.first() else {
                return usage();
            };
            match load(path) {
                Ok(program) => {
                    match execute(&program, InterpConfig::default()) {
                        Ok(t) => println!(
                            "executed: {} steps, {} allocations, {} reached methods, \
                             {} call edges, {} failed casts",
                            t.steps,
                            t.allocations,
                            t.reached_methods.len(),
                            t.call_edges.len(),
                            t.failed_casts
                        ),
                        Err(e) => println!("{e}"),
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "bench" => {
            let Some(name) = positional.first() else {
                return usage();
            };
            match csc_workloads::by_name(name) {
                Some(b) => {
                    let program = b.compile();
                    analyze(&program, analysis, budget, pt_query.as_deref(), metrics)
                }
                None => {
                    eprintln!("unknown benchmark `{name}` (try `csc suite`)");
                    ExitCode::FAILURE
                }
            }
        }
        "resolve" => {
            let Some(target) = positional.first() else {
                return usage();
            };
            if !delta_files.is_empty() && gen_deltas > 0 {
                eprintln!("--delta and --gen-deltas are mutually exclusive");
                return usage();
            }
            // A MiniJava file path, or a built-in benchmark name.
            let program = if std::path::Path::new(target).is_file() {
                match load(target) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                match csc_workloads::by_name(target) {
                    Some(b) => b.compile(),
                    None => {
                        eprintln!("`{target}` is neither a file nor a benchmark (try `csc suite`)");
                        return ExitCode::FAILURE;
                    }
                }
            };
            resolve_cmd(
                program,
                analysis,
                budget,
                metrics,
                &delta_files,
                gen_deltas,
                seed,
            )
        }
        "serve" => serve::Server::new(analysis, budget_ms).run(),
        "suite" => {
            for b in csc_workloads::suite() {
                let program = b.compile();
                println!(
                    "{:<11} {:>5} classes {:>6} methods {:>7} statements",
                    b.name,
                    program.classes().len(),
                    program.methods().len(),
                    program.stmt_count()
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
