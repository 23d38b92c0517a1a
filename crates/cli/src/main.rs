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
//!
//! Output goes through a fallible writer: when the reader closes stdout
//! early (`csc bench hsqldb | head -1`), `csc` stops writing and exits
//! with status 0, without a message. `serve` does the same at its first
//! reply that finds the reader gone.
//!
//! `analyze` and `bench` exit right after their report, so they leave the
//! lowered program and the solver's outcome to the process exit instead
//! of dropping them (`std::mem::forget`): freeing a solved suite program
//! piece by piece costs time the exit does not. `serve` keeps dropping
//! what it replaces, since it runs on, and so does every library caller.

mod serve;

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

use csc_core::{
    resolve_analysis_opts, run_analysis_opts, Analysis, AnalysisOutcome, Budget, PrecisionMetrics,
    SolverOptions,
};
use csc_interp::{execute, InterpConfig};
use csc_ir::{ObjId, Program, VarId};

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

/// Solves `program` and writes the report of `csc analyze` and `csc bench`,
/// then forgets the outcome and the program: both commands exit next, and
/// the exit frees them sooner than dropping them would (about 10 ms per
/// suite program).
fn analyze(
    out: &mut impl Write,
    program: Program,
    analysis: Analysis,
    budget: Budget,
    pt_query: Option<&str>,
    metrics: bool,
) -> io::Result<ExitCode> {
    let label = analysis.label();
    let outcome = run_analysis_opts(&program, analysis, budget, SolverOptions::default());
    let code = report(out, &program, &outcome, label, pt_query, metrics);
    std::mem::forget(outcome);
    std::mem::forget(program);
    code
}

/// Writes `analyze`'s report of a solved `outcome`.
fn report(
    out: &mut impl Write,
    program: &Program,
    outcome: &AnalysisOutcome<'_>,
    label: &str,
    pt_query: Option<&str>,
    metrics: bool,
) -> io::Result<ExitCode> {
    if !outcome.completed() {
        writeln!(
            out,
            "{label}: budget exhausted after {:?}",
            outcome.total_time
        )?;
        return Ok(ExitCode::FAILURE);
    }
    writeln!(
        out,
        "{label}: completed in {:?} ({} reachable methods, {} call edges)",
        outcome.total_time,
        outcome.result.state.reachable_methods_projected().len(),
        outcome.result.state.call_edges_projected().len(),
    )?;
    if let Some(stats) = &outcome.csc {
        writeln!(
            out,
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
        )?;
    }
    if let Some(selected) = &outcome.selected {
        writeln!(out, "  Zipper-e selected {} methods", selected.len())?;
    }
    if metrics {
        print_metrics(out, &PrecisionMetrics::compute(&outcome.result))?;
    }
    if let Some(q) = pt_query {
        let pt = |v| outcome.result.state.pt_var_projected(v);
        match points_to(program, q, "--pt", pt) {
            Ok(pt) => writeln!(out, "  pt({q}) = {pt:#?}")?,
            Err(e) => {
                eprintln!("  {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The points-to query of `csc analyze --pt` and `csc serve`: finds the
/// variable a `Class.method.var` name denotes in `program` and renders the
/// objects `pt` gives for it as sorted `label (Class)` strings. On a name
/// that is malformed or names nothing, the error says why; `arg` names the
/// argument that held it.
fn points_to<I: IntoIterator<Item = ObjId>>(
    program: &Program,
    name: &str,
    arg: &str,
    pt: impl FnOnce(VarId) -> I,
) -> Result<Vec<String>, String> {
    let parts: Vec<&str> = name.split('.').collect();
    let [class, method, var] = parts[..] else {
        return Err(format!("{arg} expects Class.method.var"));
    };
    let m = program
        .method_by_qualified_name(&format!("{class}.{method}"))
        .ok_or_else(|| format!("unknown method {class}.{method}"))?;
    let v = program
        .method(m)
        .vars()
        .iter()
        .copied()
        .find(|&v| program.var(v).name() == var)
        .ok_or_else(|| format!("unknown variable {var} in {class}.{method}"))?;
    let mut objs: Vec<String> = pt(v)
        .into_iter()
        .map(|o| {
            let obj = program.obj(o);
            format!("{} ({})", obj.label(), program.class(obj.class()).name())
        })
        .collect();
    objs.sort();
    Ok(objs)
}

/// Prints one metrics line.
fn print_metrics(out: &mut impl Write, m: &PrecisionMetrics) -> io::Result<()> {
    writeln!(
        out,
        "  #fail-cast={} #reach-mtd={} #poly-call={} #call-edge={}",
        m.fail_casts, m.reach_methods, m.poly_calls, m.call_edges
    )
}

/// The `resolve` subcommand: apply a delta chain, re-solving incrementally
/// after each step.
#[allow(clippy::too_many_arguments)]
fn resolve_cmd(
    out: &mut impl Write,
    base: Program,
    analysis: Analysis,
    budget: Budget,
    metrics: bool,
    delta_files: &[String],
    gen_deltas: usize,
    seed: u64,
) -> io::Result<ExitCode> {
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
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
    } else {
        for path in delta_files {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            let delta = match csc_ir::ProgramDelta::from_bytes(&bytes) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return Ok(ExitCode::FAILURE);
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
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
    }
    let label = analysis.label().to_owned();
    // Solve the base once, then fold each delta incrementally.
    let mut outcome = run_analysis_opts(&programs[0], analysis.clone(), budget, opts);
    if !outcome.completed() {
        writeln!(
            out,
            "{label}: budget exhausted after {:?}",
            outcome.total_time
        )?;
        return Ok(ExitCode::FAILURE);
    }
    writeln!(
        out,
        "{label}: base solve completed in {:?}",
        outcome.total_time
    )?;
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
            writeln!(out, "{label}: budget exhausted at delta {i}")?;
            return Ok(ExitCode::FAILURE);
        }
        let stats = &outcome.result.state.stats;
        match stats.incr_fallback_reason {
            None => writeln!(
                out,
                "  delta {i}: incremental re-solve in {:.3}s (cone: {} pointers, {} call edges)",
                stats.resolve_secs, stats.incr_cone_ptrs, stats.incr_cone_call_edges
            )?,
            Some(r) => writeln!(
                out,
                "  delta {i}: full-solve fallback ({r}) in {:.3}s",
                stats.resolve_secs
            )?,
        }
    }
    let stats = &outcome.result.state.stats;
    writeln!(
        out,
        "{label}: final ({} reachable methods, {} call edges, {} propagations, \
         {} incremental re-solves, {} fallbacks)",
        outcome.result.state.reachable_methods_projected().len(),
        outcome.result.state.call_edges_projected().len(),
        stats.propagations,
        stats.incr_resolves - stats.incr_fallbacks,
        stats.incr_fallbacks,
    )?;
    if metrics {
        print_metrics(out, &PrecisionMetrics::compute(&outcome.result))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // The reader is gone (`csc … | head`): nothing left to say.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("csc: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the command `args` names, writing its report to `out`.
fn run(args: &[String], out: &mut impl Write) -> io::Result<ExitCode> {
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };

    // Flag parsing shared by `analyze` and `bench`.
    let mut name = "csc";
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
                let Some(v) = it.next() else {
                    return Ok(usage());
                };
                match Analysis::names().find(|n| n == v) {
                    Some(n) => name = n,
                    None => {
                        eprintln!("unknown analysis `{v}`");
                        return Ok(usage());
                    }
                }
            }
            "--budget" => {
                let Some(v) = it.next() else {
                    return Ok(usage());
                };
                match v.parse::<u64>() {
                    Ok(secs) => budget = Budget::with_time(Duration::from_secs(secs)),
                    Err(_) => return Ok(usage()),
                }
            }
            "--budget-ms" => {
                let Some(v) = it.next() else {
                    return Ok(usage());
                };
                match v.parse::<u64>() {
                    Ok(ms) => budget_ms = Some(ms),
                    Err(_) => return Ok(usage()),
                }
            }
            "--pt" => {
                let Some(v) = it.next() else {
                    return Ok(usage());
                };
                pt_query = Some(v.clone());
            }
            "--metrics" => metrics = true,
            "--delta" => {
                let Some(v) = it.next() else {
                    return Ok(usage());
                };
                delta_files.push(v.clone());
            }
            "--gen-deltas" => {
                let Some(v) = it.next() else {
                    return Ok(usage());
                };
                match v.parse::<usize>() {
                    Ok(n) => gen_deltas = n,
                    Err(_) => return Ok(usage()),
                }
            }
            "--seed" => {
                let Some(v) = it.next() else {
                    return Ok(usage());
                };
                match v.parse::<u64>() {
                    Ok(s) => seed = s,
                    Err(_) => return Ok(usage()),
                }
            }
            other => positional.push(other.to_owned()),
        }
    }
    let analysis = Analysis::from_name(name).expect("a listed name parses");

    match cmd.as_str() {
        "analyze" => {
            let Some(path) = positional.first() else {
                return Ok(usage());
            };
            match load(path) {
                Ok(program) => {
                    analyze(out, program, analysis, budget, pt_query.as_deref(), metrics)
                }
                Err(e) => {
                    eprintln!("{e}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "dump-ir" => {
            let Some(path) = positional.first() else {
                return Ok(usage());
            };
            match load(path) {
                Ok(program) => {
                    write!(out, "{}", program.display_program())?;
                    Ok(ExitCode::SUCCESS)
                }
                Err(e) => {
                    eprintln!("{e}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "run" => {
            let Some(path) = positional.first() else {
                return Ok(usage());
            };
            match load(path) {
                Ok(program) => {
                    match execute(&program, InterpConfig::default()) {
                        Ok(t) => writeln!(
                            out,
                            "executed: {} steps, {} allocations, {} reached methods, \
                             {} call edges, {} failed casts",
                            t.steps,
                            t.allocations,
                            t.reached_methods.len(),
                            t.call_edges.len(),
                            t.failed_casts
                        )?,
                        Err(e) => writeln!(out, "{e}")?,
                    }
                    Ok(ExitCode::SUCCESS)
                }
                Err(e) => {
                    eprintln!("{e}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "bench" => {
            let Some(bench) = positional.first() else {
                return Ok(usage());
            };
            match csc_workloads::by_name(bench) {
                Some(b) => analyze(
                    out,
                    b.compile(),
                    analysis,
                    budget,
                    pt_query.as_deref(),
                    metrics,
                ),
                None => {
                    eprintln!("unknown benchmark `{bench}` (try `csc suite`)");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "resolve" => {
            let Some(target) = positional.first() else {
                return Ok(usage());
            };
            if !delta_files.is_empty() && gen_deltas > 0 {
                eprintln!("--delta and --gen-deltas are mutually exclusive");
                return Ok(usage());
            }
            // A MiniJava file path, or a built-in benchmark name.
            let program = if std::path::Path::new(target).is_file() {
                match load(target) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("{e}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            } else {
                match csc_workloads::by_name(target) {
                    Some(b) => b.compile(),
                    None => {
                        eprintln!("`{target}` is neither a file nor a benchmark (try `csc suite`)");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            };
            resolve_cmd(
                out,
                program,
                analysis,
                budget,
                metrics,
                &delta_files,
                gen_deltas,
                seed,
            )
        }
        "serve" => Ok(serve::Server::new(name, budget_ms).run()),
        "suite" => {
            for b in csc_workloads::suite() {
                let program = b.compile();
                writeln!(
                    out,
                    "{:<11} {:>5} classes {:>6} methods {:>7} statements",
                    b.name,
                    program.classes().len(),
                    program.methods().len(),
                    program.stmt_count()
                )?;
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1, with `item1` and `item2` allocated on lines
    /// 10 and 14.
    const FIGURE1: &str = r#"class Carton {
    Item item;
    void setItem(Item item) { this.item = item; }
    Item getItem() { Item r; r = this.item; return r; }
}
class Item { }
class Main {
    static void main() {
        Carton c1 = new Carton();
        Item item1 = new Item();
        c1.setItem(item1);
        Item result1 = c1.getItem();
        Carton c2 = new Carton();
        Item item2 = new Item();
        c2.setItem(item2);
        Item result2 = c2.getItem();
    }
}
"#;

    /// What `csc analyze --pt` and `csc serve`'s points-to query answer,
    /// and the message for each way a name can fail.
    #[test]
    fn points_to_answers_or_says_why_not() {
        let program = csc_frontend::compile(FIGURE1).expect("compiles");
        let outcome = run_analysis_opts(
            &program,
            Analysis::Ci,
            Budget::unlimited(),
            SolverOptions::default(),
        );
        let query = |name: &str| {
            points_to(&program, name, "--pt", |v| {
                outcome.result.state.pt_var_projected(v)
            })
        };
        let items = vec!["Item@10 (Item)".to_owned(), "Item@14 (Item)".to_owned()];
        assert_eq!(query("Main.main.result1"), Ok(items.clone()));
        assert_eq!(query("Carton.getItem.r"), Ok(items));
        let shape = Err("--pt expects Class.method.var".to_owned());
        assert_eq!(query("Main.main"), shape);
        assert_eq!(query("a.b.c.d"), shape);
        assert_eq!(query("Main.nope.x"), Err("unknown method Main.nope".into()));
        assert_eq!(
            query("Main.main.zz"),
            Err("unknown variable zz in Main.main".into())
        );
    }
}
