//! The traced replay: the workload's inputs fed in-process through each
//! layer's public functions, in the order the `csc` CLI (batch workloads)
//! and `csc serve`'s handlers (serve-edit) call them, with a span around
//! each call. With `check`, it also runs the oracles, off the clock.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use csc_core::{
    decode_delta_guarded, resolve_analysis_guarded, run_analysis_guarded, run_analysis_opts,
    AnalysisOutcome, Budget, PrecisionMetrics, SolvedSummary, SolverOptions, SolverStats,
};
use csc_interp::{check_recall, execute, InterpConfig};
use csc_ir::{CallSiteId, MethodId, Program};

use crate::inputs::{serve_script, source_path, Request, Workload};
use crate::json::Json;
use crate::trace::Tracer;

/// The options `csc analyze` and `csc serve` build when no `--threads` or
/// `--engine` is given and the environment sets neither.
fn cli_options() -> SolverOptions {
    SolverOptions::default().with_threads(0)
}

fn metrics_json(m: &PrecisionMetrics) -> Json {
    Json::obj([
        ("fail_casts", Json::int(m.fail_casts)),
        ("reach_methods", Json::int(m.reach_methods)),
        ("poly_calls", Json::int(m.poly_calls)),
        ("call_edges", Json::int(m.call_edges)),
    ])
}

fn stats_json(s: &SolverStats) -> Json {
    Json::obj([
        ("threads", Json::Int(s.threads)),
        ("propagations", Json::Int(s.propagations)),
        ("pfg_edges", Json::Int(s.edges)),
        ("pointers", Json::Int(s.pointers)),
        ("scc_runs", Json::Int(s.scc_runs)),
        ("ptrs_collapsed", Json::Int(s.ptrs_collapsed)),
        ("pts_bytes", Json::Int(s.pts_bytes)),
        ("edge_bytes", Json::Int(s.edge_bytes)),
        ("coordinator_ms", Json::Num(s.coordinator_secs * 1e3)),
        ("parallel_ms", Json::Num(s.parallel_secs * 1e3)),
    ])
}

fn csc_json(outcome: &AnalysisOutcome<'_>) -> Json {
    outcome.csc.as_ref().map_or(Json::Null, |c| {
        Json::obj([
            ("shortcut_edges", Json::Int(c.shortcut_edges())),
            (
                "cut_sites",
                Json::int(c.cut_store_sites + c.cut_return_methods),
            ),
            ("involved_methods", Json::int(c.involved_methods.len())),
        ])
    })
}

/// Batch workloads: per program, what `csc analyze <file> --analysis A
/// --metrics` does, from reading the file to dropping the outcome.
pub fn batch(workload: Workload, dir: &Path, check: bool, t: &mut Tracer) -> Result<Json, String> {
    let mut rows = Vec::new();
    let mut answers = Vec::new();
    for (i, bench) in workload.programs().iter().enumerate() {
        let req = i as u64;
        let path = source_path(dir, bench);
        let row = t.span("cli.analyze", req, |t| -> Result<_, String> {
            let src = t
                .span("frontend.read", req, |_| std::fs::read_to_string(&path))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let ast = t
                .span("frontend.parse", req, |_| csc_frontend::parse(&src))
                .map_err(|e| e.to_string())?;
            // `csc_frontend::compile` drops the AST, and the CLI the source,
            // as soon as lowering returns.
            let program = t
                .span("frontend.lower", req, |_| {
                    let program = csc_frontend::lower(&ast);
                    drop((ast, src));
                    program
                })
                .map_err(|e| e.to_string())?;
            let stmts = program.stmt_count();
            let outcome = t.span("solver.solve", req, |_| {
                run_analysis_opts(
                    &program,
                    workload.analysis(),
                    Budget::unlimited(),
                    cli_options(),
                )
            });
            if !outcome.completed() {
                return Err(format!("{}: analysis did not complete", bench.name));
            }
            let state = &outcome.result.state;
            let (reachable, edges) = t.span("cli.report", req, |_| {
                (
                    state.reachable_methods_projected(),
                    state.call_edges_projected(),
                )
            });
            let metrics = t.span("clients.metrics", req, |_| {
                PrecisionMetrics::compute(&outcome.result)
            });
            let row = Vec::from([
                ("name", Json::str(bench.name)),
                ("stmts", Json::int(stmts)),
                ("reachable", Json::int(reachable.len())),
                ("call_edges", Json::int(edges.len())),
                ("metrics", metrics_json(&metrics)),
                ("stats", stats_json(&state.stats)),
                ("csc", csc_json(&outcome)),
            ]);
            // The outcome borrows the program, so each drops in its own span.
            t.span("cli.drop", req, |_| drop(outcome));
            t.span("cli.drop", req, |_| drop(program));
            Ok((row, reachable, edges))
        })?;
        let (row, reachable, edges) = row;
        rows.push(row);
        answers.push((path, reachable, edges));
    }
    let coverage = if check {
        coverage_all(&answers)?
    } else {
        answers.iter().map(|_| Json::Null).collect()
    };
    let rows = rows
        .into_iter()
        .zip(coverage)
        .map(|(mut row, cov)| {
            row.push(("coverage", cov));
            Json::Obj(row)
        })
        .collect();
    Ok(Json::obj([("programs", Json::Arr(rows))]))
}

type Answer = (
    PathBuf,
    BTreeSet<MethodId>,
    BTreeSet<(CallSiteId, MethodId)>,
);

/// [`coverage`] for every program, spread over the cores: the interpreter
/// is the slowest part of the oracle, and it runs off the clock.
fn coverage_all(answers: &[Answer]) -> Result<Vec<Json>, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                s.spawn(move || {
                    answers
                        .iter()
                        .enumerate()
                        .skip(k)
                        .step_by(workers)
                        .map(|(i, (path, reachable, edges))| (i, coverage(path, reachable, edges)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut out: Vec<Option<Result<Json, String>>> = answers.iter().map(|_| None).collect();
        for handle in handles {
            for (i, cov) in handle.join().expect("coverage worker panicked") {
                out[i] = Some(cov);
            }
        }
        out.into_iter()
            .map(|cov| cov.expect("every program is checked"))
            .collect()
    })
}

/// The solver-independent oracle: every method and call edge a concrete
/// execution reaches must be in the static result.
fn coverage(
    path: &Path,
    reachable: &BTreeSet<MethodId>,
    edges: &BTreeSet<(CallSiteId, MethodId)>,
) -> Result<Json, String> {
    let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let program = csc_frontend::compile(&src).map_err(|e| e.to_string())?;
    let trace = execute(&program, InterpConfig::default()).map_err(|e| e.to_string())?;
    let report = check_recall(&trace, reachable, edges);
    Ok(Json::obj([
        ("dynamic_methods", Json::int(report.dynamic_methods)),
        ("dynamic_edges", Json::int(report.dynamic_edges)),
        ("missed_methods", Json::int(report.missed_methods.len())),
        ("missed_edges", Json::int(report.missed_edges.len())),
    ]))
}

/// The reply fields `csc serve` sends for a query, answered from `snap`.
fn query_reply(program: &Program, snap: &SolvedSummary, req: &Request) -> Json {
    let ok = [("ok", Json::Bool(true)), ("degraded", Json::Bool(false))];
    let mut fields: Vec<(&'static str, Json)> = ok.into();
    match req {
        Request::PointsTo(q) => {
            let (qualified, var) = q.rsplit_once('.').expect("Class.method.var");
            let m = program
                .method_by_qualified_name(qualified)
                .expect("script names existing methods");
            let v = program
                .method(m)
                .vars()
                .iter()
                .copied()
                .find(|&v| program.var(v).name() == var)
                .expect("script names existing variables");
            let mut objs: Vec<String> = snap.pts[v.index()]
                .iter()
                .map(|&o| {
                    let obj = program.obj(o);
                    format!("{} ({})", obj.label(), program.class(obj.class()).name())
                })
                .collect();
            objs.sort();
            fields.push(("var", Json::str(q.as_str())));
            fields.push((
                "objects",
                Json::Arr(objs.into_iter().map(Json::Str).collect()),
            ));
        }
        Request::CallGraph => {
            fields.push(("reachable", Json::int(snap.reachable.len())));
            fields.push(("edges", Json::int(snap.call_edges.len())));
        }
        Request::Casts => {
            fields.push(("fail_casts", Json::int(snap.metrics.fail_casts)));
            fields.push(("poly_calls", Json::int(snap.metrics.poly_calls)));
        }
        Request::Load(_) | Request::Resolve(_) => unreachable!("not a query"),
    }
    Json::Obj(fields)
}

/// serve-edit: the request script through the calls `csc serve`'s `load`,
/// `resolve` and `query` handlers make, in their order. With `check`, the
/// final state is compared with a from-scratch solve of the final program.
pub fn serve(seed: u64, dir: &Path, check: bool, t: &mut Tracer) -> Result<Json, String> {
    let analysis = Workload::ServeEdit.analysis();
    let opts = cli_options();
    let bench = &Workload::ServeEdit.programs()[0];
    let path = source_path(dir, bench);
    let (mut program, mut outcome, mut snap) = t.span("serve.load", 0, |t| {
        let src = t
            .span("frontend.read", 0, |_| std::fs::read_to_string(&path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let ast = t
            .span("frontend.parse", 0, |_| csc_frontend::parse(&src))
            .map_err(|e| e.to_string())?;
        let program = t
            .span("frontend.lower", 0, |_| {
                let program = csc_frontend::lower(&ast);
                drop((ast, src));
                program
            })
            .map_err(|e| e.to_string())?;
        // The daemon interns every program it holds for the session's
        // lifetime; so does the replay.
        let program: &'static Program = Box::leak(Box::new(program));
        let outcome = t
            .span("solver.solve", 0, |_| {
                run_analysis_guarded(program, analysis.clone(), Budget::unlimited(), opts)
            })
            .map_err(|e| e.to_string())?;
        if !outcome.completed() {
            return Err("load did not complete".to_owned());
        }
        let snap = t.span("results.capture", 0, |_| {
            SolvedSummary::capture(program, &outcome.result)
        });
        Ok::<_, String>((program, outcome, snap))
    })?;
    let load = Json::obj([
        ("stmts", Json::int(program.stmt_count())),
        ("stats", stats_json(&outcome.result.state.stats)),
    ]);
    let mut replies = vec![Json::obj([
        ("ok", Json::Bool(true)),
        ("analysis", Json::str(outcome.result.analysis.as_str())),
        ("reachable", Json::int(snap.reachable.len())),
        ("call_edges", Json::int(snap.call_edges.len())),
        ("degraded", Json::Bool(false)),
    ])];
    let mut resolves = Vec::new();
    let script = serve_script(seed, dir, program);
    for (i, req) in script.iter().enumerate().skip(1) {
        let id = i as u64;
        let Request::Resolve(delta_file) = req else {
            let reply = t.span("serve.query", id, |t| {
                t.span("results.query", id, |_| query_reply(program, &snap, req))
            });
            replies.push(reply);
            continue;
        };
        let before = outcome.result.state.stats.propagations;
        let (patched, next) = t.span("serve.resolve", id, |t| {
            let bytes = t
                .span("delta.read", id, |_| std::fs::read(delta_file))
                .map_err(|e| format!("{}: {e}", delta_file.display()))?;
            let delta = t.span("delta.decode", id, |_| decode_delta_guarded(&bytes))?;
            let (patched, fx) = t
                .span("delta.apply", id, |_| delta.apply(program))
                .map_err(|e| e.to_string())?;
            let patched: &'static Program = Box::leak(Box::new(patched));
            let next = t
                .span("incr.resolve", id, |_| {
                    resolve_analysis_guarded(
                        outcome,
                        patched,
                        &fx,
                        analysis.clone(),
                        Budget::unlimited(),
                        opts,
                    )
                })
                .map_err(|e| e.to_string())?;
            if !next.completed() {
                return Err(format!("resolve {i} did not complete"));
            }
            t.span("results.capture", id, |_| {
                snap = SolvedSummary::capture(patched, &next.result);
            });
            Ok::<_, String>((patched, next))
        })?;
        program = patched;
        outcome = next;
        let stats = &outcome.result.state.stats;
        let (mode, propagations) = match stats.incr_fallback_reason {
            None => (
                "incremental".to_owned(),
                stats.propagations.saturating_sub(before),
            ),
            Some(r) => (format!("fallback:{r}"), stats.propagations),
        };
        resolves.push(Json::obj([
            ("req", Json::Int(id)),
            ("mode", Json::str(mode.as_str())),
            ("propagations", Json::Int(propagations)),
        ]));
        replies.push(Json::obj([
            ("ok", Json::Bool(true)),
            ("degraded", Json::Bool(false)),
            ("resolve", Json::Str(mode)),
            ("reachable", Json::int(snap.reachable.len())),
            ("call_edges", Json::int(snap.call_edges.len())),
        ]));
    }
    let final_check = if check {
        let fresh = run_analysis_opts(program, analysis, Budget::unlimited(), opts);
        let fresh = SolvedSummary::capture(program, &fresh.result);
        let same = fresh.pts == snap.pts
            && fresh.reachable == snap.reachable
            && fresh.call_edges == snap.call_edges
            && fresh.metrics == snap.metrics;
        Json::Bool(same)
    } else {
        Json::Null
    };
    Ok(Json::obj([
        ("load", load),
        ("replies", Json::Arr(replies)),
        ("resolves", Json::Arr(resolves)),
        ("final_matches_scratch", final_check),
    ]))
}
