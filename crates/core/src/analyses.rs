//! High-level analysis driver: one entry point for every analysis of the
//! paper's evaluation matrix.
//!
//! A full run and an incremental resolve share one pipeline: a full run
//! ([`run_analysis_opts`]) is a resolve ([`resolve_analysis_opts`]) without
//! a base outcome. Each analysis is written once, and each of its solves
//! takes one step that solves afresh without a base and, with one, tries
//! [`Solver::resolve`] and solves afresh when that declines.
//! [`AnalysisOutcome::total_time`] is timed from the call's entry to its
//! return either way.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use csc_ir::{DeltaEffects, MethodId, Program};

use crate::context::{
    CallSiteSelector, CiSelector, ContextSelector, ObjSelector, SelectiveSelector, TypeSelector,
};
use crate::csc::{CscConfig, CscStats, CutShortcut};
use crate::solver::incr::Resolved;
use crate::solver::{
    Budget, FallbackReason, NoPlugin, Plugin, PtaResult, SolveError, Solver, SolverOptions,
    SolverStats,
};
use crate::zipper::ZipperE;

/// The analyses compared in the paper's evaluation (§5).
#[derive(Clone, Debug)]
pub enum Analysis {
    /// Context insensitivity — the fastest baseline.
    Ci,
    /// Conventional `k`-object sensitivity (`KObj(2)` is the paper's 2obj).
    KObj(usize),
    /// Conventional `k`-type sensitivity (`KType(2)` is the paper's 2type).
    KType(usize),
    /// Conventional `k`-call-site sensitivity.
    KCallSite(usize),
    /// Zipper-e selective object sensitivity (pre-analysis + selection +
    /// selective main analysis).
    ZipperE,
    /// Cut-Shortcut with all three patterns (the paper's contribution).
    CutShortcut,
    /// Cut-Shortcut with an explicit pattern configuration (ablations,
    /// Doop mode).
    CutShortcutWith(CscConfig),
    /// The §3.4 combination the paper sketches as future work: the
    /// Cut-Shortcut plugin plus selective object sensitivity applied only
    /// to precision-critical methods that no pattern covers.
    CscHybrid,
}

/// Every analysis the `csc` CLI and `csc serve` accept, by name, in the
/// order of the evaluation matrix. [`Analysis::from_name`] and
/// [`Analysis::names`] both read this one table, so an analysis added here
/// is accepted everywhere and lands in the golden suite gate
/// (`crates/core/tests/golden.rs`) at once.
const BY_NAME: [(&str, MakeAnalysis); 8] = [
    ("ci", || Analysis::Ci),
    ("2obj", || Analysis::KObj(2)),
    ("2type", || Analysis::KType(2)),
    ("2cs", || Analysis::KCallSite(2)),
    ("zipper", || Analysis::ZipperE),
    ("csc", || Analysis::CutShortcut),
    ("csc-doop", || Analysis::CutShortcutWith(CscConfig::doop())),
    ("csc-hybrid", || Analysis::CscHybrid),
];

/// Builds the analysis a [`BY_NAME`] entry names.
type MakeAnalysis = fn() -> Analysis;

impl Analysis {
    /// The analysis a CLI name (`ci`, `2obj`, …, `csc-hybrid`) selects, or
    /// `None` for a name [`Analysis::names`] does not list.
    pub fn from_name(name: &str) -> Option<Analysis> {
        BY_NAME
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, make)| make())
    }

    /// The CLI names [`Analysis::from_name`] accepts, in matrix order.
    pub fn names() -> impl Iterator<Item = &'static str> {
        BY_NAME.iter().map(|(n, _)| *n)
    }

    /// The short name used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Analysis::Ci => "CI",
            Analysis::KObj(2) => "2obj",
            Analysis::KObj(_) => "kobj",
            Analysis::KType(2) => "2type",
            Analysis::KType(_) => "ktype",
            Analysis::KCallSite(2) => "2cs",
            Analysis::KCallSite(_) => "kcs",
            Analysis::ZipperE => "Zipper-e",
            // The paper's Doop configuration, as `CscConfig::doop()` sets it.
            Analysis::CutShortcutWith(CscConfig {
                field_store: true,
                field_load: false,
                container: true,
                local_flow: true,
                ..
            }) => "CSC-doop",
            Analysis::CutShortcut | Analysis::CutShortcutWith(_) => "CSC",
            Analysis::CscHybrid => "CSC+sel",
        }
    }
}

/// Everything produced by [`run_analysis`].
pub struct AnalysisOutcome<'p> {
    /// The main analysis result.
    pub result: PtaResult<'p>,
    /// Total wall-clock time of the [`run_analysis_opts`] or
    /// [`resolve_analysis_opts`] call, from entry to return: Zipper-e's
    /// pre-analysis and selection, the Cut-Shortcut plugin's static
    /// pre-pass and solver set-up included.
    pub total_time: Duration,
    /// Pre-analysis time (Zipper-e only).
    pub pre_time: Option<Duration>,
    /// Cut-Shortcut statistics (CSC only).
    pub csc: Option<CscStats>,
    /// Selected method set (Zipper-e only).
    pub selected: Option<HashSet<MethodId>>,
    /// The plugin instance the main solve returned (CSC analyses only),
    /// retained so [`resolve_analysis`] can rebase it across a delta.
    plugin: Option<CutShortcut>,
    /// The CI pre-analysis result (Zipper-e and hybrid only), retained so
    /// [`resolve_analysis`] can extend the pre-analysis incrementally too.
    pre_result: Option<PtaResult<'p>>,
}

impl<'p> AnalysisOutcome<'p> {
    /// Whether the analysis ran to completion within its budget.
    pub fn completed(&self) -> bool {
        self.result.status == crate::solver::SolveStatus::Completed
    }

    /// An outcome of `result` alone.
    fn of(result: PtaResult<'p>) -> Self {
        AnalysisOutcome {
            result,
            total_time: Duration::ZERO,
            pre_time: None,
            csc: None,
            selected: None,
            plugin: None,
            pre_result: None,
        }
    }

    /// Keeps the Cut-Shortcut plugin the main solve returned, with its
    /// statistics, and names the result `analysis`.
    fn with_plugin(mut self, analysis: &str, plugin: CutShortcut) -> Self {
        self.result.analysis = analysis.to_owned();
        self.csc = Some(plugin.stats().clone());
        self.plugin = Some(plugin);
        self
    }
}

/// Runs one analysis on a program under a budget (the paper uses 2 hours;
/// benchmarks here use seconds). For Zipper-e the budget covers pre and main
/// analysis together, as in the paper. Uses the default [`SolverOptions`]
/// (SCC-collapsed propagation enabled).
pub fn run_analysis<'p>(
    program: &'p Program,
    analysis: Analysis,
    budget: Budget,
) -> AnalysisOutcome<'p> {
    run_analysis_opts(program, analysis, budget, SolverOptions::default())
}

/// [`run_analysis`] with explicit engine options. Every solver the analysis
/// spawns (including Zipper-e's and the hybrid's pre-analysis) runs under
/// the same options, so a differential comparison toggling
/// [`SolverOptions::collapse_sccs`] covers the whole pipeline.
pub fn run_analysis_opts<'p>(
    program: &'p Program,
    analysis: Analysis,
    budget: Budget,
    opts: SolverOptions,
) -> AnalysisOutcome<'p> {
    pipeline(program, None, analysis, budget, opts)
}

/// [`resolve_analysis_opts`] with default [`SolverOptions`].
pub fn resolve_analysis<'p>(
    prev: AnalysisOutcome<'_>,
    patched: &'p Program,
    fx: &DeltaEffects,
    analysis: Analysis,
    budget: Budget,
) -> AnalysisOutcome<'p> {
    resolve_analysis_opts(
        prev,
        patched,
        fx,
        analysis,
        budget,
        SolverOptions::default(),
    )
}

/// Incrementally re-runs `analysis` on a delta-patched program on top of a
/// previous [`run_analysis_opts`] outcome.
///
/// `patched` and `fx` must come from [`csc_ir::ProgramDelta::apply`] on the
/// program `prev` was solved against, and `analysis`/`opts` must match the
/// base run. When the delta's preconditions hold the solver re-propagates
/// only from the affected pointers ([`crate::solver::incr`]); otherwise it
/// transparently falls back to a full solve of `patched` and records the
/// reason in [`SolverStats::incr_fallback_reason`]. Either way, the
/// outcome's projections are bit-identical to running the analysis on
/// `patched` from scratch.
///
/// Two-phase analyses (Zipper-e, the hybrid) extend the CI pre-analysis
/// incrementally too, recompute the selection on the patched program, and
/// fall back with [`FallbackReason::PreanalysisChanged`] when the selected
/// method set shifted — the base main solve then ran under a different
/// selector and its fixpoint cannot be extended.
pub fn resolve_analysis_opts<'p>(
    prev: AnalysisOutcome<'_>,
    patched: &'p Program,
    fx: &DeltaEffects,
    analysis: Analysis,
    budget: Budget,
    opts: SolverOptions,
) -> AnalysisOutcome<'p> {
    pipeline(patched, Some((prev, fx)), analysis, budget, opts)
}

/// What a resolve extends: the base outcome and the delta's effects.
type Base<'a, 'b> = Option<(AnalysisOutcome<'a>, &'b DeltaEffects)>;

/// The one analysis pipeline: a full run is the case without a [`Base`].
/// Every solve in it goes through [`solve_or_resolve`], and
/// [`AnalysisOutcome::total_time`] is timed from entry to return.
fn pipeline<'p>(
    program: &'p Program,
    base: Base<'_, '_>,
    analysis: Analysis,
    budget: Budget,
    opts: SolverOptions,
) -> AnalysisOutcome<'p> {
    let start = Instant::now();
    let mut outcome = match analysis {
        Analysis::Ci => plain(program, base, || CiSelector, budget, opts),
        Analysis::KObj(k) => plain(program, base, || ObjSelector::new(k), budget, opts),
        Analysis::KType(k) => plain(program, base, || TypeSelector::new(k), budget, opts),
        Analysis::KCallSite(k) => plain(program, base, || CallSiteSelector::new(k), budget, opts),
        Analysis::ZipperE => {
            let base = base.map(|(prev, fx)| (prev, NoPlugin, fx));
            let none = HashSet::new();
            two_phase(program, base, "Zipper-e", none, || NoPlugin, budget, opts).0
        }
        Analysis::CutShortcut => cut_shortcut(program, base, CscConfig::all(), budget, opts),
        Analysis::CutShortcutWith(cfg) => cut_shortcut(program, base, cfg, budget, opts),
        Analysis::CscHybrid => {
            let base = base.map(|(mut prev, fx)| {
                let plugin = prev
                    .plugin
                    .take()
                    .expect("a hybrid outcome keeps its plugin");
                (prev, plugin, fx)
            });
            // The paper's §3.4 suggestion: Cut-Shortcut handles the
            // methods its patterns cover, contexts only the rest.
            let cfg = CscConfig::all();
            let covered = crate::csc::pattern_methods(program, &cfg);
            let csc = || CutShortcut::new(program, cfg);
            let (outcome, plugin) = two_phase(program, base, "CSC+sel", covered, csc, budget, opts);
            outcome.with_plugin("csc-hybrid", plugin)
        }
    };
    outcome.total_time = start.elapsed();
    outcome
}

/// A plugin-free analysis under one context selector.
fn plain<'p, S: ContextSelector>(
    program: &'p Program,
    base: Base<'_, '_>,
    selector: impl Fn() -> S,
    budget: Budget,
    opts: SolverOptions,
) -> AnalysisOutcome<'p> {
    let base = base.map(|(prev, fx)| (prev.result, NoPlugin, fx));
    let (result, _) = solve_or_resolve(program, base, selector, || NoPlugin, budget, opts);
    AnalysisOutcome::of(result)
}

/// Cut-Shortcut on its own: the context-insensitive solve with the plugin.
fn cut_shortcut<'p>(
    program: &'p Program,
    base: Base<'_, '_>,
    cfg: CscConfig,
    budget: Budget,
    opts: SolverOptions,
) -> AnalysisOutcome<'p> {
    let base = base.map(|(prev, fx)| {
        let plugin = prev.plugin.expect("a CSC outcome keeps its plugin");
        (prev.result, plugin, fx)
    });
    let csc = || CutShortcut::new(program, cfg);
    let (result, plugin) = solve_or_resolve(program, base, || CiSelector, csc, budget, opts);
    AnalysisOutcome::of(result).with_plugin("csc", plugin)
}

/// A two-phase analysis (Zipper-e, CSC+sel): a context-insensitive
/// pre-analysis, Zipper-e's selection on it less the `covered` methods,
/// then the main solve, object-sensitive in the selected methods only and
/// with the plugin `plugin` makes. The budget covers both solves.
///
/// A resolve extends the pre-analysis and selects again. It extends the
/// main solve only if the selection held: otherwise the base's main solve
/// ran under other contexts, and a fresh one is stamped
/// [`FallbackReason::PreanalysisChanged`]. The pre-analysis's clocks are
/// folded into the result's stats.
fn two_phase<'p, P: Plugin>(
    program: &'p Program,
    base: Option<(AnalysisOutcome<'_>, P, &DeltaEffects)>,
    name: &str,
    covered: HashSet<MethodId>,
    plugin: impl FnOnce() -> P,
    budget: Budget,
    opts: SolverOptions,
) -> (AnalysisOutcome<'p>, P) {
    let (pre_base, main_base) = base
        .map(|(prev, plugin, fx)| {
            let pre = prev
                .pre_result
                .expect("a two-phase outcome keeps its pre-analysis");
            (
                (pre, NoPlugin, fx),
                (prev.result, prev.selected, plugin, fx),
            )
        })
        .unzip();
    let (pre, _) = solve_or_resolve(program, pre_base, || CiSelector, || NoPlugin, budget, opts);
    let pre_time = pre.elapsed;
    let mut selected = ZipperE::select(program, &pre).selected;
    selected.retain(|m| !covered.contains(m));
    let main_budget = Budget {
        time: budget.time.map(|t| t.saturating_sub(pre_time)),
        ..budget
    };
    let mut moved = None;
    let main_base = main_base.and_then(|(result, was, plugin, fx)| {
        if was.as_ref() == Some(&selected) {
            Some((result, plugin, fx))
        } else {
            moved = Some(result.state.stats);
            None
        }
    });
    let selector =
        || SelectiveSelector::new(ObjSelector::new(crate::zipper::K), selected.clone(), name);
    let (mut result, plugin) =
        solve_or_resolve(program, main_base, selector, plugin, main_budget, opts);
    if let Some(prior) = moved {
        stamp_fallback(&mut result, &prior, FallbackReason::PreanalysisChanged);
    }
    // `coordinator_secs` covers both solves (modulo the selection step
    // between them), and so does `resolve_secs` after a resolve.
    let stats = &mut result.state.stats;
    stats.coordinator_secs += pre.state.stats.coordinator_secs;
    stats.resolve_secs += pre.state.stats.resolve_secs;
    let outcome = AnalysisOutcome {
        pre_time: Some(pre_time),
        selected: Some(selected),
        pre_result: Some(pre),
        ..AnalysisOutcome::of(result)
    };
    (outcome, plugin)
}

/// The one solve-or-resolve step. Without a base it solves `program`
/// afresh. With one (the base result, the plugin it returned and the
/// delta's effects) it tries [`Solver::resolve`]; when that declines, it
/// solves afresh with a fresh plugin (the base's may hold state derived
/// from the base program) and stamps the fallback.
fn solve_or_resolve<'p, S: ContextSelector, P: Plugin>(
    program: &'p Program,
    base: Option<(PtaResult<'_>, P, &DeltaEffects)>,
    selector: impl Fn() -> S,
    plugin: impl FnOnce() -> P,
    budget: Budget,
    opts: SolverOptions,
) -> (PtaResult<'p>, P) {
    let mut fallback = None;
    if let Some((prev, base_plugin, fx)) = base {
        let prior = prev.state.stats;
        match Solver::resolve(prev, program, fx, selector(), base_plugin, budget) {
            Resolved::Incremental(res, plugin) => return (res, plugin),
            Resolved::Fallback(reason, _stale) => fallback = Some((prior, reason)),
        }
    }
    let (mut res, plugin) =
        Solver::with_options(program, selector(), plugin(), budget, opts).solve();
    if let Some((prior, reason)) = fallback {
        stamp_fallback(&mut res, &prior, reason);
    }
    (res, plugin)
}

/// Stamps incremental-resolve bookkeeping onto a fresh full-solve result
/// that replaced a failed incremental attempt. `prior` is the base
/// result's stats, copied before [`Solver::resolve`] consumed it.
fn stamp_fallback(res: &mut PtaResult<'_>, prior: &SolverStats, reason: FallbackReason) {
    let stats = &mut res.state.stats;
    stats.incr_resolves = prior.incr_resolves + 1;
    stats.incr_fallbacks = prior.incr_fallbacks + 1;
    stats.incr_fallback_reason = Some(reason);
    stats.resolve_secs = res.elapsed.as_secs_f64();
}

/// [`run_analysis_opts`] behind a panic guard: a panic escaping the solve
/// (including `err`-mode injected faults, which unwind with the
/// [`crate::fault::InjectedFault`] marker) is translated into a typed
/// [`SolveError`] instead of aborting the caller. This is the one failure
/// path: an `Ok` outcome either completed or ran out of budget.
pub fn run_analysis_guarded<'p>(
    program: &'p Program,
    analysis: Analysis,
    budget: Budget,
    opts: SolverOptions,
) -> Result<AnalysisOutcome<'p>, SolveError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_analysis_opts(program, analysis, budget, opts)
    }))
    .map_err(crate::fault::error_from_panic)
}

/// [`resolve_analysis_opts`] behind the same panic guard as
/// [`run_analysis_guarded`]. On `Err` the previous outcome is consumed
/// and lost — callers (the serve loop) fall back to a from-scratch solve
/// of whatever program they hold.
pub fn resolve_analysis_guarded<'p>(
    prev: AnalysisOutcome<'_>,
    patched: &'p Program,
    fx: &DeltaEffects,
    analysis: Analysis,
    budget: Budget,
    opts: SolverOptions,
) -> Result<AnalysisOutcome<'p>, SolveError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        resolve_analysis_opts(prev, patched, fx, analysis, budget, opts)
    }))
    .map_err(crate::fault::error_from_panic)
}

/// Decodes a `CSCDL` delta byte stream behind the `delta-decode` fault
/// point: injected I/O faults and decode failures both surface as a
/// string error (the serve protocol's typed `delta-decode` failure), and
/// injected panics are translated like any guarded panic.
pub fn decode_delta_guarded(bytes: &[u8]) -> Result<csc_ir::ProgramDelta, String> {
    crate::fault::hit_io(crate::fault::FaultPoint::DeltaDecode).map_err(|e| e.to_string())?;
    csc_ir::ProgramDelta::from_bytes(bytes).map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::PrecisionMetrics;

    /// The paper's Figure 1 motivating example: CSC must be exactly as
    /// precise as context sensitivity here, while CI merges the two items.
    const MOTIVATING: &str = r#"
        class Carton {
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

    fn pt_of(outcome: &AnalysisOutcome<'_>, program: &Program, var_name: &str) -> Vec<String> {
        let main = program.entry();
        let v = program
            .method(main)
            .vars()
            .iter()
            .copied()
            .find(|&v| program.var(v).name() == var_name)
            .expect("variable exists");
        let mut objs: Vec<String> = outcome
            .result
            .state
            .pt_var_projected(v)
            .into_iter()
            .map(|o| program.obj(o).label().to_owned())
            .collect();
        objs.sort();
        objs
    }

    #[test]
    fn figure1_ci_merges_items() {
        let program = csc_frontend::compile(MOTIVATING).unwrap();
        let out = run_analysis(&program, Analysis::Ci, Budget::unlimited());
        assert_eq!(pt_of(&out, &program, "result1").len(), 2, "CI is imprecise");
        assert_eq!(pt_of(&out, &program, "result2").len(), 2);
    }

    #[test]
    fn figure1_csc_is_precise() {
        let program = csc_frontend::compile(MOTIVATING).unwrap();
        let out = run_analysis(&program, Analysis::CutShortcut, Budget::unlimited());
        assert_eq!(
            pt_of(&out, &program, "result1"),
            pt_of(&out, &program, "item1"),
            "CSC must recover the context-sensitive result"
        );
        assert_eq!(
            pt_of(&out, &program, "result2"),
            pt_of(&out, &program, "item2")
        );
        assert_eq!(pt_of(&out, &program, "result1").len(), 1);
        assert_eq!(pt_of(&out, &program, "result2").len(), 1);
        let stats = out.csc.as_ref().unwrap();
        assert_eq!(stats.cut_store_sites, 1);
        assert_eq!(stats.cut_return_methods, 1);
        assert_eq!(stats.shortcut_store_edges, 2);
        assert_eq!(stats.shortcut_load_edges, 2);
    }

    #[test]
    fn figure1_2obj_is_precise() {
        let program = csc_frontend::compile(MOTIVATING).unwrap();
        let out = run_analysis(&program, Analysis::KObj(2), Budget::unlimited());
        assert_eq!(pt_of(&out, &program, "result1").len(), 1);
        assert_eq!(pt_of(&out, &program, "result2").len(), 1);
    }

    #[test]
    fn csc_soundness_on_motivating_example() {
        let program = csc_frontend::compile(MOTIVATING).unwrap();
        let ci = run_analysis(&program, Analysis::Ci, Budget::unlimited());
        let csc = run_analysis(&program, Analysis::CutShortcut, Budget::unlimited());
        // CSC finds the same reachable methods and call edges as CI here.
        assert_eq!(
            ci.result.state.reachable_methods_projected(),
            csc.result.state.reachable_methods_projected()
        );
        assert_eq!(
            ci.result.state.call_edges_projected(),
            csc.result.state.call_edges_projected()
        );
        let m_ci = PrecisionMetrics::compute(&ci.result);
        let m_csc = PrecisionMetrics::compute(&csc.result);
        assert!(m_csc.fail_casts <= m_ci.fail_casts);
    }

    #[test]
    fn total_time_covers_the_plugin_pre_pass() {
        let program = csc_workloads::by_name("hsqldb")
            .expect("suite program")
            .compile();
        let out = run_analysis(&program, Analysis::CutShortcut, Budget::unlimited());
        assert!(
            out.total_time > out.result.elapsed,
            "{:?} must cover more than the solve's {:?}",
            out.total_time,
            out.result.elapsed
        );
    }

    /// A resolve is timed from entry to return too: a Cut-Shortcut
    /// fallback's `total_time` covers the declined resolve and the fresh
    /// plugin's static pre-pass, which the fallback solve's clock misses.
    #[test]
    fn resolve_total_time_covers_the_fallback_pre_pass() {
        let program = csc_workloads::by_name("hsqldb")
            .expect("suite program")
            .compile();
        let base = run_analysis(&program, Analysis::CutShortcut, Budget::unlimited());
        let cfg = csc_workloads::DeltaGenConfig {
            seed: 0xde1e,
            actions: 6,
            removals: true,
        };
        let (patched, fx) = csc_workloads::generate_delta(&program, &cfg)
            .apply(&program)
            .expect("the delta applies");
        let out = resolve_analysis(
            base,
            &patched,
            &fx,
            Analysis::CutShortcut,
            Budget::unlimited(),
        );
        assert_eq!(
            out.result.state.stats.incr_fallback_reason,
            Some(FallbackReason::CscObligations)
        );
        assert!(
            out.total_time > out.result.elapsed,
            "{:?} must cover more than the fallback solve's {:?}",
            out.total_time,
            out.result.elapsed
        );
    }

    #[test]
    fn every_listed_name_parses() {
        let names: Vec<&str> = Analysis::names().collect();
        assert_eq!(
            names.join(" "),
            "ci 2obj 2type 2cs zipper csc csc-doop csc-hybrid"
        );
        for name in names {
            assert!(Analysis::from_name(name).is_some(), "{name}");
        }
        assert!(Analysis::from_name("CSC").is_none());
        assert!(matches!(
            Analysis::from_name("csc-doop"),
            Some(Analysis::CutShortcutWith(_))
        ));
        // Each listed analysis prints under its own label.
        let labels: Vec<&str> = Analysis::names()
            .map(|n| Analysis::from_name(n).unwrap().label())
            .collect();
        assert_eq!(
            labels.join(" "),
            "CI 2obj 2type 2cs Zipper-e CSC CSC-doop CSC+sel"
        );
    }
}
