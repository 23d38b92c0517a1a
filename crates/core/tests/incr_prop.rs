//! Property tests for the incremental re-solver's *fallback contract*:
//! across interleaved add/remove delta sequences, the incremental resolve
//! must (a) stay projection-identical to a from-scratch solve of the
//! patched program and (b) fall back **exactly when the documented
//! preconditions fail** — no spurious fallbacks, no silently-wrong
//! incremental paths.
//!
//! The fallback gates of [`csc_core::Solver::resolve`] are checked in
//! order, and each has a pure oracle computable from the outside:
//!
//! 1. `BaseIncomplete` — the previous solve's status (deterministic test
//!    below, driven by a propagation budget);
//! 2. `DispatchChanged` — `Program::dispatch_stable_under`;
//! 3. `CscObligations` — [`csc_core::rebase_compatible`] (the exported
//!    pure twin of `CutShortcut`'s `Plugin::rebase`).
//!
//! A removal cone that reaches an SCC-collapsed pointer takes in the
//! whole SCC and splits it, so collapsing never adds a fallback: the
//! predicted reason is exact with collapsing on (at the smallest epoch,
//! so SCCs form even on small programs) and off.
//!
//! The generated edits come from the seeded workload delta generator, so
//! the sequences here are the same distribution the differential harness
//! and the CLI `resolve --gen-deltas` path replay.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use csc_core::{
    rebase_compatible, resolve_analysis_opts, run_analysis_opts, Analysis, Budget, CscConfig,
    FallbackReason, PrecisionMetrics, PtaResult, SolverOptions,
};
use csc_ir::{
    CallSiteId, DeltaEffects, DeltaOp, MethodId, ObjId, Program, ProgramDelta, Stmt, VarId,
};
use csc_workloads::{generate_delta, DeltaGenConfig};
use proptest::prelude::*;

/// A small program with the surface the delta generator exercises:
/// a dispatch hierarchy (with an inherited-but-not-overridden method so a
/// hand-made override delta can rebind it), fields, loads, stores, casts,
/// and both static and virtual calls.
fn base_program() -> &'static Program {
    static BASE: OnceLock<Program> = OnceLock::new();
    BASE.get_or_init(|| {
        csc_frontend::compile(
            r#"
            class Animal {
                Animal friend;
                Animal speak(Animal a) {
                    this.friend = a;
                    Animal r;
                    r = this.friend;
                    return r;
                }
            }
            class Dog extends Animal {
                Animal speak(Animal a) {
                    Animal r;
                    r = a;
                    return r;
                }
            }
            class Cat extends Animal { }
            class Main {
                static void main() {
                    Animal x = new Animal();
                    Dog d = new Dog();
                    Cat c = new Cat();
                    Animal y = x.speak(d);
                    Animal z = d.speak(c);
                    Animal w = y.speak(z);
                    w = c.speak(x);
                }
            }
            "#,
        )
        .expect("base program compiles")
    })
}

/// Builds the owned program chain for one sampled edit sequence: the base
/// plus one patched program per generated delta, with the effects between
/// them. Owning the chain up front keeps every later borrow trivial.
fn chain(base: &Program, steps: &[(u64, bool)]) -> (Vec<Program>, Vec<DeltaEffects>) {
    let mut programs = vec![base.clone()];
    let mut fxs = Vec::new();
    for &(seed, removals) in steps {
        let current = programs.last().unwrap();
        let cfg = DeltaGenConfig {
            seed,
            actions: 5,
            removals,
        };
        let delta = generate_delta(current, &cfg);
        let (patched, fx) = delta.apply(current).expect("generated delta applies");
        programs.push(patched);
        fxs.push(fx);
    }
    (programs, fxs)
}

/// The pure oracle for the fallback reason, mirroring the gate order of
/// `Solver::resolve` (`BaseIncomplete` excluded — the chains below only
/// resolve completed bases).
fn predicted_reason(
    base: &Program,
    patched: &Program,
    fx: &DeltaEffects,
    csc_plugin: bool,
) -> Option<FallbackReason> {
    if !base.dispatch_stable_under(patched) {
        return Some(FallbackReason::DispatchChanged);
    }
    if csc_plugin && !rebase_compatible(base, patched, fx, &CscConfig::all()) {
        return Some(FallbackReason::CscObligations);
    }
    None
}

/// Projection capture (same surface as `tests/differential_incremental.rs`).
struct Projections {
    pts: Vec<(VarId, Vec<ObjId>)>,
    reachable: BTreeSet<MethodId>,
    call_edges: BTreeSet<(CallSiteId, MethodId)>,
    metrics: PrecisionMetrics,
    /// Context-qualified (PFG edges, call-graph edges, reachable units).
    counts: (u64, usize, usize),
}

impl Projections {
    fn capture(program: &Program, result: &PtaResult<'_>) -> Self {
        Projections {
            pts: result
                .state
                .pt_vars_projected(&vec![true; program.vars().len()])
                .into_iter()
                .enumerate()
                .map(|(i, pt)| (VarId::from_usize(i), pt))
                .collect(),
            reachable: result.state.reachable_methods_projected(),
            call_edges: result.state.call_edges_projected(),
            metrics: PrecisionMetrics::compute(result),
            counts: (
                result.state.stats.edges,
                result.state.call_edges().len(),
                result.state.reachable().len(),
            ),
        }
    }

    fn assert_identical(&self, other: &Projections, what: &str) {
        assert_eq!(self.reachable, other.reachable, "{what}: reachable differ");
        assert_eq!(
            self.call_edges, other.call_edges,
            "{what}: call edges differ"
        );
        for ((v, a), (_, b)) in self.pts.iter().zip(other.pts.iter()) {
            assert_eq!(a, b, "{what}: pt({v:?}) differs");
        }
        assert_eq!(self.metrics, other.metrics, "{what}: metrics differ");
        assert_eq!(
            self.counts, other.counts,
            "{what}: (PFG edges, call edges, reachable units) differ"
        );
    }
}

/// Drives one sampled chain under one analysis/options cell, asserting at
/// every step: result equivalence, the exact fallback reason, and correct
/// counter bookkeeping.
fn check_chain(
    programs: &[Program],
    fxs: &[DeltaEffects],
    analysis: Analysis,
    opts: SolverOptions,
    csc_plugin: bool,
    what: &str,
) {
    let mut outcome = run_analysis_opts(&programs[0], analysis.clone(), Budget::unlimited(), opts);
    assert!(outcome.completed(), "{what}: base run hit budget");
    for (i, fx) in fxs.iter().enumerate() {
        let base = &programs[i];
        let patched = &programs[i + 1];
        let prior = outcome.result.state.stats;
        let predicted = predicted_reason(base, patched, fx, csc_plugin);
        let next = resolve_analysis_opts(
            outcome,
            patched,
            fx,
            analysis.clone(),
            Budget::unlimited(),
            opts,
        );
        assert!(next.completed(), "{what} step {i}: resolve hit budget");
        let stats = next.result.state.stats;
        let reason = stats.incr_fallback_reason;
        assert_eq!(
            reason, predicted,
            "{what} step {i}: fallback reason disagrees with the oracle"
        );
        if reason.is_some() || fx.additions_only() {
            assert_eq!(
                (stats.incr_cone_ptrs, stats.incr_cone_call_edges),
                (0, 0),
                "{what} step {i}: a fallback or additions-only resolve has no cone"
            );
        }
        assert_eq!(
            stats.incr_resolves,
            prior.incr_resolves + 1,
            "{what} step {i}: incr_resolves must count every resolve"
        );
        assert_eq!(
            stats.incr_fallbacks,
            prior.incr_fallbacks + u64::from(reason.is_some()),
            "{what} step {i}: incr_fallbacks must count exactly the fallbacks"
        );
        assert!(
            stats.resolve_secs >= 0.0,
            "{what} step {i}: resolve_secs unstamped"
        );
        let scratch = run_analysis_opts(patched, analysis.clone(), Budget::unlimited(), opts);
        Projections::capture(patched, &next.result).assert_identical(
            &Projections::capture(patched, &scratch.result),
            &format!("{what} step {i} (reason={reason:?})"),
        );
        outcome = next;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plain (NoPlugin) pipeline, collapsing disabled: the predicted
    /// reason is exact — `DispatchChanged` or nothing.
    #[test]
    fn ci_no_collapse_fallbacks_match_oracle(
        steps in proptest::collection::vec((0u64..1 << 16, any::<bool>()), 1..4),
    ) {
        let (programs, fxs) = chain(base_program(), &steps);
        check_chain(
            &programs,
            &fxs,
            Analysis::Ci,
            SolverOptions::no_collapse(),
            false,
            &format!("ci/no-collapse {steps:?}"),
        );
    }

    /// Cut-Shortcut pipeline, collapsing disabled: the reason is exactly
    /// what `dispatch_stable_under` + `rebase_compatible` predict.
    #[test]
    fn csc_no_collapse_fallbacks_match_oracle(
        steps in proptest::collection::vec((0u64..1 << 16, any::<bool>()), 1..4),
    ) {
        let (programs, fxs) = chain(base_program(), &steps);
        check_chain(
            &programs,
            &fxs,
            Analysis::CutShortcut,
            SolverOptions::no_collapse(),
            true,
            &format!("csc/no-collapse {steps:?}"),
        );
    }

    /// Collapsing on, at the smallest epoch: results stay bit-identical
    /// and the reason is exactly the oracle's — removal cones through
    /// collapsed SCCs split them instead of falling back.
    #[test]
    fn collapse_fallbacks_match_oracle(
        steps in proptest::collection::vec((0u64..1 << 16, any::<bool>()), 1..3),
    ) {
        let (programs, fxs) = chain(base_program(), &steps);
        check_chain(
            &programs,
            &fxs,
            Analysis::Ci,
            SolverOptions::with_epoch(2),
            false,
            &format!("ci/epoch=2 {steps:?}"),
        );
        check_chain(
            &programs,
            &fxs,
            Analysis::CutShortcut,
            SolverOptions::with_epoch(2),
            true,
            &format!("csc/epoch=2 {steps:?}"),
        );
    }
}

/// Gate 1, deterministically: resolving on top of a budget-truncated base
/// must fall back with `BaseIncomplete` — and the fallback's full solve
/// (under the new, unlimited budget) must still match from-scratch.
#[test]
fn incomplete_base_reports_base_incomplete() {
    let base = base_program();
    let tight = Budget {
        time: None,
        max_propagations: Some(1),
    };
    let outcome = run_analysis_opts(base, Analysis::Ci, tight, SolverOptions::default());
    assert!(
        !outcome.completed(),
        "a 1-propagation budget must truncate the base solve"
    );
    let delta = generate_delta(
        base,
        &DeltaGenConfig {
            seed: 7,
            actions: 3,
            removals: false,
        },
    );
    let (patched, fx) = delta.apply(base).expect("delta applies");
    let next = resolve_analysis_opts(
        outcome,
        &patched,
        &fx,
        Analysis::Ci,
        Budget::unlimited(),
        SolverOptions::default(),
    );
    assert!(next.completed());
    assert_eq!(
        next.result.state.stats.incr_fallback_reason,
        Some(FallbackReason::BaseIncomplete)
    );
    let scratch = run_analysis_opts(
        &patched,
        Analysis::Ci,
        Budget::unlimited(),
        SolverOptions::default(),
    );
    Projections::capture(&patched, &next.result).assert_identical(
        &Projections::capture(&patched, &scratch.result),
        "base-incomplete fallback",
    );
}

/// Gate 2, deterministically: an override delta that rebinds an existing
/// `(class, signature)` pair — `Cat` gaining its own `speak` — must trip
/// `dispatch_stable_under` and report `DispatchChanged`, even though the
/// delta is additions-only.
#[test]
fn override_delta_reports_dispatch_changed() {
    let base = base_program();
    let animal = base.class_by_name("Animal").expect("Animal exists");
    let cat = base.class_by_name("Cat").expect("Cat exists");
    let delta = ProgramDelta {
        ops: vec![DeltaOp::AddMethod {
            class: cat,
            name: "speak".to_owned(),
            params: vec![animal],
            ret: Some(animal),
            is_static: false,
        }],
    };
    let (patched, fx) = delta.apply(base).expect("override delta applies");
    assert!(fx.additions_only());
    assert!(
        !base.dispatch_stable_under(&patched),
        "rebinding (Cat, speak) must destabilize dispatch"
    );
    for (analysis, csc_plugin) in [(Analysis::Ci, false), (Analysis::CutShortcut, true)] {
        assert_eq!(
            predicted_reason(base, &patched, &fx, csc_plugin),
            Some(FallbackReason::DispatchChanged)
        );
        let outcome = run_analysis_opts(
            base,
            analysis.clone(),
            Budget::unlimited(),
            SolverOptions::default(),
        );
        assert!(outcome.completed());
        let next = resolve_analysis_opts(
            outcome,
            &patched,
            &fx,
            analysis.clone(),
            Budget::unlimited(),
            SolverOptions::default(),
        );
        assert!(next.completed());
        assert_eq!(
            next.result.state.stats.incr_fallback_reason,
            Some(FallbackReason::DispatchChanged)
        );
        let scratch = run_analysis_opts(
            &patched,
            analysis,
            Budget::unlimited(),
            SolverOptions::default(),
        );
        Projections::capture(&patched, &next.result).assert_identical(
            &Projections::capture(&patched, &scratch.result),
            "dispatch-changed fallback",
        );
    }
}

/// A removal whose cone reaches a collapsed SCC resolves in place: the
/// cone takes in the whole cycle, the reset splits it back into
/// singletons, and the re-derived state equals a from-scratch solve.
#[test]
fn removal_through_collapsed_scc_resolves_incrementally() {
    let base = csc_frontend::compile(
        r#"
        class A { }
        class Main {
            static void main() {
                A a = new A();
                A b = a;
                A c = b;
                a = c;
                A d = new A();
                b = d;
                A e = c;
            }
        }
        "#,
    )
    .expect("cycle program compiles");
    let main = base
        .method_by_qualified_name("Main.main")
        .expect("Main.main exists");
    let named = |v: VarId| base.var(v).name().to_owned();
    // Remove `b = d`: the cone starts at `b`, inside the `a -> b -> c`
    // cycle.
    let index = base
        .method(main)
        .body()
        .iter()
        .position(
            |s| matches!(*s, Stmt::Assign { lhs, rhs } if named(lhs) == "b" && named(rhs) == "d"),
        )
        .expect("`b = d` is a top-level statement") as u32;
    let delta = ProgramDelta {
        ops: vec![DeltaOp::RemoveStmt {
            method: main,
            index,
        }],
    };
    let (patched, fx) = delta.apply(&base).expect("removal applies");
    let opts = SolverOptions::with_epoch(2);
    let outcome = run_analysis_opts(&base, Analysis::Ci, Budget::unlimited(), opts);
    assert!(outcome.completed());
    assert!(
        outcome.result.state.stats.ptrs_collapsed > 0,
        "the assign cycle must be collapsed in the base"
    );
    let next = resolve_analysis_opts(
        outcome,
        &patched,
        &fx,
        Analysis::Ci,
        Budget::unlimited(),
        opts,
    );
    assert!(next.completed());
    let stats = next.result.state.stats;
    assert_eq!(stats.incr_fallback_reason, None);
    assert!(
        stats.incr_cone_ptrs >= 3,
        "the cone holds the whole cycle, got {} pointers",
        stats.incr_cone_ptrs
    );
    let scratch = run_analysis_opts(&patched, Analysis::Ci, Budget::unlimited(), opts);
    Projections::capture(&patched, &next.result).assert_identical(
        &Projections::capture(&patched, &scratch.result),
        "removal through a collapsed SCC",
    );
}

/// Removing the only call into a recursive method cuts the method off
/// even though its own recursive call edge survives the removal: the
/// cone's reachability search runs from the entry, so the cycle cannot
/// keep itself alive.
#[test]
fn removal_cuts_off_a_recursive_method() {
    let base = csc_frontend::compile(
        r#"
        class A {
            A next;
            A walk(A x) {
                A n = new A();
                this.next = n;
                A y = n.walk(x);
                return y;
            }
        }
        class Main {
            static void main() {
                A a = new A();
                A r = a.walk(a);
            }
        }
        "#,
    )
    .expect("recursive program compiles");
    let main = base
        .method_by_qualified_name("Main.main")
        .expect("Main.main exists");
    let index = base
        .method(main)
        .body()
        .iter()
        .position(|s| matches!(s, Stmt::Call(_)))
        .expect("`a.walk(a)` is a top-level statement") as u32;
    let delta = ProgramDelta {
        ops: vec![DeltaOp::RemoveStmt {
            method: main,
            index,
        }],
    };
    let (patched, fx) = delta.apply(&base).expect("removal applies");
    let walk = base
        .method_by_qualified_name("A.walk")
        .expect("A.walk exists");
    for opts in [SolverOptions::with_epoch(2), SolverOptions::no_collapse()] {
        let outcome = run_analysis_opts(&base, Analysis::Ci, Budget::unlimited(), opts);
        assert!(outcome.completed());
        let next = resolve_analysis_opts(
            outcome,
            &patched,
            &fx,
            Analysis::Ci,
            Budget::unlimited(),
            opts,
        );
        assert!(next.completed());
        assert_eq!(next.result.state.stats.incr_fallback_reason, None);
        assert!(
            !next
                .result
                .state
                .reachable_methods_projected()
                .contains(&walk),
            "A.walk must lose reachability"
        );
        let scratch = run_analysis_opts(&patched, Analysis::Ci, Budget::unlimited(), opts);
        Projections::capture(&patched, &next.result).assert_identical(
            &Projections::capture(&patched, &scratch.result),
            "removal cutting off a recursive method",
        );
    }
}

/// A field pointer enters the cone through one store while another store,
/// in a unit the cone does not otherwise touch, keeps feeding it: the
/// reset drops that second store's edge too, and the replay must fire the
/// store again from its unit, or the field loses the second store's
/// objects.
#[test]
fn removal_replays_stores_from_untouched_units() {
    let base = csc_frontend::compile(
        r#"
        class A { A f; }
        class S {
            static void put(A a, A z) {
                a.f = z;
            }
        }
        class Main {
            static void main() {
                A o = new A();
                A z = new A();
                S.put(o, z);
                A z2 = new A();
                o.f = z2;
                A r = o.f;
            }
        }
        "#,
    )
    .expect("two-store program compiles");
    let main = base
        .method_by_qualified_name("Main.main")
        .expect("Main.main exists");
    // Remove the copy into `z2` (`new` lowers to a temporary and a copy):
    // the cone reaches `o.f` through `o.f = z2`, while `S.put`'s store
    // into `o.f` survives outside the cone.
    let index = base
        .method(main)
        .body()
        .iter()
        .position(|s| matches!(*s, Stmt::Assign { lhs, .. } if base.var(lhs).name() == "z2"))
        .expect("the copy into `z2` is a top-level statement") as u32;
    let delta = ProgramDelta {
        ops: vec![DeltaOp::RemoveStmt {
            method: main,
            index,
        }],
    };
    let (patched, fx) = delta.apply(&base).expect("removal applies");
    let opts = SolverOptions::default();
    let outcome = run_analysis_opts(&base, Analysis::Ci, Budget::unlimited(), opts);
    assert!(outcome.completed());
    let next = resolve_analysis_opts(
        outcome,
        &patched,
        &fx,
        Analysis::Ci,
        Budget::unlimited(),
        opts,
    );
    assert!(next.completed());
    assert_eq!(next.result.state.stats.incr_fallback_reason, None);
    let scratch = run_analysis_opts(&patched, Analysis::Ci, Budget::unlimited(), opts);
    Projections::capture(&patched, &next.result).assert_identical(
        &Projections::capture(&patched, &scratch.result),
        "removal next to a store from an untouched unit",
    );
}
