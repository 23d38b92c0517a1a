//! Engine-level tests: worklist solver behavior, budgets, context
//! selectors, and result projections — independent of the Cut-Shortcut
//! plugin.

use std::collections::{HashMap, HashSet};

use csc_core::{
    resolve_analysis_opts, run_analysis, run_analysis_opts, Analysis, Budget, CallSiteSelector,
    CiSelector, CtxId, EdgeKind, NoPlugin, ObjSelector, Plugin, PointsToSet, PtrId,
    SelectiveSelector, SolveStatus, Solver, SolverOptions, SolverState,
};
use csc_ir::{CallSiteId, MethodId, Program, VarId};
use csc_workloads::{generate_delta, DeltaGenConfig};

fn compile(src: &str) -> Program {
    csc_frontend::compile(src).expect("compiles")
}

#[test]
fn unreachable_methods_stay_unreachable() {
    let p = compile(
        r#"
        class A {
            void used() { }
            void unused() { this.alsoUnused(); }
            void alsoUnused() { }
        }
        class Main { static void main() { A a = new A(); a.used(); } }
        "#,
    );
    let (r, _) = Solver::new(&p, CiSelector, NoPlugin, Budget::unlimited()).solve();
    let reach = r.state.reachable_methods_projected();
    assert!(reach.contains(&p.method_by_qualified_name("A.used").unwrap()));
    assert!(!reach.contains(&p.method_by_qualified_name("A.unused").unwrap()));
    assert!(!reach.contains(&p.method_by_qualified_name("A.alsoUnused").unwrap()));
}

#[test]
fn dispatch_uses_runtime_type_not_declared_type() {
    let p = compile(
        r#"
        class A { void m() { this.onlyA(); } void onlyA() { } }
        class B extends A { void m() { this.onlyB(); } void onlyB() { } }
        class Main { static void main() { A a = new B(); a.m(); } }
        "#,
    );
    let (r, _) = Solver::new(&p, CiSelector, NoPlugin, Budget::unlimited()).solve();
    let reach = r.state.reachable_methods_projected();
    assert!(reach.contains(&p.method_by_qualified_name("B.onlyB").unwrap()));
    assert!(
        !reach.contains(&p.method_by_qualified_name("A.onlyA").unwrap()),
        "only B's override runs: A.m must not be reachable"
    );
}

/// Store through one alias, load through another: flow-insensitive
/// analysis must connect them.
#[test]
fn field_flow_through_aliases_dispatches() {
    let p = compile(
        r#"
        class Payload { void go() { } }
        class Box { Payload f; }
        class Main {
            static void main() {
                Box b1 = new Box();
                Box b2 = b1;
                b1.f = new Payload();
                Payload x = b2.f;
                x.go();
            }
        }
        "#,
    );
    let (r, _) = Solver::new(&p, CiSelector, NoPlugin, Budget::unlimited()).solve();
    assert!(r
        .state
        .reachable_methods_projected()
        .contains(&p.method_by_qualified_name("Payload.go").unwrap()));
}

#[test]
fn null_only_variables_have_empty_pts() {
    let p = compile(
        r#"
        class Main {
            static void main() {
                Object x = null;
                Object y = x;
            }
        }
        "#,
    );
    let (r, _) = Solver::new(&p, CiSelector, NoPlugin, Budget::unlimited()).solve();
    for &v in p.method(p.entry()).vars() {
        assert!(r.state.pt_var_projected(v).is_empty());
    }
}

#[test]
fn propagation_budget_times_out_deterministically() {
    // A program with plenty of propagation work: a chain of copies fed by
    // many allocations.
    let mut src = String::from("class Main { static void main() {\n");
    for i in 0..40 {
        src.push_str(&format!("Object a{i} = new Object();\n"));
    }
    src.push_str("Object c0 = a0;\n");
    for i in 1..40 {
        src.push_str(&format!("Object c{i} = c{};\n", i - 1));
        src.push_str(&format!("c{i} = a{i};\n"));
    }
    src.push_str("} }\n");
    let p = compile(&src);
    let budget = Budget {
        time: None,
        max_propagations: Some(50),
    };
    let (r, _) = Solver::new(&p, CiSelector, NoPlugin, budget).solve();
    assert_eq!(r.status, SolveStatus::Timeout);
    assert!(r.state.stats.propagations <= 51);
}

#[test]
fn call_site_sensitivity_separates_static_helpers() {
    // 1-call-site sensitivity distinguishes the two calls of `id`, which
    // neither CI nor object sensitivity can (static call, no receiver).
    let src = r#"
        class A { void m() { } }
        class B { void m() { } }
        class Main {
            static Object id(Object o) { return o; }
            static void main() {
                Object a = Main.id(new A());
                Object b = Main.id(new B());
            }
        }
    "#;
    let p = compile(src);
    let var = |name: &str| {
        p.method(p.entry())
            .vars()
            .iter()
            .copied()
            .find(|&v| p.var(v).name() == name)
            .unwrap()
    };
    let (ci, _) = Solver::new(&p, CiSelector, NoPlugin, Budget::unlimited()).solve();
    assert_eq!(ci.state.pt_var_projected(var("a")).len(), 2, "CI merges");
    let (cs1, _) = Solver::new(&p, CallSiteSelector::new(1), NoPlugin, Budget::unlimited()).solve();
    assert_eq!(cs1.state.pt_var_projected(var("a")).len(), 1);
    assert_eq!(cs1.state.pt_var_projected(var("b")).len(), 1);
    let (obj2, _) = Solver::new(&p, ObjSelector::new(2), NoPlugin, Budget::unlimited()).solve();
    assert_eq!(
        obj2.state.pt_var_projected(var("a")).len(),
        2,
        "object sensitivity cannot split static calls"
    );
}

#[test]
fn obj_sensitivity_separates_by_receiver() {
    let src = r#"
        class Box {
            Object f;
            void set(Object v) { this.f = v; }
            Object get() { Object r; r = this.f; return r; }
        }
        class Main {
            static void main() {
                Box b1 = new Box();
                b1.set(new Object());
                Object x = b1.get();
                Box b2 = new Box();
                b2.set(new Object());
                Object y = b2.get();
            }
        }
    "#;
    let p = compile(src);
    let var = |name: &str| {
        p.method(p.entry())
            .vars()
            .iter()
            .copied()
            .find(|&v| p.var(v).name() == name)
            .unwrap()
    };
    for k in [1usize, 2, 3] {
        let (r, _) = Solver::new(&p, ObjSelector::new(k), NoPlugin, Budget::unlimited()).solve();
        assert_eq!(r.state.pt_var_projected(var("x")).len(), 1, "k={k}");
        assert_eq!(r.state.pt_var_projected(var("y")).len(), 1, "k={k}");
    }
}

#[test]
fn selective_selector_restricts_contexts_to_selected() {
    let src = r#"
        class Box {
            Object f;
            void set(Object v) { this.f = v; }
            Object get() { Object r; r = this.f; return r; }
        }
        class Main {
            static void main() {
                Box b1 = new Box();
                b1.set(new Object());
                Object x = b1.get();
                Box b2 = new Box();
                b2.set(new Object());
                Object y = b2.get();
            }
        }
    "#;
    let p = compile(src);
    let var = |name: &str| {
        p.method(p.entry())
            .vars()
            .iter()
            .copied()
            .find(|&v| p.var(v).name() == name)
            .unwrap()
    };
    // Selecting nothing behaves like CI.
    let none = SelectiveSelector::new(ObjSelector::new(2), HashSet::new(), "none");
    let (r, _) = Solver::new(&p, none, NoPlugin, Budget::unlimited()).solve();
    assert_eq!(r.state.pt_var_projected(var("x")).len(), 2);
    // Selecting Box's methods recovers 2obj's precision.
    let selected: HashSet<_> = ["Box.set", "Box.get"]
        .iter()
        .map(|n| p.method_by_qualified_name(n).unwrap())
        .collect();
    let sel = SelectiveSelector::new(ObjSelector::new(2), selected, "box-only");
    let (r, _) = Solver::new(&p, sel, NoPlugin, Budget::unlimited()).solve();
    assert_eq!(r.state.pt_var_projected(var("x")).len(), 1);
    assert_eq!(r.state.pt_var_projected(var("y")).len(), 1);
}

#[test]
fn cast_edges_filter_by_type() {
    let p = compile(
        r#"
        class A { void onlyA() { } }
        class B { void onlyB() { } }
        class Main {
            static Object pick(Object x, Object y) {
                Object r;
                if (x == y) { r = x; } else { r = y; }
                return r;
            }
            static void main() {
                Object o = Main.pick(new A(), new B());
                A a = (A) o;
                a.onlyA();
            }
        }
        "#,
    );
    let (r, _) = Solver::new(&p, CiSelector, NoPlugin, Budget::unlimited()).solve();
    let a_var = p
        .method(p.entry())
        .vars()
        .iter()
        .copied()
        .find(|&v| p.var(v).name() == "a")
        .unwrap();
    // The cast filters the B object out of `a`, checkcast-style.
    assert_eq!(r.state.pt_var_projected(a_var).len(), 1);
    assert!(!r
        .state
        .reachable_methods_projected()
        .contains(&p.method_by_qualified_name("B.onlyB").unwrap()));
}

#[test]
fn recursion_reaches_fixpoint() {
    let p = compile(
        r#"
        class Node { Object item; Node next; }
        class Main {
            static Node build(int n, Node tail) {
                if (n == 0) { return tail; }
                Node h = new Node();
                h.next = tail;
                h.item = new Object();
                Node r = Main.build(n - 1, h);
                return r;
            }
            static void main() {
                Node list = Main.build(5, null);
                Object x = list.item;
            }
        }
        "#,
    );
    let out = run_analysis(&p, Analysis::Ci, Budget::unlimited());
    assert_eq!(out.result.status, SolveStatus::Completed);
    let x = p
        .method(p.entry())
        .vars()
        .iter()
        .copied()
        .find(|&v| p.var(v).name() == "x")
        .unwrap();
    assert_eq!(out.result.state.pt_var_projected(x).len(), 1);
    // Cut-Shortcut handles recursion too (the temp-store propagation must
    // terminate on the cyclic call graph).
    let out = run_analysis(&p, Analysis::CutShortcut, Budget::unlimited());
    assert_eq!(out.result.status, SolveStatus::Completed);
    assert_eq!(out.result.state.pt_var_projected(x).len(), 1);
}

#[test]
fn constructor_chaining_via_super() {
    let p = compile(
        r#"
        class Base {
            Object v;
            Base(Object v) { this.v = v; }
        }
        class Derived extends Base {
            Derived(Object v) { super(v); }
        }
        class Probe { void hit() { } }
        class Main {
            static void main() {
                Derived d = new Derived(new Probe());
                Probe p = (Probe) d.v;
                p.hit();
            }
        }
        "#,
    );
    let out = run_analysis(&p, Analysis::CutShortcut, Budget::unlimited());
    assert!(out
        .result
        .state
        .reachable_methods_projected()
        .contains(&p.method_by_qualified_name("Probe.hit").unwrap()));
    // The nested store `this.v = v` behind `super(v)` is still tracked
    // precisely: pt(p) is the single Probe object.
    let pv = p
        .method(p.entry())
        .vars()
        .iter()
        .copied()
        .find(|&v| p.var(v).name() == "p")
        .unwrap();
    assert_eq!(out.result.state.pt_var_projected(pv).len(), 1);
}

/// Asserts that the one-pass projection equals the per-variable one for
/// every variable, over all variables and under a partial mask (unwanted
/// variables project to nothing).
fn assert_one_pass_projection(program: &Program, state: &SolverState<'_>, what: &str) {
    let n = program.vars().len();
    let all = state.pt_vars_projected(&vec![true; n]);
    let every_third: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let masked = state.pt_vars_projected(&every_third);
    assert_eq!(all.len(), n, "{what}: one output per variable");
    assert_eq!(masked.len(), n, "{what}: one output per mask entry");
    for i in 0..n {
        let v = VarId::from_usize(i);
        let reference = state.pt_var_projected(v);
        assert_eq!(all[i], reference, "{what}: pt({v:?}) differs");
        let expected = if every_third[i] { &reference[..] } else { &[] };
        assert_eq!(masked[i], expected, "{what}: masked pt({v:?}) differs");
    }
}

/// The one-pass projection must equal `pt_var_projected` on suite
/// programs with SCC collapse on (collapsed members fan out from their
/// representative's set) and after incremental resolves with removals
/// (reset removal cones and appended variables present).
#[test]
fn one_pass_projection_equals_per_variable_projection() {
    for name in ["hsqldb", "findbugs"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, analysis) in [
            ("ci", Analysis::Ci),
            ("2obj", Analysis::KObj(2)),
            ("csc", Analysis::CutShortcut),
        ] {
            let out = run_analysis_opts(
                program,
                analysis,
                Budget::unlimited(),
                SolverOptions::default(),
            );
            assert!(out.completed(), "{name}/{label}: hit budget");
            assert!(
                out.result.state.stats.ptrs_collapsed > 0,
                "{name}/{label}: no pointer was collapsed"
            );
            assert_one_pass_projection(program, &out.result.state, &format!("{name}/{label}"));
        }
    }

    let base = csc_workloads::compiled("hsqldb").unwrap();
    let opts = SolverOptions::default();
    let mut outcome = run_analysis_opts(base, Analysis::Ci, Budget::unlimited(), opts);
    let mut current = base;
    let mut incremental_removals = false;
    for step in 0..3u64 {
        let cfg = DeltaGenConfig {
            seed: 0xd1ed + step,
            actions: 6,
            removals: true,
        };
        let (patched, fx) = generate_delta(current, &cfg)
            .apply(current)
            .expect("generated delta applies");
        let patched: &'static Program = Box::leak(Box::new(patched));
        assert!(
            patched.vars().len() > current.vars().len(),
            "step {step}: the delta appends variables"
        );
        outcome = resolve_analysis_opts(
            outcome,
            patched,
            &fx,
            Analysis::Ci,
            Budget::unlimited(),
            opts,
        );
        assert!(outcome.completed(), "resolve step {step}: hit budget");
        let state = &outcome.result.state;
        incremental_removals |=
            !fx.removed_stmts.is_empty() && state.stats.incr_fallback_reason.is_none();
        assert_one_pass_projection(patched, state, &format!("hsqldb/ci resolve step {step}"));
        current = patched;
    }
    assert!(
        incremental_removals,
        "no step resolved removals incrementally"
    );
}

/// A plugin that only records what the solver's hooks deliver.
#[derive(Default)]
struct Recorder {
    /// Per pointer, every object delivered to `on_new_points_to`.
    pts: HashMap<u32, Vec<u32>>,
    call_edges: Vec<(CtxId, CallSiteId, CtxId, MethodId)>,
    edges: u64,
}

impl Plugin for Recorder {
    fn on_new_points_to(&mut self, _: &mut SolverState<'_>, ptr: PtrId, delta: &PointsToSet) {
        self.pts.entry(ptr.0).or_default().extend(delta.iter());
    }

    fn on_new_call_edge(
        &mut self,
        _: &mut SolverState<'_>,
        caller_ctx: CtxId,
        site: CallSiteId,
        callee_ctx: CtxId,
        callee: MethodId,
    ) {
        self.call_edges.push((caller_ctx, site, callee_ctx, callee));
    }

    fn on_new_edge(&mut self, _: &mut SolverState<'_>, _: PtrId, _: PtrId, _: EdgeKind) {
        self.edges += 1;
    }
}

/// The hook contract, with and without SCC collapse: each pointer's
/// deltas are disjoint and add up to its final set (a collapsed member
/// included, through the condensation catch-up), each call edge is
/// reported once, and each PFG edge once.
#[test]
fn plugin_hooks_report_every_fact_once() {
    for name in ["hsqldb", "findbugs"] {
        let program = csc_workloads::compiled(name).unwrap();
        for (label, opts) in [
            ("default", SolverOptions::default()),
            ("no-collapse", SolverOptions::no_collapse()),
        ] {
            let (res, rec) = Solver::with_options(
                program,
                CiSelector,
                Recorder::default(),
                Budget::unlimited(),
                opts,
            )
            .solve();
            let st = &res.state;
            assert_eq!(res.status, SolveStatus::Completed);
            if opts.collapse_sccs {
                assert!(st.stats.ptrs_collapsed > 0, "{name}/{label}: no collapse");
            }
            for p in 0..st.ptr_count() as u32 {
                let mut got = rec.pts.get(&p).cloned().unwrap_or_default();
                got.sort_unstable();
                let delivered = got.len();
                got.dedup();
                assert_eq!(got.len(), delivered, "{name}/{label}: pointer {p} overlaps");
                let want: Vec<u32> = st.pt(PtrId(p)).iter().collect();
                assert_eq!(got, want, "{name}/{label}: pointer {p}");
            }
            let mut got = rec.call_edges.clone();
            let mut want = st.call_edges().to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{name}/{label}: call edges");
            assert_eq!(rec.edges, st.stats.edges, "{name}/{label}: PFG edges");
        }
    }
}
