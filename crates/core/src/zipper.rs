//! Zipper-e-style selective context sensitivity (Li et al., TOPLAS 2020) —
//! the state-of-the-art baseline the paper compares against in §5.3.
//!
//! Zipper-e runs in three phases:
//!
//! 1. a **pre-analysis** — a context-insensitive pointer analysis;
//! 2. **selection** — from the pre-analysis, find the *precision-critical*
//!    methods: those exhibiting Zipper's three flow patterns (wrapped flow
//!    into fields, wrapped flow out of fields, and direct/unwrapped
//!    parameter-to-return flow), plus container-class methods; then apply
//!    the express ("-e") efficiency threshold, deselecting methods whose
//!    pre-analysis points-to volume marks them as scalability threats;
//! 3. a **main analysis** — object-sensitive contexts applied only to the
//!    selected methods, everything else context-insensitive.
//!
//! This reproduces the structure and signals of the original; the precision
//! flow graph construction is simplified to the pattern level (see
//! DESIGN.md §2 for the substitution note).

use std::collections::HashSet;

use csc_ir::{MethodId, MethodKind, Program};

use crate::csc::{ContainerSpec, StaticInfo};
use crate::solver::{PtaResult, PtrKey};

/// Tuning knobs for selection.
#[derive(Copy, Clone, Debug)]
pub struct ZipperOptions {
    /// Context depth of the main analysis (2 = the paper's configuration).
    pub k: usize,
    /// A method is deselected when its points-to volume exceeds
    /// `threshold_factor` times the average volume of reachable methods.
    pub threshold_factor: f64,
    /// Lower bound for the deselection threshold.
    pub min_threshold: usize,
}

impl Default for ZipperOptions {
    fn default() -> Self {
        ZipperOptions {
            k: 2,
            threshold_factor: 8.0,
            min_threshold: 64,
        }
    }
}

/// The outcome of Zipper-e's selection phase.
#[derive(Clone, Debug)]
pub struct ZipperE {
    /// Methods to analyze context-sensitively.
    pub selected: HashSet<MethodId>,
    /// Precision-critical candidates before the efficiency threshold.
    pub candidates: usize,
    /// Candidates dropped by the efficiency threshold.
    pub deselected_for_cost: usize,
}

impl ZipperE {
    /// Runs the selection phase on a finished pre-analysis result.
    pub fn select(program: &Program, pre: &PtaResult<'_>, opts: ZipperOptions) -> ZipperE {
        let info = StaticInfo::compute(program);
        let reachable = pre.state.reachable_methods_projected();

        // Per-variable points-to volume from the pre-analysis.
        let mut var_volume = vec![0usize; program.vars().len()];
        for p in 0..pre.state.ptr_count() {
            if let PtrKey::Var(_, v) = pre.state.ptr_key(crate::solver::PtrId(p as u32)) {
                var_volume[v.index()] += pre.state.pt(crate::solver::PtrId(p as u32)).len();
            }
        }
        let method_volume = |m: MethodId| -> usize {
            program
                .method(m)
                .vars()
                .iter()
                .map(|v| var_volume[v.index()])
                .sum()
        };

        // Container classes are precision-critical wholesale (Zipper's
        // wrapped flows find them; we use the spec's host roots).
        let spec = ContainerSpec::mini_jdk().resolve(program);
        let is_container_method = |m: MethodId| -> bool {
            let class = program.method(m).class();
            spec.is_host_class(class) || spec.has_role(m)
        };

        let mut candidates: HashSet<MethodId> = HashSet::new();
        for &m in &reachable {
            let method = program.method(m);
            if method.is_abstract() {
                continue;
            }
            // Direct (unwrapped) flow: parameters reach the return value.
            if !info.lflow[m.index()].is_empty() {
                candidates.insert(m);
            }
            // Wrapped flow in: a parameter is stored into a parameter's
            // field (setters, constructors).
            if !info.prop_store_seeds[m.index()].is_empty() {
                candidates.insert(m);
            }
            // Wrapped flow out: a parameter's field is loaded into the
            // return value (getters), or more generally the method loads a
            // parameter's field and returns a reference — Zipper's object
            // flow graph reaches these through the class's OUT methods.
            if !info.prop_load_seeds[m.index()].is_empty() || info.cut_load_returns[m.index()] {
                candidates.insert(m);
            }
            if method.ret_ty().is_reference()
                && program.loads().iter().any(|l| {
                    l.method() == m && info.unredefined_param_k[l.base().index()].is_some()
                })
            {
                candidates.insert(m);
            }
            // Containers.
            if is_container_method(m) {
                candidates.insert(m);
            }
            // Constructors that store any argument (common wrapped flow).
            if method.kind() == MethodKind::Constructor {
                let stores_param = program.stores().iter().any(|s| {
                    s.method() == m && info.unredefined_param_k[s.rhs().index()].is_some()
                });
                if stores_param {
                    candidates.insert(m);
                }
            }
        }

        // Express efficiency threshold.
        let total: usize = reachable.iter().map(|&m| method_volume(m)).sum();
        let avg = if reachable.is_empty() {
            0.0
        } else {
            total as f64 / reachable.len() as f64
        };
        let threshold = (avg * opts.threshold_factor)
            .max(opts.min_threshold as f64)
            .ceil() as usize;
        let n_candidates = candidates.len();
        let mut deselected = 0usize;
        let selected: HashSet<MethodId> = candidates
            .into_iter()
            .filter(|&m| {
                let keep = method_volume(m) <= threshold;
                if !keep {
                    deselected += 1;
                }
                keep
            })
            .collect();

        ZipperE {
            selected,
            candidates: n_candidates,
            deselected_for_cost: deselected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CiSelector;
    use crate::solver::{Budget, NoPlugin, Solver};

    #[test]
    fn selects_setters_getters_and_selects() {
        let program = csc_frontend::compile(
            r#"
            class Box {
                Object f;
                void set(Object v) { this.f = v; }
                Object get() { return this.f; }
                Object pick(Object a, Object b) { if (true) { return a; } return b; }
                int size() { return 0; }
            }
            class Main {
                static void main() {
                    Box b = new Box();
                    b.set(new Object());
                    Object x = b.get();
                    Object y = b.pick(new Object(), new Object());
                    int n = b.size();
                }
            }
            "#,
        )
        .unwrap();
        let (pre, _) = Solver::new(&program, CiSelector, NoPlugin, Budget::unlimited()).solve();
        let z = ZipperE::select(&program, &pre, ZipperOptions::default());
        let q = |n: &str| program.method_by_qualified_name(n).unwrap();
        assert!(z.selected.contains(&q("Box.set")));
        assert!(z.selected.contains(&q("Box.get")));
        assert!(z.selected.contains(&q("Box.pick")));
        assert!(!z.selected.contains(&q("Box.size")));
        assert!(!z.selected.contains(&q("Main.main")));
    }
}
