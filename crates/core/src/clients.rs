//! The four precision clients used as metrics throughout the paper's
//! evaluation (§5): cast resolution (#fail-cast), method reachability
//! (#reach-mtd), devirtualization (#poly-call), and call-graph construction
//! (#call-edge). For every metric, smaller is better.

use csc_ir::{CallKind, CallSiteId, CastSite, MethodId, ObjId, Program, Type};

use crate::solver::PtaResult;

/// The four precision metrics of the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PrecisionMetrics {
    /// Casts that may fail (an object in the source's points-to set is not a
    /// subtype of the cast target).
    pub fail_casts: usize,
    /// Reachable methods.
    pub reach_methods: usize,
    /// Virtual call sites resolved to more than one target.
    pub poly_calls: usize,
    /// Call-graph edges (context-insensitively projected).
    pub call_edges: usize,
}

impl PrecisionMetrics {
    /// Computes all four metrics from an analysis result. Points-to sets
    /// are projected, in one pass, only for the source variables of casts
    /// in reachable methods.
    pub fn compute(result: &PtaResult<'_>) -> Self {
        let state = &result.state;
        let program = state.program;
        let reachable: Vec<MethodId> = state.reachable_methods_projected().into_iter().collect();
        let call_edges: Vec<_> = state.call_edges_projected().into_iter().collect();
        let mut sources = vec![false; program.vars().len()];
        for cast in program.casts() {
            if reachable.binary_search(&cast.method()).is_ok() {
                sources[cast.rhs().index()] = true;
            }
        }
        let pts = state.pt_vars_projected(&sources);
        Self::from_projections(program, &pts, &reachable, &call_edges)
    }

    /// The metrics of already projected results: `pts` is indexed by
    /// variable and covers at least the source variable of every reachable
    /// cast; `reachable` and `call_edges` are ascending and deduplicated.
    pub(crate) fn from_projections(
        program: &Program,
        pts: &[Vec<ObjId>],
        reachable: &[MethodId],
        call_edges: &[(CallSiteId, MethodId)],
    ) -> Self {
        PrecisionMetrics {
            fail_casts: fail_casts(program, pts, reachable),
            reach_methods: reachable.len(),
            poly_calls: poly_calls(program, call_edges),
            call_edges: call_edges.len(),
        }
    }
}

/// The number of cast sites that may fail.
///
/// A cast `x = (T) y` in a method of `reachable` (ascending) may fail iff
/// some object in `pts[y]` (points-to sets indexed by variable) is not a
/// subtype of `T`.
pub fn fail_casts(program: &Program, pts: &[Vec<ObjId>], reachable: &[MethodId]) -> usize {
    program
        .casts()
        .iter()
        .filter(|cast| cast_may_fail(program, pts, reachable, cast))
        .count()
}

/// Whether one cast site may fail (see [`fail_casts`]).
pub(crate) fn cast_may_fail(
    program: &Program,
    pts: &[Vec<ObjId>],
    reachable: &[MethodId],
    cast: &CastSite,
) -> bool {
    reachable.binary_search(&cast.method()).is_ok()
        && pts[cast.rhs().index()].iter().any(|&o| {
            let ty = Type::Class(program.obj(o).class());
            !program.is_subtype(ty, cast.ty())
        })
}

/// The number of virtual call sites that resolve to more than one callee
/// in the projected call graph `call_edges` (ascending, deduplicated).
pub fn poly_calls(program: &Program, call_edges: &[(CallSiteId, MethodId)]) -> usize {
    call_edges
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|targets| is_poly(program, targets[0].0, targets.len()))
        .count()
}

/// Whether `site` counts in [`poly_calls`] of `call_edges` (ascending,
/// deduplicated); its callees are found by binary search.
pub(crate) fn site_is_poly(
    program: &Program,
    call_edges: &[(CallSiteId, MethodId)],
    site: CallSiteId,
) -> bool {
    let from = call_edges.partition_point(|e| e.0 < site);
    let targets = call_edges[from..].partition_point(|e| e.0 == site);
    is_poly(program, site, targets)
}

/// Whether a call site with `targets` callees is a polymorphic call: a
/// virtual call with more than one.
fn is_poly(program: &Program, site: CallSiteId, targets: usize) -> bool {
    targets > 1 && program.call_site(site).kind() == CallKind::Virtual
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CiSelector;
    use crate::solver::{Budget, NoPlugin, Solver};

    fn analyze(src: &str) -> PrecisionMetrics {
        let program = csc_frontend::compile(src).expect("compiles");
        let program = Box::leak(Box::new(program));
        let (result, _) = Solver::new(program, CiSelector, NoPlugin, Budget::unlimited()).solve();
        PrecisionMetrics::compute(&result)
    }

    #[test]
    fn monomorphic_call_is_not_poly() {
        let m = analyze(
            r#"
            class A { void m() { } }
            class Main { static void main() { A a = new A(); a.m(); } }
            "#,
        );
        assert_eq!(m.poly_calls, 0);
        assert_eq!(m.call_edges, 1);
        assert_eq!(m.reach_methods, 2); // main + A.m
    }

    #[test]
    fn merged_receivers_make_poly_call() {
        let m = analyze(
            r#"
            abstract class A { abstract void m(); }
            class B extends A { void m() { } }
            class C extends A { void m() { } }
            class Main {
                static void main() {
                    A a = pick(new B(), new C());
                    a.m();
                }
                static A pick(A x, A y) { A r; if (true) { r = x; } else { r = y; } return r; }
            }
            "#,
        );
        // CI merges both receivers at the call site.
        assert_eq!(m.poly_calls, 1);
    }

    #[test]
    fn fail_cast_detected_under_ci_merging() {
        let m = analyze(
            r#"
            class A { }
            class B { }
            class Main {
                static Object id(Object o) { return o; }
                static void main() {
                    Object a = id(new A());
                    Object b = id(new B());
                    A onlyA = (A) a;
                }
            }
            "#,
        );
        // CI merges A and B objects in id(); the cast sees a B, may fail.
        assert_eq!(m.fail_casts, 1);
    }

    #[test]
    fn safe_cast_not_counted() {
        let m = analyze(
            r#"
            class A { }
            class Main {
                static void main() {
                    Object a = new A();
                    A x = (A) a;
                }
            }
            "#,
        );
        assert_eq!(m.fail_casts, 0);
    }
}
