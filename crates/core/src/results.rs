//! The projected summary of a completed solve.
//!
//! [`SolvedSummary`] holds exactly the solver's observable output — the
//! per-variable points-to sets, the reachable-method set, the call-graph
//! edge set, and the four precision metrics, which is everything the
//! differential harness compares. It is not small: its points-to lists
//! hold one element per (variable, allocation site) fact, 345k elements
//! (about 2.1 MB) on jedit/CI and 15.5 MB on freecol/CI. That is more
//! than the solver's points-to plane (0.68 and 2.5 MB) and its PFG edges
//! (1.84 and 5.4 MB), which keep large sets as shared bitmap chunks and
//! one set per collapsed SCC. `csc serve` captures one at `load`,
//! [`advance`](SolvedSummary::advance)s it in place after every successful
//! `resolve`, and answers its queries from it.

use csc_ir::{CallSiteId, MethodId, ObjId, Program};

use crate::clients::{cast_may_fail, site_is_poly, PrecisionMetrics};
use crate::solver::{PtaResult, PtrId, PtrKey};

/// The projected summary of one completed solve.
#[derive(Clone, Debug)]
pub struct SolvedSummary {
    /// The result's analysis tag (e.g. `"csc"`, `"CI"`).
    pub analysis: String,
    /// Projected points-to set per variable, indexed by `VarId`; covers
    /// every variable of the program.
    pub pts: Vec<Vec<ObjId>>,
    /// Projected reachable methods, ascending.
    pub reachable: Vec<MethodId>,
    /// Projected call-graph edges, ascending.
    pub call_edges: Vec<(CallSiteId, MethodId)>,
    /// The four precision metrics of the evaluation.
    pub metrics: PrecisionMetrics,
    /// The version of the solver state projected (its lineage and resolve
    /// count), which [`advance`](SolvedSummary::advance) checks.
    version: (u64, u64),
}

/// Two summaries are equal when their projections are; which solver state
/// each was taken from does not matter.
impl PartialEq for SolvedSummary {
    fn eq(&self, other: &Self) -> bool {
        self.analysis == other.analysis
            && self.pts == other.pts
            && self.reachable == other.reachable
            && self.call_edges == other.call_edges
            && self.metrics == other.metrics
    }
}

impl Eq for SolvedSummary {}

impl SolvedSummary {
    /// Captures the summary of a (completed) result: one projection pass
    /// over the pointer table for every variable, and the metrics taken
    /// from those projections.
    pub fn capture(program: &Program, result: &PtaResult<'_>) -> Self {
        let state = &result.state;
        let pts = state.pt_vars_projected(&vec![true; program.vars().len()]);
        let reachable: Vec<MethodId> = state.reachable_methods_projected().into_iter().collect();
        let call_edges: Vec<_> = state.call_edges_projected().into_iter().collect();
        let metrics = PrecisionMetrics::from_projections(program, &pts, &reachable, &call_edges);
        SolvedSummary {
            analysis: result.analysis.clone(),
            pts,
            reachable,
            call_edges,
            metrics,
            version: state.version(),
        }
    }

    /// Brings the summary up to date with `result`, the incremental
    /// resolve of the solver state this summary was captured from or last
    /// advanced to, and returns how many variables it re-projected.
    ///
    /// Only the variables behind the pointers the resolve changed are
    /// re-projected; appended variables without objects start empty.
    /// `reachable` and `call_edges` are patched from the units and call
    /// edges the resolve removed and appended, and the metrics from the
    /// cast sites and call sites those changes touch. Nothing is projected,
    /// sorted or allocated per variable or per call edge of the whole
    /// program: there is one flag per variable, one scan of the pointer
    /// table and one of the cast sites, and the lists are patched by
    /// in-place merges. When `result` is anything else (a fallback or any
    /// other full solve, or a resolve of another state), the summary is
    /// captured in full and the count is every variable. Either way the
    /// summary ends equal to [`capture`](SolvedSummary::capture) of
    /// `result`.
    pub fn advance(&mut self, program: &Program, result: &PtaResult<'_>) -> usize {
        let state = &result.state;
        let Some(ch) = state.changes().filter(|ch| ch.base == self.version) else {
            *self = Self::capture(program, result);
            return self.pts.len();
        };

        // The variables to re-project: those behind changed pointers. An
        // appended variable starts empty, and one that gained objects has
        // a changed pointer.
        let mut wanted = vec![false; program.vars().len()];
        let mut reprojected = 0;
        for &p in &ch.ptrs {
            if let PtrKey::Var(_, v) = state.ptr_key(PtrId(p)) {
                if !wanted[v.index()] {
                    wanted[v.index()] = true;
                    reprojected += 1;
                }
            }
        }

        // Methods and call edges that left or joined the projections.
        let methods = state.reachable_changes(ch, &self.reachable);
        let edges = state.call_edge_changes(ch, &self.call_edges);

        // The metric terms these changes can flip: cast sites whose source
        // was re-projected, whose method changed reachability, or that
        // were appended; call sites that lost or gained a callee.
        let mut flipped: Vec<MethodId> = [&methods.gone[..], &methods.new[..]].concat();
        flipped.sort_unstable();
        let casts: Vec<usize> = program
            .casts()
            .iter()
            .enumerate()
            .filter(|&(i, cast)| {
                i >= ch.base_casts
                    || wanted[cast.rhs().index()]
                    || flipped.binary_search(&cast.method()).is_ok()
            })
            .map(|(i, _)| i)
            .collect();
        let mut sites: Vec<CallSiteId> = edges.gone.iter().chain(&edges.new).map(|e| e.0).collect();
        sites.sort_unstable();
        sites.dedup();
        let fails =
            |s: &Self, i: usize| cast_may_fail(program, &s.pts, &s.reachable, &program.casts()[i]);
        let poly_calls = |s: &Self| {
            sites
                .iter()
                .filter(|&&site| site_is_poly(program, &s.call_edges, site))
                .count()
        };
        // An appended cast site did not count before.
        let fail_before = casts
            .iter()
            .filter(|&&i| i < ch.base_casts && fails(self, i))
            .count();
        let poly_before = poly_calls(self);

        self.pts.resize_with(program.vars().len(), Vec::new);
        state.pt_vars_projected_into(&wanted, &mut self.pts);
        methods.apply(&mut self.reachable);
        edges.apply(&mut self.call_edges);
        self.version = state.version();

        let fail_after = casts.iter().filter(|&&i| fails(self, i)).count();
        let poly_after = poly_calls(self);
        let m = &mut self.metrics;
        m.fail_casts = m.fail_casts + fail_after - fail_before;
        m.poly_calls = m.poly_calls + poly_after - poly_before;
        m.reach_methods = self.reachable.len();
        m.call_edges = self.call_edges.len();
        if self.analysis != result.analysis {
            self.analysis.clone_from(&result.analysis);
        }
        reprojected
    }
}

/// What left and what joined a sorted projection, each ascending.
pub(crate) struct Diff<T> {
    /// Elements of the projection that left it.
    pub(crate) gone: Vec<T>,
    /// Elements not in the projection that joined it.
    pub(crate) new: Vec<T>,
}

impl<T: Ord + Copy> Diff<T> {
    /// Patches the ascending `list` in place: removes `gone`, then merges
    /// in `new` from the back.
    fn apply(&self, list: &mut Vec<T>) {
        let (gone, new) = (&self.gone, &self.new);
        if !gone.is_empty() {
            let mut g = 0;
            list.retain(|x| {
                while g < gone.len() && gone[g] < *x {
                    g += 1;
                }
                !(g < gone.len() && gone[g] == *x)
            });
        }
        let (mut i, mut j) = (list.len(), new.len());
        list.extend_from_slice(new);
        while j > 0 {
            if i > 0 && list[i - 1] > new[j - 1] {
                list[i + j - 1] = list[i - 1];
                i -= 1;
            } else {
                list[i + j - 1] = new[j - 1];
                j -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_removes_and_merges() {
        let diff = |gone: &[u32], new: &[u32]| Diff {
            gone: gone.to_vec(),
            new: new.to_vec(),
        };
        let mut list = vec![1, 3, 5, 7, 9];
        diff(&[3, 9], &[0, 4, 8, 10]).apply(&mut list);
        assert_eq!(list, [0, 1, 4, 5, 7, 8, 10]);
        diff(&[], &[]).apply(&mut list);
        assert_eq!(list, [0, 1, 4, 5, 7, 8, 10]);
        let mut empty: Vec<u32> = Vec::new();
        diff(&[], &[2, 6]).apply(&mut empty);
        assert_eq!(empty, [2, 6]);
        diff(&[2, 6], &[]).apply(&mut empty);
        assert!(empty.is_empty());
    }
}
