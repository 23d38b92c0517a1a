//! The projected summary of a completed solve.
//!
//! [`SolvedSummary`] holds exactly the solver's observable output — the
//! per-variable points-to sets, the reachable-method set, the call-graph
//! edge set, and the four precision metrics, which is everything the
//! differential harness compares — and is orders of magnitude smaller
//! than the solver state itself. `csc serve` publishes one after every
//! successful `load` and `resolve` and answers its queries from it.

use csc_ir::{CallSiteId, MethodId, ObjId, Program};

use crate::clients::PrecisionMetrics;
use crate::solver::PtaResult;

/// The projected summary of one completed solve.
#[derive(Clone, Debug, PartialEq, Eq)]
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
}

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
        }
    }
}
