//! # csc-core — the Cut-Shortcut pointer analysis engine
//!
//! A whole-program, flow-insensitive, Andersen-style pointer analysis for
//! the `csc-ir` Java-like representation, reproducing:
//!
//! * the paper's baseline analyses — context insensitivity (`CI`),
//!   conventional context sensitivity (`2obj`, `2type`, `k`-call-site), and
//!   Zipper-e-style selective context sensitivity ([`zipper`]);
//! * the paper's contribution — the **Cut-Shortcut** analysis ([`csc`]),
//!   which runs the context-insensitive solver on a transformed pointer flow
//!   graph, with all rules of Figs. 7–11 implemented;
//! * the four precision clients of the evaluation ([`clients`]).
//!
//! ## Quickstart
//!
//! ```
//! use csc_core::{run_analysis, Analysis, Budget, PrecisionMetrics};
//!
//! let program = csc_frontend::compile(r#"
//!     class Carton {
//!         Item item;
//!         void setItem(Item item) { this.item = item; }
//!         Item getItem() { Item r; r = this.item; return r; }
//!     }
//!     class Item { }
//!     class Main {
//!         static void main() {
//!             Carton c1 = new Carton();
//!             Item item1 = new Item();
//!             c1.setItem(item1);
//!             Item result1 = c1.getItem();
//!         }
//!     }
//! "#).expect("valid program");
//!
//! let outcome = run_analysis(&program, Analysis::CutShortcut, Budget::unlimited());
//! let metrics = PrecisionMetrics::compute(&outcome.result);
//! assert!(metrics.reach_methods >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clients;
pub mod context;
pub mod csc;
pub mod fault;
pub mod mem;
pub mod pts;
pub mod results;
pub mod scc;
pub mod solver;
pub mod zipper;

mod analyses;
mod arena;
mod shard;

pub use analyses::{
    decode_delta_guarded, resolve_analysis, resolve_analysis_guarded, resolve_analysis_opts,
    run_analysis, run_analysis_guarded, run_analysis_opts, Analysis, AnalysisOutcome,
};
pub use clients::PrecisionMetrics;
pub use context::{
    CallInfo, CallSiteSelector, CiSelector, ContextSelector, CtxElem, CtxId, CtxInterner,
    ObjSelector, SelectiveSelector, TypeSelector,
};
pub use csc::{pattern_methods, rebase_compatible, CscConfig, CscStats, CutShortcut};
pub use csc_ir::fx;
pub use fault::{FaultMode, FaultPoint};
pub use pts::PointsToSet;
pub use results::SolvedSummary;
pub use scc::OnlineScc;
pub use solver::incr::Resolved;
pub use solver::{
    Budget, CsObjId, EdgeKind, FallbackReason, NoPlugin, Plugin, PtaResult, PtrId, PtrKey,
    ShortcutKind, SolveError, SolveStatus, Solver, SolverOptions, SolverState, SolverStats,
};
pub use zipper::ZipperE;
