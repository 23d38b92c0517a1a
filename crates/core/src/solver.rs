//! The pointer-analysis engine: a delta-propagating worklist solver over the
//! pointer flow graph (PFG) with on-the-fly call-graph construction,
//! implementing the rules of Fig. 7 of the paper.
//!
//! The solver is generic over a [`ContextSelector`] (context insensitivity,
//! `k`-obj/`k`-type/`k`-call-site, selective) and over a [`Plugin`] that can
//! observe solver events and manipulate the PFG. Cut-Shortcut is implemented
//! entirely as such a plugin (`crate::csc`): its `cutStores`/`cutReturns`
//! sets suppress edge creation in the `[Store]`/`[Return]` rules, and its
//! shortcut edges (`E_SC`) enter the graph through [`SolverState::add_edge`].
//!
//! ## Data plane
//!
//! The state is organized for dense-id access: the empty context (which
//! every pointer of a CI or Cut-Shortcut run and most pointers of a
//! selective run live under) interns variables and objects through plain
//! `Vec` lookups, with small FxHash tables only as the residual path for
//! context-qualified entities. PFG edge deduplication reuses the hybrid
//! [`PointsToSet`] as a per-source target set, and the worklist batches
//! deltas per pointer — repeated `NewPointsTo` deltas targeting the same
//! pointer coalesce into one pending set before fan-out.
//!
//! ## SCC-collapsed propagation
//!
//! Assign-cycles (SCCs of *unfiltered* copy edges — assigns, parameters,
//! returns, shortcut edges; everything but cast-filtered edges) are
//! periodically collapsed onto a representative pointer: a union-find
//! ([`crate::scc::UnionFind`]) redirects the shared points-to set, the
//! successor lists, and the pending-delta accumulator of every member to
//! the representative, so a delta entering the cycle costs one union
//! instead of one trip around the cycle. Collapsing is *precision-neutral*
//! and observationally transparent:
//!
//! * statement processing (`[Load]`/`[Store]`/`[Call]`) and `NewPointsTo`
//!   events still happen per member — when a representative's set grows,
//!   the delta fans out to every member's statements, so plugins (the
//!   Cut-Shortcut obligations in particular) see the same logical growth
//!   per pointer as the uncollapsed solver;
//! * PFG edges are deduplicated on their *original* endpoints, `NewEdge`
//!   events carry original endpoints, and `has_edge` answers on original
//!   endpoints — only the physical successor lists live at representatives;
//! * projections read through the union-find, so results are fanned back
//!   out to members at projection time.
//!
//! Cycles are detected offline-per-epoch (Nuutila-style): after every
//! `collapse_epoch` unfiltered-edge insertions a Tarjan condensation runs
//! over the current representatives, which keeps the scheme correct under
//! edges that plugins (cut/shortcut) insert mid-solve. The
//! `tests/differential.rs` harness asserts bit-identical results with
//! collapsing on and off for every suite program × analysis configuration.
//!
//! ## Sharded parallel propagation
//!
//! With [`SolverOptions::threads`] ≥ 2 the solver runs a bulk-synchronous
//! sharded engine (see [`crate::shard`]): pointer slots are partitioned
//! across shards by SCC representative (slot id modulo shard count — a
//! collapsed cycle reads and writes only its representative's slot, so it
//! never straddles shards), each worker thread owns one shard's `pts` and
//! `pending` halves, and a round unions the drained worklist deltas in
//! parallel, exchanging cross-shard deltas through per-shard outboxes.
//! The workers are spawned **once per solve** into a persistent parked
//! pool ([`crate::pool`]) — event-driven solves execute thousands of tiny
//! rounds, and a spawn/join pair per worker per round used to dominate
//! them.
//!
//! ### The parallel coordinator
//!
//! Statement fan-out no longer runs on the coordinator: each worker
//! replays the `[Load]`/`[Store]`/`[Call]` discovery (including virtual
//! dispatch) and the plugin's [`Plugin::discover`] reactions for the
//! deltas it committed, against a round-frozen snapshot of the statement
//! index, SCC membership, and the per-shard obligation tables, and emits
//! *derived-edge* and *call-resolution* packets ([`crate::shard::Derived`])
//! describing the resulting mutations by key. What remains on the (now
//! much thinner) coordinator is the commit half: interning, PFG and
//! call-graph growth, context selection, plugin-table updates, event
//! delivery, and condensation epochs — all replayed in deterministic
//! (shard, batch, packet) order. [`SolverStats::parallel_secs`] and
//! [`SolverStats::coordinator_secs`] time the two phases so the Amdahl
//! split is measurable per run.
//!
//! Cross-thread merge orders are sorted by source shard, so a run is
//! deterministic for a fixed thread count and its *projected* results are
//! bit-identical to the sequential engine's for every thread count
//! (enforced by the differential harness). `threads = 1` takes the
//! original sequential loop untouched, propagation counts included.

use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use csc_ir::{
    CallKind, CallSiteId, CastId, DeltaEffects, FieldId, LoadId, MethodId, ObjId, Program, Stmt,
    StoreId, VarId,
};

use crate::context::{CallInfo, ContextSelector, CtxId, CtxInterner};
use crate::fx::{FxHashMap, FxHashSet};
use crate::pts::PointsToSet;

/// Incremental re-solve: delta rebase, removal-cone reset, and localized
/// re-propagation. A child module of `solver` (not a sibling) because it
/// reaches into [`SolverState`]'s private data plane.
#[path = "incr.rs"]
pub mod incr;

/// A dense id for a PFG pointer (context-qualified variable or
/// context-qualified abstract object's field).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PtrId(pub u32);

/// A dense id for a context-qualified abstract object.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CsObjId(pub u32);

/// What a [`PtrId`] denotes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PtrKey {
    /// A variable under a context.
    Var(CtxId, VarId),
    /// An instance field of a context-qualified object.
    Field(CsObjId, FieldId),
    /// A commit-plane placeholder: an unused slot in a worker's pre-
    /// reserved id stride, or a duplicate intern that reconciliation
    /// aliased onto its canonical id (the alias reads through the
    /// union-find; its own slot carries no state). Never reachable from
    /// projections, events, or statement fan-out.
    Dead,
}

/// Provenance of a PFG edge; lets plugins distinguish load edges from
/// return edges etc. (needed by the `[RelayEdge]` rule).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Local assignment (`[Assign]`).
    Assign,
    /// Reference cast (treated as assignment, as in Tai-e).
    Cast(CastId),
    /// Field load edge `o.f -> x` (`[Load]`).
    Load(LoadId),
    /// Field store edge `y -> o.f` (`[Store]`).
    Store(StoreId),
    /// Argument-to-parameter edge (`[Param]`).
    Param,
    /// Return-variable-to-call-site-lhs edge (`[Return]`); carries the
    /// callee method.
    Return(MethodId),
    /// A shortcut edge added by the Cut-Shortcut plugin (`[Shortcut]`).
    Shortcut(ShortcutKind),
}

/// Which Cut-Shortcut rule produced a shortcut edge.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ShortcutKind {
    /// `[ShortcutStore]` — field access pattern, stores.
    Store,
    /// `[ShortcutLoad]` — field access pattern, loads.
    Load,
    /// `[RelayEdge]` — soundness relay for mixed returns.
    Relay,
    /// `[ShortcutContainer]` — container access pattern.
    Container,
    /// `[ShortcutLFlow]` — local flow pattern.
    LocalFlow,
}

/// An observable solver event, delivered to the [`Plugin`] in order.
#[derive(Clone, Debug)]
pub enum Event {
    /// `delta` was added to `pt(ptr)`.
    NewPointsTo {
        /// The pointer whose set grew.
        ptr: PtrId,
        /// Exactly the new objects.
        delta: PointsToSet,
    },
    /// A new call-graph edge was discovered.
    NewCallEdge {
        /// Caller context.
        caller_ctx: CtxId,
        /// The call site.
        site: CallSiteId,
        /// Callee context.
        callee_ctx: CtxId,
        /// Resolved callee.
        callee: MethodId,
    },
    /// A method became reachable under a context.
    NewReachable {
        /// The context.
        ctx: CtxId,
        /// The method.
        method: MethodId,
    },
    /// A PFG edge was added.
    NewEdge {
        /// Source pointer.
        src: PtrId,
        /// Target pointer.
        dst: PtrId,
        /// Provenance.
        kind: EdgeKind,
    },
}

/// The read-only solver facts available to worker-side discovery
/// ([`Plugin::discover`]): enough to classify the objects of a delta
/// without touching (or being able to touch) the mutable solver state.
pub struct DiscoverCtx<'a> {
    /// `CsObjId` → (heap context, allocation site), indexed by raw id.
    pub obj_keys: &'a [(CtxId, ObjId)],
    /// The program under analysis.
    pub program: &'a Program,
}

impl DiscoverCtx<'_> {
    /// The (heap context, allocation site) behind a context-qualified
    /// object.
    pub fn obj_key(&self, o: CsObjId) -> (CtxId, ObjId) {
        self.obj_keys[o.0 as usize]
    }
}

/// A plugin reaction discovered on a worker thread and committed on the
/// coordinator through [`Plugin::apply`]. Reactions name their targets by
/// key (field, already-interned pointer), never by a pointer id the
/// coordinator has not interned yet, so discovery cannot observe or
/// constrain interning order. The delta the reaction was discovered for
/// is *not* embedded: `apply` receives it alongside the reaction, so a
/// delta of `k` objects hitting an obligation costs one reaction, not
/// `k` (mirroring the `LoadFan`/`StoreFan` per-site-activation economy).
#[derive(Clone, Debug)]
pub enum Reaction {
    /// Add shortcut edges `src -> o.field` for every object `o` of the
    /// delta.
    ShortcutToFields {
        /// Source pointer (already interned — obligations carry it).
        src: PtrId,
        /// Target field.
        field: FieldId,
        /// Which Cut-Shortcut rule the edges belong to.
        kind: ShortcutKind,
    },
    /// Add shortcut edges `o.field -> dst` for every object `o` of the
    /// delta.
    ShortcutFromFields {
        /// Source field.
        field: FieldId,
        /// Target pointer (already interned).
        dst: PtrId,
        /// Which Cut-Shortcut rule the edges belong to.
        kind: ShortcutKind,
    },
    /// Objects of the delta classified as container hosts (`[ColHost]` /
    /// `[MapHost]`): merge into the pointer-host map and propagate.
    Hosts {
        /// The pointer whose host set grew.
        ptr: PtrId,
        /// The new host objects.
        hosts: PointsToSet,
    },
}

/// A solver extension. The Cut-Shortcut analysis is the canonical
/// implementation; [`NoPlugin`] is the identity.
pub trait Plugin {
    /// Called once before solving starts.
    fn init(&mut self, st: &mut SolverState<'_>) {
        let _ = st;
    }

    /// Whether the plugin wants [`Event`]s delivered (skipping event
    /// bookkeeping keeps plain analyses allocation-light).
    fn wants_events(&self) -> bool {
        false
    }

    /// Handles one event. May freely add edges / points-to facts via the
    /// state.
    fn handle(&mut self, st: &mut SolverState<'_>, ev: Event) {
        let _ = (st, ev);
    }

    /// `[Store]` cut check: whether the given store site's PFG edges are
    /// suppressed (`cutStores`). Must be a pure predicate of the plugin's
    /// current tables — the parallel engine evaluates it on worker threads
    /// against the round-frozen plugin.
    fn is_store_cut(&self, site: StoreId) -> bool {
        let _ = site;
        false
    }

    /// `[Return]` cut check: whether return edges from `m`'s return variable
    /// are suppressed (`cutReturns`).
    fn is_return_cut(&self, m: MethodId) -> bool {
        let _ = m;
        false
    }

    /// Whether [`Plugin::discover`] replaces `NewPointsTo` event delivery
    /// on the parallel engine. When `true`, parallel rounds run the
    /// plugin's points-to reactions worker-side (discovery) and commit
    /// them through [`Plugin::apply`], and no `NewPointsTo` events are
    /// queued for deltas those rounds commit; `NewCallEdge` / `NewEdge` /
    /// `NewReachable` events are unaffected. The sequential engine ignores
    /// this entirely.
    fn parallel_discovery(&self) -> bool {
        false
    }

    /// Worker-side discovery: reactions to `delta` being added to
    /// `pt(ptr)`. Runs on worker threads against the round-frozen plugin
    /// (`&self`), so it must only *read* plugin tables and describe the
    /// mutations as [`Reaction`]s; the coordinator commits them through
    /// [`Plugin::apply`] in deterministic packet order. Registration
    /// replay (obligations added later re-scan the current points-to set)
    /// must make the discover/apply split insensitive to the round
    /// boundary — the Cut-Shortcut tables are built that way.
    fn discover(
        &self,
        ptr: PtrId,
        delta: &PointsToSet,
        dctx: &DiscoverCtx<'_>,
        out: &mut Vec<Reaction>,
    ) {
        let _ = (ptr, delta, dctx, out);
    }

    /// Commits one worker-discovered [`Reaction`] (coordinator-side).
    /// `delta` is the points-to growth the reaction was discovered for —
    /// per-object reactions iterate it here, at commit time.
    fn apply(&mut self, st: &mut SolverState<'_>, delta: &PointsToSet, reaction: Reaction) {
        let _ = (st, delta, reaction);
    }

    /// Whether the plugin can carry its derived state across a program
    /// delta from `base` to `patched`, rebasing any statically computed
    /// tables onto the patched program. Returning `false` makes the
    /// incremental driver fall back to a full solve
    /// ([`FallbackReason::CscObligations`]). Stateless plugins are always
    /// rebasable, hence the default.
    fn rebase(&mut self, base: &Program, patched: &Program, fx: &DeltaEffects) -> bool {
        let _ = (base, patched, fx);
        true
    }
}

/// The identity plugin (plain Andersen-style analysis).
#[derive(Copy, Clone, Debug, Default)]
pub struct NoPlugin;

impl Plugin for NoPlugin {}

/// Solver termination status.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// Fixpoint reached.
    Completed,
    /// The time or propagation budget was exhausted first.
    Timeout,
    /// A propagation worker panicked (or an injected fault fired) and the
    /// round was unwound like a budget abort: the state is safe to drop
    /// and safe to read, but its projections are partial and it must not
    /// be continued. [`PtaResult::error`] carries the typed cause.
    Poisoned,
}

/// A typed, survivable solve failure — the replacement for
/// panic-as-abort. The process never dies on these: the worker pool
/// catches the unwind, the coordinator finishes the round teardown
/// deterministically, and callers receive this alongside a
/// [`SolveStatus::Poisoned`] result (or through the guarded entry points
/// `run_analysis_guarded` / `resolve_analysis_guarded` when the panic
/// happened coordinator-side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// A panic escaped a propagation worker (`worker = Some(i)`) or the
    /// coordinator / sequential engine (`worker = None`); `payload` is the
    /// stringified panic payload.
    Poisoned {
        /// Index of the panicking pool worker, `None` for the coordinator.
        worker: Option<usize>,
        /// The stringified panic payload.
        payload: String,
    },
    /// An armed [`crate::fault::FaultPoint`] fired in `err` mode.
    Fault {
        /// The fault point that fired.
        point: crate::fault::FaultPoint,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Poisoned { worker, payload } => match worker {
                Some(w) => write!(f, "solve poisoned: worker {w} panicked: {payload}"),
                None => write!(f, "solve poisoned: {payload}"),
            },
            SolveError::Fault { point } => write!(f, "injected fault at {point}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Resource limits, emulating the paper's 2-hour budget.
#[derive(Copy, Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock limit.
    pub time: Option<Duration>,
    /// Maximum number of points-to propagations (deterministic limit,
    /// useful in tests).
    pub max_propagations: Option<u64>,
}

impl Budget {
    /// No limits.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Wall-clock limit only.
    pub fn with_time(d: Duration) -> Self {
        Budget {
            time: Some(d),
            max_propagations: None,
        }
    }
}

/// Counters reported alongside results.
#[derive(Copy, Clone, Debug, Default)]
pub struct SolverStats {
    /// Worklist propagations with a non-empty delta.
    pub propagations: u64,
    /// PFG edges added (logical edges, counted on original endpoints).
    pub edges: u64,
    /// Call-graph edges added.
    pub call_edges: u64,
    /// Reachable (context, method) pairs.
    pub reachable: u64,
    /// Distinct pointers interned.
    pub pointers: u64,
    /// Distinct context-qualified objects interned.
    pub objects: u64,
    /// SCC condensation epochs executed.
    pub scc_runs: u64,
    /// Nontrivial assign-SCCs collapsed across all epochs.
    pub sccs_collapsed: u64,
    /// Pointers merged into another representative.
    pub ptrs_collapsed: u64,
    /// Worker threads the propagation engine ran with (1 = the sequential
    /// engine; the resolved value when [`SolverOptions::threads`] was 0).
    pub threads: u64,
    /// Bulk-synchronous parallel rounds executed (0 on the sequential
    /// path).
    pub parallel_rounds: u64,
    /// Wall-clock seconds spent inside parallel phases (workers running,
    /// coordinator waiting at the round barrier). Always 0 on the
    /// sequential engine.
    pub parallel_secs: f64,
    /// Wall-clock seconds spent outside parallel phases: packet commits,
    /// plugin events, call-graph growth, condensation epochs, inline small
    /// rounds. On the sequential engine this is the whole solve, so
    /// `parallel_secs / (parallel_secs + coordinator_secs)` is the
    /// measured Amdahl split of a run.
    pub coordinator_secs: f64,
    /// Wall-clock seconds of `coordinator_secs` spent in the per-round
    /// commit section (packet replay, commit-plane reconciliation, flush
    /// and event delivery) — the slice of the coordinator the sharded
    /// commit plane exists to shrink. Always 0 on the sequential engine.
    pub commit_secs: f64,
    /// Async engine: work-stealing propagation phases dispatched — each is
    /// one coordinated pause (quiescence wait + commit), the async
    /// engine's analogue of a round barrier. Always 0 on the sequential
    /// and BSP engines; compare against `parallel_rounds` on the same
    /// workload to see the barrier eliminations.
    pub pause_count: u64,
    /// Async engine: successful steal batches (a worker drained part of a
    /// loaded peer shard's worklist). Schedule-dependent by nature.
    pub steal_count: u64,
    /// Incremental re-solves performed on this state (via
    /// [`Solver::resolve`] or `resolve_analysis`), including fallbacks.
    pub incr_resolves: u64,
    /// Incremental re-solves that abandoned localized re-propagation and
    /// ran a full from-scratch solve instead.
    pub incr_fallbacks: u64,
    /// Why the most recent incremental re-solve fell back (`None` when it
    /// completed via localized re-propagation).
    pub incr_fallback_reason: Option<FallbackReason>,
    /// Wall-clock seconds of the most recent incremental re-solve
    /// (localized or fallback), excluding delta application itself.
    pub resolve_secs: f64,
    /// Heap bytes of the points-to plane (`pts` + pending accumulators) at
    /// solve end, with CoW-shared dense chunks attributed once (see
    /// [`crate::mem`]).
    pub pts_bytes: u64,
    /// Heap bytes of the PFG edge storage (successor arenas + edge-dedup
    /// pair sets) at solve end.
    pub edge_bytes: u64,
    /// Dense-chunk references deduplicated by copy-on-write sharing at
    /// solve end — each would have cost a 512-byte block unshared.
    pub shared_chunks: u64,
}

/// Why an incremental re-solve ([`Solver::resolve`]) abandoned localized
/// re-propagation and ran a full from-scratch solve of the patched program
/// instead. Recorded in [`SolverStats::incr_fallback_reason`]; falling back
/// is always sound (the result is a complete solve), the reason exists so
/// callers and the differential harness can check it fires exactly when its
/// precondition holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The base result did not run to completion (budget exhaustion), so
    /// there is no fixpoint to extend.
    BaseIncomplete,
    /// The delta changed an existing `(class, signature) → method` dispatch
    /// mapping (e.g. an added override of an inherited method), so derived
    /// call edges could be invalidated non-monotonically.
    DispatchChanged,
    /// The removal cone touched an SCC-collapsed pointer: per-member resets
    /// cannot be localized through a merged representative's shared set.
    SccStructure,
    /// The delta touched Cut-Shortcut obligations: statements were removed
    /// while the plugin holds derived cut/shortcut state, or the static
    /// pattern tables changed on base-program entities.
    CscObligations,
    /// A selective analysis's selection changed: the Zipper-e (or hybrid)
    /// pre-analysis selects a different method set on the patched program,
    /// so the old main-analysis contexts no longer apply.
    PreanalysisChanged,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackReason::BaseIncomplete => "base-incomplete",
            FallbackReason::DispatchChanged => "dispatch-changed",
            FallbackReason::SccStructure => "scc-structure",
            FallbackReason::CscObligations => "csc-obligations",
            FallbackReason::PreanalysisChanged => "preanalysis-changed",
        })
    }
}

/// Which multi-threaded propagation engine a solve runs
/// ([`SolverOptions::engine`]); irrelevant when `threads == 1`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The async work-stealing loop (the default): workers own their
    /// shards' worklists, exchange deltas without round boundaries, steal
    /// from loaded peers when dry, and pause only for coordinator-side
    /// structural work (quiescence-detected). Deterministic in *results*
    /// (projections and precision metrics bit-identical to the sequential
    /// engine), not in schedule (per-run propagation counts vary as
    /// deltas coalesce differently).
    Async,
    /// The bulk-synchronous engine: barriered rounds with a deterministic
    /// coordinator pass between them; propagation counts are reproducible
    /// per thread count.
    Bsp,
}

/// Engine tuning knobs, independent of the analysis policy (context
/// selector / plugin). The default enables SCC-collapsed propagation with
/// an adaptive epoch length.
#[derive(Copy, Clone, Debug)]
pub struct SolverOptions {
    /// Collapse assign-cycles (SCCs of unfiltered copy edges) onto
    /// representative pointers during solving. Precision-neutral — the
    /// differential harness (`crates/core/tests/differential.rs`) asserts
    /// bit-identical projected results either way.
    pub collapse_sccs: bool,
    /// Unfiltered-copy-edge insertions between condensation epochs. `None`
    /// picks an adaptive threshold from the current pointer count; tests
    /// use small values to stress merge paths on tiny programs.
    pub collapse_epoch: Option<u32>,
    /// Propagation worker threads. `1` (the default) runs the sequential
    /// engine unchanged; `0` resolves to the machine's available
    /// parallelism; `>= 2` runs the sharded bulk-synchronous engine, whose
    /// projected results are bit-identical to the sequential engine's for
    /// any thread count (enforced by `tests/differential.rs`) while its
    /// propagation counts are deterministic per thread count.
    pub threads: usize,
    /// Sharded commit plane (parallel engine only): workers intern fresh
    /// pointers from pre-reserved id strides and commit `[Load]`/`[Store]`
    /// PFG edges shard-locally, leaving the coordinator only call-graph
    /// merges, reconciliation, and condensation epochs. `None` (the
    /// default) reads the `CSC_PAR_COMMIT` environment variable at solve
    /// start (unset or non-`0` = on); tests pass explicit values so runs
    /// never race on the environment. Ignored when `threads == 1`.
    pub par_commit: Option<bool>,
    /// Topology-aware shard routing (parallel engine only): at each
    /// condensation epoch, re-home slots across shards by a greedy
    /// longest-processing-time pass seeded by observed per-representative
    /// union cost, replacing the arithmetic `id % nshards` placement.
    /// Precision- and determinism-neutral — routing only changes *where* a
    /// slot's row physically lives. `None` (the default) reads the
    /// `CSC_SHARD_ROUTE` environment variable at solve start (`balanced` =
    /// on, anything else — including unset, the `mod` default — = off);
    /// tests pass explicit values. Ignored when `threads == 1`.
    pub balanced_route: Option<bool>,
    /// Multi-threaded propagation engine. `None` (the default) reads the
    /// `CSC_ENGINE` environment variable at solve start (`bsp` = the
    /// bulk-synchronous engine, anything else — including unset — = the
    /// async work-stealing engine); tests pass explicit values. Ignored
    /// when `threads == 1`.
    pub engine: Option<Engine>,
    /// BSP engine only: adaptive round fusion. When on, the inline-round
    /// threshold (below which a drained batch is processed sequentially
    /// instead of dispatched to the pool) grows with the observed round
    /// size — streaks of tiny event-driven rounds fuse into the
    /// coordinator instead of paying pool dispatch, and a large wave
    /// front snaps the threshold back. Deterministic (driven purely by
    /// batch sizes, which are deterministic per thread count on the BSP
    /// engine). `None` (the default) reads the `CSC_ROUND_FUSION`
    /// environment variable (`1`/`on` = on; unset = off, preserving the
    /// fixed `32 × threads` heuristic byte-for-byte).
    pub round_fusion: Option<bool>,
    /// Large points-to-set representation: chunked hybrid with CoW dense
    /// blocks (the default) or the PR 1 whole-id-range bitmap, kept
    /// selectable for A/B comparison. Representation never changes element
    /// sequences, so projections and propagation counts are identical
    /// either way (enforced by `differential_pts_repr`). `None` (the
    /// default) reads the `CSC_PTS_REPR` environment variable at solve
    /// start (`legacy` = the bitmap, anything else — including unset — =
    /// chunked); tests pass explicit values.
    pub pts_repr: Option<crate::pts::PtsRepr>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            collapse_sccs: true,
            collapse_epoch: None,
            threads: 1,
            par_commit: None,
            balanced_route: None,
            engine: None,
            round_fusion: None,
            pts_repr: None,
        }
    }
}

impl SolverOptions {
    /// Cycle collapsing disabled (the uncollapsed reference engine).
    pub fn no_collapse() -> Self {
        SolverOptions {
            collapse_sccs: false,
            ..SolverOptions::default()
        }
    }

    /// Collapsing with a fixed epoch length (testing knob).
    pub fn with_epoch(epoch: u32) -> Self {
        SolverOptions {
            collapse_sccs: true,
            collapse_epoch: Some(epoch),
            ..SolverOptions::default()
        }
    }

    /// The same options with an explicit propagation thread count
    /// (`0` = available parallelism).
    pub fn with_threads(self, threads: usize) -> Self {
        SolverOptions { threads, ..self }
    }

    /// The same options with the commit plane explicitly on or off
    /// (bypasses the `CSC_PAR_COMMIT` environment fallback).
    pub fn with_par_commit(self, on: bool) -> Self {
        SolverOptions {
            par_commit: Some(on),
            ..self
        }
    }

    /// Whether the sharded commit plane is enabled for these options
    /// (environment fallback resolved).
    pub fn resolved_par_commit(&self) -> bool {
        self.par_commit
            .unwrap_or_else(|| std::env::var("CSC_PAR_COMMIT").map_or(true, |v| v != "0"))
    }

    /// The same options with topology-aware shard routing explicitly on or
    /// off (bypasses the `CSC_SHARD_ROUTE` environment fallback).
    pub fn with_balanced_route(self, on: bool) -> Self {
        SolverOptions {
            balanced_route: Some(on),
            ..self
        }
    }

    /// Whether topology-aware shard routing is enabled for these options
    /// (environment fallback resolved; `mod` is the default).
    pub fn resolved_balanced_route(&self) -> bool {
        self.balanced_route
            .unwrap_or_else(|| std::env::var("CSC_SHARD_ROUTE").is_ok_and(|v| v == "balanced"))
    }

    /// The same options with an explicit propagation engine (bypasses the
    /// `CSC_ENGINE` environment fallback).
    pub fn with_engine(self, engine: Engine) -> Self {
        SolverOptions {
            engine: Some(engine),
            ..self
        }
    }

    /// The multi-threaded engine these options resolve to (environment
    /// fallback resolved; async is the default).
    pub fn resolved_engine(&self) -> Engine {
        self.engine.unwrap_or_else(|| {
            if std::env::var("CSC_ENGINE").is_ok_and(|v| v == "bsp") {
                Engine::Bsp
            } else {
                Engine::Async
            }
        })
    }

    /// The same options with BSP round fusion explicitly on or off
    /// (bypasses the `CSC_ROUND_FUSION` environment fallback).
    pub fn with_round_fusion(self, on: bool) -> Self {
        SolverOptions {
            round_fusion: Some(on),
            ..self
        }
    }

    /// Whether adaptive BSP round fusion is enabled for these options
    /// (environment fallback resolved; off is the default).
    pub fn resolved_round_fusion(&self) -> bool {
        self.round_fusion.unwrap_or_else(|| {
            std::env::var("CSC_ROUND_FUSION").is_ok_and(|v| v == "1" || v == "on")
        })
    }

    /// The same options with an explicit large-set representation
    /// (bypasses the `CSC_PTS_REPR` environment fallback).
    pub fn with_pts_repr(self, repr: crate::pts::PtsRepr) -> Self {
        SolverOptions {
            pts_repr: Some(repr),
            ..self
        }
    }

    /// The large-set representation these options resolve to (environment
    /// fallback resolved; chunked is the default).
    pub fn resolved_pts_repr(&self) -> crate::pts::PtsRepr {
        self.pts_repr.unwrap_or_else(|| {
            if std::env::var("CSC_PTS_REPR").is_ok_and(|v| v == "legacy") {
                crate::pts::PtsRepr::Legacy
            } else {
                crate::pts::PtsRepr::Chunked
            }
        })
    }

    /// The worker-thread count these options resolve to on this machine.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Sentinel for "not interned yet" in the dense CI tables.
pub(crate) const ABSENT: u32 = u32::MAX;

/// The complete mutable analysis state. Plugins receive `&mut` access.
pub struct SolverState<'p> {
    /// The program under analysis.
    pub program: &'p Program,
    /// Context interner.
    pub interner: CtxInterner,

    /// Dense empty-context variable pointers, indexed by variable
    /// ([`ABSENT`] = not interned). The residual table below only sees
    /// context-qualified variables.
    ci_var_ptrs: Vec<u32>,
    var_ptr_table: FxHashMap<(CtxId, VarId), PtrId>,
    field_ptr_table: FxHashMap<(CsObjId, FieldId), PtrId>,
    ptr_keys: Vec<PtrKey>,

    /// Dense empty-heap-context objects, indexed by allocation site.
    ci_objs: Vec<u32>,
    obj_table: FxHashMap<(CtxId, ObjId), CsObjId>,
    obj_keys: Vec<(CtxId, ObjId)>,

    /// Points-to sets, pending-delta accumulators, successor lists, and
    /// PFG edge-dedup sets, stored at SCC representatives and sharded
    /// round-robin by slot id for the parallel engine (one shard when
    /// sequential); merged members keep an empty slot and read through
    /// [`SolverState::repr`].
    ///
    /// Successor entries carry an optional cast filter: only objects whose
    /// class is a subtype of the filter class propagate along the edge
    /// (`checkcast` semantics, as in Tai-e and Doop). Lists live at SCC
    /// representatives; stored targets may be stale (merged away) and are
    /// re-canonicalized at enqueue time and at each condensation epoch.
    /// Edge dedup is on *original* `(src, dst)` endpoints, grouped under
    /// the source's representative so the owning shard can commit edges
    /// worker-side (see `crate::shard::Shard`).
    slots: crate::shard::ShardedSlots,

    /// Representative index for SCC-collapsed propagation.
    reps: crate::scc::UnionFind,
    /// Member lists (ascending, representative first) for collapsed
    /// representatives only; uncollapsed pointers have no entry.
    members: FxHashMap<u32, Vec<u32>>,
    /// Unfiltered copy edges inserted since the last condensation epoch.
    copy_edges_since_collapse: u32,
    opts: SolverOptions,
    /// Resolved propagation worker count (>= 1).
    nthreads: usize,
    /// Resolved commit-plane switch (parallel engine only; see
    /// [`SolverOptions::par_commit`]).
    par_commit: bool,
    /// Resolved topology-aware routing switch (parallel engine only; see
    /// [`SolverOptions::balanced_route`]).
    balanced_route: bool,
    /// Resolved engine switch: `true` runs the async work-stealing loop
    /// for multi-threaded phases (see [`SolverOptions::engine`]).
    async_engine: bool,
    /// Resolved adaptive round-fusion switch (BSP engine only; see
    /// [`SolverOptions::round_fusion`]).
    round_fusion: bool,
    /// Adaptive inline-round threshold: batches smaller than this are
    /// processed sequentially by the coordinator. Fixed at
    /// `32 × nthreads` unless `round_fusion` is on.
    inline_cap: usize,
    /// Consecutive inline rounds under round fusion (the growth
    /// hysteresis counter).
    fused_streak: u32,
    /// Observed union cost per slot id (elements committed into the slot's
    /// set), tracked only under `balanced_route`: the seed for the greedy
    /// shard-rebalance pass at condensation epochs. Grown lazily; merged
    /// onto the surviving representative when SCCs collapse.
    route_cost: Vec<u64>,

    /// Batched worklist: the FIFO of pointers with a non-empty pending
    /// accumulator (the accumulators themselves live in `slots`).
    queue: VecDeque<PtrId>,

    events: VecDeque<Event>,
    emit_events: bool,

    /// Reachability: dense for the empty context, residual set for
    /// context-qualified units, plus the insertion-ordered log backing the
    /// public views.
    reachable_ci: Vec<bool>,
    reachable_cs: FxHashSet<(CtxId, MethodId)>,
    reachable_log: Vec<(CtxId, MethodId)>,

    call_edge_set: FxHashSet<(CtxId, CallSiteId, CtxId, MethodId)>,
    call_edges: Vec<(CtxId, CallSiteId, CtxId, MethodId)>,
    call_edges_by_callee: FxHashMap<MethodId, Vec<(CtxId, CallSiteId, CtxId)>>,

    /// Per-variable statement usage index (see [`crate::shard::StmtIndex`]):
    /// read by the sequential engine's statement processing and, frozen per
    /// round, by the parallel workers' fan-out discovery.
    stmts: crate::shard::StmtIndex,

    /// Counters.
    pub stats: SolverStats,
    budget: Budget,
    started: Instant,
    /// Set when a propagation worker panicked and the solve was unwound:
    /// the state is safe to drop and to read (partial projections) but
    /// must never be continued or rebased.
    poisoned: bool,
}

impl<'p> SolverState<'p> {
    fn new(program: &'p Program, budget: Budget, opts: SolverOptions) -> Self {
        let nthreads = opts.resolved_threads().max(1);
        crate::pts::set_default_repr(opts.resolved_pts_repr());
        let stats = SolverStats {
            threads: nthreads as u64,
            ..SolverStats::default()
        };
        SolverState {
            program,
            interner: CtxInterner::new(),
            ci_var_ptrs: vec![ABSENT; program.vars().len()],
            var_ptr_table: FxHashMap::default(),
            field_ptr_table: FxHashMap::default(),
            ptr_keys: Vec::new(),
            ci_objs: vec![ABSENT; program.objs().len()],
            obj_table: FxHashMap::default(),
            obj_keys: Vec::new(),
            slots: crate::shard::ShardedSlots::new(nthreads),
            reps: crate::scc::UnionFind::new(),
            members: FxHashMap::default(),
            copy_edges_since_collapse: 0,
            par_commit: nthreads > 1 && opts.resolved_par_commit(),
            balanced_route: nthreads > 1 && opts.resolved_balanced_route(),
            async_engine: nthreads > 1 && opts.resolved_engine() == Engine::Async,
            round_fusion: nthreads > 1 && opts.resolved_round_fusion(),
            inline_cap: 32 * nthreads,
            fused_streak: 0,
            route_cost: Vec::new(),
            opts,
            nthreads,
            queue: VecDeque::new(),
            events: VecDeque::new(),
            emit_events: false,
            reachable_ci: vec![false; program.methods().len()],
            reachable_cs: FxHashSet::default(),
            reachable_log: Vec::new(),
            call_edge_set: FxHashSet::default(),
            call_edges: Vec::new(),
            call_edges_by_callee: FxHashMap::default(),
            stmts: crate::shard::StmtIndex::build(program),
            stats,
            budget,
            started: Instant::now(),
            poisoned: false,
        }
    }

    /// Whether a worker panic poisoned this state (see
    /// [`SolveStatus::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    // ---- interning -------------------------------------------------------

    fn push_ptr(&mut self, key: PtrKey) -> PtrId {
        let id = PtrId(u32::try_from(self.ptr_keys.len()).expect("too many pointers"));
        self.ptr_keys.push(key);
        self.slots.push();
        self.reps.push();
        self.stats.pointers += 1;
        id
    }

    /// Interns a context-qualified variable pointer.
    pub fn var_ptr(&mut self, ctx: CtxId, v: VarId) -> PtrId {
        if ctx == CtxId::EMPTY {
            let slot = self.ci_var_ptrs[v.index()];
            if slot != ABSENT {
                return PtrId(slot);
            }
            let id = self.push_ptr(PtrKey::Var(ctx, v));
            self.ci_var_ptrs[v.index()] = id.0;
            id
        } else {
            if let Some(&p) = self.var_ptr_table.get(&(ctx, v)) {
                return p;
            }
            let id = self.push_ptr(PtrKey::Var(ctx, v));
            self.var_ptr_table.insert((ctx, v), id);
            id
        }
    }

    /// Interns a field pointer.
    pub fn field_ptr(&mut self, obj: CsObjId, f: FieldId) -> PtrId {
        if let Some(&p) = self.field_ptr_table.get(&(obj, f)) {
            return p;
        }
        let id = self.push_ptr(PtrKey::Field(obj, f));
        self.field_ptr_table.insert((obj, f), id);
        id
    }

    /// Interns a context-qualified object.
    pub fn cs_obj(&mut self, ctx: CtxId, obj: ObjId) -> CsObjId {
        if ctx == CtxId::EMPTY {
            let slot = self.ci_objs[obj.index()];
            if slot != ABSENT {
                return CsObjId(slot);
            }
        } else if let Some(&o) = self.obj_table.get(&(ctx, obj)) {
            return o;
        }
        let id = CsObjId(u32::try_from(self.obj_keys.len()).expect("too many objects"));
        self.obj_keys.push((ctx, obj));
        if ctx == CtxId::EMPTY {
            self.ci_objs[obj.index()] = id.0;
        } else {
            self.obj_table.insert((ctx, obj), id);
        }
        self.stats.objects += 1;
        id
    }

    /// What a pointer id denotes.
    pub fn ptr_key(&self, p: PtrId) -> PtrKey {
        self.ptr_keys[p.0 as usize]
    }

    /// The (heap context, allocation site) behind a [`CsObjId`].
    pub fn obj_key(&self, o: CsObjId) -> (CtxId, ObjId) {
        self.obj_keys[o.0 as usize]
    }

    /// Number of interned pointers.
    pub fn ptr_count(&self) -> usize {
        self.ptr_keys.len()
    }

    /// Number of interned context-qualified objects.
    pub fn obj_count(&self) -> usize {
        self.obj_keys.len()
    }

    /// The resolved propagation worker count (≥ 1) this solve runs with —
    /// also the shard count plugins should size their
    /// [`crate::ShardedTable`]s to (in [`Plugin::init`]).
    pub fn threads(&self) -> usize {
        self.nthreads
    }

    /// The read-only facts [`Plugin::discover`] sees — also usable on the
    /// coordinator, so the event path and the worker path share one
    /// discovery implementation.
    pub fn discover_ctx(&self) -> DiscoverCtx<'_> {
        DiscoverCtx {
            obj_keys: &self.obj_keys,
            program: self.program,
        }
    }

    /// Canonical representative of a pointer: identity unless the pointer
    /// was merged into an assign-SCC, in which case the SCC's elected
    /// representative is returned.
    pub fn repr(&self, p: PtrId) -> PtrId {
        PtrId(self.reps.find(p.0))
    }

    /// Current points-to set of a pointer (read through the representative
    /// indirection — members of a collapsed SCC share one set).
    pub fn pt(&self, p: PtrId) -> &PointsToSet {
        self.slots.pts(self.reps.find(p.0))
    }

    /// Looks up an already-interned pointer without creating it.
    pub fn find_ptr(&self, key: PtrKey) -> Option<PtrId> {
        match key {
            PtrKey::Var(ctx, v) if ctx == CtxId::EMPTY => {
                let slot = self.ci_var_ptrs[v.index()];
                (slot != ABSENT).then_some(PtrId(slot))
            }
            PtrKey::Var(ctx, v) => self.var_ptr_table.get(&(ctx, v)).copied(),
            PtrKey::Field(obj, f) => self.field_ptr_table.get(&(obj, f)).copied(),
            PtrKey::Dead => None,
        }
    }

    // ---- worklist --------------------------------------------------------

    /// Queues a delta for a pointer, coalescing it with whatever is already
    /// pending for that pointer. Deltas accumulate at the pointer's SCC
    /// representative.
    fn enqueue(&mut self, ptr: PtrId, objs: &PointsToSet) {
        if objs.is_empty() {
            return;
        }
        let ptr = self.repr(ptr);
        let slot = self.slots.pending_mut(ptr.0);
        let was_empty = slot.is_empty();
        slot.union_with(objs);
        if was_empty {
            self.queue.push_back(ptr);
        }
    }

    /// Queues a single object for a pointer.
    fn enqueue_one(&mut self, ptr: PtrId, obj: u32) {
        let ptr = self.repr(ptr);
        let slot = self.slots.pending_mut(ptr.0);
        let was_empty = slot.is_empty();
        slot.insert(obj);
        if was_empty {
            self.queue.push_back(ptr);
        }
    }

    // ---- mutation (also used by plugins) ----------------------------------

    /// Adds a PFG edge (deduplicated on its *original* endpoints). New
    /// edges immediately flush the source's current points-to set to the
    /// target. Cast edges carry a type filter (`checkcast` semantics): only
    /// objects assignable to the cast target propagate, as in Tai-e and
    /// Doop.
    ///
    /// The physical successor entry lives at the source's SCC
    /// representative; an edge whose endpoints are already in the same SCC
    /// stays logical-only (the shared set makes propagation a no-op), but
    /// is still counted, deduplicated, and delivered as a [`Event::NewEdge`]
    /// so plugins observe the same PFG as the uncollapsed solver.
    pub fn add_edge(&mut self, src: PtrId, dst: PtrId, kind: EdgeKind) {
        if src == dst {
            return;
        }
        let csrc = self.reps.find(src.0);
        if !self.slots.edge_pairs_mut(csrc).insert(src.0, dst.0) {
            return;
        }
        let filter = match kind {
            EdgeKind::Cast(id) => self.program.cast(id).ty().as_class(),
            _ => None,
        };
        self.stats.edges += 1;
        if csrc != self.reps.find(dst.0) {
            if filter.is_none() {
                self.copy_edges_since_collapse += 1;
            }
            self.slots.succ_push(csrc, dst, filter);
            if !self.slots.pts(csrc).is_empty() {
                match filter {
                    None => {
                        let pts = self.slots.take_pts(csrc);
                        self.enqueue(dst, &pts);
                        self.slots.put_pts(csrc, pts);
                    }
                    Some(class) => {
                        let filtered = self.apply_filter(self.slots.pts(csrc), class);
                        self.enqueue(dst, &filtered);
                    }
                }
            }
        }
        if self.emit_events {
            self.events.push_back(Event::NewEdge { src, dst, kind });
        }
    }

    /// Restricts a set to objects assignable to `class` (`checkcast`
    /// semantics). Only cast edges pay for this copy — unfiltered edges
    /// propagate their delta by reference, so there is no identity-clone
    /// arm here.
    fn apply_filter(&self, objs: &PointsToSet, class: csc_ir::ClassId) -> PointsToSet {
        crate::shard::filter_pts(objs, class, &self.obj_keys, self.program)
    }

    /// Whether a PFG edge already exists (original endpoints, like the
    /// dedup in [`SolverState::add_edge`]).
    pub fn has_edge(&self, src: PtrId, dst: PtrId) -> bool {
        self.slots
            .edge_pairs(self.reps.find(src.0))
            .is_some_and(|pairs| pairs.contains(src.0, dst.0))
    }

    /// Injects objects into a pointer's points-to set (via the worklist).
    pub fn add_points_to(&mut self, ptr: PtrId, objs: PointsToSet) {
        self.enqueue(ptr, &objs);
    }

    /// Stamps the data-plane memory counters (`pts_bytes`, `edge_bytes`,
    /// `shared_chunks`) from a walk over the slot plane — called once at
    /// the end of every solve and incremental re-solve, where the numbers
    /// describe the converged state.
    fn record_mem_stats(&mut self) {
        let acc = self.slots.pts_account();
        self.stats.pts_bytes = acc.bytes;
        self.stats.shared_chunks = acc.shared_chunks;
        self.stats.edge_bytes = self.slots.edge_bytes();
    }

    /// All call-graph edges onto `callee`, as
    /// `(caller context, call site, callee context)` triples.
    pub fn call_edges_of(&self, callee: MethodId) -> &[(CtxId, CallSiteId, CtxId)] {
        self.call_edges_by_callee
            .get(&callee)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All call-graph edges.
    pub fn call_edges(&self) -> &[(CtxId, CallSiteId, CtxId, MethodId)] {
        &self.call_edges
    }

    /// All reachable (context, method) pairs, in discovery order.
    pub fn reachable(&self) -> &[(CtxId, MethodId)] {
        &self.reachable_log
    }

    /// Elapsed wall-clock time since solving began.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    // ---- core algorithm ---------------------------------------------------

    /// Marks `(ctx, method)` reachable; returns whether it was new.
    fn insert_reachable(&mut self, ctx: CtxId, method: MethodId) -> bool {
        if ctx == CtxId::EMPTY {
            let slot = &mut self.reachable_ci[method.index()];
            if *slot {
                return false;
            }
            *slot = true;
        } else if !self.reachable_cs.insert((ctx, method)) {
            return false;
        }
        self.reachable_log.push((ctx, method));
        true
    }

    fn add_reachable<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &P,
        ctx: CtxId,
        method: MethodId,
    ) {
        if !self.insert_reachable(ctx, method) {
            return;
        }
        self.stats.reachable += 1;
        if self.emit_events {
            self.events.push_back(Event::NewReachable { ctx, method });
        }
        let m = self.program.method(method);
        let mut news: Vec<(VarId, ObjId)> = Vec::new();
        let mut assigns: Vec<(VarId, VarId, EdgeKind)> = Vec::new();
        let mut static_calls: Vec<CallSiteId> = Vec::new();
        m.visit_stmts(|s| match s {
            Stmt::New { lhs, obj } => news.push((*lhs, *obj)),
            Stmt::Assign { lhs, rhs } => assigns.push((*rhs, *lhs, EdgeKind::Assign)),
            Stmt::Cast(id) => {
                let c = self.program.cast(*id);
                assigns.push((c.rhs(), c.lhs(), EdgeKind::Cast(*id)));
            }
            Stmt::Call(id) if self.program.call_site(*id).kind() == CallKind::Static => {
                static_calls.push(*id);
            }
            _ => {}
        });
        for (lhs, obj) in news {
            let hctx = selector.select_heap(self.program, &mut self.interner, ctx, obj);
            let cs = self.cs_obj(hctx, obj);
            let ptr = self.var_ptr(ctx, lhs);
            self.enqueue_one(ptr, cs.0);
        }
        for (rhs, lhs, kind) in assigns {
            let s = self.var_ptr(ctx, rhs);
            let t = self.var_ptr(ctx, lhs);
            self.add_edge(s, t, kind);
        }
        for site in static_calls {
            let callee = self.program.call_site(site).target();
            let callee_ctx = selector.select_call(
                self.program,
                &mut self.interner,
                CallInfo {
                    caller_ctx: ctx,
                    site,
                    callee,
                    recv: None,
                },
            );
            self.add_call_edge(selector, plugin, ctx, site, callee_ctx, callee);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn add_call_edge<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &P,
        caller_ctx: CtxId,
        site: CallSiteId,
        callee_ctx: CtxId,
        callee: MethodId,
    ) {
        if !self
            .call_edge_set
            .insert((caller_ctx, site, callee_ctx, callee))
        {
            return;
        }
        self.call_edges.push((caller_ctx, site, callee_ctx, callee));
        self.call_edges_by_callee
            .entry(callee)
            .or_default()
            .push((caller_ctx, site, callee_ctx));
        self.stats.call_edges += 1;
        self.add_reachable(selector, plugin, callee_ctx, callee);
        let cs = self.program.call_site(site);
        let m = self.program.method(callee);
        // [Param]: argument -> parameter edges (excluding the receiver,
        // which is populated object-by-object in [Call]).
        for (k, &param) in m.params().iter().enumerate() {
            let arg = cs.args()[k];
            let s = self.var_ptr(caller_ctx, arg);
            let t = self.var_ptr(callee_ctx, param);
            self.add_edge(s, t, EdgeKind::Param);
        }
        // [Return]: suppressed when the callee's return variable is in
        // cutReturns.
        if let (Some(lhs), Some(ret)) = (cs.lhs(), m.ret_var()) {
            if !plugin.is_return_cut(callee) {
                let s = self.var_ptr(callee_ctx, ret);
                let t = self.var_ptr(caller_ctx, lhs);
                self.add_edge(s, t, EdgeKind::Return(callee));
            }
        }
        if self.emit_events {
            self.events.push_back(Event::NewCallEdge {
                caller_ctx,
                site,
                callee_ctx,
                callee,
            });
        }
    }

    /// Processes one worklist entry (always a representative — the queue is
    /// canonicalized at pop time). Returns `false` when the budget is
    /// exhausted.
    fn step<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &P,
        ptr: PtrId,
        incoming: PointsToSet,
    ) -> bool {
        let Some(delta) = self.slots.pts_mut(ptr.0).union_delta(&incoming) else {
            return true;
        };
        self.stats.propagations += 1;
        if self.balanced_route {
            self.bump_route_cost(ptr.0, delta.len() as u64);
        }
        if let Some(max) = self.budget.max_propagations {
            if self.stats.propagations > max {
                return false;
            }
        }
        if let Some(limit) = self.budget.time {
            // Checking the clock every 1024 propagations keeps overhead low.
            if self.stats.propagations.is_multiple_of(1024) && self.started.elapsed() > limit {
                return false;
            }
        }

        // [Propagate] along PFG edges (respecting cast filters). Unfiltered
        // edges enqueue the delta by reference; only cast edges pay for a
        // filtered copy. The successor row is walked with a segment cursor:
        // each 56-byte segment is copied out of the arena by value, which
        // releases the borrow before `enqueue` mutates other slots —
        // nothing inside `enqueue`/`apply_filter` can append to this row
        // (the old take/put split borrow asserted the same invariant).
        let mut seg_idx = self.slots.succ_head(ptr.0);
        while seg_idx != crate::arena::NONE {
            let seg = self.slots.succ_seg(ptr.0, seg_idx);
            for &(t, code) in &seg.entries[..seg.len as usize] {
                match crate::arena::decode_filter(code) {
                    None => self.enqueue(PtrId(t), &delta),
                    Some(class) => {
                        let out = self.apply_filter(&delta, class);
                        self.enqueue(PtrId(t), &out);
                    }
                }
            }
            seg_idx = seg.next;
        }

        self.fan_out(selector, plugin, ptr, delta);
        true
    }

    /// Statement processing and `NewPointsTo` events for a committed delta,
    /// fanned out to every member of a collapsed SCC — each member's
    /// loads/stores/calls must see the shared set's growth exactly as they
    /// would uncollapsed. The member list is taken out and restored around
    /// the loop (nothing inside statement processing can reach `members`;
    /// merges only happen between worklist steps), avoiding an O(|SCC|)
    /// clone per delta. Shared by the sequential `step` and the parallel
    /// coordinator phase.
    fn fan_out<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &P,
        ptr: PtrId,
        delta: PointsToSet,
    ) {
        if let Some(group) = self.members.remove(&ptr.0) {
            for &m in &group {
                if let PtrKey::Var(ctx, v) = self.ptr_keys[m as usize] {
                    self.process_var_stmts(selector, plugin, ctx, v, &delta);
                }
            }
            if self.emit_events {
                for &m in &group {
                    self.events.push_back(Event::NewPointsTo {
                        ptr: PtrId(m),
                        delta: delta.clone(),
                    });
                }
            }
            self.members.insert(ptr.0, group);
        } else {
            if let PtrKey::Var(ctx, v) = self.ptr_keys[ptr.0 as usize] {
                self.process_var_stmts(selector, plugin, ctx, v, &delta);
            }
            if self.emit_events {
                self.events.push_back(Event::NewPointsTo { ptr, delta });
            }
        }
    }

    /// The `[Load]` / `[Store]` / `[Call]` rules for one variable whose
    /// points-to set grew by `delta`.
    fn process_var_stmts<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &P,
        ctx: CtxId,
        v: VarId,
        delta: &PointsToSet,
    ) {
        // [Load]
        for i in 0..self.stmts.loads_with_base[v.index()].len() {
            let l = self.stmts.loads_with_base[v.index()][i];
            let site = self.program.load(l);
            let (lhs, field) = (site.lhs(), site.field());
            let t = self.var_ptr(ctx, lhs);
            for o in delta.iter() {
                let s = self.field_ptr(CsObjId(o), field);
                self.add_edge(s, t, EdgeKind::Load(l));
            }
        }
        // [Store] (cut-aware)
        for i in 0..self.stmts.stores_with_base[v.index()].len() {
            let st = self.stmts.stores_with_base[v.index()][i];
            if plugin.is_store_cut(st) {
                continue;
            }
            let site = self.program.store(st);
            let (rhs, field) = (site.rhs(), site.field());
            let s = self.var_ptr(ctx, rhs);
            for o in delta.iter() {
                let t = self.field_ptr(CsObjId(o), field);
                self.add_edge(s, t, EdgeKind::Store(st));
            }
        }
        // [Call]
        for i in 0..self.stmts.calls_with_recv[v.index()].len() {
            let site = self.stmts.calls_with_recv[v.index()][i];
            for o in delta.iter() {
                self.process_instance_call(selector, plugin, ctx, site, CsObjId(o));
            }
        }
    }

    fn process_instance_call<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &P,
        caller_ctx: CtxId,
        site: CallSiteId,
        recv: CsObjId,
    ) {
        let cs = self.program.call_site(site);
        let (heap_ctx, obj) = self.obj_key(recv);
        let callee = match cs.kind() {
            CallKind::Virtual => {
                let class = self.program.obj(obj).class();
                match self.program.dispatch(class, cs.target()) {
                    Some(m) => m,
                    None => return, // no concrete impl: spurious receiver
                }
            }
            CallKind::Special => cs.target(),
            CallKind::Static => unreachable!("static calls have no receiver"),
        };
        let callee_ctx = selector.select_call(
            self.program,
            &mut self.interner,
            CallInfo {
                caller_ctx,
                site,
                callee,
                recv: Some((heap_ctx, obj)),
            },
        );
        self.add_call_edge(selector, plugin, caller_ctx, site, callee_ctx, callee);
        // [Call]: the receiver object flows into the callee's `this`.
        if let Some(this) = self.program.method(callee).this_var() {
            let t = self.var_ptr(callee_ctx, this);
            self.enqueue_one(t, recv.0);
        }
    }

    // ---- SCC-collapsed propagation ----------------------------------------

    /// Whether enough unfiltered copy edges accumulated to pay for a
    /// condensation epoch. The adaptive threshold is geometric — the next
    /// epoch waits for the edge count to grow by a constant fraction — so
    /// the total condensation work stays `O((V + E) log E)` regardless of
    /// how large the graph gets.
    fn should_collapse(&self) -> bool {
        if !self.opts.collapse_sccs || self.copy_edges_since_collapse == 0 {
            return false;
        }
        let threshold = self
            .opts
            .collapse_epoch
            .unwrap_or_else(|| crate::scc::epoch_threshold(self.stats.edges));
        self.copy_edges_since_collapse >= threshold
    }

    /// One condensation epoch: finds SCCs of the unfiltered copy subgraph
    /// over the current representatives (offline Tarjan, Nuutila-style
    /// re-run per epoch) and merges each nontrivial SCC onto its smallest
    /// member.
    ///
    /// Merging unifies the shared points-to set, successor list, and
    /// pending accumulator at the representative, then restores the
    /// uncollapsed solver's observable behavior in two replay passes:
    ///
    /// 1. the unified set is flushed along every (rebuilt) outgoing edge —
    ///    a member's edge may never have seen another member's elements;
    /// 2. every member whose old set was a strict subset of the union gets
    ///    per-member statement processing and a `NewPointsTo` event for the
    ///    missing elements, exactly as if the elements had propagated to it
    ///    around the cycle.
    fn collapse_cycles<S: ContextSelector, P: Plugin>(&mut self, selector: &S, plugin: &P) {
        self.copy_edges_since_collapse = 0;
        self.stats.scc_runs += 1;
        let n = self.ptr_keys.len();
        // Canonical unfiltered adjacency over representatives.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n as u32 {
            if !self.reps.is_rep(u) {
                continue;
            }
            let mut out: Vec<u32> = Vec::new();
            for (t, filter) in self.slots.succ_iter(u) {
                if filter.is_none() {
                    let c = self.reps.find(t.0);
                    if c != u {
                        out.push(c);
                    }
                }
            }
            adj[u as usize] = out;
        }
        let mut catchups: Vec<(u32, PointsToSet)> = Vec::new();
        let mut flush_reps: Vec<u32> = Vec::new();
        for group in crate::scc::merge_groups(&self.reps, &adj) {
            let rep = group[0];
            self.stats.sccs_collapsed += 1;
            self.stats.ptrs_collapsed += (group.len() - 1) as u64;
            // Union the members' sets; remember each merged subgroup's old
            // set so its missing elements can be replayed per member.
            let mut union = PointsToSet::new();
            let mut subgroups: Vec<(Vec<u32>, PointsToSet)> = Vec::with_capacity(group.len());
            for &m in &group {
                let old = self.slots.take_pts(m);
                let sub = self.members.remove(&m).unwrap_or_else(|| vec![m]);
                union.union_with(&old);
                subgroups.push((sub, old));
            }
            let mut all: Vec<u32> = Vec::new();
            for (sub, mut old) in subgroups {
                if let Some(delta) = old.union_delta(&union) {
                    for &m in &sub {
                        catchups.push((m, delta.clone()));
                    }
                }
                all.extend(sub);
            }
            all.sort_unstable();
            self.members.insert(rep, all);
            self.slots.put_pts(rep, union);
            for &m in &group[1..] {
                self.reps.set_parent(m, rep);
            }
            if self.balanced_route {
                // Merged members' accumulated union cost follows the
                // surviving representative, like their sets do.
                for &m in &group[1..] {
                    let c = self
                        .route_cost
                        .get_mut(m as usize)
                        .map_or(0, std::mem::take);
                    if c != 0 {
                        self.bump_route_cost(rep, c);
                    }
                }
            }
            // Rebuild the representative's successor list: canonical
            // targets, intra-SCC edges dropped (the shared set makes them
            // no-ops), physical duplicates that earlier merges created
            // removed. Dedup is per (target, filter) so a cast edge never
            // shadows an unfiltered edge to the same target.
            let mut new_succ: Vec<(PtrId, Option<csc_ir::ClassId>)> = Vec::new();
            let mut seen: FxHashSet<(u32, Option<csc_ir::ClassId>)> = FxHashSet::default();
            for &m in &group {
                for (t, filter) in self.slots.take_succ(m) {
                    let c = self.reps.find(t.0);
                    if c != rep && seen.insert((c, filter)) {
                        new_succ.push((PtrId(c), filter));
                    }
                }
            }
            self.slots.put_succ(rep, new_succ);
            // Migrate the merged members' edge-dedup groups onto the
            // surviving representative (pairs keep their original
            // endpoints — only the grouping key, and with it the owning
            // shard, changes).
            let mut pairs = self.slots.take_edge_pairs(rep).unwrap_or_default();
            for &m in &group[1..] {
                if let Some(p) = self.slots.take_edge_pairs(m) {
                    if pairs.is_empty() {
                        pairs = p;
                    } else {
                        pairs.merge(&p);
                    }
                }
            }
            if !pairs.is_empty() {
                self.slots.put_edge_pairs(rep, pairs);
            }
            // Merge the pending accumulators; requeue the representative if
            // a member (but not the representative itself) was queued.
            let mut pend = self.slots.take_pending(rep);
            let rep_was_queued = !pend.is_empty();
            for &m in &group[1..] {
                let p = self.slots.take_pending(m);
                pend.union_with(&p);
            }
            if !pend.is_empty() {
                if !rep_was_queued {
                    self.queue.push_back(PtrId(rep));
                }
                self.slots.put_pending(rep, pend);
            }
            flush_reps.push(rep);
        }
        self.reps.flatten();

        // Replay pass 1: flush the unified sets along the rebuilt edges.
        // The set is taken out and restored around the loop and the
        // successor row walked by segment cursor (`enqueue` can reach
        // neither), instead of paying an O(|succ|) clone per collapsed
        // representative.
        for rep in flush_reps {
            if self.slots.pts(rep).is_empty() {
                continue;
            }
            let pts = self.slots.take_pts(rep);
            let mut seg_idx = self.slots.succ_head(rep);
            while seg_idx != crate::arena::NONE {
                let seg = self.slots.succ_seg(rep, seg_idx);
                for &(t, code) in &seg.entries[..seg.len as usize] {
                    match crate::arena::decode_filter(code) {
                        None => self.enqueue(PtrId(t), &pts),
                        Some(class) => {
                            let out = self.apply_filter(&pts, class);
                            self.enqueue(PtrId(t), &out);
                        }
                    }
                }
                seg_idx = seg.next;
            }
            self.slots.put_pts(rep, pts);
        }
        // Replay pass 2: per-member catch-up for elements a member had not
        // seen before its set was unified.
        for (m, delta) in catchups {
            if let PtrKey::Var(ctx, v) = self.ptr_keys[m as usize] {
                self.process_var_stmts(selector, plugin, ctx, v, &delta);
            }
            if self.emit_events {
                self.events.push_back(Event::NewPointsTo {
                    ptr: PtrId(m),
                    delta,
                });
            }
        }

        // Topology-aware routing: re-home slots by observed union cost now
        // that representatives are canonical for the epoch.
        if self.balanced_route {
            self.rebalance_shards();
        }
    }

    /// Accumulates observed union cost against slot `rep` (the seed for
    /// [`SolverState::rebalance_shards`]). Only called under
    /// `balanced_route`, so the `mod` default pays nothing.
    fn bump_route_cost(&mut self, rep: u32, amount: u64) {
        if self.route_cost.len() <= rep as usize {
            self.route_cost.resize(rep as usize + 1, 0);
        }
        self.route_cost[rep as usize] += amount;
    }

    /// The topology-aware routing pass (`CSC_SHARD_ROUTE=balanced`), run
    /// at condensation epochs: assigns live representatives to shards by a
    /// greedy longest-processing-time bin-pack over accumulated union cost
    /// — heaviest first (ties to the lower id), each onto the currently
    /// least-loaded shard (ties to the lower shard index) — leaves
    /// non-representative slots on the round-robin layout, and physically
    /// migrates the rows ([`crate::shard::ShardedSlots::apply_route`]).
    /// Purely a placement change: slot ids, and with them every projection
    /// and propagation count, are untouched, so runs stay deterministic
    /// per (thread count, commit mode, route mode).
    fn rebalance_shards(&mut self) {
        let n = self.nthreads;
        let len = self.slots.len();
        let mut target: Vec<u32> = (0..len).map(|i| i % n as u32).collect();
        let mut ranked: Vec<(u64, u32)> = (0..len)
            .filter(|&u| self.reps.is_rep(u))
            .map(|u| (self.route_cost.get(u as usize).copied().unwrap_or(0), u))
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let mut load = vec![0u64; n];
        for (cost, u) in ranked {
            let s = (0..n).min_by_key(|&s| load[s]).expect("at least one shard");
            // Even a zero-cost representative counts one unit, so
            // never-propagated slots still spread across shards instead of
            // piling onto shard 0.
            load[s] += cost.max(1);
            target[u as usize] = u32::try_from(s).expect("shard index fits u32");
        }
        self.slots.apply_route(target);
    }

    // ---- sharded parallel propagation -------------------------------------

    /// One bulk-synchronous parallel propagation round, dispatched onto
    /// the persistent worker pool.
    ///
    /// The coordinator drains the whole worklist into per-shard batches
    /// (slot id modulo shard count — representatives only, so a collapsed
    /// SCC never straddles shards), freezes the round-shared state (succ /
    /// reps / members / keys / statement index / plugin) into one
    /// [`crate::shard::RoundShared`], and hands each pooled worker its
    /// shard plus its batch. The workers run the three sub-phases of
    /// [`crate::shard::run_worker`]: union the batched deltas into their
    /// owned points-to sets and route the new elements through per-shard
    /// outboxes, replay statement fan-out and plugin discovery for the
    /// committed deltas as [`crate::shard::Derived`] packets, and merge
    /// the inboxes into the owners' pending accumulators. Back on the
    /// coordinator, [`SolverState::commit_derived`] commits the packets in
    /// deterministic (shard, batch, packet) order — interning, PFG and
    /// call-graph growth, context selection, plugin-table updates, and SCC
    /// epochs stay single-threaded between rounds, which is what keeps
    /// runs deterministic for a fixed thread count.
    ///
    /// Whether a drained batch of `len` representatives should be
    /// processed inline on the coordinator instead of dispatched to the
    /// worker pool.
    ///
    /// Without round fusion this is the fixed `32 × threads` heuristic of
    /// the PR-4 engine, byte-for-byte. With `CSC_ROUND_FUSION=1` the
    /// threshold adapts to the observed round-size regime: a streak of
    /// eight consecutive inline rounds doubles it (event-driven solves
    /// drip-feed thousands of tiny rounds — fusing them amortizes pool
    /// dispatch), a dispatched round re-anchors it at twice that round's
    /// size (capped at `2048 × threads`), and a wave-front round at least
    /// four times over the threshold snaps it back to the base so the
    /// heavy phase parallelizes immediately. Driven purely by batch
    /// lengths, which are deterministic per thread count on the BSP
    /// engine, so fusion never costs reproducibility.
    fn inline_round(&mut self, len: usize) -> bool {
        let base = 32 * self.nthreads;
        if !self.round_fusion {
            return len < base;
        }
        let cap_max = 2048 * self.nthreads;
        if len < self.inline_cap {
            self.fused_streak += 1;
            if self.fused_streak >= 8 {
                self.fused_streak = 0;
                self.inline_cap = (self.inline_cap * 2).min(cap_max);
            }
            true
        } else {
            self.fused_streak = 0;
            self.inline_cap = if len >= self.inline_cap * 4 {
                base
            } else {
                (len * 2).min(cap_max)
            };
            false
        }
    }

    /// Returns `false` when the budget was exhausted.
    fn parallel_round<'scope, S, P>(
        &mut self,
        selector: &S,
        plugin: &mut Option<P>,
        pool: &crate::pool::WorkerPool<'scope, 'p, P>,
    ) -> Phase
    where
        S: ContextSelector,
        P: Plugin + Send + Sync + 'scope,
        'p: 'scope,
    {
        let n = self.nthreads;
        // Drain the queue in order, canonicalizing stale entries exactly
        // like the sequential pop does.
        let mut batch: Vec<(u32, PointsToSet)> = Vec::with_capacity(self.queue.len());
        while let Some(ptr) = self.queue.pop_front() {
            let rep = self.reps.find(ptr.0);
            let incoming = self.slots.take_pending(rep);
            if incoming.is_empty() {
                continue; // duplicate queue entry; already drained
            }
            batch.push((rep, incoming));
        }

        // Small rounds run inline on the coordinator: plugin-driven
        // solves drip-feed the worklist one event at a time (thousands of
        // rounds of a handful of pointers), where even pool dispatch
        // overhead would dominate wall-clock. The threshold is
        // deterministic, so runs stay reproducible; the wave-front rounds
        // that carry the real union work exceed it by orders of magnitude.
        if self.inline_round(batch.len()) {
            let p = plugin.as_ref().expect("plugin present between rounds");
            for (rep, incoming) in batch {
                if !self.step(selector, p, PtrId(rep), incoming) {
                    return Phase::Budget;
                }
            }
            return Phase::Done;
        }

        self.stats.parallel_rounds += 1;
        // Partition into per-shard batches (queue order within a shard).
        let mut work: Vec<Vec<(u32, PointsToSet)>> = vec![Vec::new(); n];
        for (rep, incoming) in batch {
            work[self.slots.shard_of(rep)].push((rep, incoming));
        }

        // Freeze the round-shared state. Everything is *moved* (Vec
        // headers and the plugin — no elements are copied) into one Arc
        // the workers share and the coordinator reclaims at the barrier;
        // see `crate::pool` for the ownership protocol.
        let discovery = plugin
            .as_ref()
            .expect("plugin present between rounds")
            .parallel_discovery();
        // The commit plane additionally freezes the intern tables: workers
        // read them to resolve `[Load]`/`[Store]` targets, allocating
        // misses from their pre-reserved id strides.
        let commit = self.par_commit.then(|| crate::shard::CommitShared {
            ci_var_ptrs: std::mem::take(&mut self.ci_var_ptrs),
            var_ptr_table: std::mem::take(&mut self.var_ptr_table),
            field_ptr_table: std::mem::take(&mut self.field_ptr_table),
        });
        let shared = std::sync::Arc::new(crate::shard::RoundShared {
            reps: std::mem::take(&mut self.reps),
            members: std::mem::take(&mut self.members),
            ptr_keys: std::mem::take(&mut self.ptr_keys),
            obj_keys: std::mem::take(&mut self.obj_keys),
            stmts: std::mem::take(&mut self.stmts),
            program: self.program,
            plugin: plugin.take().expect("plugin present between rounds"),
            discovery,
            nshards: n as u32,
            deadline: self.budget.time.map(|limit| self.started + limit),
            commit,
            route: self.slots.route.take(),
        });
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n)
            .map(|_| std::sync::mpsc::channel::<crate::shard::Packet>())
            .unzip();
        let (etxs, erxs): (Vec<_>, Vec<_>) = (0..n)
            .map(|_| std::sync::mpsc::channel::<crate::shard::EdgePacket>())
            .unzip();
        let mut jobs = Vec::with_capacity(n);
        for (i, ((batch, rx), erx)) in work.into_iter().zip(rxs).zip(erxs).enumerate() {
            jobs.push(crate::shard::RoundJob {
                shared: std::sync::Arc::clone(&shared),
                shard: std::mem::take(&mut self.slots.shards[i]),
                batch,
                txs: txs.clone(),
                rx,
                etxs: etxs.clone(),
                erx,
                bufs: pool.bufs(),
            });
        }
        drop(txs);
        drop(etxs);

        // Parallel phase: the pooled workers run; the coordinator only
        // waits at the barrier. This span is what `parallel_secs` counts.
        let par_start = Instant::now();
        let report = pool.round(jobs);
        self.stats.parallel_secs += par_start.elapsed().as_secs_f64();

        // Reclaim the frozen state: every worker dropped its Arc clone
        // before reporting, so the Arc is unique again.
        let Ok(shared) = std::sync::Arc::try_unwrap(shared) else {
            unreachable!("round state still shared after the barrier")
        };
        self.reps = shared.reps;
        self.members = shared.members;
        self.ptr_keys = shared.ptr_keys;
        self.obj_keys = shared.obj_keys;
        self.stmts = shared.stmts;
        if let Some(c) = shared.commit {
            self.ci_var_ptrs = c.ci_var_ptrs;
            self.var_ptr_table = c.var_ptr_table;
            self.field_ptr_table = c.field_ptr_table;
        }
        self.slots.route = shared.route;
        *plugin = Some(shared.plugin);

        // Coordinator phase: restore the shards, requeue newly pending
        // representatives, and commit the derived packets, all in shard
        // order (deterministic).
        let mut stmt_groups: Vec<(Vec<crate::shard::DeltaCommit>, Vec<crate::shard::Derived>)> =
            Vec::with_capacity(n);
        let mut fresh_logs = Vec::with_capacity(n);
        let mut edge_logs = Vec::with_capacity(n);
        let mut flush_logs = Vec::with_capacity(n);
        let mut timed_out = false;
        let poison = report.poison;
        for (i, (shard, r)) in report.results.into_iter().enumerate() {
            self.slots.shards[i] = shard;
            let Some(r) = r else { continue };
            self.stats.propagations += r.propagations;
            self.queue.extend(r.newly_queued);
            stmt_groups.push((r.stmt, r.derived));
            fresh_logs.push(r.fresh);
            edge_logs.push(r.edges);
            flush_logs.push(r.flushes);
            timed_out |= r.timed_out;
        }

        // A poisoned round unwinds like a budget abort, but *harder*: the
        // panicked worker's fresh-id and edge logs are gone, so running
        // reconciliation on the surviving logs could leave peers' packets
        // referencing ids the slot plane never registered. Every round log
        // is dropped wholesale, the worklist is cleared, and the state is
        // marked poisoned — safe to drop and to read, never continued.
        if let Some(err) = poison {
            self.poisoned = true;
            self.queue.clear();
            return Phase::Poisoned(err);
        }

        // Commit section (what `commit_secs` measures): reconcile the
        // workers' id-stride allocations and edge commits, then replay the
        // derived packets. Reconciliation runs even on an aborting round
        // so the id space and the already-mutated shards stay consistent;
        // only the derived packets are dropped, like the replay path.
        let commit_start = Instant::now();
        if self.par_commit {
            self.reconcile_round(fresh_logs, edge_logs, flush_logs);
        }
        let ok = 'commit: {
            if timed_out {
                break 'commit false;
            }
            if let Some(max) = self.budget.max_propagations {
                if self.stats.propagations > max {
                    break 'commit false;
                }
            }
            if let Some(limit) = self.budget.time {
                if self.started.elapsed() > limit {
                    break 'commit false;
                }
            }
            let p = plugin.as_mut().expect("plugin restored after the round");
            for (stmts, derived) in stmt_groups {
                let mut packets = derived.into_iter();
                let mut start = 0u32;
                for (ptr, delta, end) in stmts {
                    // The outbox clones were merged and dropped in the
                    // workers' merge sub-phase, so this unwraps copy-free.
                    let delta = std::sync::Arc::unwrap_or_clone(delta);
                    if self.balanced_route {
                        self.bump_route_cost(ptr.0, delta.len() as u64);
                    }
                    let count = (end - start) as usize;
                    start = end;
                    self.commit_derived(
                        selector,
                        p,
                        ptr,
                        &delta,
                        packets.by_ref().take(count),
                        discovery,
                    );
                }
            }
            true
        };
        self.stats.commit_secs += commit_start.elapsed().as_secs_f64();
        if ok {
            Phase::Done
        } else {
            Phase::Budget
        }
    }

    /// One async work-stealing propagation phase (`CSC_ENGINE=async`, the
    /// default multi-threaded engine; see `crate::steal`).
    ///
    /// Where [`SolverState::parallel_round`] pays a barrier plus a
    /// sequential coordinator pass per round, this drains the *entire*
    /// reachable worklist in one continuously-running phase: the
    /// coordinator seeds each shard's worklist, dispatches the pool into
    /// the steal plane, and waits on the quiescence detector — one
    /// coordinated *pause* (counted in `pause_count`) per structural
    /// phase, however many propagation "rounds" the fixpoint would have
    /// taken. The phase logs (committed deltas, derived packets) are then
    /// committed exactly like a round's, so call-graph growth, context
    /// selection, plugin `apply`, and SCC epochs stay coordinator-side.
    ///
    /// The phase runs with the commit plane off (`commit: None`): edge
    /// growth happens at the pause point, where the statement fan-out of
    /// the *whole* phase commits in one pass — the async engine removes
    /// round barriers, not the discover/commit split.
    ///
    /// Returns [`Phase::Budget`] when the budget was exhausted and
    /// [`Phase::Poisoned`] when a worker died (or an injected fault
    /// fired); either way the phase teardown has already completed.
    fn async_phase<'scope, S, P>(
        &mut self,
        selector: &S,
        plugin: &mut Option<P>,
        pool: &crate::pool::WorkerPool<'scope, 'p, P>,
    ) -> Phase
    where
        S: ContextSelector,
        P: Plugin + Send + Sync + 'scope,
        'p: 'scope,
    {
        let n = self.nthreads;
        // Drain the queue in order, canonicalizing stale entries exactly
        // like the sequential pop does.
        let mut batch: Vec<(u32, PointsToSet)> = Vec::with_capacity(self.queue.len());
        while let Some(ptr) = self.queue.pop_front() {
            let rep = self.reps.find(ptr.0);
            let incoming = self.slots.take_pending(rep);
            if incoming.is_empty() {
                continue; // duplicate queue entry; already drained
            }
            batch.push((rep, incoming));
        }

        // Small batches run inline on the coordinator, exactly like the
        // BSP engine's small rounds: event-driven solves drip-feed a
        // handful of pointers per event, where a pool dispatch (let alone
        // a quiescence-detected phase) would dominate.
        if batch.len() < 32 * n {
            let p = plugin.as_ref().expect("plugin present between rounds");
            for (rep, incoming) in batch {
                if !self.step(selector, p, PtrId(rep), incoming) {
                    return Phase::Budget;
                }
            }
            return Phase::Done;
        }

        self.stats.pause_count += 1;
        // Seed the shard worklists: restore each drained delta into its
        // pending accumulator (batch representatives are distinct, so
        // each seed carries exactly one unit of outstanding work).
        let mut seeds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut seeded = 0u64;
        for (rep, incoming) in batch {
            let s = self.slots.shard_of(rep);
            self.slots.put_pending(rep, incoming);
            seeds[s].push(rep);
            seeded += 1;
        }

        // Freeze the phase-shared state (same ownership protocol as the
        // BSP round; see `crate::pool`).
        let discovery = plugin
            .as_ref()
            .expect("plugin present between rounds")
            .parallel_discovery();
        let shared = std::sync::Arc::new(crate::shard::RoundShared {
            reps: std::mem::take(&mut self.reps),
            members: std::mem::take(&mut self.members),
            ptr_keys: std::mem::take(&mut self.ptr_keys),
            obj_keys: std::mem::take(&mut self.obj_keys),
            stmts: std::mem::take(&mut self.stmts),
            program: self.program,
            plugin: plugin.take().expect("plugin present between rounds"),
            discovery,
            nshards: n as u32,
            deadline: self.budget.time.map(|limit| self.started + limit),
            commit: None,
            route: self.slots.route.take(),
        });
        let prop_limit = self
            .budget
            .max_propagations
            .map(|m| m.saturating_sub(self.stats.propagations));
        let ctrl = std::sync::Arc::new(crate::steal::AsyncCtrl::new(n, prop_limit, pool.bufs()));
        ctrl.seed_work(seeded);
        let cells: Vec<crate::steal::ShardCell> = seeds
            .into_iter()
            .enumerate()
            .map(|(i, seed)| {
                crate::steal::ShardCell::new(std::mem::take(&mut self.slots.shards[i]), seed)
            })
            .collect();
        let cells = std::sync::Arc::new(cells);
        let jobs: Vec<crate::pool::StealJob<'p, P>> = (0..n)
            .map(|_| crate::pool::StealJob {
                shared: std::sync::Arc::clone(&shared),
                ctrl: std::sync::Arc::clone(&ctrl),
                cells: std::sync::Arc::clone(&cells),
            })
            .collect();

        // Parallel phase: the workers propagate to quiescence (or abort);
        // the coordinator only waits on the detector.
        let par_start = Instant::now();
        let phase_err = pool.steal_phase(jobs, &ctrl).err();
        self.stats.parallel_secs += par_start.elapsed().as_secs_f64();

        // Reclaim the frozen state: every worker dropped its Arcs before
        // reporting, so both are unique again.
        let Ok(shared) = std::sync::Arc::try_unwrap(shared) else {
            unreachable!("phase state still shared after quiescence")
        };
        self.reps = shared.reps;
        self.members = shared.members;
        self.ptr_keys = shared.ptr_keys;
        self.obj_keys = shared.obj_keys;
        self.stmts = shared.stmts;
        self.slots.route = shared.route;
        *plugin = Some(shared.plugin);
        let Ok(cells) = std::sync::Arc::try_unwrap(cells) else {
            unreachable!("shard cells still shared after quiescence")
        };

        // Coordinator pause: restore the shards, collect the phase logs,
        // and (on abort) requeue whatever the workers left behind so the
        // partial state stays consistent.
        let aborted = ctrl.was_aborted();
        self.stats.steal_count += ctrl.steal_count();
        let mut stmt_groups: Vec<(Vec<crate::shard::DeltaCommit>, Vec<crate::shard::Derived>)> =
            Vec::with_capacity(n);
        for (i, cell) in cells.into_iter().enumerate() {
            let sh = cell.into_inner();
            self.slots.shards[i] = sh.shard;
            self.stats.propagations += sh.propagations;
            // Leftover worklist entries exist only on abort; their pending
            // accumulators are still populated, so requeueing the ids
            // restores the sequential worklist invariant.
            self.queue.extend(sh.queue.into_iter().map(PtrId));
            stmt_groups.push((sh.stmt, sh.derived));
        }
        // Undelivered inbox messages (abort only) re-enter through the
        // normal enqueue path.
        for (trep, payload) in ctrl.drain_leftovers() {
            self.enqueue(PtrId(trep), &payload);
        }

        // A poisoned phase (worker panic or injected fault) unwinds like a
        // budget abort — derived packets dropped, shards already restored
        // above — but the state is marked dead: safe to drop and to read,
        // never continued.
        if let Some(err) = phase_err {
            self.poisoned = true;
            self.queue.clear();
            return Phase::Poisoned(err);
        }

        // Commit section: replay the phase's derived packets in (shard,
        // processing order) — dropped wholesale on abort, like a round's.
        let commit_start = Instant::now();
        let ok = 'commit: {
            if aborted {
                break 'commit false;
            }
            if let Some(max) = self.budget.max_propagations {
                if self.stats.propagations > max {
                    break 'commit false;
                }
            }
            if let Some(limit) = self.budget.time {
                if self.started.elapsed() > limit {
                    break 'commit false;
                }
            }
            let p = plugin.as_mut().expect("plugin restored after the phase");
            for (stmts, derived) in stmt_groups {
                let mut packets = derived.into_iter();
                let mut start = 0u32;
                for (ptr, delta, end) in stmts {
                    // Every inbox clone of the delta was merged and
                    // dropped during the phase, so this unwraps copy-free.
                    let delta = std::sync::Arc::unwrap_or_clone(delta);
                    if self.balanced_route {
                        self.bump_route_cost(ptr.0, delta.len() as u64);
                    }
                    let count = (end - start) as usize;
                    start = end;
                    self.commit_derived(
                        selector,
                        p,
                        ptr,
                        &delta,
                        packets.by_ref().take(count),
                        discovery,
                    );
                }
            }
            true
        };
        self.stats.commit_secs += commit_start.elapsed().as_secs_f64();
        if ok {
            Phase::Done
        } else {
            Phase::Budget
        }
    }

    /// The commit plane's coordinator-side reconciliation, run once per
    /// parallel round after the shards are restored.
    ///
    /// Workers interned fresh pointers from disjoint id strides, so ids
    /// never collide — but two workers may have interned the *same key*
    /// under different ids. This pass canonicalizes, in deterministic
    /// shard-major allocation order:
    ///
    /// * **Pass A** — register each fresh key: the first occurrence keeps
    ///   its id (written into `ptr_keys` and the intern tables); later
    ///   duplicates are *aliased* — their key slot stays [`PtrKey::Dead`],
    ///   their union-find entry is parented onto the canonical id (so any
    ///   stored reference canonicalizes through `repr`), and they never
    ///   join a `members` group (merge election only considers live
    ///   representatives).
    /// * **Pass B** — migrate the duplicates' worker-committed growth
    ///   (successor rows, edge-pair groups) onto their canonicals,
    ///   *verbatim*: pass C rewrites endpoints through the alias map, and
    ///   rewriting them here too would make its canonical-pair inserts
    ///   collide with themselves.
    /// * **Pass C** — re-check the workers' edge logs against the
    ///   canonical id space: rewritten pairs replace their raw entries in
    ///   the dedup groups; a pair another worker already committed under a
    ///   different fresh id is dropped (its leftover successor entry is
    ///   idempotent and deduplicated at the next condensation epoch).
    ///   Survivors are counted and, when events are on, announced — the
    ///   workers never touch `SolverStats`.
    ///
    /// Finally the workers' flush payloads (source sets cloned shard-side
    /// at edge-commit time) are enqueued; `enqueue` routes them through
    /// `repr`, so flushes to an aliased duplicate land on its canonical.
    fn reconcile_round(
        &mut self,
        fresh: Vec<Vec<(PtrKey, u32)>>,
        edges: Vec<Vec<crate::shard::EdgeReq>>,
        flushes: Vec<Vec<(u32, std::sync::Arc<PointsToSet>)>>,
    ) {
        // Pad the slot plane to the post-round layout (each worker
        // appended rows for its own stride only, leaving shards ragged).
        let mut new_len = self.slots.len();
        for log in &fresh {
            // Stride ids are allocated in increasing order per worker.
            if let Some(&(_, id)) = log.last() {
                new_len = new_len.max(id + 1);
            }
        }
        if new_len > self.slots.len() {
            let appended: Vec<usize> = fresh.iter().map(Vec::len).collect();
            self.slots.pad_to(new_len, &appended);
            let old_len = u32::try_from(self.ptr_keys.len()).expect("too many pointers");
            self.ptr_keys.resize(new_len as usize, PtrKey::Dead);
            for _ in old_len..new_len {
                self.reps.push();
            }
        }

        // Pass A.
        let mut alias: FxHashMap<u32, u32> = FxHashMap::default();
        for log in &fresh {
            for &(key, id) in log {
                debug_assert!(matches!(self.ptr_keys[id as usize], PtrKey::Dead));
                if let Some(canon) = self.find_ptr(key) {
                    alias.insert(id, canon.0);
                    self.reps.set_parent(id, canon.0);
                    continue;
                }
                self.ptr_keys[id as usize] = key;
                match key {
                    PtrKey::Var(ctx, v) if ctx == CtxId::EMPTY => {
                        self.ci_var_ptrs[v.index()] = id;
                    }
                    PtrKey::Var(ctx, v) => {
                        self.var_ptr_table.insert((ctx, v), PtrId(id));
                    }
                    PtrKey::Field(obj, f) => {
                        self.field_ptr_table.insert((obj, f), PtrId(id));
                    }
                    PtrKey::Dead => unreachable!("workers never intern dead keys"),
                }
                self.stats.pointers += 1;
            }
        }

        // Pass B (skipped entirely in the common no-duplicates case).
        if !alias.is_empty() {
            for log in &fresh {
                for &(_, id) in log {
                    let Some(&canon) = alias.get(&id) else {
                        continue;
                    };
                    let succ = self.slots.take_succ(id);
                    if !succ.is_empty() {
                        self.slots.extend_succ(canon, succ);
                    }
                    if let Some(pairs) = self.slots.take_edge_pairs(id) {
                        let group = self.slots.edge_pairs_mut(canon);
                        if group.is_empty() {
                            *group = pairs;
                        } else {
                            group.merge(&pairs);
                        }
                    }
                }
            }
        }

        // Pass C.
        for log in &edges {
            for &(src, dst, kind) in log {
                let asrc = alias.get(&src).copied().unwrap_or(src);
                let adst = alias.get(&dst).copied().unwrap_or(dst);
                if (asrc, adst) != (src, dst) {
                    let csrc = self.reps.find(asrc);
                    let group = self.slots.edge_pairs_mut(csrc);
                    group.remove(src, dst);
                    if asrc == adst || !group.insert(asrc, adst) {
                        continue;
                    }
                }
                self.stats.edges += 1;
                if self.reps.find(asrc) != self.reps.find(adst) {
                    // Worker-committed edges are unfiltered copies.
                    self.copy_edges_since_collapse += 1;
                }
                if self.emit_events {
                    self.events.push_back(Event::NewEdge {
                        src: PtrId(asrc),
                        dst: PtrId(adst),
                        kind,
                    });
                }
            }
        }

        // Flushes, in (shard, commit) order.
        for log in flushes {
            for (dst, payload) in log {
                self.enqueue(PtrId(dst), &payload);
            }
        }
    }

    /// Commits one committed delta's worker-derived packets: interning,
    /// edge/call-graph mutation, context selection, and plugin reactions,
    /// in the deterministic order the worker emitted them. For plugins
    /// without worker-side discovery, also queues the per-member
    /// `NewPointsTo` events the sequential `fan_out` would have queued.
    fn commit_derived<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        ptr: PtrId,
        delta: &PointsToSet,
        derived: impl Iterator<Item = crate::shard::Derived>,
        discovery: bool,
    ) {
        use crate::shard::Derived;
        for d in derived {
            match d {
                Derived::LoadFan { site, ctx } => {
                    // Same shape as the sequential `[Load]` loop: intern
                    // the target once, then one field pointer per object.
                    let l = self.program.load(site);
                    let (lhs, field) = (l.lhs(), l.field());
                    let t = self.var_ptr(ctx, lhs);
                    for o in delta.iter() {
                        let s = self.field_ptr(CsObjId(o), field);
                        self.add_edge(s, t, EdgeKind::Load(site));
                    }
                }
                Derived::StoreFan { site, ctx } => {
                    let st = self.program.store(site);
                    let (rhs, field) = (st.rhs(), st.field());
                    let s = self.var_ptr(ctx, rhs);
                    for o in delta.iter() {
                        let t = self.field_ptr(CsObjId(o), field);
                        self.add_edge(s, t, EdgeKind::Store(site));
                    }
                }
                Derived::Call {
                    caller_ctx,
                    site,
                    recv,
                    callee,
                } => {
                    // The worker resolved dispatch; context selection and
                    // the `[Call]` receiver flow stay coordinator-side.
                    let (heap_ctx, obj) = self.obj_key(CsObjId(recv));
                    let callee_ctx = selector.select_call(
                        self.program,
                        &mut self.interner,
                        CallInfo {
                            caller_ctx,
                            site,
                            callee,
                            recv: Some((heap_ctx, obj)),
                        },
                    );
                    self.add_call_edge(selector, &*plugin, caller_ctx, site, callee_ctx, callee);
                    if let Some(this) = self.program.method(callee).this_var() {
                        let t = self.var_ptr(callee_ctx, this);
                        self.enqueue_one(t, recv);
                    }
                }
                Derived::React(r) => plugin.apply(self, delta, *r),
            }
        }
        if self.emit_events && !discovery {
            if let Some(group) = self.members.remove(&ptr.0) {
                for &m in &group {
                    self.events.push_back(Event::NewPointsTo {
                        ptr: PtrId(m),
                        delta: delta.clone(),
                    });
                }
                self.members.insert(ptr.0, group);
            } else {
                self.events.push_back(Event::NewPointsTo {
                    ptr,
                    delta: delta.clone(),
                });
            }
        }
    }

    // ---- context-insensitive projections (used by clients) ----------------

    /// Union of `pt(c:v)` over all contexts `c`, projected to allocation
    /// sites — sorted and deduplicated, so downstream tables and snapshots
    /// are deterministic. Walks the whole pointer table; to project many
    /// variables use [`pt_vars_projected`](Self::pt_vars_projected).
    pub fn pt_var_projected(&self, v: VarId) -> Vec<ObjId> {
        let mut out: Vec<ObjId> = Vec::new();
        for (i, key) in self.ptr_keys.iter().enumerate() {
            if matches!(*key, PtrKey::Var(_, var) if var == v) {
                self.project_ptr(i, &mut out);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// [`pt_var_projected`](Self::pt_var_projected) for every wanted
    /// variable in one walk over the pointer table: `out[v]` is
    /// `pt_var_projected(v)` where `wanted[v]`, and empty elsewhere
    /// (`out.len() == wanted.len()`). Costs one pass over the pointers
    /// plus the projected elements, not one pass per variable.
    pub fn pt_vars_projected(&self, wanted: &[bool]) -> Vec<Vec<ObjId>> {
        let mut out: Vec<Vec<ObjId>> = vec![Vec::new(); wanted.len()];
        for (i, key) in self.ptr_keys.iter().enumerate() {
            if let PtrKey::Var(_, v) = *key {
                if wanted.get(v.index()) == Some(&true) {
                    self.project_ptr(i, &mut out[v.index()]);
                }
            }
        }
        for pt in &mut out {
            pt.sort_unstable();
            pt.dedup();
        }
        out
    }

    /// Appends pointer `i`'s points-to set, projected to allocation sites,
    /// to `out`. A collapsed member reads its representative's shared set,
    /// which fans the set back out at projection time.
    fn project_ptr(&self, i: usize, out: &mut Vec<ObjId>) {
        let set = self.slots.pts(self.reps.find(i as u32));
        out.extend(set.iter().map(|o| self.obj_keys[o as usize].1));
    }

    /// Context-insensitive projection of the reachable-method set (ordered).
    pub fn reachable_methods_projected(&self) -> BTreeSet<MethodId> {
        self.reachable_log.iter().map(|&(_, m)| m).collect()
    }

    /// Context-insensitive projection of the call graph (ordered).
    pub fn call_edges_projected(&self) -> BTreeSet<(CallSiteId, MethodId)> {
        self.call_edges
            .iter()
            .map(|&(_, site, _, callee)| (site, callee))
            .collect()
    }
}

/// The outcome of one parallel phase (a BSP round or an async
/// work-stealing phase), as seen by the engine loop.
enum Phase {
    /// Committed; keep draining.
    Done,
    /// Budget exhausted; the solve ends with [`SolveStatus::Timeout`].
    Budget,
    /// A worker panicked or an injected fault fired; the solve ends with
    /// [`SolveStatus::Poisoned`] and this typed cause.
    Poisoned(SolveError),
}

/// A configured pointer-analysis run.
pub struct Solver<'p, S, P> {
    state: SolverState<'p>,
    selector: S,
    plugin: P,
}

/// The outcome of a solver run: final state plus status and timing.
pub struct PtaResult<'p> {
    /// The final analysis state (points-to sets, call graph, stats).
    pub state: SolverState<'p>,
    /// Termination status.
    pub status: SolveStatus,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// The selector name (e.g. `"ci"`, `"2obj"`).
    pub analysis: String,
    /// The typed cause when `status` is [`SolveStatus::Poisoned`].
    pub error: Option<SolveError>,
}

impl<'p, S: ContextSelector, P: Plugin> Solver<'p, S, P> {
    /// Creates a solver for `program` with the given policy and plugin,
    /// using the default [`SolverOptions`].
    pub fn new(program: &'p Program, selector: S, plugin: P, budget: Budget) -> Self {
        Self::with_options(program, selector, plugin, budget, SolverOptions::default())
    }

    /// Creates a solver with explicit engine options (e.g. SCC collapsing
    /// disabled for differential testing).
    pub fn with_options(
        program: &'p Program,
        selector: S,
        plugin: P,
        budget: Budget,
        opts: SolverOptions,
    ) -> Self {
        Solver {
            state: SolverState::new(program, budget, opts),
            selector,
            plugin,
        }
    }

    /// Runs to fixpoint (or budget exhaustion) and returns the result
    /// together with the plugin (which may carry analysis-specific data,
    /// e.g. Cut-Shortcut's involved-method set).
    ///
    /// The `Send + Sync` bound on the plugin exists for the parallel
    /// engine, which shares the (round-frozen) plugin with its worker
    /// threads; the sequential engine never crosses a thread boundary.
    pub fn solve(mut self) -> (PtaResult<'p>, P)
    where
        P: Send + Sync,
    {
        let start = Instant::now();
        self.state.started = start;
        self.state.emit_events = self.plugin.wants_events();
        self.plugin.init(&mut self.state);
        let entry = self.state.program.entry();
        self.state
            .add_reachable(&self.selector, &self.plugin, CtxId::EMPTY, entry);
        self.drain(start)
    }

    /// Runs the engine loop (sequential, BSP, or async work-stealing per
    /// the resolved options) on the already-seeded state until fixpoint or
    /// budget exhaustion, then finalizes the result. Shared by [`solve`]
    /// (seeded from the entry method) and the incremental re-solve path
    /// (seeded from a delta's re-propagation frontier).
    ///
    /// [`solve`]: Solver::solve
    fn drain(self, start: Instant) -> (PtaResult<'p>, P)
    where
        P: Send + Sync,
    {
        let Solver {
            mut state,
            selector,
            mut plugin,
        } = self;
        crate::fault::init();
        let (status, error) = if state.nthreads > 1 {
            // Sharded parallel engine: rounds of parallel propagation with
            // sequential coordinator phases in between, the workers parked
            // in a pool that lives for the whole solve. Plugin events are
            // processed only at quiescent points (empty worklist), exactly
            // like the sequential loop; the loop terminates on the first
            // fully quiescent round (no worklist entries, no events).
            let nthreads = state.nthreads;
            let mut slot = Some(plugin);
            let outcome = std::thread::scope(|scope| {
                let pool = crate::pool::WorkerPool::start(scope, nthreads);
                loop {
                    if state.should_collapse() {
                        let p = slot.as_ref().expect("plugin present between rounds");
                        state.collapse_cycles(&selector, p);
                    }
                    if !state.queue.is_empty() {
                        let phase = if state.async_engine {
                            state.async_phase(&selector, &mut slot, &pool)
                        } else {
                            state.parallel_round(&selector, &mut slot, &pool)
                        };
                        match phase {
                            Phase::Done => {}
                            Phase::Budget => break (SolveStatus::Timeout, None),
                            Phase::Poisoned(err) => {
                                break (SolveStatus::Poisoned, Some(err));
                            }
                        }
                    } else if let Some(ev) = state.events.pop_front() {
                        slot.as_mut()
                            .expect("plugin present between rounds")
                            .handle(&mut state, ev);
                    } else {
                        break (SolveStatus::Completed, None);
                    }
                }
            });
            plugin = slot.expect("plugin restored after the solve");
            outcome
        } else {
            // The sequential engine (threads = 1), byte-for-byte the
            // pre-parallel behavior: per-pointer steps, events at
            // quiescence.
            let mut status = SolveStatus::Completed;
            loop {
                if state.should_collapse() {
                    state.collapse_cycles(&selector, &plugin);
                }
                if let Some(ptr) = state.queue.pop_front() {
                    // The sequential engine's unit of round work. A panic
                    // here (injected or organic) unwinds to the caller;
                    // the guarded entry points translate it into a typed
                    // `SolveError`.
                    crate::fault::hit(crate::fault::FaultPoint::WorkerRound);
                    // Canonicalize: the pointer may have been merged into an
                    // SCC after it was queued.
                    let ptr = state.repr(ptr);
                    let incoming = state.slots.take_pending(ptr.0);
                    if !state.step(&selector, &plugin, ptr, incoming) {
                        status = SolveStatus::Timeout;
                        break;
                    }
                } else if let Some(ev) = state.events.pop_front() {
                    plugin.handle(&mut state, ev);
                } else {
                    break;
                }
            }
            (status, None)
        };
        let elapsed = start.elapsed();
        // The Amdahl split: everything that is not a parallel phase is
        // coordinator time (on the sequential engine, the whole solve).
        state.stats.coordinator_secs = (elapsed.as_secs_f64() - state.stats.parallel_secs).max(0.0);
        state.record_mem_stats();
        (
            PtaResult {
                state,
                status,
                elapsed,
                analysis: selector.name().to_owned(),
                error,
            },
            plugin,
        )
    }
}
