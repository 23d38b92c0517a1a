//! The pointer-analysis engine: a delta-propagating worklist solver over the
//! pointer flow graph (PFG) with on-the-fly call-graph construction,
//! implementing the rules of Fig. 7 of the paper.
//!
//! The solver is generic over a [`ContextSelector`] (context insensitivity,
//! `k`-obj/`k`-type/`k`-call-site, selective) and over a [`Plugin`], whose
//! hooks the rules call as they derive each new points-to fact, call edge
//! and PFG edge. Cut-Shortcut is implemented entirely as such a plugin
//! (`crate::csc`): its `cutStores`/`cutReturns` sets suppress edge creation
//! in the `[Store]`/`[Return]` rules, and its hooks add the shortcut edges
//! (`E_SC`) through [`SolverState::add_edge`].
//!
//! ## Data plane
//!
//! The state is organized for dense-id access: the empty context (which
//! every pointer of a CI or Cut-Shortcut run and most pointers of a
//! selective run live under) interns variables and objects through plain
//! `Vec` lookups, with small FxHash tables only as the residual path for
//! context-qualified entities. PFG edge deduplication reuses the hybrid
//! [`PointsToSet`] as a per-source target set, and the worklist batches
//! deltas per pointer — repeated deltas targeting the same pointer coalesce
//! into one pending set before fan-out.
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
//! * statement processing (`[Load]`/`[Store]`/`[Call]`) and
//!   [`Plugin::on_new_points_to`] still run per member — when a
//!   representative's set grows, the delta fans out to every member's
//!   statements and hook, so plugins (the Cut-Shortcut obligations in
//!   particular) see the same logical growth per pointer as the uncollapsed
//!   solver;
//! * PFG edges are deduplicated on their *original* endpoints, and
//!   [`Plugin::on_new_edge`] receives original endpoints — only the
//!   physical successor lists live at representatives;
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
//! ## One sequential engine
//!
//! The worklist loop in `Solver::drain` is the only engine. Measured
//! parallel engines spent 80–94% of each solve in sequential coordinator
//! work, which caps any speedup near 1.07–1.25× on any core count, and on
//! 2 cores they ran slower than this loop. A parallel engine is worth
//! adding only once a profile shows the sequential share of a solve under
//! about half.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A solver extension. The Cut-Shortcut analysis is the canonical
/// implementation; [`NoPlugin`] is the identity.
///
/// The three `on_new_*` hooks run inline, from the rule that derived the
/// fact, and may add PFG edges through [`SolverState::add_edge`]. Edges a
/// plugin adds itself are not reported back to it: `add_edge` returns
/// whether the edge is new, and the plugin handles its own new edges.
pub trait Plugin {
    /// `delta`, exactly the new objects, was added to `pt(ptr)`. Over a
    /// solve, the deltas one pointer receives are disjoint and add up to
    /// its final set, also when it is a member of a collapsed SCC.
    fn on_new_points_to(&mut self, st: &mut SolverState<'_>, ptr: PtrId, delta: &PointsToSet) {
        let _ = (st, ptr, delta);
    }

    /// A new call-graph edge was added, after its `[Param]`/`[Return]`
    /// edges.
    fn on_new_call_edge(
        &mut self,
        st: &mut SolverState<'_>,
        caller_ctx: CtxId,
        site: CallSiteId,
        callee_ctx: CtxId,
        callee: MethodId,
    ) {
        let _ = (st, caller_ctx, site, callee_ctx, callee);
    }

    /// A rule added the new PFG edge `src -> dst` (original endpoints).
    fn on_new_edge(&mut self, st: &mut SolverState<'_>, src: PtrId, dst: PtrId, kind: EdgeKind) {
        let _ = (st, src, dst, kind);
    }

    /// `[Store]` cut check: whether the given store site's PFG edges are
    /// suppressed (`cutStores`).
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
}

/// A typed, survivable solve failure — the replacement for
/// panic-as-abort. The guarded entry points (`run_analysis_guarded` /
/// `resolve_analysis_guarded`) catch a panic that unwinds out of a solve
/// and return it as this error; the partial state unwinds with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// A panic escaped the solve; `payload` is the stringified panic
    /// payload.
    Poisoned {
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
            SolveError::Poisoned { payload } => write!(f, "solve poisoned: {payload}"),
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
    /// Always 1: the solver is sequential. Kept for the benchmark
    /// harness, which reports it; nothing in the workspace reads it.
    pub threads: u64,
    /// Always 0.0: there are no parallel phases. Kept for the benchmark
    /// harness, which reports it; nothing in the workspace reads it.
    pub parallel_secs: f64,
    /// Wall-clock seconds of the solve (of the last incremental re-solve,
    /// after a resolve), plus the pre-analysis solve's for two-phase
    /// analyses. Kept for the benchmark harness, which reports it.
    pub coordinator_secs: f64,
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
    /// Pointers the most recent incremental re-solve reset and re-derived
    /// (its removal cone; 0 after an additions-only resolve or a fallback).
    pub incr_cone_ptrs: u64,
    /// Call-graph edges in the most recent incremental re-solve's removal
    /// cone (0 after an additions-only resolve or a fallback).
    pub incr_cone_call_edges: u64,
    /// Heap bytes the points-to sets own at solve end: every pointer's
    /// set and the pending accumulators still queued (none after a
    /// completed solve). An inline set (up to three elements) owns none, a
    /// sorted-vector set its buffer, a chunked set its box, arrays and
    /// chunks; the sets' 24 bytes in place are not counted, and each
    /// CoW-shared dense chunk is counted once (see [`crate::mem`]).
    pub pts_bytes: u64,
    /// Heap bytes of the PFG edge storage (successor arenas + edge-dedup
    /// pair sets) at solve end.
    pub edge_bytes: u64,
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
            FallbackReason::CscObligations => "csc-obligations",
            FallbackReason::PreanalysisChanged => "preanalysis-changed",
        })
    }
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
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            collapse_sccs: true,
            collapse_epoch: None,
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
        }
    }

    /// The same options, unchanged: the solver is sequential, so there is
    /// no thread count to set. Kept for the benchmark harness, which calls
    /// it; nothing in the workspace does.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Always 1: the solver is sequential. Kept for the benchmark
    /// harness, which reports it; nothing in the workspace calls it.
    pub fn resolved_threads(&self) -> usize {
        1
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
    /// PFG edge-dedup sets, stored at SCC representatives; merged members
    /// keep an empty slot and read through [`SolverState::repr`].
    ///
    /// Successor entries carry an optional cast filter: only objects whose
    /// class is a subtype of the filter class propagate along the edge
    /// (`checkcast` semantics, as in Tai-e and Doop). Lists live at SCC
    /// representatives; stored targets may be stale (merged away) and are
    /// re-canonicalized at enqueue time and at each condensation epoch.
    /// Edge dedup is on *original* `(src, dst)` endpoints, grouped under
    /// the source's representative (see `crate::shard::Shard`).
    slots: crate::shard::Shard,

    /// Representative index for SCC-collapsed propagation.
    reps: crate::scc::UnionFind,
    /// Member lists (ascending, representative first) for collapsed
    /// representatives only; uncollapsed pointers have no entry.
    members: FxHashMap<u32, Vec<u32>>,
    /// Unfiltered copy edges inserted since the last condensation epoch.
    /// An incremental re-solve's removal reset subtracts the edges it
    /// removed, so the count can dip below zero while they are re-derived.
    copy_edges_since_collapse: i64,
    opts: SolverOptions,

    /// Batched worklist: the FIFO of pointers with a non-empty pending
    /// accumulator (the accumulators themselves live in `slots`).
    queue: VecDeque<PtrId>,

    /// Reachability: dense for the empty context, residual set for
    /// context-qualified units, plus the insertion-ordered log backing the
    /// public views.
    reachable_ci: Vec<bool>,
    reachable_cs: FxHashSet<(CtxId, MethodId)>,
    reachable_log: Vec<(CtxId, MethodId)>,

    call_edge_set: FxHashSet<(CtxId, CallSiteId, CtxId, MethodId)>,
    call_edges: Vec<(CtxId, CallSiteId, CtxId, MethodId)>,
    call_edges_by_callee: FxHashMap<MethodId, Vec<(CtxId, CallSiteId, CtxId)>>,

    /// Per-variable statement usage index (see [`crate::shard::StmtIndex`]),
    /// read by statement processing.
    stmts: crate::shard::StmtIndex,

    /// Counters.
    pub stats: SolverStats,
    budget: Budget,
    started: Instant,

    /// Which solve this state descends from: unique per full solve,
    /// carried across incremental resolves. With `stats.incr_resolves` it
    /// names the state's version (see [`SolverState::version`]).
    lineage: u64,
    /// What the current incremental resolve changed; `None` on a full
    /// solve, which tracks nothing.
    changes: Option<Box<incr::Changes>>,
}

/// The lineage of the next full solve.
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(0);

impl<'p> SolverState<'p> {
    fn new(program: &'p Program, budget: Budget, opts: SolverOptions) -> Self {
        let stats = SolverStats {
            threads: 1,
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
            slots: crate::shard::Shard::default(),
            reps: crate::scc::UnionFind::new(),
            members: FxHashMap::default(),
            copy_edges_since_collapse: 0,
            opts,
            queue: VecDeque::new(),
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
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            changes: None,
        }
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

    /// Adds a PFG edge (deduplicated on its *original* endpoints) and
    /// returns whether it is new. New edges immediately flush the source's
    /// current points-to set to the target. Cast edges carry a type filter
    /// (`checkcast` semantics): only objects assignable to the cast target
    /// propagate, as in Tai-e and Doop.
    ///
    /// The physical successor entry lives at the source's SCC
    /// representative; an edge whose endpoints are already in the same SCC
    /// stays logical-only (the shared set makes propagation a no-op), but
    /// is still counted and deduplicated, and a rule's edge is still
    /// reported to [`Plugin::on_new_edge`], so plugins observe the same PFG
    /// as the uncollapsed solver. This method reports nothing: a plugin
    /// that adds an edge handles it itself.
    pub fn add_edge(&mut self, src: PtrId, dst: PtrId, kind: EdgeKind) -> bool {
        if src == dst {
            return false;
        }
        let csrc = self.reps.find(src.0);
        if !self.slots.edge_pairs_mut(csrc).insert(src.0, dst.0) {
            return false;
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
        true
    }

    /// [`add_edge`](Self::add_edge) for an edge a rule derived: a new edge
    /// is reported to the plugin.
    fn add_rule_edge<P: Plugin>(&mut self, plugin: &mut P, src: PtrId, dst: PtrId, kind: EdgeKind) {
        if self.add_edge(src, dst, kind) {
            plugin.on_new_edge(self, src, dst, kind);
        }
    }

    /// Restricts a set to objects assignable to `class` (`checkcast`
    /// semantics). Only cast edges pay for this copy — unfiltered edges
    /// propagate their delta by reference, so there is no identity-clone
    /// arm here.
    fn apply_filter(&self, objs: &PointsToSet, class: csc_ir::ClassId) -> PointsToSet {
        crate::shard::filter_pts(objs, class, &self.obj_keys, self.program)
    }

    /// Stamps the data-plane memory counters (`pts_bytes`, `edge_bytes`)
    /// from a walk over the slot plane — called once at the end of every
    /// solve and incremental re-solve, where the numbers describe the
    /// converged state.
    fn record_mem_stats(&mut self) {
        self.stats.pts_bytes = self.slots.pts_account().bytes;
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

    /// Marks `(ctx, method)` reachable and, if it is new, fires the rules
    /// its body seeds: every `[New]`, then every `[Assign]`/`[Cast]`, then
    /// every static `[Call]`.
    fn add_reachable<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        ctx: CtxId,
        method: MethodId,
    ) {
        if !self.insert_reachable(ctx, method) {
            return;
        }
        self.stats.reachable += 1;
        let program = self.program;
        let mut news: Vec<(VarId, ObjId)> = Vec::new();
        let mut copies: Vec<(VarId, VarId, EdgeKind)> = Vec::new();
        let mut static_calls: Vec<CallSiteId> = Vec::new();
        program.method(method).visit_stmts(|s| match *s {
            Stmt::New { lhs, obj } => news.push((lhs, obj)),
            Stmt::Call(id) if program.call_site(id).kind() == CallKind::Static => {
                static_calls.push(id);
            }
            _ => copies.extend(copy_of(program, s)),
        });
        for (lhs, obj) in news {
            self.rule_new(selector, ctx, lhs, obj);
        }
        for (rhs, lhs, kind) in copies {
            self.rule_copy(plugin, ctx, rhs, lhs, kind);
        }
        for site in static_calls {
            self.rule_static_call(selector, plugin, ctx, site);
        }
    }

    // ---- the statement rules of Fig. 7 ------------------------------------
    //
    // One method per rule, fired for a statement under a context; the
    // incremental replays (`incr.rs`) fire the same methods. The rules over
    // a base variable (`[Load]`, `[Store]`, instance `[Call]`) take the
    // base's objects to fire for: a delta while solving; the whole set, or
    // the objects whose conclusions a removal cone reset, in a replay.

    /// `[New]` `lhs = new T()`: the object, under the heap context the
    /// selector picks, flows into `lhs`.
    fn rule_new<S: ContextSelector>(&mut self, selector: &S, ctx: CtxId, lhs: VarId, obj: ObjId) {
        let hctx = selector.select_heap(self.program, &mut self.interner, ctx, obj);
        let cs = self.cs_obj(hctx, obj);
        let ptr = self.var_ptr(ctx, lhs);
        self.enqueue_one(ptr, cs.0);
    }

    /// `[Assign]` and `[Cast]`: the edge `rhs -> lhs` ([`copy_of`]).
    fn rule_copy<P: Plugin>(
        &mut self,
        plugin: &mut P,
        ctx: CtxId,
        rhs: VarId,
        lhs: VarId,
        kind: EdgeKind,
    ) {
        let s = self.var_ptr(ctx, rhs);
        let t = self.var_ptr(ctx, lhs);
        self.add_rule_edge(plugin, s, t, kind);
    }

    /// `[Load]` `lhs = base.f`: the edge `o.f -> lhs` for each object `o`
    /// of `objs`.
    fn rule_load<P: Plugin>(
        &mut self,
        plugin: &mut P,
        ctx: CtxId,
        l: LoadId,
        objs: impl IntoIterator<Item = u32>,
    ) {
        let site = self.program.load(l);
        let t = self.var_ptr(ctx, site.lhs());
        for o in objs {
            let s = self.field_ptr(CsObjId(o), site.field());
            self.add_rule_edge(plugin, s, t, EdgeKind::Load(l));
        }
    }

    /// `[Store]` `base.f = rhs`: the edge `rhs -> o.f` for each object `o`
    /// of `objs`, unless the plugin cuts the store (`cutStores`).
    fn rule_store<P: Plugin>(
        &mut self,
        plugin: &mut P,
        ctx: CtxId,
        st: StoreId,
        objs: impl IntoIterator<Item = u32>,
    ) {
        if plugin.is_store_cut(st) {
            return;
        }
        let site = self.program.store(st);
        let s = self.var_ptr(ctx, site.rhs());
        for o in objs {
            let t = self.field_ptr(CsObjId(o), site.field());
            self.add_rule_edge(plugin, s, t, EdgeKind::Store(st));
        }
    }

    /// Static `[Call]`: the call edge to the site's target.
    fn rule_static_call<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        ctx: CtxId,
        site: CallSiteId,
    ) {
        let callee = self.program.call_site(site).target();
        self.add_call_edge(selector, plugin, ctx, site, callee, None);
    }

    /// Instance `[Call]` for each receiver object of `recvs`: the call
    /// edge to the method the receiver dispatches to (none for a receiver
    /// without a concrete implementation), then the receiver flows into
    /// the callee's `this`.
    fn rule_call<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        caller_ctx: CtxId,
        site: CallSiteId,
        recvs: impl IntoIterator<Item = u32>,
    ) {
        let program = self.program;
        let cs = program.call_site(site);
        for recv in recvs {
            let (heap_ctx, obj) = self.obj_key(CsObjId(recv));
            let callee = match cs.kind() {
                CallKind::Virtual => {
                    match program.dispatch(program.obj(obj).class(), cs.target()) {
                        Some(m) => m,
                        None => continue, // no concrete impl: spurious receiver
                    }
                }
                CallKind::Special => cs.target(),
                CallKind::Static => unreachable!("static calls have no receiver"),
            };
            let recv_key = Some((heap_ctx, obj));
            let callee_ctx =
                self.add_call_edge(selector, plugin, caller_ctx, site, callee, recv_key);
            if let Some(this) = program.method(callee).this_var() {
                let t = self.var_ptr(callee_ctx, this);
                self.enqueue_one(t, recv);
            }
        }
    }

    /// `[Param]` and `[Return]` for the call edge `edge`: an edge from each
    /// argument to its parameter (the receiver is not one: `[Call]` hands
    /// `this` its objects one by one), and from the callee's return
    /// variable to the call's result unless the plugin cuts the callee's
    /// returns (`cutReturns`). Only the edges whose target `ctx:v` passes
    /// `fires(self, ctx, v)` are added.
    fn rule_flows<P: Plugin>(
        &mut self,
        plugin: &mut P,
        edge: (CtxId, CallSiteId, CtxId, MethodId),
        fires: impl Fn(&Self, CtxId, VarId) -> bool,
    ) {
        let (caller_ctx, site, callee_ctx, callee) = edge;
        let cs = self.program.call_site(site);
        let m = self.program.method(callee);
        for (&arg, &param) in cs.args().iter().zip(m.params()) {
            if fires(self, callee_ctx, param) {
                let s = self.var_ptr(caller_ctx, arg);
                let t = self.var_ptr(callee_ctx, param);
                self.add_rule_edge(plugin, s, t, EdgeKind::Param);
            }
        }
        if let (Some(lhs), Some(ret)) = (cs.lhs(), m.ret_var()) {
            if !plugin.is_return_cut(callee) && fires(self, caller_ctx, lhs) {
                let s = self.var_ptr(callee_ctx, ret);
                let t = self.var_ptr(caller_ctx, lhs);
                self.add_rule_edge(plugin, s, t, EdgeKind::Return(callee));
            }
        }
    }

    /// Adds the call edge from `site` under `caller_ctx` to `callee`, under
    /// the context the selector picks for the callee given the receiver
    /// `recv` (none for a static call), and returns that context. A new
    /// edge makes the callee unit reachable, adds its `[Param]`/`[Return]`
    /// edges and is reported to the plugin.
    fn add_call_edge<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        caller_ctx: CtxId,
        site: CallSiteId,
        callee: MethodId,
        recv: Option<(CtxId, ObjId)>,
    ) -> CtxId {
        let call = CallInfo {
            caller_ctx,
            site,
            callee,
            recv,
        };
        let callee_ctx = selector.select_call(self.program, &mut self.interner, call);
        let edge = (caller_ctx, site, callee_ctx, callee);
        if !self.call_edge_set.insert(edge) {
            return callee_ctx;
        }
        self.call_edges.push(edge);
        self.call_edges_by_callee
            .entry(callee)
            .or_default()
            .push((caller_ctx, site, callee_ctx));
        self.stats.call_edges += 1;
        self.add_reachable(selector, plugin, callee_ctx, callee);
        self.rule_flows(plugin, edge, |_, _, _| true);
        plugin.on_new_call_edge(self, caller_ctx, site, callee_ctx, callee);
        callee_ctx
    }

    /// Processes one worklist entry (always a representative — the queue is
    /// canonicalized at pop time). Returns `false` when the budget is
    /// exhausted.
    fn step<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        ptr: PtrId,
        incoming: PointsToSet,
    ) -> bool {
        let Some(delta) = self.slots.pts_mut(ptr.0).union_delta(&incoming) else {
            return true;
        };
        if let Some(changes) = self.changes.as_deref_mut() {
            changes.mark(ptr.0);
        }
        self.stats.propagations += 1;
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
            let seg = self.slots.succ_seg(seg_idx);
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

        self.fan_out(selector, plugin, ptr, &delta);
        true
    }

    /// Statement processing and [`Plugin::on_new_points_to`] for a
    /// committed delta, fanned out to every member of a collapsed SCC —
    /// each member's loads/stores/calls and hook must see the shared set's
    /// growth exactly as they would uncollapsed. The member list is taken
    /// out and restored around the loop (neither statement processing nor
    /// a hook can reach `members`; merges only happen between worklist
    /// steps), avoiding an O(|SCC|) clone per delta.
    fn fan_out<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        ptr: PtrId,
        delta: &PointsToSet,
    ) {
        let group = self.members.remove(&ptr.0);
        for &m in group.as_deref().unwrap_or(&[ptr.0]) {
            self.process_delta(selector, plugin, m, delta);
        }
        if let Some(group) = group {
            self.members.insert(ptr.0, group);
        }
    }

    /// Fires the rules and the hook for one pointer whose set grew by
    /// `delta`: statement processing if it is a variable, then
    /// [`Plugin::on_new_points_to`].
    fn process_delta<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        p: u32,
        delta: &PointsToSet,
    ) {
        if let PtrKey::Var(ctx, v) = self.ptr_keys[p as usize] {
            self.process_var_stmts(selector, plugin, ctx, v, delta);
        }
        plugin.on_new_points_to(self, PtrId(p), delta);
    }

    /// The `[Load]` / `[Store]` / `[Call]` rules for one variable whose
    /// points-to set grew by `delta`.
    fn process_var_stmts<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        ctx: CtxId,
        v: VarId,
        delta: &PointsToSet,
    ) {
        // The rules mutate the state, so each row is read by position.
        for i in self.stmts.loads.span(v) {
            let l = self.stmts.loads.id(i);
            self.rule_load(plugin, ctx, l, delta.iter());
        }
        for i in self.stmts.stores.span(v) {
            let st = self.stmts.stores.id(i);
            self.rule_store(plugin, ctx, st, delta.iter());
        }
        for i in self.stmts.calls.span(v) {
            let site = self.stmts.calls.id(i);
            self.rule_call(selector, plugin, ctx, site, delta.iter());
        }
    }

    /// A copy of `pt(ctx:v)`, or `None` when `ctx:v` is not interned.
    fn var_objs(&self, ctx: CtxId, v: VarId) -> Option<PointsToSet> {
        self.find_ptr(PtrKey::Var(ctx, v))
            .map(|p| self.pt(p).clone())
    }

    // ---- SCC-collapsed propagation ----------------------------------------

    /// Whether enough unfiltered copy edges accumulated to pay for a
    /// condensation epoch. The adaptive threshold is geometric — the next
    /// epoch waits for the edge count to grow by a constant fraction — so
    /// the total condensation work stays `O((V + E) log E)` regardless of
    /// how large the graph gets.
    fn should_collapse(&self) -> bool {
        if !self.opts.collapse_sccs || self.copy_edges_since_collapse <= 0 {
            return false;
        }
        let threshold = self
            .opts
            .collapse_epoch
            .unwrap_or_else(|| crate::scc::epoch_threshold(self.stats.edges));
        self.copy_edges_since_collapse >= i64::from(threshold)
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
    ///    per-member statement processing and one
    ///    [`Plugin::on_new_points_to`] call for the missing elements, exactly
    ///    as if the elements had propagated to it around the cycle.
    fn collapse_cycles<S: ContextSelector, P: Plugin>(&mut self, selector: &S, plugin: &mut P) {
        self.copy_edges_since_collapse = 0;
        self.stats.scc_runs += 1;
        let n = self.ptr_keys.len();
        // Canonical unfiltered adjacency over representatives, one CSR row
        // per pointer (empty for a non-representative).
        let mut adj = crate::scc::Csr::with_nodes(n);
        for u in 0..n as u32 {
            if self.reps.is_rep(u) {
                for (t, filter) in self.slots.succ_iter(u) {
                    if filter.is_none() {
                        let c = self.reps.find(t.0);
                        if c != u {
                            adj.push(c);
                        }
                    }
                }
            }
            adj.end_row();
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
                        if let Some(changes) = self.changes.as_deref_mut() {
                            changes.mark(m);
                        }
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
            // endpoints — only the grouping key changes).
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
                let seg = self.slots.succ_seg(seg_idx);
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
            self.process_delta(selector, plugin, m, &delta);
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
        self.pt_vars_projected_into(wanted, &mut out);
        out
    }

    /// [`pt_vars_projected`](Self::pt_vars_projected) in place: each
    /// wanted `out[v]` is cleared and refilled, and the others are left as
    /// they are (`out.len() == wanted.len()`).
    pub(crate) fn pt_vars_projected_into(&self, wanted: &[bool], out: &mut [Vec<ObjId>]) {
        for (pt, _) in out.iter_mut().zip(wanted).filter(|&(_, &w)| w) {
            pt.clear();
        }
        for (i, key) in self.ptr_keys.iter().enumerate() {
            if let PtrKey::Var(_, v) = *key {
                if wanted.get(v.index()) == Some(&true) {
                    self.project_ptr(i, &mut out[v.index()]);
                }
            }
        }
        for (pt, _) in out.iter_mut().zip(wanted).filter(|&(_, &w)| w) {
            pt.sort_unstable();
            pt.dedup();
        }
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

/// The `(rhs, lhs, kind)` copy an `[Assign]` or `[Cast]` statement
/// makes; `None` for any other statement.
fn copy_of(program: &Program, s: &Stmt) -> Option<(VarId, VarId, EdgeKind)> {
    match *s {
        Stmt::Assign { lhs, rhs } => Some((rhs, lhs, EdgeKind::Assign)),
        Stmt::Cast(id) => {
            let c = program.cast(id);
            Some((c.rhs(), c.lhs(), EdgeKind::Cast(id)))
        }
        _ => None,
    }
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
    pub fn solve(mut self) -> (PtaResult<'p>, P) {
        let start = Instant::now();
        self.state.started = start;
        let entry = self.state.program.entry();
        self.state
            .add_reachable(&self.selector, &mut self.plugin, CtxId::EMPTY, entry);
        self.drain(start)
    }

    /// Runs the worklist loop on the already-seeded state until fixpoint
    /// or budget exhaustion, then finalizes the result. Shared by
    /// [`solve`] (seeded from the entry method) and the incremental
    /// re-solve path (seeded from a delta's re-propagation frontier).
    ///
    /// [`solve`]: Solver::solve
    fn drain(self, start: Instant) -> (PtaResult<'p>, P) {
        let Solver {
            mut state,
            selector,
            mut plugin,
        } = self;
        crate::fault::init();
        let mut status = SolveStatus::Completed;
        loop {
            if state.should_collapse() {
                state.collapse_cycles(&selector, &mut plugin);
            }
            let Some(ptr) = state.queue.pop_front() else {
                break;
            };
            // One step is the `worker-round` fault point's unit. A panic
            // here (injected or organic) unwinds to the caller; the guarded
            // entry points translate it into a typed `SolveError`.
            crate::fault::hit(crate::fault::FaultPoint::WorkerRound);
            // Canonicalize: the pointer may have been merged into an SCC
            // after it was queued.
            let ptr = state.repr(ptr);
            let incoming = state.slots.take_pending(ptr.0);
            if !state.step(&selector, &mut plugin, ptr, incoming) {
                status = SolveStatus::Timeout;
                break;
            }
        }
        let elapsed = start.elapsed();
        state.stats.coordinator_secs = elapsed.as_secs_f64();
        state.record_mem_stats();
        (
            PtaResult {
                state,
                status,
                elapsed,
                analysis: selector.name().to_owned(),
            },
            plugin,
        )
    }
}
