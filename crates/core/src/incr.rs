//! Incremental re-solve: rebasing a completed solve onto a delta-patched
//! program and re-propagating only from the affected frontier.
//!
//! The driver is [`Solver::resolve`]. Given a completed [`PtaResult`] for a
//! base program and a patched program produced by
//! [`csc_ir::ProgramDelta::apply`], it either
//!
//! * extends the fixpoint **in place** — additions are replayed against the
//!   already-reachable units and removals reset exactly the *taint cone*
//!   (every fact transitively derivable from the removed statements) and
//!   re-derive only what the reset removed — or
//! * reports a [`FallbackReason`] telling the caller to run a fresh full
//!   solve of the patched program (always sound; the reasons exist so the
//!   differential harness can assert they fire exactly when their
//!   preconditions hold).
//!
//! ## Why additions can be replayed in place
//!
//! The analysis is monotone: every inference rule only ever adds facts.
//! Appending statements/methods/classes therefore only *grows* the final
//! fixpoint, and the old fixpoint remains a valid partial state — provided
//! no *existing* rule instance changes meaning. The one way an addition can
//! change an existing inference is virtual dispatch: an added override can
//! rebind an existing `(class, signature)` pair, invalidating previously
//! derived call edges. [`csc_ir::Program::dispatch_stable_under`] gates
//! exactly that ([`FallbackReason::DispatchChanged`]).
//!
//! ## Why removals need a taint cone
//!
//! Removing a statement invalidates the facts seeded by it *and everything
//! derived from them*. The closure here mirrors the solver's own rules, run
//! backwards-as-overapproximation: tainted pointers taint their PFG
//! successors and their statement fan-out (load targets, store field
//! pointers, receiver-derived call edges); tainted call edges taint the
//! callee-side parameter/`this` pointers and the caller-side return
//! target; and a unit (a method under a context) that the tainted call
//! edges cut off from the entry taints all its context-qualified
//! variables and outgoing call edges. "Cut off" is decided by a search
//! from the entry over the surviving call edges, so a recursive cycle
//! cannot keep itself alive; a unit that stays reachable keeps the
//! premise of all its statements, and its facts are covered by the
//! pointer and edge rules. Over-tainting is sound (it only grows the
//! reset-and-replay region); the closure never under-taints because each
//! rule covers the full derivation footprint of the corresponding solver
//! rule.
//!
//! ## Replaying only the cone
//!
//! This is delete-and-rederive (DRed; Gupta, Mumick & Subrahmanian, SIGMOD
//! 1993): everything in the cone is reset, then exactly the rule instances
//! whose conclusion the reset removed and whose premises survived are
//! fired again — the statements of the units the cone touches, the flows
//! of surviving call edges into cone pointers, and the stores into cone
//! field pointers — and the ordinary worklist drain re-derives the rest.
//! As DRed prescribes, the replay rederives facts with the rules that
//! first derived them: it picks the statements, the base objects to fire
//! for and the conclusions that lie in the cone, then calls the solver's
//! own rule methods (`[New]`, `[Assign]`/`[Cast]`, `[Load]`, `[Store]`,
//! `[Param]`/`[Return]`). The replay of a delta's added statements calls
//! the same methods, with each base's whole set.
//! The passes that still span the whole state are linear scans that test
//! dense cone flags (the PFG edge groups, filtered in place, and the call
//! edges); no per-object work happens outside the cone. The statement
//! index is patched from the delta, not rebuilt, and the removed edges are
//! credited against the next condensation epoch, so re-deriving them does
//! not trigger one.
//!
//! ## Collapsed SCCs split
//!
//! The members of an SCC-collapsed cycle share one points-to set, so the
//! cone cannot reset one member alone. It does not need to: the members
//! are strongly connected by copy edges, so a cone that reaches one
//! reaches all of them, and the closure takes the whole SCC in at once.
//! After the reset the members hold no facts and no edges, and the SCC is
//! split back into singletons; a later condensation epoch may merge the
//! re-derived cycle again. Stateful plugins veto removals (and
//! incompatible additions) through [`Plugin::rebase`]
//! ([`FallbackReason::CscObligations`]).
//!
//! ## What a resolve changed
//!
//! From the rebase on, the state keeps a `Changes` log: the pointers
//! whose points-to set or representative changed, the call edges and
//! units the reset removed, and where the resolve's appended call edges
//! and units start in the state's logs. [`crate::SolvedSummary::advance`]
//! patches a snapshot of the base state from it instead of re-projecting
//! every variable. A full solve keeps no log.

use std::time::Instant;

use csc_ir::{CallKind, CallSiteId, DeltaEffects, MethodId, Program, Stmt, VarId};

use super::{
    copy_of, Budget, CsObjId, FallbackReason, Plugin, PtaResult, PtrId, PtrKey, SolveStatus,
    Solver, SolverState, ABSENT,
};
use crate::context::{CallInfo, ContextSelector, CtxId};
use crate::fx::{FxHashMap, FxHashSet};
use crate::pts::PointsToSet;
use crate::results::Diff;

/// Outcome of [`Solver::resolve`].
// One value exists per resolve call and it is destructured immediately by
// the driver, so the size asymmetry between variants never costs memory.
#[allow(clippy::large_enum_variant)]
pub enum Resolved<'p, P> {
    /// Localized re-propagation succeeded: the result extends the base
    /// fixpoint and its projections are bit-identical to a from-scratch
    /// solve of the patched program.
    Incremental(PtaResult<'p>, P),
    /// The delta's preconditions for in-place extension do not hold. The
    /// caller should run a fresh full solve of the patched program (with a
    /// *fresh* plugin — the returned one may hold unrebasable state) and
    /// record the reason in [`super::SolverStats::incr_fallback_reason`].
    Fallback(FallbackReason, P),
}

/// The removal cone: everything the taint closure decided must be reset
/// before re-propagation. Membership is kept as dense flags over the base
/// state's pointer ids and call-edge indices (a linear scan over the whole
/// state tests a flag, never a hash), next to the lists of what is flagged
/// so cone-sized passes never scan.
#[derive(Default)]
struct Cone {
    /// `ptr[p]`: pointer `p` is reset. Sized to the base's pointer count.
    ptr: Vec<bool>,
    /// The flagged pointers, in discovery order. A collapsed SCC enters
    /// whole: every member, representative included.
    ptrs: Vec<u32>,
    /// `edge[i]`: the base's call edge `i` is removed.
    edge: Vec<bool>,
    /// The flagged call-edge indices, in discovery order.
    edges: Vec<usize>,
    /// Units the removed call edges cut off from the entry: they lose
    /// reachability, and all their variables and outgoing call edges are
    /// in the cone.
    units: Vec<(CtxId, MethodId)>,
    unit_set: FxHashSet<(CtxId, MethodId)>,
}

impl Cone {
    fn new(st: &SolverState<'_>) -> Self {
        Cone {
            ptr: vec![false; st.ptr_keys.len()],
            edge: vec![false; st.call_edges.len()],
            ..Cone::default()
        }
    }

    /// Whether pointer `p` was reset.
    fn has(&self, p: u32) -> bool {
        self.ptr.get(p as usize).copied().unwrap_or(false)
    }

    /// Whether a fact concluding into `p` may be missing after the reset:
    /// `p` was reset, or is interned after it (ids past the base's count).
    fn needs(&self, p: u32) -> bool {
        self.ptr.get(p as usize).copied().unwrap_or(true)
    }

    fn mark(&mut self, p: u32) {
        if !self.ptr[p as usize] {
            self.ptr[p as usize] = true;
            self.ptrs.push(p);
        }
    }

    /// Adds a pointer, taking in its whole SCC when it is collapsed (the
    /// members are strongly connected by copy edges, so the closure would
    /// reach every one of them anyway).
    fn push_ptr(&mut self, st: &SolverState<'_>, p: u32) {
        match st.members.get(&st.reps.find(p)) {
            Some(group) => group.iter().for_each(|&m| self.mark(m)),
            None => self.mark(p),
        }
    }

    fn push_key(&mut self, st: &SolverState<'_>, key: PtrKey) {
        if let Some(p) = st.find_ptr(key) {
            self.push_ptr(st, p.0);
        }
    }

    fn push_edge(&mut self, i: usize) {
        if !self.edge[i] {
            self.edge[i] = true;
            self.edges.push(i);
        }
    }

    fn push_unit(&mut self, u: (CtxId, MethodId)) {
        if self.unit_set.insert(u) {
            self.units.push(u);
        }
    }

    fn is_empty(&self) -> bool {
        self.ptrs.is_empty() && self.edges.is_empty()
    }
}

/// What [`SolverState::reset_cone`] hands the replay.
struct Removed {
    /// Units whose `[Store]` statements lost an edge into a cone field
    /// pointer from outside the cone.
    store_units: Vec<(CtxId, MethodId)>,
    /// The old points-to sets of the reset `this` pointers, as the
    /// objects not yet re-derived (the replay drains them).
    old_this: FxHashMap<u32, Vec<u32>>,
}

/// What one incremental resolve changed, from the rebase to the end of
/// its drain.
pub(crate) struct Changes {
    /// The base state's [`SolverState::version`].
    pub(crate) base: (u64, u64),
    /// Cast sites of the base program; later ids were appended.
    pub(crate) base_casts: usize,
    /// `marked[p]`: pointer `p`'s set or representative may have changed.
    /// Grows with the pointer table; dropped once the drain is over.
    marked: Vec<bool>,
    /// The marked pointers. Once the drain is over, only the variable
    /// pointers whose projection may differ from the base state's.
    pub(crate) ptrs: Vec<u32>,
    /// Every cone pointer, with its representative before the reset.
    reset: Vec<(u32, u32)>,
    /// The non-empty sets the reset cleared, by representative.
    reset_sets: FxHashMap<u32, PointsToSet>,
    /// The call edges the reset removed.
    removed_edges: FxHashSet<(CtxId, CallSiteId, CtxId, MethodId)>,
    /// The units the reset removed.
    removed_units: Vec<(CtxId, MethodId)>,
    /// Where the call edges the resolve appended start in the state's log.
    edges_from: usize,
    /// Where the units the resolve made reachable start in the state's
    /// log.
    units_from: usize,
}

impl Changes {
    /// Marks pointer `p`: a step grew its set, a condensation epoch
    /// merged it, or the reset cleared it (splitting its SCC, whose
    /// members are all in the cone).
    pub(crate) fn mark(&mut self, p: u32) {
        let i = p as usize;
        if i >= self.marked.len() {
            self.marked.resize(i + 1, false);
        }
        if !self.marked[i] {
            self.marked[i] = true;
            self.ptrs.push(p);
        }
    }
}

/// The contexts each of `methods` is reachable under, from one pass over
/// the reachable log.
fn contexts_of<'a>(
    st: &SolverState<'_>,
    methods: impl Iterator<Item = &'a MethodId>,
) -> FxHashMap<MethodId, Vec<CtxId>> {
    let mut ctxs: FxHashMap<MethodId, Vec<CtxId>> = methods.map(|&m| (m, Vec::new())).collect();
    for &(ctx, m) in &st.reachable_log {
        if let Some(v) = ctxs.get_mut(&m) {
            v.push(ctx);
        }
    }
    ctxs
}

/// The base call graph's edges grouped by caller: edge indices sorted by
/// (caller method, caller context, call site), so the edges leaving a unit
/// and those leaving a context-qualified call site are contiguous runs,
/// found by binary search. Built by one counting pass plus per-method
/// sorts.
struct CallIndex {
    /// `order[start[m]..start[m + 1]]`: the edges leaving method `m`.
    start: Vec<usize>,
    order: Vec<usize>,
}

impl CallIndex {
    fn build(st: &SolverState<'_>) -> Self {
        let program = st.program;
        let method_of = |site: CallSiteId| program.call_site(site).method().index();
        let mut start = vec![0; program.methods().len() + 1];
        for &(_, site, _, _) in &st.call_edges {
            start[method_of(site) + 1] += 1;
        }
        for m in 1..start.len() {
            start[m] += start[m - 1];
        }
        let mut fill = start.clone();
        let mut order = vec![0; st.call_edges.len()];
        for (i, &(_, site, _, _)) in st.call_edges.iter().enumerate() {
            let m = method_of(site);
            order[fill[m]] = i;
            fill[m] += 1;
        }
        for w in start.windows(2) {
            order[w[0]..w[1]].sort_unstable_by_key(|&i| (st.call_edges[i].0, st.call_edges[i].1));
        }
        CallIndex { start, order }
    }

    /// The edges leaving unit `(ctx, m)`.
    fn of_unit(&self, st: &SolverState<'_>, ctx: CtxId, m: MethodId) -> &[usize] {
        let run = &self.order[self.start[m.index()]..self.start[m.index() + 1]];
        let lo = run.partition_point(|&i| st.call_edges[i].0 < ctx);
        let hi = run.partition_point(|&i| st.call_edges[i].0 <= ctx);
        &run[lo..hi]
    }

    /// The edges leaving call site `site` under caller context `ctx`.
    fn of_site(&self, st: &SolverState<'_>, ctx: CtxId, site: CallSiteId) -> &[usize] {
        let run = self.of_unit(st, ctx, st.program.call_site(site).method());
        let lo = run.partition_point(|&i| st.call_edges[i].1 < site);
        let hi = run.partition_point(|&i| st.call_edges[i].1 <= site);
        &run[lo..hi]
    }
}

/// The callees of cone call edges that no longer have a path of surviving
/// call edges from the entry — the units that lose reachability once the
/// cone's edges are removed. A search rather than an in-edge count, so a
/// recursive cycle cannot keep itself alive.
fn cut_off_units(st: &SolverState<'_>, calls: &CallIndex, cone: &Cone) -> Vec<(CtxId, MethodId)> {
    let mut live: FxHashSet<(CtxId, MethodId)> = FxHashSet::default();
    let mut stack = vec![(CtxId::EMPTY, st.program.entry())];
    while let Some((ctx, m)) = stack.pop() {
        if live.insert((ctx, m)) {
            for &e in calls.of_unit(st, ctx, m) {
                let (_, _, ectx, callee) = st.call_edges[e];
                if !cone.edge[e] && !live.contains(&(ectx, callee)) {
                    stack.push((ectx, callee));
                }
            }
        }
    }
    cone.edges
        .iter()
        .map(|&e| (st.call_edges[e].2, st.call_edges[e].3))
        .filter(|u| !live.contains(u))
        .collect()
}

/// Computes the removal cone on the *base* solver state (before
/// rebasing), seeded from the delta's removed statements.
fn compute_cone(st: &SolverState<'_>, fx: &DeltaEffects) -> Cone {
    let program = st.program;
    let calls = CallIndex::build(st);
    let ctxs_of = contexts_of(st, fx.removed_stmts.iter().map(|(m, _)| m));

    let mut cone = Cone::new(st);

    // Seeds: per removed statement (nested statements included — a removed
    // `If`/`While` removes its whole subtree), per context the enclosing
    // method was reachable under, taint exactly what the statement seeded.
    for (m, removed) in &fx.removed_stmts {
        let ctxs = &ctxs_of[m];
        removed.visit(&mut |s| {
            // A statement added and removed by the *same* delta never
            // existed in the base program: its site/var ids point past the
            // base tables and it seeded nothing into the base state.
            let in_base = match s {
                Stmt::New { lhs, .. } | Stmt::Assign { lhs, .. } => lhs.index() < fx.base.vars,
                Stmt::Cast(id) => id.index() < fx.base.casts,
                Stmt::Load(id) => id.index() < fx.base.loads,
                Stmt::Store(id) => id.index() < fx.base.stores,
                Stmt::Call(id) => id.index() < fx.base.call_sites,
                _ => true,
            };
            if !in_base {
                return;
            }
            for &ctx in ctxs {
                match s {
                    Stmt::New { lhs, .. } | Stmt::Assign { lhs, .. } => {
                        cone.push_key(st, PtrKey::Var(ctx, *lhs));
                    }
                    Stmt::Cast(id) => {
                        cone.push_key(st, PtrKey::Var(ctx, program.cast(*id).lhs()));
                    }
                    Stmt::Load(id) => {
                        cone.push_key(st, PtrKey::Var(ctx, program.load(*id).lhs()));
                    }
                    Stmt::Store(id) => {
                        // The store's field-pointer targets over the base's
                        // final points-to set (a superset of every set the
                        // store ever fired against).
                        let site = program.store(*id);
                        if let Some(b) = st.find_ptr(PtrKey::Var(ctx, site.base())) {
                            for o in st.pt(b).iter() {
                                cone.push_key(st, PtrKey::Field(CsObjId(o), site.field()));
                            }
                        }
                    }
                    Stmt::Call(id) => {
                        for &e in calls.of_site(st, ctx, *id) {
                            cone.push_edge(e);
                        }
                    }
                    _ => {}
                }
            }
        });
    }

    // Closure: the pointer, edge and unit rules run to quiescence, then
    // the units the removed edges cut off from the entry join the cone,
    // until neither adds anything.
    let (mut pi, mut ei, mut ui, mut searched) = (0, 0, 0, 0);
    loop {
        if pi < cone.ptrs.len() {
            let p = cone.ptrs[pi];
            pi += 1;
            // PFG successors. A representative's group holds the outgoing
            // original-endpoint pairs of its whole SCC, whose members are
            // all in the cone with it.
            if st.reps.is_rep(p) {
                for (_, d) in st.slots.edge_pairs(p).into_iter().flat_map(|g| g.iter()) {
                    cone.push_ptr(st, d);
                }
            }
            // Statement fan-out.
            if let PtrKey::Var(ctx, v) = st.ptr_keys[p as usize] {
                for &l in st.stmts.loads.row(v) {
                    cone.push_key(st, PtrKey::Var(ctx, program.load(l).lhs()));
                }
                for &s in st.stmts.stores.row(v) {
                    let field = program.store(s).field();
                    for o in st.pt(PtrId(p)).iter() {
                        cone.push_key(st, PtrKey::Field(CsObjId(o), field));
                    }
                }
                for &site in st.stmts.calls.row(v) {
                    for &e in calls.of_site(st, ctx, site) {
                        cone.push_edge(e);
                    }
                }
            }
        } else if ei < cone.edges.len() {
            // A removed call edge takes its flows: the callee-side
            // `this`/parameters and the caller-side return target.
            let (cctx, site, ectx, callee) = st.call_edges[cone.edges[ei]];
            ei += 1;
            let m = program.method(callee);
            if let Some(this) = m.this_var() {
                cone.push_key(st, PtrKey::Var(ectx, this));
            }
            for &param in m.params() {
                cone.push_key(st, PtrKey::Var(ectx, param));
            }
            if let (Some(lhs), Some(_ret)) = (program.call_site(site).lhs(), m.ret_var()) {
                cone.push_key(st, PtrKey::Var(cctx, lhs));
            }
        } else if ui < cone.units.len() {
            // A unit that loses reachability takes all its variables and
            // outgoing call edges.
            let (ctx, m) = cone.units[ui];
            ui += 1;
            for &v in program.method(m).vars() {
                cone.push_key(st, PtrKey::Var(ctx, v));
            }
            for &e in calls.of_unit(st, ctx, m) {
                cone.push_edge(e);
            }
        } else if searched < cone.edges.len() {
            searched = cone.edges.len();
            for u in cut_off_units(st, &calls, &cone) {
                cone.push_unit(u);
            }
        } else {
            break;
        }
    }
    cone
}

/// Rebases a base solver state onto the patched program: dense tables are
/// extended over the appended entity ids, the statement index is patched
/// with the delta's removed and added statements, and the per-run budget
/// and clock are reset (the drain re-stamps the timing stats). Everything
/// else — interned pointers and objects, points-to sets, PFG, call graph,
/// reachability, SCC structure, slot plane — carries over verbatim (entity
/// ids are append-only across a delta). From here on the state logs what
/// the resolve changes.
fn rebase_state<'p>(
    old: SolverState<'_>,
    patched: &'p Program,
    fx: &DeltaEffects,
    budget: Budget,
    start: Instant,
) -> SolverState<'p> {
    let SolverState {
        program: _,
        interner,
        mut ci_var_ptrs,
        var_ptr_table,
        field_ptr_table,
        ptr_keys,
        mut ci_objs,
        obj_table,
        obj_keys,
        slots,
        reps,
        members,
        copy_edges_since_collapse,
        opts,
        queue,
        mut reachable_ci,
        reachable_cs,
        reachable_log,
        call_edge_set,
        call_edges,
        call_edges_by_callee,
        mut stmts,
        stats,
        budget: _,
        started: _,
        lineage,
        changes: _,
    } = old;
    ci_var_ptrs.resize(patched.vars().len(), ABSENT);
    ci_objs.resize(patched.objs().len(), ABSENT);
    reachable_ci.resize(patched.methods().len(), false);
    stmts.patch(patched, fx);
    let changes = Changes {
        base: (lineage, stats.incr_resolves),
        base_casts: fx.base.casts,
        marked: Vec::new(),
        ptrs: Vec::new(),
        reset: Vec::new(),
        reset_sets: FxHashMap::default(),
        removed_edges: FxHashSet::default(),
        removed_units: Vec::new(),
        edges_from: call_edges.len(),
        units_from: reachable_log.len(),
    };
    SolverState {
        program: patched,
        interner,
        ci_var_ptrs,
        var_ptr_table,
        field_ptr_table,
        ptr_keys,
        ci_objs,
        obj_table,
        obj_keys,
        slots,
        reps,
        members,
        copy_edges_since_collapse,
        opts,
        queue,
        reachable_ci,
        reachable_cs,
        reachable_log,
        call_edge_set,
        call_edges,
        call_edges_by_callee,
        stmts,
        stats,
        budget,
        started: start,
        lineage,
        changes: Some(Box::new(changes)),
    }
}

impl<'p> SolverState<'p> {
    /// Whether `(ctx, method)` is currently reachable.
    fn is_reachable(&self, ctx: CtxId, method: MethodId) -> bool {
        if ctx == CtxId::EMPTY {
            self.reachable_ci[method.index()]
        } else {
            self.reachable_cs.contains(&(ctx, method))
        }
    }

    /// Resets everything in the cone and returns what the replay needs
    /// to know about what it removed.
    ///
    /// Cone pointers lose their points-to facts; PFG edges *into* the cone
    /// are removed (the closure guarantees a cone source implies a cone
    /// destination, so this removes every edge incident to the cone), with
    /// the removed count credited against the next condensation epoch so
    /// that merely re-derived edges do not trigger one; every collapsed SCC
    /// in the cone, now without facts or edges, splits back into
    /// singletons; cone call edges leave the call graph; and the cone's
    /// units, cut off from the entry, lose their reachability.
    fn reset_cone(&mut self, cone: &Cone) -> Removed {
        let program = self.program;
        let old_this = cone
            .ptrs
            .iter()
            .filter_map(|&p| match self.ptr_keys[p as usize] {
                PtrKey::Var(_, v)
                    if program.method(program.var(v).method()).this_var() == Some(v)
                        && !self.pt(PtrId(p)).is_empty() =>
                {
                    Some((p, self.pt(PtrId(p)).iter().collect()))
                }
                _ => None,
            })
            .collect();
        // The cleared sets are kept, so that the pointers whose sets the
        // drain rebuilds unchanged can be unmarked once it is over.
        let mut reset = Vec::with_capacity(cone.ptrs.len());
        let mut reset_sets = FxHashMap::default();
        for &p in &cone.ptrs {
            reset.push((p, self.reps.find(p)));
            let old = std::mem::take(self.slots.pts_mut(p));
            if !old.is_empty() {
                reset_sets.insert(p, old);
            }
            self.slots.take_pending(p);
        }

        // A removed edge from outside the cone into a field pointer is a
        // `[Store]` conclusion whose premises may survive; its unit is
        // replayed.
        let mut store_units = Vec::new();
        let keys = &self.ptr_keys;
        let removed = self.slots.remove_edges_into(
            |d| cone.has(d),
            |s, d| {
                if let (false, PtrKey::Var(ctx, v), PtrKey::Field(..)) =
                    (cone.has(s), keys[s as usize], keys[d as usize])
                {
                    store_units.push((ctx, program.var(v).method()));
                }
            },
        );
        self.stats.edges -= removed;
        self.copy_edges_since_collapse -= removed as i64;

        for &p in &cone.ptrs {
            if let Some(group) = self.members.remove(&p) {
                self.reps.split(&group);
            }
        }

        let mut dead = FxHashSet::default();
        if !cone.edges.is_empty() {
            dead = cone.edges.iter().map(|&i| self.call_edges[i]).collect();
            for e in &dead {
                self.call_edge_set.remove(e);
            }
            let mut i = 0;
            self.call_edges.retain(|_| {
                i += 1;
                !cone.edge[i - 1]
            });
            let callees: FxHashSet<MethodId> = dead.iter().map(|e| e.3).collect();
            for c in callees {
                if let Some(v) = self.call_edges_by_callee.get_mut(&c) {
                    v.retain(|&(a, s, b)| !dead.contains(&(a, s, b, c)));
                }
            }
            self.stats.call_edges = self.call_edges.len() as u64;
        }

        if !cone.units.is_empty() {
            for &(ctx, m) in &cone.units {
                if ctx == CtxId::EMPTY {
                    self.reachable_ci[m.index()] = false;
                } else {
                    self.reachable_cs.remove(&(ctx, m));
                }
            }
            self.reachable_log.retain(|u| !cone.unit_set.contains(u));
            self.stats.reachable = self.reachable_log.len() as u64;
        }
        if let Some(ch) = self.changes.as_deref_mut() {
            for &p in &cone.ptrs {
                ch.mark(p);
            }
            ch.reset = reset;
            ch.reset_sets = reset_sets;
            ch.removed_edges = dead;
            ch.removed_units.clone_from(&cone.units);
            ch.edges_from = self.call_edges.len();
            ch.units_from = self.reachable_log.len();
        }
        Removed {
            store_units,
            old_this,
        }
    }

    /// Post-reset replay: re-derives every rule instance whose conclusion
    /// the reset removed and whose premises survived, and nothing else.
    /// The conclusions the reset can remove are facts and edges into cone
    /// pointers, cone call edges, and cone units' reachability, so the
    /// instances to revisit are:
    ///
    /// 1. the statements of the reachable units that hold a cone variable
    ///    or whose `[Store]` lost an edge into a cone field pointer
    ///    (`store_units`) — each statement fires only where its conclusion
    ///    lies in the cone;
    /// 2. the `[Param]`/`[Return]`/`this` flows of surviving call edges
    ///    into cone pointers (a surviving edge is never re-added, so
    ///    `add_call_edge` would not re-derive them itself). A `this` fact
    ///    can hold only an object the reset removed from that pointer, and
    ///    one surviving derivation suffices, so each surviving call edge
    ///    tests just the objects no earlier edge re-derived.
    ///
    /// Cone call edges and units need no replay of their own. A call edge
    /// is removed with its statement, with its cut-off caller, or (an
    /// instance call) with its receiver, whose set the drain rebuilds,
    /// re-firing `[Call]`; a cut-off unit comes back only through a
    /// re-derived call edge, whose `add_reachable` replays its body. The
    /// ordinary drain then runs the re-seeded worklist to fixpoint.
    fn replay_cone<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        cone: &Cone,
        mut removed: Removed,
    ) {
        // Part 1.
        let program = self.program;
        let var_units = cone
            .ptrs
            .iter()
            .filter_map(|&p| match self.ptr_keys[p as usize] {
                PtrKey::Var(ctx, v) => Some((ctx, program.var(v).method())),
                PtrKey::Field(..) => None,
            });
        let mut seen: FxHashSet<(CtxId, MethodId)> = FxHashSet::default();
        let units: Vec<_> = var_units
            .chain(removed.store_units)
            .filter(|&u| seen.insert(u))
            .collect();
        for (ctx, method) in units {
            if self.is_reachable(ctx, method) {
                self.replay_unit(selector, plugin, cone, ctx, method);
            }
        }
        // Part 2.
        for i in 0..self.call_edges.len() {
            let (cctx, site, ectx, callee) = self.call_edges[i];
            self.rule_flows(plugin, (cctx, site, ectx, callee), |st, ctx, v| {
                st.needs_var(cone, ctx, v)
            });
            let cs = program.call_site(site);
            let (Some(recv), Some(this)) = (cs.recv(), program.method(callee).this_var()) else {
                continue;
            };
            let Some(t) = self
                .find_ptr(PtrKey::Var(ectx, this))
                .filter(|t| cone.has(t.0))
            else {
                continue;
            };
            let Some(left) = removed.old_this.get_mut(&t.0).filter(|l| !l.is_empty()) else {
                continue;
            };
            let Some(r) = self.find_ptr(PtrKey::Var(cctx, recv)) else {
                continue;
            };
            let recv_set = self.slots.pts(self.reps.find(r.0));
            if recv_set.is_empty() {
                continue;
            }
            let (obj_keys, interner) = (&self.obj_keys, &mut self.interner);
            let mut derives = |o: u32| {
                let (heap_ctx, obj) = obj_keys[o as usize];
                (cs.kind() != CallKind::Virtual
                    || program.dispatch(program.obj(obj).class(), cs.target()) == Some(callee))
                    && selector.select_call(
                        program,
                        interner,
                        CallInfo {
                            caller_ctx: cctx,
                            site,
                            callee,
                            recv: Some((heap_ctx, obj)),
                        },
                    ) == ectx
            };
            // The join, iterated from its smaller side (sets and `left`
            // are ascending).
            let found: Vec<u32> = if recv_set.len() < left.len() {
                let found: Vec<u32> = recv_set
                    .iter()
                    .filter(|o| left.binary_search(o).is_ok() && derives(*o))
                    .collect();
                left.retain(|o| found.binary_search(o).is_err());
                found
            } else {
                let mut found = Vec::new();
                left.retain(|&o| {
                    let hit = recv_set.contains(o) && derives(o);
                    if hit {
                        found.push(o);
                    }
                    !hit
                });
                found
            };
            for o in found {
                self.enqueue_one(t, o);
            }
        }
    }

    /// Whether a fact concluding into `ctx:v` may be missing after the
    /// reset (see [`Cone::needs`]).
    fn needs_var(&self, cone: &Cone, ctx: CtxId, v: VarId) -> bool {
        self.find_ptr(PtrKey::Var(ctx, v))
            .is_none_or(|p| cone.needs(p.0))
    }

    /// Replays one reachable unit's statements (part 1 of the post-reset
    /// replay), each only where its conclusion lies in the cone: `[New]`,
    /// `[Assign]`/`[Cast]` and `[Load]` into a cone variable, and
    /// `[Store]` into the cone field pointers of its base's objects.
    fn replay_unit<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        cone: &Cone,
        ctx: CtxId,
        method: MethodId,
    ) {
        let program = self.program;
        program.method(method).visit_stmts(|s| match *s {
            Stmt::New { lhs, obj } if self.needs_var(cone, ctx, lhs) => {
                self.rule_new(selector, ctx, lhs, obj);
            }
            Stmt::Load(id) if self.needs_var(cone, ctx, program.load(id).lhs()) => {
                if let Some(objs) = self.var_objs(ctx, program.load(id).base()) {
                    self.rule_load(plugin, ctx, id, objs.iter());
                }
            }
            Stmt::Store(id) => {
                let site = program.store(id);
                let Some(objs) = self.var_objs(ctx, site.base()) else {
                    return;
                };
                let objs: Vec<u32> = objs
                    .iter()
                    .filter(|&o| {
                        self.find_ptr(PtrKey::Field(CsObjId(o), site.field()))
                            .is_none_or(|p| cone.needs(p.0))
                    })
                    .collect();
                if !objs.is_empty() {
                    self.rule_store(plugin, ctx, id, objs);
                }
            }
            _ => match copy_of(program, s) {
                Some((rhs, lhs, kind)) if self.needs_var(cone, ctx, lhs) => {
                    self.rule_copy(plugin, ctx, rhs, lhs, kind);
                }
                _ => {}
            },
        });
    }

    /// Replays the delta's added statements against every context their
    /// enclosing (old) method is currently reachable under. Statements in
    /// methods not (yet) reachable need no replay: if an added call makes
    /// such a method reachable during the drain, `add_reachable` visits its
    /// full patched body, added statements included.
    fn replay_additions<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        fx: &DeltaEffects,
    ) {
        if fx.added_stmts.is_empty() {
            return;
        }
        let ctxs_of = contexts_of(self, fx.added_stmts.iter().map(|(m, _)| m));
        for (m, stmt) in &fx.added_stmts {
            for &ctx in &ctxs_of[m] {
                self.replay_one_stmt(selector, plugin, ctx, stmt);
            }
        }
    }

    /// Derives the facts one added statement seeds under one reachable
    /// context, against the current (rebased) state: a rule over a base
    /// variable fires for the base's whole set.
    fn replay_one_stmt<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &mut P,
        ctx: CtxId,
        stmt: &Stmt,
    ) {
        let program = self.program;
        match *stmt {
            Stmt::New { lhs, obj } => self.rule_new(selector, ctx, lhs, obj),
            Stmt::Load(id) => {
                if let Some(objs) = self.var_objs(ctx, program.load(id).base()) {
                    self.rule_load(plugin, ctx, id, objs.iter());
                }
            }
            Stmt::Store(id) => {
                if let Some(objs) = self.var_objs(ctx, program.store(id).base()) {
                    self.rule_store(plugin, ctx, id, objs.iter());
                }
            }
            Stmt::Call(id) if program.call_site(id).kind() == CallKind::Static => {
                self.rule_static_call(selector, plugin, ctx, id);
            }
            Stmt::Call(id) => {
                let recv = program.call_site(id).recv();
                if let Some(objs) = recv.and_then(|r| self.var_objs(ctx, r)) {
                    self.rule_call(selector, plugin, ctx, id, objs.iter());
                }
            }
            _ => {
                if let Some((rhs, lhs, kind)) = copy_of(program, stmt) {
                    self.rule_copy(plugin, ctx, rhs, lhs, kind);
                }
            }
        }
    }
}

/// The change log's side of the state: settling it after the drain, and
/// the reads [`crate::SolvedSummary::advance`] patches a snapshot with.
impl SolverState<'_> {
    /// Settles the change log once the drain is over. A step grows the
    /// shared set of a collapsed SCC, so every member of a marked
    /// pointer's SCC is marked. Then each cone pointer whose set came back
    /// equal to the one the reset cleared is unmarked, and only variable
    /// pointers are kept.
    fn settle_changes(&mut self) {
        let Some(ch) = self.changes.as_deref_mut() else {
            return;
        };
        let mut expanded: FxHashSet<u32> = FxHashSet::default();
        for i in 0..ch.ptrs.len() {
            let rep = self.reps.find(ch.ptrs[i]);
            if let Some(group) = self.members.get(&rep) {
                if expanded.insert(rep) {
                    group.iter().for_each(|&m| ch.mark(m));
                }
            }
        }
        for &(p, old_rep) in &ch.reset {
            let now = self.slots.pts(self.reps.find(p));
            if ch
                .reset_sets
                .get(&old_rep)
                .map_or(now.is_empty(), |old| old == now)
            {
                ch.marked[p as usize] = false;
            }
        }
        let (marked, keys) = (&ch.marked, &self.ptr_keys);
        ch.ptrs
            .retain(|&p| marked[p as usize] && matches!(keys[p as usize], PtrKey::Var(..)));
        ch.marked = Vec::new();
        ch.reset = Vec::new();
        ch.reset_sets = FxHashMap::default();
    }

    /// The state's version: its lineage (one per full solve) and how many
    /// incremental resolves it has been through since.
    pub(crate) fn version(&self) -> (u64, u64) {
        (self.lineage, self.stats.incr_resolves)
    }

    /// What the incremental resolve that produced this state changed;
    /// `None` after a full solve.
    pub(crate) fn changes(&self) -> Option<&Changes> {
        self.changes.as_deref()
    }

    /// The projected reachable methods `changes` (this state's log)
    /// removed from and added to `before`, the base state's projection.
    pub(crate) fn reachable_changes(
        &self,
        changes: &Changes,
        before: &[MethodId],
    ) -> Diff<MethodId> {
        let mut gone: Vec<MethodId> = changes
            .removed_units
            .iter()
            .map(|&(_, m)| m)
            .filter(|m| !self.reachable_ci[m.index()])
            .collect();
        gone.sort_unstable();
        gone.dedup();
        if !gone.is_empty() && !self.reachable_cs.is_empty() {
            // Still reachable under some context?
            let left: FxHashSet<MethodId> = gone.iter().copied().collect();
            let live: FxHashSet<MethodId> = self
                .reachable_cs
                .iter()
                .map(|&(_, m)| m)
                .filter(|m| left.contains(m))
                .collect();
            gone.retain(|m| !live.contains(m));
        }
        let mut new: Vec<MethodId> = self.reachable_log[changes.units_from..]
            .iter()
            .map(|&(_, m)| m)
            .filter(|m| before.binary_search(m).is_err())
            .collect();
        new.sort_unstable();
        new.dedup();
        Diff { gone, new }
    }

    /// The projected call edges `changes` (this state's log) removed from
    /// and added to `before`, the base state's projection. A removed edge
    /// the drain re-derived is neither: it is back in the state, and its
    /// projection was already in `before`.
    pub(crate) fn call_edge_changes(
        &self,
        changes: &Changes,
        before: &[(CallSiteId, MethodId)],
    ) -> Diff<(CallSiteId, MethodId)> {
        let mut gone: Vec<(CallSiteId, MethodId)> = changes
            .removed_edges
            .iter()
            .filter(|e| !self.call_edge_set.contains(e))
            .map(|&(_, site, _, callee)| (site, callee))
            .collect();
        gone.sort_unstable();
        gone.dedup();
        if !self.reachable_cs.is_empty() {
            // Still there under other contexts?
            gone.retain(|&(site, callee)| !self.call_edges_of(callee).iter().any(|e| e.1 == site));
        }
        let mut new: Vec<(CallSiteId, MethodId)> = self.call_edges[changes.edges_from..]
            .iter()
            .map(|&(_, site, _, callee)| (site, callee))
            .filter(|e| before.binary_search(e).is_err())
            .collect();
        new.sort_unstable();
        new.dedup();
        Diff { gone, new }
    }
}

impl<'p, S: ContextSelector, P: Plugin> Solver<'p, S, P> {
    /// Incrementally re-solves a delta-patched program on top of a
    /// completed base result.
    ///
    /// `prev` is the base solve's result (its state is consumed and
    /// rebased), `patched` the program produced by
    /// [`csc_ir::ProgramDelta::apply`] on the base program, and `fx` the
    /// effects summary `apply` returned. `selector` must be the same
    /// context policy the base ran under (same selector, same parameters)
    /// and `plugin` the plugin instance the base solve returned — its
    /// [`Plugin::rebase`] hook decides whether derived plugin state
    /// survives the delta.
    ///
    /// On [`Resolved::Incremental`], the result's projections are
    /// bit-identical to a from-scratch solve of `patched` (enforced by
    /// `tests/differential_incremental.rs`), and
    /// [`super::SolverStats::incr_resolves`] / `resolve_secs` are stamped.
    /// On [`Resolved::Fallback`], nothing was solved — the caller runs a
    /// fresh full solve and records the reason.
    pub fn resolve(
        prev: PtaResult<'_>,
        patched: &'p Program,
        fx: &DeltaEffects,
        selector: S,
        mut plugin: P,
        budget: Budget,
    ) -> Resolved<'p, P> {
        let start = Instant::now();
        if prev.status != SolveStatus::Completed {
            return Resolved::Fallback(FallbackReason::BaseIncomplete, plugin);
        }
        let base = prev.state.program;
        if !base.dispatch_stable_under(patched) {
            return Resolved::Fallback(FallbackReason::DispatchChanged, plugin);
        }
        if !plugin.rebase(base, patched, fx) {
            return Resolved::Fallback(FallbackReason::CscObligations, plugin);
        }
        let cone = (!fx.additions_only()).then(|| compute_cone(&prev.state, fx));

        let mut state = rebase_state(prev.state, patched, fx, budget, start);
        let (mut cone_ptrs, mut cone_call_edges) = (0, 0);
        if let Some(cone) = cone.filter(|c| !c.is_empty()) {
            let removed = state.reset_cone(&cone);
            state.replay_cone(&selector, &mut plugin, &cone, removed);
            (cone_ptrs, cone_call_edges) = (cone.ptrs.len(), cone.edges.len());
        }
        state.replay_additions(&selector, &mut plugin, fx);

        let (mut res, plugin) = Solver {
            state,
            selector,
            plugin,
        }
        .drain(start);
        // The reset's credit covers only this resolve's re-derivations.
        let st = &mut res.state;
        st.settle_changes();
        st.copy_edges_since_collapse = st.copy_edges_since_collapse.max(0);
        st.stats.incr_resolves += 1;
        st.stats.incr_fallback_reason = None;
        st.stats.incr_cone_ptrs = cone_ptrs as u64;
        st.stats.incr_cone_call_edges = cone_call_edges as u64;
        st.stats.resolve_secs = start.elapsed().as_secs_f64();
        Resolved::Incremental(res, plugin)
    }
}
