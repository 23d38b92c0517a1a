//! Incremental re-solve: rebasing a completed solve onto a delta-patched
//! program and re-propagating only from the affected frontier.
//!
//! The driver is [`Solver::resolve`]. Given a completed [`PtaResult`] for a
//! base program and a patched program produced by
//! [`csc_ir::ProgramDelta::apply`], it either
//!
//! * extends the fixpoint **in place** — additions are replayed against the
//!   already-reachable units and removals reset exactly the *taint cone*
//!   (every fact transitively derivable from the removed statements) before
//!   a localized re-propagation — or
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
//! callee-side parameter/`this`/return-value pointers and the callee unit;
//! tainted units taint all their context-qualified variables and outgoing
//! call edges. Everything tainted is reset, surviving facts are swept back
//! over the statements once, and the ordinary worklist drain re-derives the
//! rest. Over-tainting is sound (it only grows the reset-and-replay
//! region); the closure never under-taints because each rule covers the
//! full derivation footprint of the corresponding solver rule.
//!
//! The cone cannot be localized through an SCC-collapsed representative
//! (members share one physical set, so a per-member reset is meaningless);
//! tainting a collapsed pointer aborts with
//! [`FallbackReason::SccStructure`]. Stateful plugins veto removals (and
//! incompatible additions) through [`Plugin::rebase`]
//! ([`FallbackReason::CscObligations`]).

use std::time::Instant;

use csc_ir::{CallKind, CallSiteId, DeltaEffects, MethodId, Program, Stmt};

use super::{
    Budget, CsObjId, EdgeKind, FallbackReason, Plugin, PtaResult, PtrKey, SolveStatus, Solver,
    SolverState, ABSENT,
};
use crate::context::{CallInfo, ContextSelector, CtxId};
use crate::fx::{FxHashMap, FxHashSet};
use crate::pts::PointsToSet;

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
/// before re-propagation.
#[derive(Default)]
struct TaintSet {
    /// Tainted pointer ids (all SCC representatives of singleton classes —
    /// a collapsed pointer aborts the closure instead).
    ptrs: FxHashSet<u32>,
    /// Tainted call-graph edges.
    call_edges: FxHashSet<(CtxId, CallSiteId, CtxId, MethodId)>,
}

/// Worklists and visited sets for the taint closure.
#[derive(Default)]
struct TaintWork {
    ptr_q: Vec<u32>,
    edge_q: Vec<usize>,
    unit_q: Vec<(CtxId, MethodId)>,
    ptrs: FxHashSet<u32>,
    edges: FxHashSet<usize>,
    units: FxHashSet<(CtxId, MethodId)>,
    /// Set when a tainted pointer turned out to be SCC-collapsed.
    collapsed: bool,
}

impl TaintWork {
    fn push_ptr(&mut self, st: &SolverState<'_>, p: u32) {
        if !self.ptrs.insert(p) {
            return;
        }
        if st.reps.find(p) != p || st.members.contains_key(&p) {
            self.collapsed = true;
            return;
        }
        self.ptr_q.push(p);
    }

    fn push_key(&mut self, st: &SolverState<'_>, key: PtrKey) {
        if let Some(p) = st.find_ptr(key) {
            self.push_ptr(st, p.0);
        }
    }

    fn push_edge(&mut self, i: usize) {
        if self.edges.insert(i) {
            self.edge_q.push(i);
        }
    }

    fn push_unit(&mut self, u: (CtxId, MethodId)) {
        if self.units.insert(u) {
            self.unit_q.push(u);
        }
    }
}

/// Computes the removal cone on the *base* solver state (before rebasing),
/// seeded from the delta's removed statements. `Err(())` means the cone
/// touched SCC-collapsed structure and cannot be localized.
fn compute_taint(st: &SolverState<'_>, fx: &DeltaEffects) -> Result<TaintSet, ()> {
    let program = st.program;

    // Call-graph indexes for the closure's edge rules.
    let mut by_caller_site: FxHashMap<(CtxId, CallSiteId), Vec<usize>> = FxHashMap::default();
    let mut by_caller_unit: FxHashMap<(CtxId, MethodId), Vec<usize>> = FxHashMap::default();
    for (i, &(cctx, site, _, _)) in st.call_edges.iter().enumerate() {
        by_caller_site.entry((cctx, site)).or_default().push(i);
        by_caller_unit
            .entry((cctx, program.call_site(site).method()))
            .or_default()
            .push(i);
    }
    let mut ctxs_of: FxHashMap<MethodId, Vec<CtxId>> = FxHashMap::default();
    for &(ctx, m) in &st.reachable_log {
        ctxs_of.entry(m).or_default().push(ctx);
    }

    let mut w = TaintWork::default();

    // Seeds: per removed statement (nested statements included — a removed
    // `If`/`While` removes its whole subtree), per context the enclosing
    // method was reachable under, taint exactly what the statement seeded.
    for (m, removed) in &fx.removed_stmts {
        let Some(ctxs) = ctxs_of.get(m) else { continue };
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
                        w.push_key(st, PtrKey::Var(ctx, *lhs));
                    }
                    Stmt::Cast(id) => {
                        w.push_key(st, PtrKey::Var(ctx, program.cast(*id).lhs()));
                    }
                    Stmt::Load(id) => {
                        w.push_key(st, PtrKey::Var(ctx, program.load(*id).lhs()));
                    }
                    Stmt::Store(id) => {
                        // The store's field-pointer targets over the base's
                        // final points-to set (a superset of every set the
                        // store ever fired against).
                        let site = program.store(*id);
                        if let Some(b) = st.find_ptr(PtrKey::Var(ctx, site.base())) {
                            for o in st.slots.pts(st.reps.find(b.0)).iter() {
                                w.push_key(st, PtrKey::Field(CsObjId(o), site.field()));
                            }
                        }
                    }
                    Stmt::Call(id) => {
                        if let Some(edges) = by_caller_site.get(&(ctx, *id)) {
                            for &i in edges {
                                w.push_edge(i);
                            }
                        }
                    }
                    _ => {}
                }
            }
        });
    }

    // Closure.
    let (mut pi, mut ei, mut ui) = (0, 0, 0);
    while !w.collapsed && (pi < w.ptr_q.len() || ei < w.edge_q.len() || ui < w.unit_q.len()) {
        while pi < w.ptr_q.len() && !w.collapsed {
            let p = w.ptr_q[pi];
            pi += 1;
            // PFG successors (the group at an uncollapsed representative
            // holds exactly its own outgoing original-endpoint pairs).
            if let Some(pairs) = st.slots.edge_pairs(p) {
                let dsts: Vec<u32> = pairs.iter().map(|(_, d)| d).collect();
                for d in dsts {
                    w.push_ptr(st, d);
                }
            }
            // Statement fan-out.
            if let PtrKey::Var(ctx, v) = st.ptr_keys[p as usize] {
                for i in 0..st.stmts.loads_with_base[v.index()].len() {
                    let l = st.stmts.loads_with_base[v.index()][i];
                    w.push_key(st, PtrKey::Var(ctx, program.load(l).lhs()));
                }
                for i in 0..st.stmts.stores_with_base[v.index()].len() {
                    let s = st.stmts.stores_with_base[v.index()][i];
                    let field = program.store(s).field();
                    for o in st.slots.pts(p).iter() {
                        w.push_key(st, PtrKey::Field(CsObjId(o), field));
                    }
                }
                for i in 0..st.stmts.calls_with_recv[v.index()].len() {
                    let site = st.stmts.calls_with_recv[v.index()][i];
                    if let Some(edges) = by_caller_site.get(&(ctx, site)) {
                        for &e in edges {
                            w.push_edge(e);
                        }
                    }
                }
            }
        }
        while ei < w.edge_q.len() {
            let (cctx, site, ectx, callee) = st.call_edges[w.edge_q[ei]];
            ei += 1;
            let cs = program.call_site(site);
            let m = program.method(callee);
            if let Some(this) = m.this_var() {
                w.push_key(st, PtrKey::Var(ectx, this));
            }
            for &param in m.params() {
                w.push_key(st, PtrKey::Var(ectx, param));
            }
            if let (Some(lhs), Some(_ret)) = (cs.lhs(), m.ret_var()) {
                w.push_key(st, PtrKey::Var(cctx, lhs));
            }
            // Any tainted support taints the callee unit (over-approximate
            // but cycle-safe: a unit kept alive by untainted edges stays in
            // the rebuilt reachable set and is re-swept).
            w.push_unit((ectx, callee));
        }
        while ui < w.unit_q.len() {
            let (ctx, m) = w.unit_q[ui];
            ui += 1;
            for &v in program.method(m).vars() {
                w.push_key(st, PtrKey::Var(ctx, v));
            }
            if let Some(edges) = by_caller_unit.get(&(ctx, m)) {
                for &e in edges.clone().iter() {
                    w.push_edge(e);
                }
            }
        }
    }
    if w.collapsed {
        return Err(());
    }
    Ok(TaintSet {
        ptrs: w.ptrs,
        call_edges: w.edges.into_iter().map(|i| st.call_edges[i]).collect(),
    })
}

/// Rebases a base solver state onto the patched program: dense tables are
/// extended over the appended entity ids, the statement index is rebuilt
/// from the patched bodies, and the per-run budget and clock are reset
/// (the drain re-stamps the timing stats). Everything else — interned
/// pointers and objects, points-to sets, PFG, call graph, reachability,
/// SCC structure, slot plane — carries over verbatim (entity ids are
/// append-only across a delta).
fn rebase_state<'p>(
    old: SolverState<'_>,
    patched: &'p Program,
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
        events,
        emit_events,
        mut reachable_ci,
        reachable_cs,
        reachable_log,
        call_edge_set,
        call_edges,
        call_edges_by_callee,
        stmts: _,
        stats,
        budget: _,
        started: _,
    } = old;
    ci_var_ptrs.resize(patched.vars().len(), ABSENT);
    ci_objs.resize(patched.objs().len(), ABSENT);
    reachable_ci.resize(patched.methods().len(), false);
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
        events,
        emit_events,
        reachable_ci,
        reachable_cs,
        reachable_log,
        call_edge_set,
        call_edges,
        call_edges_by_callee,
        stmts: crate::shard::StmtIndex::build(patched),
        stats,
        budget,
        started: start,
    }
}

impl<'p> SolverState<'p> {
    /// Resets everything in the taint cone: tainted pointers lose their
    /// points-to facts, PFG edges *into* tainted pointers are removed (the
    /// closure guarantees a tainted source implies a tainted destination,
    /// so this removes every edge incident to the cone), tainted call
    /// edges leave the call graph, and reachability is rebuilt as
    /// `{entry} ∪ {targets of surviving call edges}` (order-preserving).
    fn reset_cone(&mut self, taint: &TaintSet) {
        for &p in &taint.ptrs {
            *self.slots.pts_mut(p) = PointsToSet::new();
            let pending = self.slots.pending_mut(p);
            if !pending.is_empty() {
                *pending = PointsToSet::new();
            }
        }

        let mut removed_edges = 0u64;
        for r in 0..self.slots.len() {
            let Some(mut pairs) = self.slots.take_edge_pairs(r) else {
                continue;
            };
            let dead: Vec<(u32, u32)> = pairs
                .iter()
                .filter(|&(_, d)| taint.ptrs.contains(&d))
                .collect();
            if !dead.is_empty() {
                for &(s, d) in &dead {
                    pairs.remove(s, d);
                }
                removed_edges += dead.len() as u64;
                let kept: Vec<_> = self
                    .slots
                    .take_succ(r)
                    .into_iter()
                    .filter(|&(t, _)| !taint.ptrs.contains(&t.0))
                    .collect();
                self.slots.put_succ(r, kept);
            }
            self.slots.put_edge_pairs(r, pairs);
        }
        self.stats.edges -= removed_edges;

        for e in &taint.call_edges {
            self.call_edge_set.remove(e);
        }
        self.call_edges.retain(|e| !taint.call_edges.contains(e));
        let callees: FxHashSet<MethodId> = taint.call_edges.iter().map(|e| e.3).collect();
        for c in callees {
            if let Some(v) = self.call_edges_by_callee.get_mut(&c) {
                v.retain(|&(a, s, b)| !taint.call_edges.contains(&(a, s, b, c)));
            }
        }
        self.stats.call_edges = self.call_edges.len() as u64;

        let mut keep: FxHashSet<(CtxId, MethodId)> = FxHashSet::default();
        keep.insert((CtxId::EMPTY, self.program.entry()));
        keep.extend(
            self.call_edges
                .iter()
                .map(|&(_, _, ectx, callee)| (ectx, callee)),
        );
        self.reachable_log.retain(|u| keep.contains(u));
        for b in self.reachable_ci.iter_mut() {
            *b = false;
        }
        self.reachable_cs.clear();
        for i in 0..self.reachable_log.len() {
            let (ctx, m) = self.reachable_log[i];
            if ctx == CtxId::EMPTY {
                self.reachable_ci[m.index()] = true;
            } else {
                self.reachable_cs.insert((ctx, m));
            }
        }
        self.stats.reachable = self.reachable_log.len() as u64;
    }

    /// Post-reset sweep: re-derives, idempotently, every fact the reset
    /// could have removed whose premises survive. Three parts:
    ///
    /// 1. every reachable unit's allocation/copy/cast/static-call
    ///    statements are replayed ([`SolverState::add_reachable`]'s body
    ///    without the reachability insert — `add_edge` and `add_call_edge`
    ///    deduplicate, `enqueue_one` re-seeds reset allocation targets);
    /// 2. every surviving call edge's `[Param]`/`[Return]` edges are
    ///    replayed explicitly (`add_call_edge`'s dedup early-returns for
    ///    surviving edges, so it would never re-derive them itself);
    /// 3. every pointer with a surviving non-empty points-to set is swept
    ///    through statement processing with its *full* set as the delta —
    ///    re-deriving load/store edges into reset field pointers, receiver
    ///    `this`-flows, and call edges, all against the patched program's
    ///    statement index.
    ///
    /// The ordinary drain then runs the re-seeded worklist to fixpoint.
    fn replay_after_reset<S: ContextSelector, P: Plugin>(&mut self, selector: &S, plugin: &P) {
        // Part 1.
        let units = self.reachable_log.clone();
        for &(ctx, method) in &units {
            self.replay_unit_stmts(selector, plugin, ctx, method);
        }
        // Part 2.
        let edges = self.call_edges.clone();
        for (cctx, site, ectx, callee) in edges {
            self.replay_call_flows(plugin, cctx, site, ectx, callee);
        }
        // Part 3.
        for i in 0..self.ptr_keys.len() as u32 {
            if let PtrKey::Var(ctx, v) = self.ptr_keys[i as usize] {
                let rep = self.reps.find(i);
                if self.slots.pts(rep).is_empty() {
                    continue;
                }
                let set = self.slots.pts(rep).clone();
                self.process_var_stmts(selector, plugin, ctx, v, &set);
            }
        }
    }

    /// Replays a reachable unit's context-free statements (part 1 of the
    /// post-reset sweep): `[New]` seeds, `[Assign]`/`[Cast]` edges, and
    /// static `[Call]` edges, exactly as `add_reachable` derives them on
    /// first discovery.
    fn replay_unit_stmts<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &P,
        ctx: CtxId,
        method: MethodId,
    ) {
        let m = self.program.method(method);
        let mut news = Vec::new();
        let mut assigns = Vec::new();
        let mut static_calls = Vec::new();
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

    /// Replays the `[Param]`/`[Return]` PFG edges of one surviving call
    /// edge (part 2 of the post-reset sweep) — the body `add_call_edge`
    /// runs after its dedup check.
    fn replay_call_flows<P: Plugin>(
        &mut self,
        plugin: &P,
        caller_ctx: CtxId,
        site: CallSiteId,
        callee_ctx: CtxId,
        callee: MethodId,
    ) {
        let cs = self.program.call_site(site);
        let m = self.program.method(callee);
        for (k, &param) in m.params().iter().enumerate() {
            let arg = cs.args()[k];
            let s = self.var_ptr(caller_ctx, arg);
            let t = self.var_ptr(callee_ctx, param);
            self.add_edge(s, t, EdgeKind::Param);
        }
        if let (Some(lhs), Some(ret)) = (cs.lhs(), m.ret_var()) {
            if !plugin.is_return_cut(callee) {
                let s = self.var_ptr(callee_ctx, ret);
                let t = self.var_ptr(caller_ctx, lhs);
                self.add_edge(s, t, EdgeKind::Return(callee));
            }
        }
    }

    /// Replays the delta's added statements against every context their
    /// enclosing (old) method is currently reachable under. Statements in
    /// methods not (yet) reachable need no replay: if an added call makes
    /// such a method reachable during the drain, `add_reachable` visits its
    /// full patched body, added statements included.
    fn replay_additions<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &P,
        fx: &DeltaEffects,
    ) {
        if fx.added_stmts.is_empty() {
            return;
        }
        let mut ctxs_of: FxHashMap<MethodId, Vec<CtxId>> = FxHashMap::default();
        for &(ctx, m) in &self.reachable_log {
            ctxs_of.entry(m).or_default().push(ctx);
        }
        for (m, stmt) in &fx.added_stmts {
            let Some(ctxs) = ctxs_of.get(m) else { continue };
            for &ctx in &ctxs.clone() {
                self.replay_one_stmt(selector, plugin, ctx, stmt);
            }
        }
    }

    /// Derives the facts one added statement seeds under one reachable
    /// context, against the current (rebased) state.
    fn replay_one_stmt<S: ContextSelector, P: Plugin>(
        &mut self,
        selector: &S,
        plugin: &P,
        ctx: CtxId,
        stmt: &Stmt,
    ) {
        let program = self.program;
        match *stmt {
            Stmt::New { lhs, obj } => {
                let hctx = selector.select_heap(program, &mut self.interner, ctx, obj);
                let cs = self.cs_obj(hctx, obj);
                let ptr = self.var_ptr(ctx, lhs);
                self.enqueue_one(ptr, cs.0);
            }
            Stmt::Assign { lhs, rhs } => {
                let s = self.var_ptr(ctx, rhs);
                let t = self.var_ptr(ctx, lhs);
                self.add_edge(s, t, EdgeKind::Assign);
            }
            Stmt::Cast(id) => {
                let c = program.cast(id);
                let s = self.var_ptr(ctx, c.rhs());
                let t = self.var_ptr(ctx, c.lhs());
                self.add_edge(s, t, EdgeKind::Cast(id));
            }
            Stmt::Load(id) => {
                let site = program.load(id);
                let (lhs, base, field) = (site.lhs(), site.base(), site.field());
                let Some(b) = self.find_ptr(PtrKey::Var(ctx, base)) else {
                    return;
                };
                let objs = self.slots.pts(self.reps.find(b.0)).clone();
                let t = self.var_ptr(ctx, lhs);
                for o in objs.iter() {
                    let s = self.field_ptr(CsObjId(o), field);
                    self.add_edge(s, t, EdgeKind::Load(id));
                }
            }
            Stmt::Store(id) => {
                if plugin.is_store_cut(id) {
                    return;
                }
                let site = program.store(id);
                let (rhs, base, field) = (site.rhs(), site.base(), site.field());
                let Some(b) = self.find_ptr(PtrKey::Var(ctx, base)) else {
                    return;
                };
                let objs = self.slots.pts(self.reps.find(b.0)).clone();
                let s = self.var_ptr(ctx, rhs);
                for o in objs.iter() {
                    let t = self.field_ptr(CsObjId(o), field);
                    self.add_edge(s, t, EdgeKind::Store(id));
                }
            }
            Stmt::Call(id) => {
                let cs = program.call_site(id);
                if cs.kind() == CallKind::Static {
                    let callee = cs.target();
                    let callee_ctx = selector.select_call(
                        program,
                        &mut self.interner,
                        CallInfo {
                            caller_ctx: ctx,
                            site: id,
                            callee,
                            recv: None,
                        },
                    );
                    self.add_call_edge(selector, plugin, ctx, id, callee_ctx, callee);
                } else if let Some(recv) = cs.recv() {
                    let Some(b) = self.find_ptr(PtrKey::Var(ctx, recv)) else {
                        return;
                    };
                    let objs = self.slots.pts(self.reps.find(b.0)).clone();
                    for o in objs.iter() {
                        self.process_instance_call(selector, plugin, ctx, id, CsObjId(o));
                    }
                }
            }
            _ => {}
        }
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
        let taint = if fx.additions_only() {
            TaintSet::default()
        } else {
            match compute_taint(&prev.state, fx) {
                Ok(t) => t,
                Err(()) => return Resolved::Fallback(FallbackReason::SccStructure, plugin),
            }
        };

        let mut state = rebase_state(prev.state, patched, budget, start);
        state.emit_events = plugin.wants_events();
        if !taint.ptrs.is_empty() || !taint.call_edges.is_empty() {
            state.reset_cone(&taint);
            state.replay_after_reset(&selector, &plugin);
        }
        state.replay_additions(&selector, &plugin, fx);

        let (mut res, plugin) = Solver {
            state,
            selector,
            plugin,
        }
        .drain(start);
        res.state.stats.incr_resolves += 1;
        res.state.stats.incr_fallback_reason = None;
        res.state.stats.resolve_secs = start.elapsed().as_secs_f64();
        Resolved::Incremental(res, plugin)
    }
}
