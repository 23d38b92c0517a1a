//! The Cut-Shortcut analysis (the paper's contribution), as a solver plugin.
//!
//! Cut-Shortcut runs the ordinary context-insensitive solver, but on a
//! transformed pointer flow graph PFG′ (§3.1): edges that would carry merged
//! object flows out of a method are never added (*cut*, via the
//! `cutStores` / `cutReturns` checks wired into the solver's `[Store]` /
//! `[Return]` rules), and sound replacement edges are added from precise
//! source pointers to target pointers (*shortcut*, the `E_SC` set of rule
//! `[Shortcut]`).
//!
//! The three program patterns are implemented exactly as formalized:
//!
//! * **field access** (Fig. 8 + Fig. 9): static `cutStores` and the
//!   `tempStores` / `tempLoads` propagation along call chains
//!   (`[CutStore]`, `[PropStore]`, `[ShortcutStore]`, `[CutPropLoad]`,
//!   `[ShortcutLoad]`), plus the `[RelayEdge]` soundness rule driven by the
//!   `returnLoadEdges` classification;
//! * **container access** (Fig. 10): `Entrances` / `Exits` / `Transfers`
//!   API annotations, the pointer-host map `ptH` with its own propagation
//!   (`[ColHost]`, `[MapHost]`, `[TransferHost]`, `[PropHost]`), and
//!   source/target matching (`[HostSource]`, `[HostTarget]`,
//!   `[ShortcutContainer]`, `[CutContainer]`);
//! * **local flow** (Fig. 11): the static `↣` relation (`[Param2Var]`,
//!   `[Param2VarRec]`) with `[CutLFlow]` / `[ShortcutLFlow]`.
//!
//! Each pattern can be disabled independently ([`CscConfig`]) to reproduce
//! the paper's §5.1 ablation.

mod container;
mod prep;

pub use container::{Category, ContainerSpec, ResolvedContainerSpec};
pub use prep::{cha_targets, StaticInfo};

use std::collections::{HashSet, VecDeque};

use csc_ir::{CallSiteId, DeltaEffects, FieldId, MethodId, Program, StoreId, VarId};

use crate::context::CtxId;
use crate::fx::{FxHashMap, FxHashSet};
use crate::pts::PointsToSet;
use crate::solver::{CsObjId, EdgeKind, Plugin, PtrId, PtrKey, ShortcutKind, SolverState};

/// Which patterns are enabled. The default enables all three, matching the
/// paper's Tai-e configuration; `CscConfig::doop()` disables the load half
/// of the field pattern, matching the paper's Doop configuration (Datalog
/// cannot express `[CutPropLoad]`'s negation-in-recursion).
#[derive(Clone, Debug)]
pub struct CscConfig {
    /// Field access pattern, store half (Fig. 8).
    pub field_store: bool,
    /// Field access pattern, load half (Fig. 9).
    pub field_load: bool,
    /// Container access pattern (Fig. 10).
    pub container: bool,
    /// Local flow pattern (Fig. 11).
    pub local_flow: bool,
    /// Container API annotations.
    pub container_spec: ContainerSpec,
}

impl Default for CscConfig {
    fn default() -> Self {
        CscConfig {
            field_store: true,
            field_load: true,
            container: true,
            local_flow: true,
            container_spec: ContainerSpec::mini_jdk(),
        }
    }
}

impl CscConfig {
    /// All patterns (the paper's Tai-e configuration).
    pub fn all() -> Self {
        Self::default()
    }

    /// The paper's Doop configuration: load handling omitted.
    pub fn doop() -> Self {
        CscConfig {
            field_load: false,
            ..Self::default()
        }
    }

    /// Only the field access pattern (ablation experiment).
    pub fn only_field() -> Self {
        CscConfig {
            container: false,
            local_flow: false,
            ..Self::default()
        }
    }

    /// Only the container access pattern (ablation experiment).
    pub fn only_container() -> Self {
        CscConfig {
            field_store: false,
            field_load: false,
            local_flow: false,
            ..Self::default()
        }
    }

    /// Only the local flow pattern (ablation experiment).
    pub fn only_local_flow() -> Self {
        CscConfig {
            field_store: false,
            field_load: false,
            container: false,
            ..Self::default()
        }
    }
}

/// Counters and the involved-method set (Table 3 reports the latter).
#[derive(Clone, Debug, Default)]
pub struct CscStats {
    /// Store sites in `cutStores`.
    pub cut_store_sites: usize,
    /// Methods whose returns are cut (any pattern).
    pub cut_return_methods: usize,
    /// Shortcut edges added, per kind.
    pub shortcut_store_edges: u64,
    /// `[ShortcutLoad]` edges.
    pub shortcut_load_edges: u64,
    /// `[RelayEdge]` edges.
    pub relay_edges: u64,
    /// `[ShortcutContainer]` edges.
    pub container_edges: u64,
    /// `[ShortcutLFlow]` edges.
    pub local_flow_edges: u64,
    /// Temp stores derived.
    pub temp_stores: usize,
    /// Temp loads derived.
    pub temp_loads: usize,
    /// Methods involved in cut or shortcut edges (Table 3).
    pub involved_methods: HashSet<MethodId>,
}

impl CscStats {
    /// Total shortcut edges across kinds.
    pub fn shortcut_edges(&self) -> u64 {
        self.shortcut_store_edges
            + self.shortcut_load_edges
            + self.relay_edges
            + self.container_edges
            + self.local_flow_edges
    }
}

/// The methods whose PFG edges the enabled Cut-Shortcut patterns touch
/// (statically over-approximated): cut-store owners, load-cut methods,
/// local-flow methods, and container entrance/exit/transfer methods.
///
/// The §3.4 hybrid combination applies contexts only to methods *outside*
/// this set.
pub fn pattern_methods(program: &Program, cfg: &CscConfig) -> HashSet<MethodId> {
    let info = StaticInfo::compute(program);
    let spec = cfg.container_spec.resolve(program);
    let mut out = HashSet::new();
    if cfg.field_store {
        out.extend(info.prop_store_seeds.keys().copied());
    }
    if cfg.field_load {
        out.extend(info.cut_load_returns.iter().copied());
    }
    if cfg.local_flow {
        out.extend(info.lflow.keys().copied());
    }
    if cfg.container {
        out.extend(spec.entrances.keys().copied());
        out.extend(spec.exits.keys().copied());
        out.extend(spec.transfers.iter().copied());
    }
    out
}

/// Whether a Cut-Shortcut plugin built for `base` would rebase onto
/// `patched` (the [`crate::FallbackReason::CscObligations`] gate of the
/// incremental driver), recomputed from scratch on both programs. This is
/// the pure oracle behind [`CutShortcut`]'s [`Plugin::rebase`]
/// implementation, exposed so the incremental proptest harness can assert
/// the fallback fires exactly when this predicate is false.
pub fn rebase_compatible(
    base: &Program,
    patched: &Program,
    fx: &DeltaEffects,
    cfg: &CscConfig,
) -> bool {
    if !fx.additions_only() {
        return false;
    }
    let old_info = StaticInfo::compute(base);
    let new_info = StaticInfo::compute(patched);
    let old_spec = cfg.container_spec.resolve(base);
    let new_spec = cfg.container_spec.resolve(patched);
    old_info.compatible_extension(&new_info, &fx.base)
        && old_spec.compatible_extension(&new_spec, &fx.base)
}

/// A host watch attached to the receiver pointer of a container call site.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Watch {
    /// `[HostSource]`: the argument is a Source for each host of the recv.
    Source { arg: PtrId, cat: Category },
    /// `[HostTarget]`: the lhs is a Target for each host of the recv.
    Target { lhs: PtrId, cat: Category },
    /// `[TransferHost]`: hosts transfer from receiver to lhs.
    Transfer { lhs: PtrId },
}

/// Propagatable temp-store seeds `(k_base, field, k_from)` per unit.
type PropStores = FxHashMap<(MethodId, CtxId), Vec<(u32, FieldId, u32)>>;

/// The Cut-Shortcut solver plugin.
///
/// Run it with the context-insensitive selector to get the paper's
/// Cut-Shortcut analysis (no contexts anywhere, §3.1). The plugin is also
/// *context-compatible*: all of its bookkeeping is keyed by
/// context-qualified pointers and (method, context) analysis units, so it
/// composes with a [`crate::SelectiveSelector`] — the combination the paper
/// sketches as future work in §3.4 (contexts only for methods the patterns
/// do not cover), exposed as [`crate::Analysis::CscHybrid`].
#[derive(Debug)]
pub struct CutShortcut {
    cfg: CscConfig,
    info: StaticInfo,
    spec: ResolvedContainerSpec,
    /// §4.2.2 recursion: methods cut dynamically by `[CutPropLoad]`, beyond
    /// the static closure.
    dyn_cut_load: HashSet<MethodId>,
    /// Propagatable temp stores registered per callee *analysis unit*
    /// (method × context): `(k_base, f, k_from)`.
    prop_stores: PropStores,
    /// Propagatable temp loads registered per callee unit: `(k_base, f)`.
    prop_loads: FxHashMap<(MethodId, CtxId), Vec<(u32, FieldId)>>,
    temp_stores_seen: FxHashSet<(CtxId, VarId, FieldId, VarId)>,
    temp_loads_seen: FxHashSet<(CtxId, VarId, VarId, FieldId)>,
    /// Grounded `[ShortcutStore]` obligations: on growth of `pt(base)`, add
    /// `from → o.f`.
    store_obls: FxHashMap<PtrId, Vec<(FieldId, PtrId)>>,
    /// `[ShortcutLoad]` obligations: on growth of `pt(base)`, add `o.f → to`.
    load_obls: FxHashMap<PtrId, Vec<(FieldId, PtrId)>>,
    /// All PFG edges into each method-unit's return variable, with the
    /// `returnLoadEdges` classification.
    ret_in: FxHashMap<(MethodId, CtxId), Vec<(PtrId, bool)>>,
    /// `[RelayEdge]` targets (call-site lhs pointers) per cut method unit.
    relay_targets: FxHashMap<(MethodId, CtxId), Vec<PtrId>>,
    /// The pointer-host map `ptH`.
    pth: FxHashMap<PtrId, PointsToSet>,
    host_succ: FxHashMap<PtrId, Vec<PtrId>>,
    host_edges: FxHashSet<(PtrId, PtrId)>,
    host_worklist: VecDeque<(PtrId, PointsToSet)>,
    /// Container watches per receiver pointer.
    watches: FxHashMap<PtrId, Vec<Watch>>,
    host_sources: FxHashMap<(u32, Category), Vec<PtrId>>,
    host_targets: FxHashMap<(u32, Category), Vec<PtrId>>,
    source_seen: FxHashSet<(u32, Category, PtrId)>,
    target_seen: FxHashSet<(u32, Category, PtrId)>,
    /// Counters.
    pub stats: CscStats,
}

impl CutShortcut {
    /// Prepares Cut-Shortcut for a program: computes the static information
    /// (`cutStores`, level-0 + CHA-closed load cuts, the `↣` relation) and
    /// resolves the container spec.
    pub fn new(program: &Program, cfg: CscConfig) -> Self {
        let info = StaticInfo::compute(program);
        let spec = cfg.container_spec.resolve(program);
        let mut stats = CscStats::default();
        if cfg.field_store {
            stats.cut_store_sites = info.cut_stores.iter().filter(|&&c| c).count();
            for (i, st) in program.stores().iter().enumerate() {
                if info.cut_stores[i] {
                    stats.involved_methods.insert(st.method());
                }
            }
        }
        let mut cut_ret: HashSet<MethodId> = HashSet::new();
        if cfg.field_load {
            cut_ret.extend(info.cut_load_returns.iter().copied());
        }
        if cfg.container {
            cut_ret.extend(spec.exits.keys().copied());
        }
        if cfg.local_flow {
            cut_ret.extend(info.lflow.keys().copied());
        }
        stats.cut_return_methods = cut_ret.len();
        stats.involved_methods.extend(cut_ret);

        let mut plugin = CutShortcut {
            cfg,
            info,
            spec,
            dyn_cut_load: HashSet::new(),
            prop_stores: FxHashMap::default(),
            prop_loads: FxHashMap::default(),
            temp_stores_seen: FxHashSet::default(),
            temp_loads_seen: FxHashSet::default(),
            store_obls: FxHashMap::default(),
            load_obls: FxHashMap::default(),
            ret_in: FxHashMap::default(),
            relay_targets: FxHashMap::default(),
            pth: FxHashMap::default(),
            host_succ: FxHashMap::default(),
            host_edges: FxHashSet::default(),
            host_worklist: VecDeque::new(),
            watches: FxHashMap::default(),
            host_sources: FxHashMap::default(),
            host_targets: FxHashMap::default(),
            source_seen: FxHashSet::default(),
            target_seen: FxHashSet::default(),
            stats: CscStats::default(),
        };
        std::mem::swap(&mut plugin.stats, &mut stats);
        // Seed propagatable temp stores/loads from the static cut sites
        // ([CutStore] and level-0 [CutPropLoad]).
        // Static seeds ([CutStore] / level-0 [CutPropLoad]) are registered
        // lazily per analysis unit (method × context) in `on_call_edge`,
        // which keeps the plugin correct under selective context
        // sensitivity (the paper's §3.4 combination idea).
        plugin
    }

    /// The final statistics (valid after solving).
    pub fn stats(&self) -> &CscStats {
        &self.stats
    }

    fn is_load_cut(&self, m: MethodId) -> bool {
        self.info.cut_load_returns.contains(&m) || self.dyn_cut_load.contains(&m)
    }

    fn record_involved(&mut self, st: &SolverState<'_>, p: PtrId) {
        if let PtrKey::Var(_, v) = st.ptr_key(p) {
            self.stats
                .involved_methods
                .insert(st.program.var(v).method());
        }
    }

    /// Adds a shortcut edge. The solver reports only the edges its own
    /// rules add, so a new shortcut edge goes through
    /// [`Plugin::on_new_edge`] here, before this returns.
    fn add_shortcut(
        &mut self,
        st: &mut SolverState<'_>,
        src: PtrId,
        dst: PtrId,
        kind: ShortcutKind,
    ) {
        let edge = EdgeKind::Shortcut(kind);
        if !st.add_edge(src, dst, edge) {
            return;
        }
        match kind {
            ShortcutKind::Store => self.stats.shortcut_store_edges += 1,
            ShortcutKind::Load => self.stats.shortcut_load_edges += 1,
            ShortcutKind::Relay => self.stats.relay_edges += 1,
            ShortcutKind::Container => self.stats.container_edges += 1,
            ShortcutKind::LocalFlow => self.stats.local_flow_edges += 1,
        }
        self.record_involved(st, src);
        self.record_involved(st, dst);
        self.on_new_edge(st, src, dst, edge);
    }

    // ---- field access pattern: stores (Fig. 8) ---------------------------

    /// Derives a temp store at a call site ([CutStore] conclusion /
    /// [PropStore]); classifies it as propagatable or grounded.
    fn derive_temp_store(
        &mut self,
        st: &mut SolverState<'_>,
        site: CallSiteId,
        caller_ctx: CtxId,
        k_base: u32,
        f: FieldId,
        k_from: u32,
    ) {
        let cs = st.program.call_site(site);
        let (Some(b), Some(fr)) = (cs.arg_k(k_base as usize), cs.arg_k(k_from as usize)) else {
            return;
        };
        if !self.temp_stores_seen.insert((caller_ctx, b, f, fr)) {
            return;
        }
        self.stats.temp_stores += 1;
        let caller = cs.method();
        let (kb2, kf2) = (
            self.info.unredefined_param_k[b.index()],
            self.info.unredefined_param_k[fr.index()],
        );
        if let (Some(kb2), Some(kf2)) = (kb2, kf2) {
            // [PropStore]: both ends come from the caller's arguments —
            // propagate one level up, for existing and future call edges
            // onto this caller unit.
            let entry = self.prop_stores.entry((caller, caller_ctx)).or_default();
            if !entry.contains(&(kb2, f, kf2)) {
                entry.push((kb2, f, kf2));
                let edges: Vec<(CtxId, CallSiteId)> = st
                    .call_edges_of(caller)
                    .iter()
                    .filter(|&&(_, _, cctx)| cctx == caller_ctx)
                    .map(|&(up_ctx, s, _)| (up_ctx, s))
                    .collect();
                for (up_ctx, s2) in edges {
                    self.derive_temp_store(st, s2, up_ctx, kb2, f, kf2);
                }
            }
        } else {
            // [ShortcutStore]: grounded — connect `from` to `o.f` for every
            // object the base may point to, now and in the future.
            let base_ptr = st.var_ptr(caller_ctx, b);
            let from_ptr = st.var_ptr(caller_ctx, fr);
            self.store_obls
                .entry(base_ptr)
                .or_default()
                .push((f, from_ptr));
            let current: Vec<u32> = st.pt(base_ptr).iter().collect();
            for o in current {
                let t = st.field_ptr(CsObjId(o), f);
                self.add_shortcut(st, from_ptr, t, ShortcutKind::Store);
            }
        }
    }

    // ---- field access pattern: loads (Fig. 9) ----------------------------

    /// Derives a temp load at a call site ([CutPropLoad] conclusion); always
    /// registers the [ShortcutLoad] obligation, and recurses when the lhs is
    /// the caller's return variable fed by an unredefined parameter.
    fn derive_temp_load(
        &mut self,
        st: &mut SolverState<'_>,
        site: CallSiteId,
        caller_ctx: CtxId,
        lhs: VarId,
        k_base: u32,
        f: FieldId,
    ) {
        let cs = st.program.call_site(site);
        let Some(b) = cs.arg_k(k_base as usize) else {
            return;
        };
        if !self.temp_loads_seen.insert((caller_ctx, lhs, b, f)) {
            return;
        }
        self.stats.temp_loads += 1;
        // [ShortcutLoad]
        let base_ptr = st.var_ptr(caller_ctx, b);
        let to_ptr = st.var_ptr(caller_ctx, lhs);
        self.load_obls
            .entry(base_ptr)
            .or_default()
            .push((f, to_ptr));
        let current: Vec<u32> = st.pt(base_ptr).iter().collect();
        for o in current {
            let s = st.field_ptr(CsObjId(o), f);
            self.add_shortcut(st, s, to_ptr, ShortcutKind::Load);
        }
        // [CutPropLoad] recursion up the call chain.
        let caller = cs.method();
        let caller_m = st.program.method(caller);
        if caller_m.ret_var() == Some(lhs) {
            if let Some(k2) = self.info.unredefined_param_k[b.index()] {
                self.mark_load_cut(st, caller);
                let entry = self.prop_loads.entry((caller, caller_ctx)).or_default();
                if !entry.contains(&(k2, f)) {
                    entry.push((k2, f));
                    let edges: Vec<(CtxId, CallSiteId)> = st
                        .call_edges_of(caller)
                        .iter()
                        .filter(|&&(_, _, cctx)| cctx == caller_ctx)
                        .map(|&(up_ctx, s, _)| (up_ctx, s))
                        .collect();
                    for (up_ctx, s2) in edges {
                        if let Some(r) = st.program.call_site(s2).lhs() {
                            self.derive_temp_load(st, s2, up_ctx, r, k2, f);
                        }
                    }
                }
            }
        }
    }

    /// Adds `m` to the load-pattern `cutReturns` (dynamically) and replays
    /// relay registration for its existing call edges.
    fn mark_load_cut(&mut self, st: &mut SolverState<'_>, m: MethodId) {
        if self.info.cut_load_returns.contains(&m) || !self.dyn_cut_load.insert(m) {
            return;
        }
        self.stats.cut_return_methods += 1;
        self.stats.involved_methods.insert(m);
        let edges: Vec<(CtxId, CallSiteId, CtxId)> = st.call_edges_of(m).to_vec();
        for (caller_ctx, site, callee_ctx) in edges {
            self.register_relay_target(st, site, caller_ctx, callee_ctx, m);
        }
    }

    /// `[RelayEdge]`: registers the call-site lhs as a relay target of the
    /// cut method and replays all non-`returnLoadEdges` inflows seen so far.
    fn register_relay_target(
        &mut self,
        st: &mut SolverState<'_>,
        site: CallSiteId,
        caller_ctx: CtxId,
        callee_ctx: CtxId,
        callee: MethodId,
    ) {
        let Some(lhs) = st.program.call_site(site).lhs() else {
            return;
        };
        let t = st.var_ptr(caller_ctx, lhs);
        let targets = self.relay_targets.entry((callee, callee_ctx)).or_default();
        if targets.contains(&t) {
            return;
        }
        targets.push(t);
        let replay: Vec<PtrId> = self
            .ret_in
            .get(&(callee, callee_ctx))
            .map(|v| {
                v.iter()
                    .filter(|&&(_, rle)| !rle)
                    .map(|&(s, _)| s)
                    .collect()
            })
            .unwrap_or_default();
        for s in replay {
            self.add_shortcut(st, s, t, ShortcutKind::Relay);
        }
    }

    // ---- container access pattern (Fig. 10) -------------------------------

    fn register_watch(&mut self, st: &mut SolverState<'_>, ctx: CtxId, recv: VarId, w: Watch) {
        let recv_ptr = st.var_ptr(ctx, recv);
        let list = self.watches.entry(recv_ptr).or_default();
        if list.contains(&w) {
            return;
        }
        list.push(w);
        // Replay hosts already known for the receiver.
        if let Some(hosts) = self.pth.get(&recv_ptr) {
            let hosts: Vec<u32> = hosts.iter().collect();
            for h in hosts {
                self.fire_watch(st, w, h);
            }
        }
    }

    fn fire_watch(&mut self, st: &mut SolverState<'_>, w: Watch, h: u32) {
        match w {
            Watch::Source { arg, cat } => {
                // [HostSource] + [ShortcutContainer]
                if self.source_seen.insert((h, cat, arg)) {
                    self.host_sources.entry((h, cat)).or_default().push(arg);
                    let targets = self
                        .host_targets
                        .get(&(h, cat))
                        .cloned()
                        .unwrap_or_default();
                    for t in targets {
                        self.add_shortcut(st, arg, t, ShortcutKind::Container);
                    }
                }
            }
            Watch::Target { lhs, cat } => {
                // [HostTarget] + [ShortcutContainer]
                if self.target_seen.insert((h, cat, lhs)) {
                    self.host_targets.entry((h, cat)).or_default().push(lhs);
                    let sources = self
                        .host_sources
                        .get(&(h, cat))
                        .cloned()
                        .unwrap_or_default();
                    for s in sources {
                        self.add_shortcut(st, s, lhs, ShortcutKind::Container);
                    }
                }
            }
            Watch::Transfer { lhs } => {
                // [TransferHost]
                self.queue_hosts(lhs, PointsToSet::singleton(h));
            }
        }
    }

    fn queue_hosts(&mut self, ptr: PtrId, hosts: PointsToSet) {
        if !hosts.is_empty() {
            self.host_worklist.push_back((ptr, hosts));
        }
    }

    /// Drains the `ptH` worklist: commits host deltas, fires watches, and
    /// propagates along the host graph (`[PropHost]`).
    fn drain_hosts(&mut self, st: &mut SolverState<'_>) {
        while let Some((ptr, hosts)) = self.host_worklist.pop_front() {
            let entry = self.pth.entry(ptr).or_default();
            let Some(delta) = entry.union_delta(&hosts) else {
                continue;
            };
            if let Some(watches) = self.watches.get(&ptr).cloned() {
                for w in watches {
                    for h in delta.iter() {
                        self.fire_watch(st, w, h);
                    }
                }
            }
            if let Some(succ) = self.host_succ.get(&ptr).cloned() {
                for t in succ {
                    self.host_worklist.push_back((t, delta.clone()));
                }
            }
        }
    }

    fn host_add_edge(&mut self, src: PtrId, dst: PtrId) {
        if src == dst || !self.host_edges.insert((src, dst)) {
            return;
        }
        self.host_succ.entry(src).or_default().push(dst);
        if let Some(hosts) = self.pth.get(&src) {
            let hosts = hosts.clone();
            self.queue_hosts(dst, hosts);
        }
    }
}

// ---- solver hooks ---------------------------------------------------------
//
// The solver calls each hook from the rule that derived the fact. A shortcut
// edge a hook adds runs `on_new_edge` inside `add_shortcut`, so hooks nest.

impl Plugin for CutShortcut {
    /// Local-flow shortcuts, temp store/load propagation, relay targets
    /// and container watches for the new call edge's unit.
    fn on_new_call_edge(
        &mut self,
        st: &mut SolverState<'_>,
        caller_ctx: CtxId,
        site: CallSiteId,
        callee_ctx: CtxId,
        callee: MethodId,
    ) {
        let cs = st.program.call_site(site);
        let (lhs, recv) = (cs.lhs(), cs.recv());

        // [ShortcutLFlow]
        if self.cfg.local_flow {
            if let (Some(ks), Some(lhs)) = (self.info.lflow.get(&callee).cloned(), lhs) {
                let t = st.var_ptr(caller_ctx, lhs);
                for k in ks {
                    if let Some(arg) = st.program.call_site(site).arg_k(k as usize) {
                        let s = st.var_ptr(caller_ctx, arg);
                        self.add_shortcut(st, s, t, ShortcutKind::LocalFlow);
                    }
                }
            }
        }

        // Field store propagation: static seeds of the callee plus any
        // propagatable temp stores registered for this callee unit.
        if self.cfg.field_store {
            let mut seeds: Vec<(u32, FieldId, u32)> = self
                .info
                .prop_store_seeds
                .get(&callee)
                .cloned()
                .unwrap_or_default();
            if let Some(extra) = self.prop_stores.get(&(callee, callee_ctx)) {
                seeds.extend(extra.iter().copied());
            }
            for (kb, f, kf) in seeds {
                self.derive_temp_store(st, site, caller_ctx, kb, f, kf);
            }
        }

        // Field load propagation + relay registration.
        if self.cfg.field_load {
            if let Some(lhs) = lhs {
                let mut seeds: Vec<(u32, FieldId)> = self
                    .info
                    .prop_load_seeds
                    .get(&callee)
                    .cloned()
                    .unwrap_or_default();
                if let Some(extra) = self.prop_loads.get(&(callee, callee_ctx)) {
                    seeds.extend(extra.iter().copied());
                }
                for (k, f) in seeds {
                    self.derive_temp_load(st, site, caller_ctx, lhs, k, f);
                }
                if self.is_load_cut(callee) {
                    self.register_relay_target(st, site, caller_ctx, callee_ctx, callee);
                }
            }
        }

        // Container roles.
        if self.cfg.container {
            if let Some(recv) = recv {
                if let Some(roles) = self.spec.entrances.get(&callee).cloned() {
                    for (k, cat) in roles {
                        if let Some(arg) = st.program.call_site(site).arg_k(k) {
                            let arg_ptr = st.var_ptr(caller_ctx, arg);
                            self.register_watch(
                                st,
                                caller_ctx,
                                recv,
                                Watch::Source { arg: arg_ptr, cat },
                            );
                        }
                    }
                }
                if let Some(&cat) = self.spec.exits.get(&callee) {
                    if let Some(lhs) = lhs {
                        let lhs_ptr = st.var_ptr(caller_ctx, lhs);
                        self.register_watch(
                            st,
                            caller_ctx,
                            recv,
                            Watch::Target { lhs: lhs_ptr, cat },
                        );
                    }
                }
                if self.spec.transfers.contains(&callee) {
                    if let Some(lhs) = lhs {
                        let lhs_ptr = st.var_ptr(caller_ctx, lhs);
                        self.register_watch(st, caller_ctx, recv, Watch::Transfer { lhs: lhs_ptr });
                    }
                }
            }
            self.drain_hosts(st);
        }
    }

    /// Grounded `[ShortcutStore]` / `[ShortcutLoad]` obligations fire on
    /// the new objects of `pt(ptr)`, and `[ColHost]` / `[MapHost]` classify
    /// them as container hosts. Obligations registered later replay the
    /// full points-to set at registration time, so none misses a delta.
    fn on_new_points_to(&mut self, st: &mut SolverState<'_>, ptr: PtrId, delta: &PointsToSet) {
        // The loops need `&mut self`, so they run over copies of the
        // obligation lists. Each shortcut edge they add runs `on_new_edge`
        // at once; that can append host and relay facts, but only
        // `on_new_call_edge` registers obligations, so the copies stay
        // current.
        if let Some(obls) = self.store_obls.get(&ptr).cloned() {
            for (f, from) in obls {
                for o in delta.iter() {
                    let t = st.field_ptr(CsObjId(o), f);
                    self.add_shortcut(st, from, t, ShortcutKind::Store);
                }
            }
        }
        if let Some(obls) = self.load_obls.get(&ptr).cloned() {
            for (f, to) in obls {
                for o in delta.iter() {
                    let s = st.field_ptr(CsObjId(o), f);
                    self.add_shortcut(st, s, to, ShortcutKind::Load);
                }
            }
        }
        if self.cfg.container
            && !(self.spec.collection_roots.is_empty() && self.spec.map_roots.is_empty())
        {
            let hosts: PointsToSet = delta
                .iter()
                .filter(|&o| {
                    let (_, obj) = st.obj_key(CsObjId(o));
                    self.spec
                        .is_host_class(st.program, st.program.obj(obj).class())
                })
                .collect();
            if !hosts.is_empty() {
                self.queue_hosts(ptr, hosts);
                self.drain_hosts(st);
            }
        }
    }

    /// `returnLoadEdges` bookkeeping, `[RelayEdge]` and `[PropHost]` for
    /// a new PFG edge, the plugin's own shortcut edges included.
    fn on_new_edge(&mut self, st: &mut SolverState<'_>, src: PtrId, dst: PtrId, kind: EdgeKind) {
        // returnLoadEdges bookkeeping + [RelayEdge].
        if self.cfg.field_load {
            if let PtrKey::Var(ctx, v) = st.ptr_key(dst) {
                if let Some(&m) = self.info.ret_var_owner.get(&v) {
                    let is_rle = match kind {
                        EdgeKind::Load(l) => self.info.is_qualifying_ret_load(l),
                        EdgeKind::Shortcut(ShortcutKind::Load) => true,
                        _ => false,
                    };
                    self.ret_in.entry((m, ctx)).or_default().push((src, is_rle));
                    if !is_rle && self.is_load_cut(m) {
                        let targets = self
                            .relay_targets
                            .get(&(m, ctx))
                            .cloned()
                            .unwrap_or_default();
                        for t in targets {
                            self.add_shortcut(st, src, t, ShortcutKind::Relay);
                        }
                    }
                }
            }
        }
        // [PropHost] — all PFG edges except return edges of Transfer
        // methods participate in host propagation.
        if self.cfg.container {
            let excluded = matches!(kind, EdgeKind::Return(m) if self.spec.transfers.contains(&m));
            if !excluded {
                self.host_add_edge(src, dst);
                self.drain_hosts(st);
            }
        }
    }

    /// Cut-Shortcut survives a delta exactly when it is additions-only and
    /// the freshly computed static tables agree with the old ones on the
    /// base entity domain (removals would invalidate derived shortcut
    /// edges and registered obligations; a changed pattern classification
    /// on a base entity means existing call edges were processed against
    /// the wrong tables). On success the *dynamic* state (obligations,
    /// temp-prop registrations, host maps) carries over and the fresh
    /// tables are swapped in — the old ones would index out of bounds on
    /// appended sites.
    fn rebase(&mut self, _base: &Program, patched: &Program, fx: &DeltaEffects) -> bool {
        if !fx.additions_only() {
            return false;
        }
        let info = StaticInfo::compute(patched);
        let spec = self.cfg.container_spec.resolve(patched);
        if !self.info.compatible_extension(&info, &fx.base)
            || !self.spec.compatible_extension(&spec, &fx.base)
        {
            return false;
        }
        self.info = info;
        self.spec = spec;
        true
    }

    fn is_store_cut(&self, site: StoreId) -> bool {
        self.cfg.field_store && self.info.is_cut_store(site)
    }

    fn is_return_cut(&self, m: MethodId) -> bool {
        (self.cfg.field_load && self.is_load_cut(m))
            || (self.cfg.container && self.spec.exits.contains_key(&m))
            || (self.cfg.local_flow && self.info.lflow.contains_key(&m))
    }
}
