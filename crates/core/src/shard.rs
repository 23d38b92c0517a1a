//! The pointer-slot plane, the statement index, and the cast filter.
//!
//! [`Shard`] holds the per-pointer data the solver's worklist loop
//! touches on every step: the points-to set, the pending-delta
//! accumulator, the successor row, and the PFG edge-dedup group of every
//! interned pointer. Slot `i` is row `i` of each table, so a pointer id
//! indexes its slot directly. Per slot it costs a 24-byte points-to set,
//! a 4-byte pending entry index and a successor-row head: only queued
//! pointers hold a pending set, in a recycled pool.
//!
//! [`StmtIndex`] maps each variable to the loads, stores, and instance
//! calls that use it as base or receiver, as three compressed row tables
//! (one offset array and one id array each, 4 bytes per variable and per
//! statement); it is built once per solve, patched by each incremental
//! re-solve, and read by the `[Load]`/`[Store]`/`[Call]` rules.

use std::ops::Range;

use csc_ir::{CallSiteId, ClassId, DeltaEffects, LoadId, ObjId, Program, Stmt, StoreId, VarId};

use crate::arena::{PairSet, SuccTable};
use crate::context::CtxId;
use crate::fx::FxHashMap;
use crate::pts::PointsToSet;
use crate::solver::PtrId;

/// A slot with no pending accumulator.
const NO_PENDING: u32 = u32::MAX;

/// The pointer-slot plane: the points-to sets, pending accumulators,
/// successor lists, and PFG edge-dedup sets of every interned pointer,
/// one row per slot id.
#[derive(Default)]
pub(crate) struct Shard {
    /// Points-to sets (live at SCC representatives; merged members keep
    /// an empty row).
    pts: Vec<PointsToSet>,
    /// Each slot's entry in `pool`, or [`NO_PENDING`] while nothing is
    /// pending for it.
    pending: Vec<u32>,
    /// Batched worklist accumulators of the queued slots. An entry is
    /// handed out when [`pending_mut`](Self::pending_mut) first touches a
    /// slot and returned by [`take_pending`](Self::take_pending), so the
    /// pool is as large as the most slots ever queued at once.
    pool: Vec<PointsToSet>,
    /// Returned `pool` entries, reused before the pool grows.
    free: Vec<u32>,
    /// Successor edges with optional cast filters, rows paired 1:1 with
    /// `pts` (rows live at SCC representatives; see
    /// `SolverState::add_edge`). Arena-backed: all rows share one segment
    /// pool instead of one `Vec` allocation per source.
    succ: SuccTable,
    /// Per-representative *logical* PFG edge sets, keyed by original
    /// `(src, dst)` endpoints and grouped under the source's current
    /// representative (deduplication, and the removal cone's successor
    /// walk; identical with collapsing on or off). Condensation epochs migrate groups when
    /// representatives merge.
    edge_pairs: FxHashMap<u32, PairSet>,
}

impl Shard {
    /// Appends one empty slot (the next dense id).
    pub(crate) fn push(&mut self) {
        self.pts.push(PointsToSet::new());
        self.pending.push(NO_PENDING);
        self.succ.push_row();
    }

    /// Shared points-to set of slot `i`.
    #[inline]
    pub(crate) fn pts(&self, i: u32) -> &PointsToSet {
        &self.pts[i as usize]
    }

    /// Mutable points-to set of slot `i`.
    #[inline]
    pub(crate) fn pts_mut(&mut self, i: u32) -> &mut PointsToSet {
        &mut self.pts[i as usize]
    }

    /// Takes slot `i`'s points-to set out, leaving it empty (take/restore
    /// pattern for split borrows).
    #[inline]
    pub(crate) fn take_pts(&mut self, i: u32) -> PointsToSet {
        std::mem::take(self.pts_mut(i))
    }

    /// Restores a taken points-to set.
    #[inline]
    pub(crate) fn put_pts(&mut self, i: u32, set: PointsToSet) {
        *self.pts_mut(i) = set;
    }

    /// Mutable pending accumulator of slot `i`, handing the slot a pool
    /// entry (empty) if it has none.
    #[inline]
    pub(crate) fn pending_mut(&mut self, i: u32) -> &mut PointsToSet {
        let mut entry = self.pending[i as usize];
        if entry == NO_PENDING {
            entry = match self.free.pop() {
                Some(e) => e,
                None => {
                    self.pool.push(PointsToSet::new());
                    u32::try_from(self.pool.len() - 1).expect("too many pending sets")
                }
            };
            self.pending[i as usize] = entry;
        }
        &mut self.pool[entry as usize]
    }

    /// Takes slot `i`'s pending accumulator out (empty if it has none),
    /// returning its pool entry.
    #[inline]
    pub(crate) fn take_pending(&mut self, i: u32) -> PointsToSet {
        let entry = std::mem::replace(&mut self.pending[i as usize], NO_PENDING);
        if entry == NO_PENDING {
            return PointsToSet::new();
        }
        self.free.push(entry);
        std::mem::take(&mut self.pool[entry as usize])
    }

    /// Restores a taken pending accumulator.
    #[inline]
    pub(crate) fn put_pending(&mut self, i: u32, set: PointsToSet) {
        *self.pending_mut(i) = set;
    }

    /// Iterates slot `i`'s successor edges in insertion order.
    #[inline]
    pub(crate) fn succ_iter(&self, i: u32) -> impl Iterator<Item = (PtrId, Option<ClassId>)> + '_ {
        self.succ.iter_row(i as usize).map(|(d, f)| (PtrId(d), f))
    }

    /// Appends one successor edge at slot `i`.
    #[inline]
    pub(crate) fn succ_push(&mut self, i: u32, dst: PtrId, filter: Option<ClassId>) {
        self.succ.push_entry(i as usize, dst.0, filter);
    }

    /// First segment of slot `i`'s successor chain ([`crate::arena::NONE`]
    /// when empty) — the cursor entry point for walking a row while
    /// mutating other slots (see [`succ_seg`](Self::succ_seg)).
    #[inline]
    pub(crate) fn succ_head(&self, i: u32) -> u32 {
        self.succ.head(i as usize)
    }

    /// Fetches one segment of a successor chain *by value*, releasing the
    /// arena borrow: the hot propagation loop copies 56 bytes per six
    /// edges instead of taking and restoring the row.
    #[inline]
    pub(crate) fn succ_seg(&self, seg: u32) -> crate::arena::SuccSeg {
        self.succ.seg(seg)
    }

    /// Removes and returns slot `i`'s successor edges (cold path: SCC
    /// collapse and removal cones rebuild rows wholesale).
    pub(crate) fn take_succ(&mut self, i: u32) -> Vec<(PtrId, Option<ClassId>)> {
        self.succ
            .take_row(i as usize)
            .into_iter()
            .map(|(d, f)| (PtrId(d), f))
            .collect()
    }

    /// Installs a successor list at slot `i` (the row must be empty — the
    /// restore half of [`take_succ`](Self::take_succ)).
    pub(crate) fn put_succ(&mut self, i: u32, succ: Vec<(PtrId, Option<ClassId>)>) {
        debug_assert_eq!(self.succ.row_len(i as usize), 0);
        self.succ
            .extend_row(i as usize, succ.into_iter().map(|(d, f)| (d.0, f)));
    }

    /// The edge-dedup pair group of representative `rep`, created on
    /// demand.
    #[inline]
    pub(crate) fn edge_pairs_mut(&mut self, rep: u32) -> &mut PairSet {
        self.edge_pairs.entry(rep).or_default()
    }

    /// The edge-dedup pair group of representative `rep`, if any.
    #[inline]
    pub(crate) fn edge_pairs(&self, rep: u32) -> Option<&PairSet> {
        self.edge_pairs.get(&rep)
    }

    /// Removes and returns `rep`'s pair group (condensation epochs migrate
    /// merged members' groups onto the surviving representative).
    pub(crate) fn take_edge_pairs(&mut self, rep: u32) -> Option<PairSet> {
        self.edge_pairs.remove(&rep)
    }

    /// Installs a pair group at `rep`.
    pub(crate) fn put_edge_pairs(&mut self, rep: u32, pairs: PairSet) {
        self.edge_pairs.insert(rep, pairs);
    }

    /// Removes every PFG edge whose target `dead` accepts, filtering the
    /// pair groups in place: one linear scan over the pairs, with the
    /// successor rows rewritten only where a group lost pairs. `removed`
    /// sees each dropped pair; the return value is how many there were.
    pub(crate) fn remove_edges_into(
        &mut self,
        dead: impl Fn(u32) -> bool,
        mut removed: impl FnMut(u32, u32),
    ) -> u64 {
        let mut total = 0u64;
        let succ = &mut self.succ;
        self.edge_pairs.retain(|&rep, pairs| {
            let n = pairs.retain(|s, d| {
                let keep = !dead(d);
                if !keep {
                    removed(s, d);
                }
                keep
            });
            if n > 0 {
                total += n as u64;
                let kept: Vec<_> = succ
                    .take_row(rep as usize)
                    .into_iter()
                    .filter(|&(t, _)| !dead(t))
                    .collect();
                succ.extend_row(rep as usize, kept);
            }
            !pairs.is_empty()
        });
        total
    }

    /// Heap bytes of the points-to plane (`pts` + pending sets), with
    /// CoW-shared dense chunks attributed once; also counts the shared
    /// references deduplicated (see [`crate::mem`]).
    pub(crate) fn pts_account(&self) -> crate::mem::PtsAccount {
        let mut acc = crate::mem::PtsAccount::default();
        for set in self.pts.iter().chain(self.pool.iter()) {
            set.account(&mut acc);
        }
        acc
    }

    /// Heap bytes of the PFG edge storage (successor arena plus the dedup
    /// pair sets).
    pub(crate) fn edge_bytes(&self) -> u64 {
        self.succ.bytes()
            + (self.edge_pairs.capacity() * std::mem::size_of::<(u32, PairSet)>()) as u64
            + self.edge_pairs.values().map(PairSet::bytes).sum::<u64>()
    }
}

/// One compressed row table of the statement index: row `v` (a
/// variable's index) is `ids[off[v]..off[v + 1]]`, in body order.
pub(crate) struct StmtRows<T> {
    off: Vec<u32>,
    ids: Vec<T>,
}

impl<T: Copy + PartialEq> StmtRows<T> {
    /// `n` empty rows.
    fn empty(n: usize) -> Self {
        StmtRows {
            off: vec![0; n + 1],
            ids: Vec::new(),
        }
    }

    /// The ids in variable `v`'s row, in body order.
    #[inline]
    pub(crate) fn row(&self, v: VarId) -> &[T] {
        &self.ids[self.span(v)]
    }

    /// Where `v`'s row lies among the table's ids (see
    /// [`id`](Self::id)), for readers that mutate the solver between two
    /// reads of the row.
    #[inline]
    pub(crate) fn span(&self, v: VarId) -> Range<usize> {
        self.off[v.index()] as usize..self.off[v.index() + 1] as usize
    }

    /// The `i`-th id of the table.
    #[inline]
    pub(crate) fn id(&self, i: usize) -> T {
        self.ids[i]
    }

    /// Turns per-row counts (in `off[v + 1]`) into offsets and sizes
    /// `ids` for them, filled with `fill`; returns each row's write
    /// cursor.
    fn lay_out(&mut self, fill: T) -> Vec<u32> {
        for v in 1..self.off.len() {
            self.off[v] += self.off[v - 1];
        }
        self.ids = vec![fill; *self.off.last().expect("n + 1 offsets") as usize];
        self.off[..self.off.len() - 1].to_vec()
    }

    /// Rewrites the table for `n` rows (at least as many as it has) in
    /// one pass. `edits` holds `(row, id, added)`, removals first, each
    /// side in the order the delta made them: a row loses its removed ids
    /// in place and gains its added ids at its end. Rows without edits
    /// are copied as slices.
    fn patch(&mut self, n: usize, edits: &mut [(u32, T, bool)]) {
        if edits.is_empty() && n + 1 == self.off.len() {
            return;
        }
        // Stable: within a row, removals stay ahead of additions and each
        // side keeps its order.
        edits.sort_by_key(|&(row, _, _)| row);
        let rows = self.off.len() - 1;
        let mut off = Vec::with_capacity(n + 1);
        let mut ids = Vec::with_capacity(self.ids.len() + edits.len());
        off.push(0);
        let mut e = 0;
        for v in 0..n {
            let row = if v < rows {
                &self.ids[self.off[v] as usize..self.off[v + 1] as usize]
            } else {
                &[]
            };
            let first = e;
            while e < edits.len() && edits[e].0 as usize == v {
                e += 1;
            }
            let row_edits = &edits[first..e];
            if row_edits.is_empty() {
                ids.extend_from_slice(row);
            } else {
                let removed = |id: &T| row_edits.iter().any(|&(_, x, add)| !add && x == *id);
                ids.extend(row.iter().copied().filter(|id| !removed(id)));
                ids.extend(
                    row_edits
                        .iter()
                        .filter(|&&(_, _, add)| add)
                        .map(|&(_, id, _)| id),
                );
            }
            off.push(u32::try_from(ids.len()).expect("too many statements"));
        }
        self.off = off;
        self.ids = ids;
    }
}

/// Per-variable static usage index (which loads/stores/calls have the
/// variable as base/receiver), built once per solve and patched across
/// each delta an incremental re-solve rebases onto. Each kind is one
/// compressed row table ([`StmtRows`]) over the program's variables.
pub(crate) struct StmtIndex {
    pub(crate) loads: StmtRows<LoadId>,
    pub(crate) stores: StmtRows<StoreId>,
    pub(crate) calls: StmtRows<CallSiteId>,
}

/// One row entry of the index: a load by its base, a store by its base,
/// or an instance call by its receiver.
enum Use {
    Load(VarId, LoadId),
    Store(VarId, StoreId),
    Call(VarId, CallSiteId),
}

/// The index entry `stmt` makes itself (not its nested statements), if
/// any.
fn use_of(program: &Program, stmt: &Stmt) -> Option<Use> {
    match *stmt {
        Stmt::Load(id) => Some(Use::Load(program.load(id).base(), id)),
        Stmt::Store(id) => Some(Use::Store(program.store(id).base(), id)),
        Stmt::Call(id) => program.call_site(id).recv().map(|r| Use::Call(r, id)),
        _ => None,
    }
}

impl StmtIndex {
    /// Builds the index in two walks over the method bodies: one counts
    /// each row, one fills the rows in body order.
    pub(crate) fn build(program: &Program) -> Self {
        let n = program.vars().len();
        let mut idx = StmtIndex {
            loads: StmtRows::empty(n),
            stores: StmtRows::empty(n),
            calls: StmtRows::empty(n),
        };
        // Walk method *bodies*, not the site tables: a `ProgramDelta`
        // statement removal leaves its site-table entry behind as an orphan
        // (site ids are append-only), and orphaned sites must not fire. For
        // builder-produced programs the two walks are identical — site ids
        // are allocated in body order.
        let walk = |f: &mut dyn FnMut(Use)| {
            for m in program.methods() {
                m.visit_stmts(|s| {
                    if let Some(u) = use_of(program, s) {
                        f(u);
                    }
                });
            }
        };
        walk(&mut |u| match u {
            Use::Load(v, _) => idx.loads.off[v.index() + 1] += 1,
            Use::Store(v, _) => idx.stores.off[v.index() + 1] += 1,
            Use::Call(v, _) => idx.calls.off[v.index() + 1] += 1,
        });
        let mut at_load = idx.loads.lay_out(LoadId::new(0));
        let mut at_store = idx.stores.lay_out(StoreId::new(0));
        let mut at_call = idx.calls.lay_out(CallSiteId::new(0));
        fn put<T>(ids: &mut [T], at: &mut [u32], v: VarId, id: T) {
            ids[at[v.index()] as usize] = id;
            at[v.index()] += 1;
        }
        walk(&mut |u| match u {
            Use::Load(v, id) => put(&mut idx.loads.ids, &mut at_load, v, id),
            Use::Store(v, id) => put(&mut idx.stores.ids, &mut at_store, v, id),
            Use::Call(v, id) => put(&mut idx.calls.ids, &mut at_call, v, id),
        });
        idx
    }

    /// Patches an index built for a delta's base program into the index of
    /// the patched program: rows grow over the appended variables, removed
    /// statements (nested ones included) leave their rows in place, and
    /// added statements join the ends of theirs. Site ids are unique and
    /// append-only across a delta, so the result holds the same ids as a
    /// fresh [`build`](Self::build) of `patched`. Only the delta's
    /// statements are visited; each table is rewritten in one pass.
    pub(crate) fn patch(&mut self, patched: &Program, fx: &DeltaEffects) {
        let (mut loads, mut stores, mut calls) = (Vec::new(), Vec::new(), Vec::new());
        let removed = fx.removed_stmts.iter().map(|(_, s)| (s, false));
        let added = fx.added_stmts.iter().map(|(_, s)| (s, true));
        for (stmt, add) in removed.chain(added) {
            stmt.visit(&mut |s| match use_of(patched, s) {
                Some(Use::Load(v, id)) => loads.push((v.index() as u32, id, add)),
                Some(Use::Store(v, id)) => stores.push((v.index() as u32, id, add)),
                Some(Use::Call(v, id)) => calls.push((v.index() as u32, id, add)),
                None => {}
            });
        }
        let n = patched.vars().len();
        self.loads.patch(n, &mut loads);
        self.stores.patch(n, &mut stores);
        self.calls.patch(n, &mut calls);
    }
}

/// Restricts a delta to the objects assignable to `class` (`checkcast`
/// semantics).
pub(crate) fn filter_pts(
    objs: &PointsToSet,
    class: ClassId,
    obj_keys: &[(CtxId, ObjId)],
    program: &Program,
) -> PointsToSet {
    objs.iter()
        .filter(|&o| {
            let (_, obj) = obj_keys[o as usize];
            program.is_subclass(program.obj(obj).class(), class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_ir::{DeltaOp, DeltaStmt, ProgramDelta};

    #[test]
    fn patched_index_equals_rebuilt_index() {
        let base = csc_frontend::compile(
            r#"
            class A {
                A f;
                A get() { A r = this.f; return r; }
            }
            class Main {
                static void main() {
                    A a = new A();
                    A b = new A();
                    a.f = b;
                    A c = a.f;
                    a.f = c;
                    A e = a.get();
                    A d = c.f;
                }
            }
            "#,
        )
        .expect("program compiles");
        let main = base.method_by_qualified_name("Main.main").expect("main");
        let get = base.method_by_qualified_name("A.get").expect("get");
        let var = |name: &str| {
            base.method(main)
                .vars()
                .iter()
                .copied()
                .find(|&v| base.var(v).name() == name)
                .expect("variable exists")
        };
        let field = base.class(base.class_by_name("A").expect("A")).fields()[0];
        let store = base
            .method(main)
            .body()
            .iter()
            .position(|s| matches!(s, Stmt::Store(_)))
            .expect("main has a store") as u32;
        let delta = ProgramDelta {
            ops: vec![
                DeltaOp::RemoveStmt {
                    method: main,
                    index: store,
                },
                DeltaOp::AddStmt {
                    method: main,
                    stmt: DeltaStmt::Load {
                        lhs: var("d"),
                        base: var("a"),
                        field,
                    },
                },
                DeltaOp::AddStmt {
                    method: main,
                    stmt: DeltaStmt::Store {
                        base: var("a"),
                        field,
                        rhs: var("b"),
                    },
                },
                DeltaOp::AddStmt {
                    method: main,
                    stmt: DeltaStmt::Call {
                        lhs: None,
                        recv: Some(var("b")),
                        target: get,
                        args: Vec::new(),
                    },
                },
            ],
        };
        let (patched, fx) = delta.apply(&base).expect("delta applies");
        let old = StmtIndex::build(&base);
        let mut idx = StmtIndex::build(&base);
        idx.patch(&patched, &fx);

        // `a`'s rows, in order: the removed store leaves its place, and
        // the added load and store join the ends of their rows.
        let added: Vec<Stmt> = fx.added_stmts.iter().map(|(_, s)| s.clone()).collect();
        let [Stmt::Load(new_load), Stmt::Store(new_store), Stmt::Call(new_call)] = added[..] else {
            panic!("three added statements: {added:?}");
        };
        let a = var("a");
        let mut loads = old.loads.row(a).to_vec();
        loads.push(new_load);
        assert_eq!(idx.loads.row(a), loads);
        let old_stores = old.stores.row(a);
        assert_eq!(old_stores.len(), 2);
        assert_eq!(idx.stores.row(a), [old_stores[1], new_store]);
        assert_eq!(idx.calls.row(a), old.calls.row(a));
        assert_eq!(idx.calls.row(var("b")), [new_call]);

        // Every row, in order, is the rebuilt index's: a delta appends
        // its statements to the ends of method bodies, so a rebuild walks
        // them last too.
        let fresh = StmtIndex::build(&patched);
        for v in (0..patched.vars().len()).map(VarId::from_usize) {
            assert_eq!(idx.loads.row(v), fresh.loads.row(v), "loads of {v:?}");
            assert_eq!(idx.stores.row(v), fresh.stores.row(v), "stores of {v:?}");
            assert_eq!(idx.calls.row(v), fresh.calls.row(v), "calls of {v:?}");
        }
    }

    #[test]
    fn freed_pending_entry_is_reused() {
        let mut slots = Shard::default();
        for _ in 0..3 {
            slots.push();
        }
        assert!(slots.pool.is_empty(), "no slot holds a pending set yet");
        slots.pending_mut(0).insert(7);
        slots.pending_mut(1).insert(8);
        assert_eq!(slots.pool.len(), 2);
        assert_eq!(slots.take_pending(0).iter().collect::<Vec<_>>(), [7]);
        assert!(
            slots.take_pending(0).is_empty(),
            "slot 0 gave its entry back"
        );
        slots.pending_mut(2).insert(9);
        assert_eq!(slots.pool.len(), 2, "slot 2 reuses slot 0's entry");
        assert_eq!(slots.take_pending(2).iter().collect::<Vec<_>>(), [9]);
        assert_eq!(slots.take_pending(1).iter().collect::<Vec<_>>(), [8]);
        assert!(slots.pool.iter().all(PointsToSet::is_empty));
    }
}
