//! The pointer-slot plane, the statement index, and the cast filter.
//!
//! [`Shard`] holds the per-pointer data the solver's worklist loop
//! touches on every step: the points-to set, the pending-delta
//! accumulator, the successor row, and the PFG edge-dedup group of every
//! interned pointer. Slot `i` is row `i` of each table, so a pointer id
//! indexes its slot directly.
//!
//! [`StmtIndex`] maps each variable to the loads, stores, and instance
//! calls that use it as base or receiver; it is built once per solve,
//! patched by each incremental re-solve, and read by the
//! `[Load]`/`[Store]`/`[Call]` rules.

use csc_ir::{CallSiteId, ClassId, DeltaEffects, LoadId, ObjId, Program, StoreId};

use crate::arena::{PairSet, SuccTable};
use crate::context::CtxId;
use crate::fx::FxHashMap;
use crate::pts::PointsToSet;
use crate::solver::PtrId;

/// The pointer-slot plane: the points-to sets, pending accumulators,
/// successor lists, and PFG edge-dedup sets of every interned pointer,
/// one row per slot id.
#[derive(Default)]
pub(crate) struct Shard {
    /// Points-to sets (live at SCC representatives; merged members keep
    /// an empty row).
    pts: Vec<PointsToSet>,
    /// Batched worklist accumulators, paired 1:1 with `pts`.
    pending: Vec<PointsToSet>,
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
        self.pending.push(PointsToSet::new());
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

    /// Mutable pending accumulator of slot `i`.
    #[inline]
    pub(crate) fn pending_mut(&mut self, i: u32) -> &mut PointsToSet {
        &mut self.pending[i as usize]
    }

    /// Takes slot `i`'s pending accumulator out, leaving it empty.
    #[inline]
    pub(crate) fn take_pending(&mut self, i: u32) -> PointsToSet {
        std::mem::take(self.pending_mut(i))
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

    /// Heap bytes of the points-to plane (`pts` + `pending` sets), with
    /// CoW-shared dense chunks attributed once; also counts the shared
    /// references deduplicated (see [`crate::mem`]).
    pub(crate) fn pts_account(&self) -> crate::mem::PtsAccount {
        let mut acc = crate::mem::PtsAccount::default();
        for set in self.pts.iter().chain(self.pending.iter()) {
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

/// Per-variable static usage index (which loads/stores/calls have the
/// variable as base/receiver), built once per solve and patched across
/// each delta an incremental re-solve rebases onto.
#[derive(Default)]
pub(crate) struct StmtIndex {
    pub(crate) loads_with_base: Vec<Vec<LoadId>>,
    pub(crate) stores_with_base: Vec<Vec<StoreId>>,
    pub(crate) calls_with_recv: Vec<Vec<CallSiteId>>,
}

impl StmtIndex {
    pub(crate) fn build(program: &Program) -> Self {
        let n = program.vars().len();
        let mut idx = StmtIndex {
            loads_with_base: vec![Vec::new(); n],
            stores_with_base: vec![Vec::new(); n],
            calls_with_recv: vec![Vec::new(); n],
        };
        // Walk method *bodies*, not the site tables: a `ProgramDelta`
        // statement removal leaves its site-table entry behind as an orphan
        // (site ids are append-only), and orphaned sites must not fire. For
        // builder-produced programs the two walks are identical — site ids
        // are allocated in body order.
        for m in program.methods() {
            m.visit_stmts(|s| match s {
                csc_ir::Stmt::Load(id) => {
                    idx.loads_with_base[program.load(*id).base().index()].push(*id);
                }
                csc_ir::Stmt::Store(id) => {
                    idx.stores_with_base[program.store(*id).base().index()].push(*id);
                }
                csc_ir::Stmt::Call(id) => {
                    if let Some(r) = program.call_site(*id).recv() {
                        idx.calls_with_recv[r.index()].push(*id);
                    }
                }
                _ => {}
            });
        }
        idx
    }

    /// Patches an index built for a delta's base program into the index of
    /// the patched program: rows grow over the appended variables, removed
    /// statements (nested ones included) leave their rows, and added
    /// statements join them. Site ids are unique and append-only across a
    /// delta, so the result holds the same ids as a fresh
    /// [`build`](Self::build) of `patched`, at a cost in the delta's size.
    pub(crate) fn patch(&mut self, patched: &Program, fx: &DeltaEffects) {
        fn edit<T: Copy + PartialEq>(row: &mut Vec<T>, id: T, add: bool) {
            if add {
                row.push(id);
            } else {
                row.retain(|&x| x != id);
            }
        }
        let n = patched.vars().len();
        self.loads_with_base.resize(n, Vec::new());
        self.stores_with_base.resize(n, Vec::new());
        self.calls_with_recv.resize(n, Vec::new());
        let removed = fx.removed_stmts.iter().map(|(_, s)| (s, false));
        let added = fx.added_stmts.iter().map(|(_, s)| (s, true));
        for (stmt, add) in removed.chain(added) {
            stmt.visit(&mut |s| match s {
                csc_ir::Stmt::Load(id) => {
                    let base = patched.load(*id).base().index();
                    edit(&mut self.loads_with_base[base], *id, add);
                }
                csc_ir::Stmt::Store(id) => {
                    let base = patched.store(*id).base().index();
                    edit(&mut self.stores_with_base[base], *id, add);
                }
                csc_ir::Stmt::Call(id) => {
                    if let Some(r) = patched.call_site(*id).recv() {
                        edit(&mut self.calls_with_recv[r.index()], *id, add);
                    }
                }
                _ => {}
            });
        }
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
    use csc_ir::{DeltaOp, DeltaStmt, ProgramDelta, Stmt};

    /// Index rows with each row sorted (patching appends where a rebuild
    /// walks bodies in order; the rows hold the same ids).
    fn sorted<T: Copy + Ord>(rows: &[Vec<T>]) -> Vec<Vec<T>> {
        rows.iter()
            .map(|r| {
                let mut r = r.clone();
                r.sort_unstable();
                r
            })
            .collect()
    }

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
                    A c = a.get();
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
                        base: var("b"),
                        field,
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
        let mut idx = StmtIndex::build(&base);
        idx.patch(&patched, &fx);
        let fresh = StmtIndex::build(&patched);
        assert_eq!(sorted(&idx.loads_with_base), sorted(&fresh.loads_with_base));
        assert_eq!(
            sorted(&idx.stores_with_base),
            sorted(&fresh.stores_with_base)
        );
        assert_eq!(sorted(&idx.calls_with_recv), sorted(&fresh.calls_with_recv));
    }
}
