//! Arena-backed PFG edge storage.
//!
//! The pointer flow graph's per-source successor lists used to be one
//! `Vec<(PtrId, Option<ClassId>)>` per slot — three pointers of `Vec`
//! header per row (most rows hold zero or one edge), 12-byte entries
//! padded to 16 by the `Option<ClassId>` niche-less layout, and one heap
//! allocation per row that ever grows. At freecol/2obj scale (~3.7M edges
//! over ~84k pointers) that is death by a hundred thousand small
//! allocations.
//!
//! [`SuccTable`] replaces it with a *segment arena*: all rows share one
//! `Vec<SuccSeg>` of fixed six-entry segments chained by index, plus a
//! 12-byte [`RowMeta`] per row. Appends go to the tail segment;
//! rows cleared by SCC collapse return their segments to a freelist, so
//! condensation churn recycles instead of reallocating. Cast filters are
//! stored as a `u32` code (`0` = none, `class + 1` otherwise), which packs
//! an entry into 8 bytes.
//!
//! Segments are `Copy`: the solver's hot propagation loop walks a row by
//! *copying* one 56-byte segment at a time out of the arena (a
//! [`SuccSeg`] fetch), releasing the arena borrow before it mutates
//! pending accumulators — the arena equivalent of the old take/put split
//! borrow, without moving any storage.
//!
//! [`PairSet`] compacts the per-representative edge-dedup sets the same
//! way: a `(src, dst)` pair packs into one `u64`, small groups stay a
//! sorted inline vector, and large groups use an open-addressing table at
//! ~half the bytes-per-entry of the previous hashset of tuples.

use csc_ir::ClassId;

/// Null segment index (end of a row's chain / empty freelist).
pub(crate) const NONE: u32 = u32::MAX;

/// Entries per segment. Six 8-byte entries plus the header make a segment
/// 56 bytes — one row of edges per cache line and a bit, and small enough
/// that single-edge rows (the common case) waste at most five entries.
pub(crate) const SEG_ENTRIES: usize = 6;

/// Encodes an optional cast filter into the per-entry `u32` code.
#[inline]
pub(crate) fn encode_filter(f: Option<ClassId>) -> u32 {
    match f {
        None => 0,
        Some(c) => c.raw() + 1,
    }
}

/// Decodes a per-entry filter code.
#[inline]
pub(crate) fn decode_filter(code: u32) -> Option<ClassId> {
    if code == 0 {
        None
    } else {
        Some(ClassId::new(code - 1))
    }
}

/// One fixed-width successor segment: up to [`SEG_ENTRIES`] edges as
/// `(dst, filter code)` pairs, chained by arena index.
#[derive(Copy, Clone)]
pub(crate) struct SuccSeg {
    pub(crate) entries: [(u32, u32); SEG_ENTRIES],
    pub(crate) len: u32,
    pub(crate) next: u32,
}

impl SuccSeg {
    #[inline]
    fn empty() -> Self {
        SuccSeg {
            entries: [(0, 0); SEG_ENTRIES],
            len: 0,
            next: NONE,
        }
    }
}

/// Per-row chain bookkeeping: first and last segment plus the edge count.
#[derive(Copy, Clone)]
struct RowMeta {
    head: u32,
    tail: u32,
    len: u32,
}

impl RowMeta {
    #[inline]
    fn empty() -> Self {
        RowMeta {
            head: NONE,
            tail: NONE,
            len: 0,
        }
    }
}

/// The successor-edge arena: one segment pool shared by all rows.
pub(crate) struct SuccTable {
    rows: Vec<RowMeta>,
    segs: Vec<SuccSeg>,
    /// Head of the freed-segment chain (linked through `SuccSeg::next`).
    free: u32,
}

impl Default for SuccTable {
    fn default() -> Self {
        SuccTable {
            rows: Vec::new(),
            segs: Vec::new(),
            free: NONE,
        }
    }
}

impl SuccTable {
    /// Appends one empty row (paired with the slot plane's `pts` rows).
    #[inline]
    pub(crate) fn push_row(&mut self) {
        self.rows.push(RowMeta::empty());
    }

    /// Number of edges in `row`.
    #[inline]
    pub(crate) fn row_len(&self, row: usize) -> usize {
        self.rows[row].len as usize
    }

    /// First segment index of `row`'s chain ([`NONE`] when empty).
    #[inline]
    pub(crate) fn head(&self, row: usize) -> u32 {
        self.rows[row].head
    }

    /// Fetches segment `idx` *by value* — the cursor step that lets a
    /// caller walk a row while mutating everything else in the slot plane.
    #[inline]
    pub(crate) fn seg(&self, idx: u32) -> SuccSeg {
        self.segs[idx as usize]
    }

    fn alloc_seg(&mut self) -> u32 {
        if self.free != NONE {
            let idx = self.free;
            self.free = self.segs[idx as usize].next;
            self.segs[idx as usize] = SuccSeg::empty();
            return idx;
        }
        let idx = u32::try_from(self.segs.len()).expect("segment count fits u32");
        assert!(idx != NONE, "segment arena full");
        self.segs.push(SuccSeg::empty());
        idx
    }

    /// Appends one edge to `row`.
    pub(crate) fn push_entry(&mut self, row: usize, dst: u32, filter: Option<ClassId>) {
        let code = encode_filter(filter);
        let meta = self.rows[row];
        let tail = if meta.tail == NONE || self.segs[meta.tail as usize].len as usize == SEG_ENTRIES
        {
            let idx = self.alloc_seg();
            if meta.tail == NONE {
                self.rows[row].head = idx;
            } else {
                self.segs[meta.tail as usize].next = idx;
            }
            self.rows[row].tail = idx;
            idx
        } else {
            meta.tail
        };
        let seg = &mut self.segs[tail as usize];
        seg.entries[seg.len as usize] = (dst, code);
        seg.len += 1;
        self.rows[row].len += 1;
    }

    /// Iterates `row`'s edges in insertion order (borrowing the table —
    /// use the [`head`](Self::head)/[`seg`](Self::seg) cursor when the
    /// slot plane must be mutated mid-walk).
    pub(crate) fn iter_row(&self, row: usize) -> SuccIter<'_> {
        SuccIter {
            table: self,
            seg: self.rows[row].head,
            at: 0,
        }
    }

    /// Clears `row`, returning its segments to the freelist.
    pub(crate) fn clear_row(&mut self, row: usize) {
        let meta = std::mem::replace(&mut self.rows[row], RowMeta::empty());
        if meta.head == NONE {
            return;
        }
        // Splice the whole chain onto the freelist in one step.
        self.segs[meta.tail as usize].next = self.free;
        self.free = meta.head;
    }

    /// Removes and returns `row`'s edges as a vector (the cold-path form
    /// of take/put: SCC collapse and reconciliation rebuild rows wholesale).
    pub(crate) fn take_row(&mut self, row: usize) -> Vec<(PtrIdRaw, Option<ClassId>)> {
        let out: Vec<_> = self.iter_row(row).collect();
        self.clear_row(row);
        out
    }

    /// Appends a batch of edges to `row`.
    pub(crate) fn extend_row<I: IntoIterator<Item = (u32, Option<ClassId>)>>(
        &mut self,
        row: usize,
        edges: I,
    ) {
        for (d, f) in edges {
            self.push_entry(row, d, f);
        }
    }

    /// Heap bytes owned by the arena (segments + row metadata), counting
    /// freelisted segments too — they are real resident memory.
    pub(crate) fn bytes(&self) -> u64 {
        (self.rows.capacity() * std::mem::size_of::<RowMeta>()
            + self.segs.capacity() * std::mem::size_of::<SuccSeg>()) as u64
    }
}

/// Raw `u32` destination id (the caller wraps it into `PtrId`).
pub(crate) type PtrIdRaw = u32;

/// Borrowing iterator over one row's edges.
pub(crate) struct SuccIter<'a> {
    table: &'a SuccTable,
    seg: u32,
    at: usize,
}

impl Iterator for SuccIter<'_> {
    type Item = (u32, Option<ClassId>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while self.seg != NONE {
            let seg = &self.table.segs[self.seg as usize];
            if self.at < seg.len as usize {
                let (d, code) = seg.entries[self.at];
                self.at += 1;
                return Some((d, decode_filter(code)));
            }
            self.seg = seg.next;
            self.at = 0;
        }
        None
    }
}

/// Packs a `(src, dst)` edge-endpoint pair into one `u64`.
#[inline]
fn pack(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

#[inline]
fn unpack(p: u64) -> (u32, u32) {
    ((p >> 32) as u32, p as u32)
}

/// Open-addressing sentinels. Both decode to `src == u32::MAX`, which is
/// the solver's reserved `ABSENT` id and never a real edge endpoint.
const EMPTY: u64 = u64::MAX;
const TOMB: u64 = u64::MAX - 1;

/// Pairs kept in the sorted inline vector before promoting to a table.
const PAIR_SMALL_MAX: usize = 16;

#[inline]
fn pair_hash(p: u64) -> usize {
    // fx-style multiply then fold the high half down: the multiply mixes
    // low bits upward, so the high half is the well-mixed one.
    let h = p.wrapping_mul(0x517c_c1b7_2722_0a95);
    (h ^ (h >> 32)) as usize
}

/// A set of PFG edge pairs `(src, dst)`, packed to 8 bytes per entry:
/// sorted inline vector while small, linear-probe open addressing past
/// [`PAIR_SMALL_MAX`].
#[derive(Clone)]
pub(crate) enum PairSet {
    /// Sorted packed pairs.
    Small(Vec<u64>),
    /// Open-addressing table (power-of-two capacity).
    Table {
        slots: Vec<u64>,
        len: u32,
        /// Occupied-or-tombstoned slots (drives the growth trigger).
        used: u32,
    },
}

impl Default for PairSet {
    fn default() -> Self {
        PairSet::Small(Vec::new())
    }
}

impl PairSet {
    /// Number of pairs.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            PairSet::Small(v) => v.len(),
            PairSet::Table { len, .. } => *len as usize,
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test. Only the tests ask: the solver deduplicates
    /// through [`insert`](Self::insert)'s answer.
    #[cfg(test)]
    pub(crate) fn contains(&self, src: u32, dst: u32) -> bool {
        let p = pack(src, dst);
        match self {
            PairSet::Small(v) => v.binary_search(&p).is_ok(),
            PairSet::Table { slots, .. } => {
                let mask = slots.len() - 1;
                let mut i = pair_hash(p) & mask;
                loop {
                    match slots[i] {
                        EMPTY => return false,
                        x if x == p => return true,
                        _ => i = (i + 1) & mask,
                    }
                }
            }
        }
    }

    /// Inserts a pair; returns whether it was new.
    pub(crate) fn insert(&mut self, src: u32, dst: u32) -> bool {
        debug_assert!(src != u32::MAX, "ABSENT is not a valid edge source");
        let p = pack(src, dst);
        match self {
            PairSet::Small(v) => match v.binary_search(&p) {
                Ok(_) => false,
                Err(i) => {
                    v.insert(i, p);
                    if v.len() > PAIR_SMALL_MAX {
                        *self = Self::table_from(v);
                    }
                    true
                }
            },
            PairSet::Table { slots, len, used } => {
                // Grow at 7/8 load (counting tombstones — probe chains run
                // through them).
                if (*used as usize + 1) * 8 >= slots.len() * 7 {
                    let pairs: Vec<u64> = slots
                        .iter()
                        .copied()
                        .filter(|&x| x != EMPTY && x != TOMB)
                        .collect();
                    let cap = (pairs.len().max(8) * 2).next_power_of_two();
                    let mut fresh = vec![EMPTY; cap];
                    for &x in &pairs {
                        Self::raw_insert(&mut fresh, x);
                    }
                    *slots = fresh;
                    *used = *len;
                }
                let mask = slots.len() - 1;
                let mut i = pair_hash(p) & mask;
                let mut slot = None;
                loop {
                    match slots[i] {
                        EMPTY => {
                            let at = slot.unwrap_or(i);
                            if slots[at] == EMPTY {
                                *used += 1;
                            }
                            slots[at] = p;
                            *len += 1;
                            return true;
                        }
                        TOMB => {
                            // Remember the first tombstone, keep probing in
                            // case the pair exists further along.
                            if slot.is_none() {
                                slot = Some(i);
                            }
                            i = (i + 1) & mask;
                        }
                        x if x == p => return false,
                        _ => i = (i + 1) & mask,
                    }
                }
            }
        }
    }

    /// Keeps only the pairs `keep` accepts, in place (tabled sets leave
    /// tombstones); returns how many were removed.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u32, u32) -> bool) -> usize {
        match self {
            PairSet::Small(v) => {
                let before = v.len();
                v.retain(|&p| {
                    let (s, d) = unpack(p);
                    keep(s, d)
                });
                before - v.len()
            }
            PairSet::Table { slots, len, .. } => {
                let mut removed = 0;
                for x in slots.iter_mut() {
                    if *x != EMPTY && *x != TOMB {
                        let (s, d) = unpack(*x);
                        if !keep(s, d) {
                            *x = TOMB;
                            removed += 1;
                        }
                    }
                }
                *len -= removed as u32;
                removed
            }
        }
    }

    /// Iterates the pairs (deterministic for a given insertion history:
    /// sorted while small, slot order once tabled).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (small, table): (&[u64], &[u64]) = match self {
            PairSet::Small(v) => (v.as_slice(), &[]),
            PairSet::Table { slots, .. } => (&[], slots.as_slice()),
        };
        small
            .iter()
            .copied()
            .chain(table.iter().copied().filter(|&x| x != EMPTY && x != TOMB))
            .map(unpack)
    }

    /// Merges another set in (condensation epochs fold merged members'
    /// groups onto the surviving representative).
    pub(crate) fn merge(&mut self, other: &PairSet) {
        for (s, d) in other.iter() {
            self.insert(s, d);
        }
    }

    /// Heap bytes owned.
    pub(crate) fn bytes(&self) -> u64 {
        (match self {
            PairSet::Small(v) => v.capacity(),
            PairSet::Table { slots, .. } => slots.capacity(),
        } * std::mem::size_of::<u64>()) as u64
    }

    fn table_from(v: &[u64]) -> PairSet {
        let cap = (v.len().max(8) * 2).next_power_of_two();
        let mut slots = vec![EMPTY; cap];
        for &p in v {
            Self::raw_insert(&mut slots, p);
        }
        PairSet::Table {
            slots,
            len: v.len() as u32,
            used: v.len() as u32,
        }
    }

    /// Inserts into a fresh (tombstone-free) slot array.
    fn raw_insert(slots: &mut [u64], p: u64) {
        let mask = slots.len() - 1;
        let mut i = pair_hash(p) & mask;
        while slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        slots[i] = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succ_table_push_iter_clear() {
        let mut t = SuccTable::default();
        t.push_row();
        t.push_row();
        for d in 0..20u32 {
            t.push_entry(
                0,
                d,
                if d % 3 == 0 {
                    Some(ClassId::new(d))
                } else {
                    None
                },
            );
        }
        t.push_entry(1, 99, None);
        assert_eq!(t.row_len(0), 20);
        let got: Vec<_> = t.iter_row(0).collect();
        assert_eq!(got.len(), 20);
        for (i, &(d, f)) in got.iter().enumerate() {
            assert_eq!(d, i as u32);
            assert_eq!(
                f,
                if d % 3 == 0 {
                    Some(ClassId::new(d))
                } else {
                    None
                }
            );
        }
        assert_eq!(t.iter_row(1).collect::<Vec<_>>(), vec![(99, None)]);
        // Clearing recycles segments: the next pushes reuse them.
        let segs_before = t.segs.len();
        t.clear_row(0);
        assert_eq!(t.row_len(0), 0);
        assert_eq!(t.iter_row(0).count(), 0);
        for d in 0..20u32 {
            t.push_entry(0, d + 100, None);
        }
        assert_eq!(t.segs.len(), segs_before, "freelist reuse, no new segments");
        assert_eq!(t.iter_row(0).count(), 20);
        assert_eq!(t.iter_row(1).collect::<Vec<_>>(), vec![(99, None)]);
    }

    #[test]
    fn succ_table_take_row_roundtrip() {
        let mut t = SuccTable::default();
        t.push_row();
        t.extend_row(0, (0..10u32).map(|d| (d, None)));
        let taken = t.take_row(0);
        assert_eq!(taken.len(), 10);
        assert_eq!(t.row_len(0), 0);
        t.extend_row(0, taken.iter().map(|&(d, f)| (d, f)));
        assert_eq!(t.iter_row(0).count(), 10);
    }

    #[test]
    fn pair_set_insert_contains_remove() {
        let mut s = PairSet::default();
        // Through the small tier and past promotion.
        for i in 0..200u32 {
            assert!(s.insert(i * 7, i * 13 + 1));
            assert!(!s.insert(i * 7, i * 13 + 1));
        }
        assert_eq!(s.len(), 200);
        assert!(matches!(s, PairSet::Table { .. }));
        for i in 0..200u32 {
            assert!(s.contains(i * 7, i * 13 + 1));
        }
        assert!(!s.contains(3, 3));
        assert_eq!(s.retain(|a, b| (a, b) != (7, 14)), 1);
        assert_eq!(s.retain(|a, b| (a, b) != (7, 14)), 0);
        assert!(!s.contains(7, 14));
        assert_eq!(s.len(), 199);
        // Reinsert over the tombstone.
        assert!(s.insert(7, 14));
        assert_eq!(s.len(), 200);
        let mut collected: Vec<_> = s.iter().collect();
        collected.sort_unstable();
        let mut expect: Vec<_> = (0..200u32).map(|i| (i * 7, i * 13 + 1)).collect();
        expect.sort_unstable();
        assert_eq!(collected, expect);
    }

    #[test]
    fn pair_set_tombstone_churn_keeps_probing_sound() {
        let mut s = PairSet::default();
        for round in 0..50u32 {
            for i in 0..40u32 {
                s.insert(round, i);
            }
            assert_eq!(s.retain(|src, _| src != round), 40);
        }
        assert!(s.is_empty());
        assert!(s.insert(1, 1));
        assert!(s.contains(1, 1));
    }

    #[test]
    fn pair_set_merge() {
        let mut a = PairSet::default();
        a.insert(1, 2);
        let mut b = PairSet::default();
        for i in 0..30u32 {
            b.insert(i, i);
        }
        a.merge(&b);
        assert_eq!(a.len(), 31);
        assert!(a.contains(1, 2));
        assert!(a.contains(29, 29));
    }

    #[test]
    fn pair_set_retain_in_both_tiers() {
        for n in [10u32, 100] {
            let mut s = PairSet::default();
            for i in 0..n {
                s.insert(i, i % 3);
            }
            assert_eq!(s.retain(|_, d| d != 0), n.div_ceil(3) as usize);
            assert_eq!(s.len(), (n - n.div_ceil(3)) as usize);
            assert!(s.iter().all(|(_, d)| d != 0));
            assert!(!s.contains(0, 0));
            assert!(s.contains(1, 1));
            // Reinsert over the tombstones.
            assert!(s.insert(0, 0));
            assert!(s.contains(0, 0));
        }
    }
}
