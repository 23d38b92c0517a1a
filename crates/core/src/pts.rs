//! Points-to sets.
//!
//! A [`PointsToSet`] is a set of dense u32 ids (context-sensitive abstract
//! objects, [`crate::solver::CsObjId`]) with a *hybrid* representation:
//! small sets are sorted vectors (cache-friendly, cheap to clone while the
//! vast majority of pointers stay small), and sets that grow past
//! `SMALL_MAX` (64) elements promote to a **chunked** representation whose
//! footprint is proportional to the id *ranges* the set actually touches,
//! not to the global id space: elements are keyed by their high bits
//! (`id >> 12`) into fixed-width chunks of 4096 ids each, and every chunk
//! is itself hybrid — a sorted vector of 16-bit low halves below
//! `SPARSE_MAX` (128) elements, a fixed 64-word dense block above it.
//!
//! Dense blocks are shared copy-on-write via [`Arc`]: cloning a set (or
//! unioning a set into one that lacks the chunk entirely — the shape of
//! 2obj's per-context duplicates of one base set) bumps a refcount instead
//! of copying 512 bytes, and the first mutation of a shared block clones it
//! ([`Arc::make_mut`]).
//!
//! The solver propagates *deltas*: [`PointsToSet::union_delta`] merges a set
//! in and returns exactly the elements that were new, which is what gets
//! pushed further along pointer-flow-graph edges. Every representation
//! preserves the exact-delta contract, and iteration is always in ascending
//! id order regardless of representation.

use std::fmt;
use std::sync::Arc;

/// Elements before a small sorted vector promotes to the chunked
/// representation.
///
/// 64 keeps every small set within a few cache lines while bounding the
/// quadratic insertion-sort regime; beyond it, word-parallel unions win
/// decisively.
const SMALL_MAX: usize = 64;

/// Low bits of an id addressing within a chunk; a chunk covers
/// `1 << CHUNK_BITS` = 4096 consecutive ids, so low halves fit `u16` and a
/// dense block is exactly [`CHUNK_WORDS`] words.
const CHUNK_BITS: u32 = 12;

/// Mask selecting the within-chunk bits of an id.
const CHUNK_MASK: u32 = (1 << CHUNK_BITS) - 1;

/// 64-bit words per dense chunk block (4096 bits, 512 bytes).
const CHUNK_WORDS: usize = 64;

/// Elements before a sparse chunk densifies. At 128 a sparse chunk costs
/// up to 256 bytes — half a dense block — so chunk footprint stays within
/// 2× of optimal while densification still happens early enough for the
/// word-parallel union kernel to carry the hot chunks.
const SPARSE_MAX: usize = 128;

/// One 4096-id chunk: sparse sorted low halves below [`SPARSE_MAX`], a
/// copy-on-write dense block above it.
#[derive(Clone)]
enum Chunk {
    /// Sorted, deduplicated within-chunk offsets.
    Sparse(Vec<u16>),
    /// Fixed 64-word bit block, shared CoW across sets. `len` (the cached
    /// popcount) lives outside the `Arc` so sharing never couples two
    /// sets' bookkeeping; it is only valid together with the block it was
    /// computed from, which clone-on-write preserves.
    Dense {
        words: Arc<[u64; CHUNK_WORDS]>,
        len: u32,
    },
}

impl Chunk {
    fn len(&self) -> usize {
        match self {
            Chunk::Sparse(v) => v.len(),
            Chunk::Dense { len, .. } => *len as usize,
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Chunk::Sparse(v) => v.binary_search(&low).is_ok(),
            Chunk::Dense { words, .. } => words[(low >> 6) as usize] & (1u64 << (low & 63)) != 0,
        }
    }

    /// Inserts a within-chunk offset; returns whether it was new.
    fn insert(&mut self, low: u16) -> bool {
        match self {
            Chunk::Sparse(v) => match v.binary_search(&low) {
                Ok(_) => false,
                Err(i) => {
                    v.insert(i, low);
                    if v.len() > SPARSE_MAX {
                        *self = Chunk::densify(v);
                    }
                    true
                }
            },
            Chunk::Dense { words, len } => {
                let w = (low >> 6) as usize;
                let mask = 1u64 << (low & 63);
                if words[w] & mask != 0 {
                    return false;
                }
                Arc::make_mut(words)[w] |= mask;
                *len += 1;
                true
            }
        }
    }

    /// Builds a dense block from sorted offsets (the block is a fixed
    /// array, so densification never resizes).
    fn densify(sorted: &[u16]) -> Chunk {
        let mut words = [0u64; CHUNK_WORDS];
        for &l in sorted {
            words[(l >> 6) as usize] |= 1u64 << (l & 63);
        }
        Chunk::Dense {
            words: Arc::new(words),
            len: sorted.len() as u32,
        }
    }

    /// Appends every element (with `base` added back) to `out`, ascending.
    fn push_all(&self, base: u32, out: &mut Vec<u32>) {
        match self {
            Chunk::Sparse(v) => out.extend(v.iter().map(|&l| base | l as u32)),
            Chunk::Dense { words, .. } => {
                for (w, &word) in words.iter().enumerate() {
                    let mut cur = word;
                    while cur != 0 {
                        let bit = cur.trailing_zeros();
                        cur &= cur - 1;
                        out.push(base | (w as u32 * 64 + bit));
                    }
                }
            }
        }
    }

    /// Whether every element of `self` is in `other` (same chunk key).
    fn is_subset(&self, other: &Chunk) -> bool {
        if self.len() > other.len() {
            return false;
        }
        match (self, other) {
            (Chunk::Sparse(a), Chunk::Sparse(b)) => {
                // Merge walk over two sorted slices.
                let mut j = 0usize;
                for &l in a {
                    while j < b.len() && b[j] < l {
                        j += 1;
                    }
                    if j >= b.len() || b[j] != l {
                        return false;
                    }
                }
                true
            }
            (Chunk::Sparse(a), Chunk::Dense { words, .. }) => a
                .iter()
                .all(|&l| words[(l >> 6) as usize] & (1u64 << (l & 63)) != 0),
            (Chunk::Dense { words: a, .. }, Chunk::Dense { words: b, .. }) => {
                Arc::ptr_eq(a, b) || a.iter().zip(b.iter()).all(|(&x, &y)| x & !y == 0)
            }
            // A dense chunk always holds more than SPARSE_MAX elements, so
            // the len guard above already rejected this pairing.
            (Chunk::Dense { .. }, Chunk::Sparse(_)) => false,
        }
    }

    /// Whether the two chunks (same key) share at least one element.
    fn intersects(&self, other: &Chunk) -> bool {
        match (self, other) {
            (Chunk::Sparse(a), Chunk::Sparse(b)) => {
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
            (Chunk::Dense { words: a, .. }, Chunk::Dense { words: b, .. }) => {
                Arc::ptr_eq(a, b) || a.iter().zip(b.iter()).any(|(&x, &y)| x & y != 0)
            }
            (Chunk::Sparse(v), Chunk::Dense { words, .. })
            | (Chunk::Dense { words, .. }, Chunk::Sparse(v)) => v
                .iter()
                .any(|&l| words[(l >> 6) as usize] & (1u64 << (l & 63)) != 0),
        }
    }

    /// Heap bytes owned by this chunk, counting a dense block in full
    /// regardless of sharing (see [`PointsToSet::account`] for the
    /// sharing-aware variant).
    fn heap_bytes(&self) -> usize {
        match self {
            Chunk::Sparse(v) => v.capacity() * std::mem::size_of::<u16>(),
            Chunk::Dense { .. } => std::mem::size_of::<[u64; CHUNK_WORDS]>(),
        }
    }
}

/// The chunked large representation: parallel sorted chunk-key / chunk
/// vectors plus a cached total element count.
#[derive(Clone, Default)]
struct ChunkedSet {
    /// Sorted high halves (`id >> CHUNK_BITS`) of the occupied chunks.
    keys: Vec<u32>,
    /// Chunk payloads, parallel to `keys`.
    chunks: Vec<Chunk>,
    len: u32,
}

impl ChunkedSet {
    /// Builds from an ascending, deduplicated element slice.
    fn from_sorted(elems: &[u32]) -> Self {
        let mut set = ChunkedSet::default();
        let mut i = 0usize;
        while i < elems.len() {
            let key = elems[i] >> CHUNK_BITS;
            let mut j = i + 1;
            while j < elems.len() && elems[j] >> CHUNK_BITS == key {
                j += 1;
            }
            let run = &elems[i..j];
            let chunk = if run.len() > SPARSE_MAX {
                let mut words = [0u64; CHUNK_WORDS];
                for &e in run {
                    let l = e & CHUNK_MASK;
                    words[(l >> 6) as usize] |= 1u64 << (l & 63);
                }
                Chunk::Dense {
                    words: Arc::new(words),
                    len: run.len() as u32,
                }
            } else {
                Chunk::Sparse(run.iter().map(|&e| (e & CHUNK_MASK) as u16).collect())
            };
            set.keys.push(key);
            set.chunks.push(chunk);
            i = j;
        }
        set.len = elems.len() as u32;
        set
    }

    fn contains(&self, e: u32) -> bool {
        match self.keys.binary_search(&(e >> CHUNK_BITS)) {
            Ok(i) => self.chunks[i].contains((e & CHUNK_MASK) as u16),
            Err(_) => false,
        }
    }

    fn insert(&mut self, e: u32) -> bool {
        let key = e >> CHUNK_BITS;
        let low = (e & CHUNK_MASK) as u16;
        match self.keys.binary_search(&key) {
            Ok(i) => {
                let added = self.chunks[i].insert(low);
                if added {
                    self.len += 1;
                }
                added
            }
            Err(i) => {
                self.keys.insert(i, key);
                self.chunks.insert(i, Chunk::Sparse(vec![low]));
                self.len += 1;
                true
            }
        }
    }

    fn iter(&self) -> ChunkedIter<'_> {
        ChunkedIter {
            keys: &self.keys,
            chunks: &self.chunks,
            ci: 0,
            sp: 0,
            wi: 0,
            cur: match self.chunks.first() {
                Some(Chunk::Dense { words, .. }) => words[0],
                _ => 0,
            },
        }
    }

    fn is_subset(&self, other: &ChunkedSet) -> bool {
        let mut j = 0usize;
        for (i, &key) in self.keys.iter().enumerate() {
            while j < other.keys.len() && other.keys[j] < key {
                j += 1;
            }
            if j >= other.keys.len() || other.keys[j] != key {
                return false;
            }
            if !self.chunks[i].is_subset(&other.chunks[j]) {
                return false;
            }
        }
        true
    }

    fn intersects(&self, other: &ChunkedSet) -> bool {
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if self.chunks[i].intersects(&other.chunks[j]) {
                        return true;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        false
    }

    /// Merges `other` in; pushes new elements (ascending) into `delta`
    /// when supplied; returns whether the set changed. Chunks `other` has
    /// and `self` lacks are *shared*, not copied: a dense block comes over
    /// as an `Arc` clone, which is what makes context-copied sets cost one
    /// refcount until they diverge.
    fn union_from(&mut self, other: &ChunkedSet, mut delta: Option<&mut Vec<u32>>) -> bool {
        let mut changed = false;
        let mut i = 0usize;
        for (j, &key) in other.keys.iter().enumerate() {
            while i < self.keys.len() && self.keys[i] < key {
                i += 1;
            }
            let base = key << CHUNK_BITS;
            if i < self.keys.len() && self.keys[i] == key {
                let added = union_chunk(
                    &mut self.chunks[i],
                    &other.chunks[j],
                    base,
                    delta.as_deref_mut(),
                );
                if added != 0 {
                    self.len += added;
                    changed = true;
                }
            } else {
                let chunk = other.chunks[j].clone();
                if let Some(d) = delta.as_deref_mut() {
                    chunk.push_all(base, d);
                }
                self.len += chunk.len() as u32;
                self.keys.insert(i, key);
                self.chunks.insert(i, chunk);
                changed = true;
                i += 1;
            }
        }
        changed
    }

    /// Heap bytes owned (sharing-blind; see [`PointsToSet::account`]).
    fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk>()
            + self.chunks.iter().map(Chunk::heap_bytes).sum::<usize>()
    }
}

/// Pushes the elements of `words` that are *not* in the sorted offset
/// slice `skip` into `delta`, ascending, with `base` added back.
fn dense_minus_sparse(words: &[u64; CHUNK_WORDS], skip: &[u16], base: u32, delta: &mut Vec<u32>) {
    let mut s = 0usize;
    for (w, &word) in words.iter().enumerate() {
        let mut cur = word;
        while cur != 0 {
            let bit = cur.trailing_zeros();
            cur &= cur - 1;
            let low = (w as u32 * 64 + bit) as u16;
            while s < skip.len() && skip[s] < low {
                s += 1;
            }
            if s < skip.len() && skip[s] == low {
                continue;
            }
            delta.push(base | low as u32);
        }
    }
}

/// Merges `other` into the same-key chunk `dst`; returns the number of
/// elements added (pushed ascending into `delta` when supplied).
///
/// Dense ∪ dense preserves the eight-word autovectorized or-and-popcount
/// inner loop on the widen-only path, and re-shares the block (`Arc`
/// clone) whenever `dst`'s contents turn out to be a subset of `other`'s —
/// converged chunks deduplicate back to one allocation.
fn union_chunk(dst: &mut Chunk, other: &Chunk, base: u32, delta: Option<&mut Vec<u32>>) -> u32 {
    match (&mut *dst, other) {
        (Chunk::Sparse(sv), Chunk::Sparse(ov)) => {
            let mut merged = Vec::with_capacity(sv.len() + ov.len());
            let (mut i, mut j) = (0usize, 0usize);
            let mut added = 0u32;
            let mut d = delta;
            while i < sv.len() && j < ov.len() {
                match sv[i].cmp(&ov[j]) {
                    std::cmp::Ordering::Less => {
                        merged.push(sv[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(ov[j]);
                        if let Some(d) = d.as_deref_mut() {
                            d.push(base | ov[j] as u32);
                        }
                        added += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(sv[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            merged.extend_from_slice(&sv[i..]);
            for &l in &ov[j..] {
                merged.push(l);
                if let Some(d) = d.as_deref_mut() {
                    d.push(base | l as u32);
                }
                added += 1;
            }
            if merged.len() > SPARSE_MAX {
                *dst = Chunk::densify(&merged);
            } else {
                *sv = merged;
            }
            added
        }
        (Chunk::Sparse(sv), Chunk::Dense { words, len }) => {
            let all_in = sv
                .iter()
                .all(|&l| words[(l >> 6) as usize] & (1u64 << (l & 63)) != 0);
            if let Some(d) = delta {
                dense_minus_sparse(words, sv, base, d);
            }
            if all_in {
                // `dst` ⊆ `other`: share the block instead of copying it.
                let added = *len - sv.len() as u32;
                *dst = Chunk::Dense {
                    words: Arc::clone(words),
                    len: *len,
                };
                added
            } else {
                let mut merged = **words;
                let mut new_len = *len;
                for &l in sv.iter() {
                    let w = (l >> 6) as usize;
                    let mask = 1u64 << (l & 63);
                    if merged[w] & mask == 0 {
                        merged[w] |= mask;
                        new_len += 1;
                    }
                }
                let added = new_len - sv.len() as u32;
                *dst = Chunk::Dense {
                    words: Arc::new(merged),
                    len: new_len,
                };
                added
            }
        }
        (Chunk::Dense { words, len }, Chunk::Sparse(ov)) => {
            // Read-only pass first: never clone a shared block for a
            // no-op chunk union.
            let mut any = false;
            for &l in ov {
                if words[(l >> 6) as usize] & (1u64 << (l & 63)) == 0 {
                    any = true;
                    break;
                }
            }
            if !any {
                return 0;
            }
            let w = Arc::make_mut(words);
            let mut added = 0u32;
            let mut d = delta;
            for &l in ov {
                let wi = (l >> 6) as usize;
                let mask = 1u64 << (l & 63);
                if w[wi] & mask == 0 {
                    w[wi] |= mask;
                    added += 1;
                    if let Some(d) = d.as_deref_mut() {
                        d.push(base | l as u32);
                    }
                }
            }
            *len += added;
            added
        }
        (Chunk::Dense { words: sw, len: sl }, Chunk::Dense { words: ow, len: ol }) => {
            if Arc::ptr_eq(sw, ow) {
                return 0;
            }
            // One fused pass decides subset-ness both ways.
            let (mut o_new, mut s_extra) = (false, false);
            for (&s, &o) in sw.iter().zip(ow.iter()) {
                o_new |= o & !s != 0;
                s_extra |= s & !o != 0;
            }
            if !o_new {
                // `other` ⊆ `dst`: nothing to add.
                return 0;
            }
            if !s_extra {
                // `dst` ⊆ `other`: extract the delta, then re-share the
                // block — converged context copies collapse back to one
                // allocation.
                if let Some(d) = delta {
                    for (w, (&s, &o)) in sw.iter().zip(ow.iter()).enumerate() {
                        let mut new = o & !s;
                        while new != 0 {
                            let bit = new.trailing_zeros();
                            new &= new - 1;
                            d.push(base | (w as u32 * 64 + bit));
                        }
                    }
                }
                let added = *ol - *sl;
                *sw = Arc::clone(ow);
                *sl = *ol;
                return added;
            }
            let dstw = Arc::make_mut(sw);
            let mut added = 0u32;
            if let Some(d) = delta {
                // Delta extraction is inherently serial (bit positions
                // must come out in ascending order), so this path keeps
                // the word-at-a-time scan.
                for (w, (sw, &ow)) in dstw.iter_mut().zip(ow.iter()).enumerate() {
                    let mut new = ow & !*sw;
                    if new == 0 {
                        continue;
                    }
                    *sw |= ow;
                    added += new.count_ones();
                    while new != 0 {
                        let bit = new.trailing_zeros();
                        new &= new - 1;
                        d.push(base | (w as u32 * 64 + bit));
                    }
                }
            } else {
                // Widen-only union (the accumulator path): branchless
                // or-and-popcount over exact-size eight-word chunks of the
                // fixed 64-word block — no bounds checks, so it compiles
                // to SIMD or/popcnt batches.
                let mut d8 = dstw.chunks_exact_mut(8);
                let mut s8 = ow.chunks_exact(8);
                for (dw, sw) in (&mut d8).zip(&mut s8) {
                    for k in 0..8 {
                        added += (sw[k] & !dw[k]).count_ones();
                        dw[k] |= sw[k];
                    }
                }
            }
            *sl += added;
            added
        }
    }
}

#[derive(Clone)]
enum Repr {
    /// Sorted, deduplicated vector.
    Small(Vec<u32>),
    /// Chunked hybrid set with CoW dense blocks.
    Chunked(ChunkedSet),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Small(Vec::new())
    }
}

/// A set of dense u32 ids with delta-union support and a hybrid
/// sorted-vec / chunked representation.
#[derive(Clone, Default)]
pub struct PointsToSet {
    repr: Repr,
}

impl PointsToSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set holding a single element.
    pub fn singleton(e: u32) -> Self {
        PointsToSet {
            repr: Repr::Small(vec![e]),
        }
    }

    /// Builds a set from an already sorted, deduplicated vector.
    fn from_sorted(mut elems: Vec<u32>) -> Self {
        if elems.len() <= SMALL_MAX {
            // Deltas built by push can carry growth slack; keep persistent
            // small sets trimmed.
            if elems.capacity() > elems.len() + 16 {
                elems.shrink_to_fit();
            }
            return PointsToSet {
                repr: Repr::Small(elems),
            };
        }
        PointsToSet {
            repr: Repr::Chunked(ChunkedSet::from_sorted(&elems)),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => v.len(),
            Repr::Chunked(c) => c.len as usize,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, e: u32) -> bool {
        match &self.repr {
            Repr::Small(v) => v.binary_search(&e).is_ok(),
            Repr::Chunked(c) => c.contains(e),
        }
    }

    /// Inserts one element; returns whether it was new.
    pub fn insert(&mut self, e: u32) -> bool {
        match &mut self.repr {
            Repr::Small(v) => match v.binary_search(&e) {
                Ok(_) => false,
                Err(i) => {
                    v.insert(i, e);
                    self.maybe_promote();
                    true
                }
            },
            Repr::Chunked(c) => c.insert(e),
        }
    }

    fn maybe_promote(&mut self) {
        if let Repr::Small(v) = &self.repr {
            if v.len() > SMALL_MAX {
                self.repr = Repr::Chunked(ChunkedSet::from_sorted(v));
            }
        }
    }

    /// Merges `other` in and returns the elements that were not yet present
    /// (`None` when nothing changed — the common case, kept allocation-free).
    pub fn union_delta(&mut self, other: &PointsToSet) -> Option<PointsToSet> {
        let mut delta = Vec::new();
        if !self.union_impl(other, Some(&mut delta)) {
            return None;
        }
        debug_assert!(!delta.is_empty());
        Some(PointsToSet::from_sorted(delta))
    }

    /// Merges `other` in without materializing the delta; returns whether
    /// the set changed. This is the cheap path for accumulator sets (the
    /// solver's pending-delta batches) where the caller does not need to
    /// know *which* elements were new — and, on the chunked
    /// representation, the path where whole dense blocks are adopted by
    /// reference (an `Arc` clone per chunk) instead of element-copied.
    pub fn union_with(&mut self, other: &PointsToSet) -> bool {
        self.union_impl(other, None)
    }

    /// The single union core behind [`union_delta`](Self::union_delta) and
    /// [`union_with`](Self::union_with): merges `other` in, pushes the new
    /// elements (in ascending order) into `delta` when one is supplied, and
    /// returns whether the set changed.
    fn union_impl(&mut self, other: &PointsToSet, mut delta: Option<&mut Vec<u32>>) -> bool {
        if other.is_empty() || other.is_subset(self) {
            // No-op union: the common case at fixpoint, kept allocation-free
            // for every representation pairing.
            return false;
        }
        match (&mut self.repr, &other.repr) {
            (Repr::Small(sv), Repr::Small(ov)) => {
                let mut merged = Vec::with_capacity(sv.len() + ov.len());
                let (mut i, mut j) = (0usize, 0usize);
                while i < sv.len() && j < ov.len() {
                    match sv[i].cmp(&ov[j]) {
                        std::cmp::Ordering::Less => {
                            merged.push(sv[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            merged.push(ov[j]);
                            if let Some(d) = delta.as_deref_mut() {
                                d.push(ov[j]);
                            }
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            merged.push(sv[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&sv[i..]);
                for &e in &ov[j..] {
                    merged.push(e);
                    if let Some(d) = delta.as_deref_mut() {
                        d.push(e);
                    }
                }
                // Persistent small sets keep no merge slack (satellite of
                // the memory diet: the capacity was sized for the merge,
                // not the survivors).
                if merged.len() <= SMALL_MAX && merged.capacity() > merged.len() + 16 {
                    merged.shrink_to_fit();
                }
                *sv = merged;
                self.maybe_promote();
                true
            }
            (Repr::Small(_), Repr::Chunked(oc)) => {
                // The incoming set is chunked; promote to match and do the
                // chunk-merge union (which shares missing dense blocks).
                let Repr::Small(sv) = std::mem::take(&mut self.repr) else {
                    unreachable!()
                };
                let mut cs = ChunkedSet::from_sorted(&sv);
                let changed = cs.union_from(oc, delta);
                self.repr = Repr::Chunked(cs);
                debug_assert!(changed);
                changed
            }
            (Repr::Chunked(cs), Repr::Chunked(oc)) => cs.union_from(oc, delta),
            (Repr::Chunked(cs), Repr::Small(ov)) => {
                let mut changed = false;
                for &e in ov {
                    if cs.insert(e) {
                        changed = true;
                        if let Some(d) = delta.as_deref_mut() {
                            d.push(e);
                        }
                    }
                }
                changed
            }
        }
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        match &self.repr {
            Repr::Small(v) => Iter(IterInner::Small(v.iter())),
            Repr::Chunked(c) => Iter(IterInner::Chunked(c.iter())),
        }
    }

    /// Whether every element of `self` is in `other` — word-parallel when
    /// both sides are dense (chunked blocks compare `Arc`-pointer-equal
    /// first, so shared chunks answer without touching memory),
    /// early-exiting at the first missing element otherwise. This is the
    /// union fast path: most unions a fixpoint solver performs are no-ops,
    /// and a subset test answers that without touching the merge machinery.
    pub fn is_subset(&self, other: &PointsToSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Chunked(a), Repr::Chunked(b)) => a.is_subset(b),
            _ => self.iter().all(|e| other.contains(e)),
        }
    }

    /// Whether the two sets share at least one element.
    pub fn intersects(&self, other: &PointsToSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => {
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
            (Repr::Chunked(a), Repr::Chunked(b)) => a.intersects(b),
            (Repr::Small(v), _) => v.iter().any(|&e| other.contains(e)),
            (_, Repr::Small(v)) => v.iter().any(|&e| self.contains(e)),
        }
    }

    /// Heap bytes this set owns, counting shared dense blocks in full
    /// (sharing-blind; [`account`](Self::account) attributes each shared
    /// block once).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => v.capacity() * std::mem::size_of::<u32>(),
            Repr::Chunked(c) => c.heap_bytes(),
        }
    }

    /// Accounts this set into `acc`, attributing each CoW-shared dense
    /// block to the first set that reaches it and counting later
    /// references as deduplicated (see [`crate::mem`]).
    pub fn account(&self, acc: &mut crate::mem::PtsAccount) {
        match &self.repr {
            Repr::Small(v) => acc.bytes += (v.capacity() * std::mem::size_of::<u32>()) as u64,
            Repr::Chunked(c) => {
                acc.bytes += (c.keys.capacity() * std::mem::size_of::<u32>()
                    + c.chunks.capacity() * std::mem::size_of::<Chunk>())
                    as u64;
                for chunk in &c.chunks {
                    match chunk {
                        Chunk::Sparse(v) => {
                            acc.bytes += (v.capacity() * std::mem::size_of::<u16>()) as u64;
                        }
                        Chunk::Dense { words, .. } => {
                            let block = std::mem::size_of::<[u64; CHUNK_WORDS]>() as u64;
                            if acc.note_block(Arc::as_ptr(words) as usize) {
                                acc.bytes += block;
                            } else {
                                acc.shared_chunks += 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Iterator over a [`PointsToSet`], ascending.
pub struct Iter<'a>(IterInner<'a>);

enum IterInner<'a> {
    Small(std::slice::Iter<'a, u32>),
    Chunked(ChunkedIter<'a>),
}

/// Ascending iterator over a [`ChunkedSet`]: chunks in key order, sparse
/// offsets or dense bit-scans within each.
struct ChunkedIter<'a> {
    keys: &'a [u32],
    chunks: &'a [Chunk],
    ci: usize,
    sp: usize,
    wi: usize,
    cur: u64,
}

impl Iterator for ChunkedIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.ci < self.chunks.len() {
            let base = self.keys[self.ci] << CHUNK_BITS;
            match &self.chunks[self.ci] {
                Chunk::Sparse(v) => {
                    if self.sp < v.len() {
                        let e = base | v[self.sp] as u32;
                        self.sp += 1;
                        return Some(e);
                    }
                }
                Chunk::Dense { words, .. } => loop {
                    if self.cur != 0 {
                        let bit = self.cur.trailing_zeros();
                        self.cur &= self.cur - 1;
                        return Some(base | (self.wi as u32 * 64 + bit));
                    }
                    self.wi += 1;
                    if self.wi >= CHUNK_WORDS {
                        break;
                    }
                    self.cur = words[self.wi];
                },
            }
            self.ci += 1;
            self.sp = 0;
            self.wi = 0;
            self.cur = match self.chunks.get(self.ci) {
                Some(Chunk::Dense { words, .. }) => words[0],
                _ => 0,
            };
        }
        None
    }
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.0 {
            IterInner::Small(it) => it.next().copied(),
            IterInner::Chunked(it) => it.next(),
        }
    }
}

impl PartialEq for PointsToSet {
    fn eq(&self, other: &Self) -> bool {
        // Representation-independent: sets are equal iff their (ascending)
        // element sequences are.
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for PointsToSet {}

impl fmt::Debug for PointsToSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u32> for PointsToSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut elems: Vec<u32> = iter.into_iter().collect();
        elems.sort_unstable();
        elems.dedup();
        PointsToSet::from_sorted(elems)
    }
}

impl Extend<u32> for PointsToSet {
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        // Collect-sort-merge: one O(k log k) sort plus one linear union
        // instead of k O(n) insertions.
        let batch: PointsToSet = iter.into_iter().collect();
        self.union_with(&batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = PointsToSet::new();
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert!(s.contains(1));
        assert!(s.contains(5));
        assert!(!s.contains(3));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_delta_reports_exactly_new_elements() {
        let mut a: PointsToSet = [1, 3, 5].into_iter().collect();
        let b: PointsToSet = [2, 3, 6].into_iter().collect();
        let delta = a.union_delta(&b).unwrap();
        assert_eq!(delta.iter().collect::<Vec<_>>(), vec![2, 6]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3, 5, 6]);
        assert!(a.union_delta(&b).is_none(), "second union is a no-op");
    }

    #[test]
    fn union_delta_empty_other() {
        let mut a: PointsToSet = [1].into_iter().collect();
        assert!(a.union_delta(&PointsToSet::new()).is_none());
    }

    #[test]
    fn intersects() {
        let a: PointsToSet = [1, 4, 9].into_iter().collect();
        let b: PointsToSet = [2, 4].into_iter().collect();
        let c: PointsToSet = [3, 5].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&PointsToSet::new()));
    }

    #[test]
    fn from_iterator_sorts_and_dedups() {
        let s: PointsToSet = [5, 1, 5, 3].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn promotion_preserves_contents_and_order() {
        let mut s = PointsToSet::new();
        for e in (0..400u32).rev().step_by(3) {
            s.insert(e);
        }
        assert!(
            !matches!(s.repr, Repr::Small(_)),
            "must promote past SMALL_MAX"
        );
        let got: Vec<u32> = s.iter().collect();
        let expect: Vec<u32> = (0..400u32).filter(|e| e % 3 == 0).collect();
        assert_eq!(got, expect);
        for &e in &got {
            assert!(s.contains(e));
        }
        assert!(!s.contains(1));
    }

    #[test]
    fn union_delta_across_representations() {
        // Small ∪ large, large ∪ Small, large ∪ large.
        let big_a: PointsToSet = (0..300u32).step_by(2).collect();
        let big_b: PointsToSet = (0..300u32).step_by(3).collect();
        let small: PointsToSet = [1, 2, 601].into_iter().collect();

        let mut s = small.clone();
        let delta = s.union_delta(&big_a).unwrap();
        let expect_delta: Vec<u32> = (0..300u32).step_by(2).filter(|e| *e != 2).collect();
        assert_eq!(delta.iter().collect::<Vec<u32>>(), expect_delta);
        assert_eq!(s.len(), 150 + 2);

        let mut s = big_a.clone();
        let delta = s.union_delta(&small).unwrap();
        assert_eq!(delta.iter().collect::<Vec<u32>>(), vec![1, 601]);

        let mut s = big_a.clone();
        let delta = s.union_delta(&big_b).unwrap();
        let expect: Vec<u32> = (0..300u32).filter(|e| e % 3 == 0 && e % 2 != 0).collect();
        assert_eq!(delta.iter().collect::<Vec<u32>>(), expect);
        assert!(s.union_delta(&big_b).is_none());
    }

    #[test]
    fn chunked_sets_span_sparse_id_ranges() {
        // Elements scattered across far-apart chunk ranges: footprint must
        // stay proportional to touched ranges, and iteration ascending.
        let elems: Vec<u32> = (0..100u32)
            .map(|i| i * 1_000_003)
            .chain(4_000_000..4_000_200)
            .collect();
        let s: PointsToSet = elems.iter().copied().collect();
        let mut sorted = elems.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(s.iter().collect::<Vec<u32>>(), sorted);
        assert_eq!(s.len(), sorted.len());
        // A whole-range bitmap spanning id ~1e8 would cost ~12.5 MB; the
        // chunked set must stay within a few KB.
        assert!(
            s.heap_bytes() < 64 * 1024,
            "chunked footprint {} proportional to touched ranges",
            s.heap_bytes()
        );
        for &e in &sorted {
            assert!(s.contains(e));
        }
        assert!(!s.contains(17));
    }

    #[test]
    fn cow_clone_shares_then_diverges() {
        // Cloning a chunked set shares its dense blocks; mutating the
        // clone must never perturb the original.
        let a: PointsToSet = (0..2000u32).collect();
        let before: Vec<u32> = a.iter().collect();
        let mut b = a.clone();
        let mut acc = crate::mem::PtsAccount::default();
        a.account(&mut acc);
        b.account(&mut acc);
        assert!(acc.shared_chunks > 0, "clone must share dense blocks");
        assert!(b.insert(5000));
        assert!(
            !a.contains(5000),
            "CoW: original untouched by clone's insert"
        );
        assert_eq!(a.iter().collect::<Vec<u32>>(), before);
        assert_eq!(b.len(), a.len() + 1);
    }

    #[test]
    fn union_into_empty_shares_blocks() {
        // The 2obj context-copy shape: unioning a large set into an empty
        // accumulator adopts its dense blocks by reference.
        let base: PointsToSet = (0..3000u32).collect();
        let mut copy = PointsToSet::new();
        assert!(copy.union_with(&base));
        assert_eq!(copy, base);
        let mut acc = crate::mem::PtsAccount::default();
        base.account(&mut acc);
        copy.account(&mut acc);
        assert!(
            acc.shared_chunks > 0,
            "union into empty must share, not copy"
        );
    }

    #[test]
    fn equality_is_representation_independent() {
        let big: PointsToSet = (0..200u32).collect();
        let mut grown = PointsToSet::new();
        for e in 0..200u32 {
            grown.insert(e);
        }
        assert_eq!(big, grown);
        let small: PointsToSet = [7].into_iter().collect();
        assert_ne!(big, small);
    }

    #[test]
    fn union_with_matches_union_delta() {
        let cases: Vec<(PointsToSet, PointsToSet)> = vec![
            ([1, 3].into_iter().collect(), [2, 3].into_iter().collect()),
            ((0..200u32).collect(), (100..300u32).collect()),
            ([5].into_iter().collect(), (0..200u32).collect()),
            ((0..200u32).collect(), [7, 500].into_iter().collect()),
            ((0..10u32).collect(), (0..10u32).collect()),
            (
                (0..5000u32).step_by(7).collect(),
                (0..9000u32).step_by(13).collect(),
            ),
        ];
        for (a, b) in cases {
            let mut via_delta = a.clone();
            let changed_delta = via_delta.union_delta(&b).is_some();
            let mut via_with = a.clone();
            let changed_with = via_with.union_with(&b);
            assert_eq!(changed_delta, changed_with);
            assert_eq!(via_delta, via_with);
        }
    }

    #[test]
    fn is_subset_across_representations() {
        let small: PointsToSet = [2, 4].into_iter().collect();
        let big: PointsToSet = (0..200u32).step_by(2).collect();
        let other: PointsToSet = [2, 5].into_iter().collect();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(!other.is_subset(&big));
        assert!(PointsToSet::new().is_subset(&small));
        assert!(big.is_subset(&big));
        let shifted: PointsToSet = (0..200u32).collect();
        assert!(big.is_subset(&shifted));
        assert!(!shifted.is_subset(&big));
    }

    #[test]
    fn extend_merges_batches() {
        let mut s: PointsToSet = [10, 20].into_iter().collect();
        s.extend([5, 20, 15, 5]);
        assert_eq!(s.iter().collect::<Vec<u32>>(), vec![5, 10, 15, 20]);
        s.extend(0..200u32);
        assert_eq!(s.len(), 200);
    }
}
