//! Points-to sets.
//!
//! A [`PointsToSet`] is a set of dense u32 ids (context-sensitive abstract
//! objects, [`crate::solver::CsObjId`]) with a *hybrid* representation,
//! chosen by length and 24 bytes in place whichever it is:
//!
//! * up to `INLINE_MAX` (3) elements sit **inline**, sorted, with no heap
//!   allocation — most pointers' sets (on the Cut-Shortcut analysis of
//!   the `columba` suite program, 31,202 of 34,164 non-empty sets; 28,904
//!   of those hold one object);
//! * up to `SMALL_MAX` (64) elements are a **sorted vector** (a boxed
//!   slice whose length is its capacity, the element count beside it);
//! * larger sets promote to a boxed **chunked** representation whose
//!   footprint is proportional to the id *ranges* the set actually
//!   touches, not to the global id space: elements are keyed by their
//!   high bits (`id >> 12`) into fixed-width chunks of 4096 ids each, and
//!   every chunk is itself hybrid — a sorted vector of 16-bit low halves
//!   below `SPARSE_MAX` (128) elements, a fixed 64-word dense block above
//!   it.
//!
//! Each representation keeps the element count beside its storage, so
//! [`PointsToSet::len`] and [`PointsToSet::is_empty`] (which the subset
//! and no-op fast paths of every union ask first) never follow a pointer.
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

/// Elements a set holds inline. Three `u32`s and the count fill the 16
/// bytes a boxed slice takes anyway, so the inline form costs no space.
const INLINE_MAX: usize = 3;

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
/// vectors. Its element count lives beside the box that holds it (see
/// [`Repr::Chunked`]), so the methods that add elements return how many.
#[derive(Clone, Default)]
struct ChunkedSet {
    /// Sorted high halves (`id >> CHUNK_BITS`) of the occupied chunks.
    keys: Vec<u32>,
    /// Chunk payloads, parallel to `keys`.
    chunks: Vec<Chunk>,
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
            Ok(i) => self.chunks[i].insert(low),
            Err(i) => {
                self.keys.insert(i, key);
                self.chunks.insert(i, Chunk::Sparse(vec![low]));
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
    /// when supplied; returns how many were added. Chunks `other` has
    /// and `self` lacks are *shared*, not copied: a dense block comes over
    /// as an `Arc` clone, which is what makes context-copied sets cost one
    /// refcount until they diverge.
    fn union_from(&mut self, other: &ChunkedSet, mut delta: Option<&mut Vec<u32>>) -> u32 {
        let mut added = 0u32;
        let mut i = 0usize;
        for (j, &key) in other.keys.iter().enumerate() {
            while i < self.keys.len() && self.keys[i] < key {
                i += 1;
            }
            let base = key << CHUNK_BITS;
            if i < self.keys.len() && self.keys[i] == key {
                added += union_chunk(
                    &mut self.chunks[i],
                    &other.chunks[j],
                    base,
                    delta.as_deref_mut(),
                );
            } else {
                let chunk = other.chunks[j].clone();
                if let Some(d) = delta.as_deref_mut() {
                    chunk.push_all(base, d);
                }
                added += chunk.len() as u32;
                self.keys.insert(i, key);
                self.chunks.insert(i, chunk);
                i += 1;
            }
        }
        added
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

/// The three representations, each with the element count beside it so
/// that [`PointsToSet::len`] never follows a pointer. Sets never shrink,
/// so the representation is a function of the length: inline up to
/// [`INLINE_MAX`] elements, a sorted vector up to [`SMALL_MAX`], chunked
/// past it.
enum Repr {
    /// Sorted elements in `elems[..len]`, no heap allocation.
    Inline { len: u32, elems: [u32; INLINE_MAX] },
    /// Sorted elements in `buf[..len]`; `buf.len()` is the capacity.
    Vector { len: u32, buf: Box<[u32]> },
    /// Chunked hybrid set with CoW dense blocks, boxed: the few large sets
    /// pay 8 bytes here instead of every set paying for two inline `Vec`s.
    Chunked { len: u32, set: Box<ChunkedSet> },
}

/// A set of dense u32 ids with delta-union support and a hybrid
/// inline / sorted-vec / chunked representation, 24 bytes in place.
pub struct PointsToSet {
    repr: Repr,
}

impl Default for PointsToSet {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for PointsToSet {
    fn clone(&self) -> Self {
        let repr = match &self.repr {
            Repr::Inline { len, elems } => Repr::Inline {
                len: *len,
                elems: *elems,
            },
            // A copy keeps no growth slack.
            Repr::Vector { len, buf } => Repr::Vector {
                len: *len,
                buf: buf[..*len as usize].into(),
            },
            Repr::Chunked { len, set } => Repr::Chunked {
                len: *len,
                set: set.clone(),
            },
        };
        PointsToSet { repr }
    }
}

/// Calls `out` with every element of the union of two ascending,
/// deduplicated slices, in order, and pushes the elements of `ov` that
/// `sv` lacks into `delta` when one is supplied.
fn merge_sorted(
    sv: &[u32],
    ov: &[u32],
    mut delta: Option<&mut Vec<u32>>,
    mut out: impl FnMut(u32),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < sv.len() && j < ov.len() {
        match sv[i].cmp(&ov[j]) {
            std::cmp::Ordering::Less => {
                out(sv[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out(ov[j]);
                if let Some(d) = delta.as_deref_mut() {
                    d.push(ov[j]);
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out(sv[i]);
                i += 1;
                j += 1;
            }
        }
    }
    for &e in &sv[i..] {
        out(e);
    }
    for &e in &ov[j..] {
        out(e);
        if let Some(d) = delta.as_deref_mut() {
            d.push(e);
        }
    }
}

impl PointsToSet {
    /// Creates an empty set.
    pub const fn new() -> Self {
        PointsToSet {
            repr: Repr::Inline {
                len: 0,
                elems: [0; INLINE_MAX],
            },
        }
    }

    /// Creates a set holding a single element.
    pub fn singleton(e: u32) -> Self {
        Self::inline(&[e])
    }

    /// Builds an inline set from at most [`INLINE_MAX`] sorted,
    /// deduplicated elements.
    fn inline(sorted: &[u32]) -> Self {
        let mut elems = [0; INLINE_MAX];
        elems[..sorted.len()].copy_from_slice(sorted);
        PointsToSet {
            repr: Repr::Inline {
                len: sorted.len() as u32,
                elems,
            },
        }
    }

    /// Builds a set from an already sorted, deduplicated vector, in the
    /// representation its length calls for.
    fn from_sorted(mut elems: Vec<u32>) -> Self {
        let len = elems.len();
        if len <= INLINE_MAX {
            return Self::inline(&elems);
        }
        if len > SMALL_MAX {
            return PointsToSet {
                repr: Repr::Chunked {
                    len: len as u32,
                    set: Box::new(ChunkedSet::from_sorted(&elems)),
                },
            };
        }
        // Deltas built by push and merges sized for both sides can carry
        // growth slack; persistent vector sets keep at most 16 slots of it.
        if elems.capacity() > len + 16 {
            elems.shrink_to_fit();
        }
        elems.resize(elems.capacity(), 0);
        PointsToSet {
            repr: Repr::Vector {
                len: len as u32,
                buf: elems.into_boxed_slice(),
            },
        }
    }

    /// The sorted elements of an inline or vector set; `None` for a
    /// chunked one.
    fn small(&self) -> Option<&[u32]> {
        match &self.repr {
            Repr::Inline { len, elems } => Some(&elems[..*len as usize]),
            Repr::Vector { len, buf } => Some(&buf[..*len as usize]),
            Repr::Chunked { .. } => None,
        }
    }

    /// The chunked representation, if the set has promoted to it.
    fn chunked(&self) -> Option<&ChunkedSet> {
        match &self.repr {
            Repr::Chunked { set, .. } => Some(set),
            _ => None,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } | Repr::Vector { len, .. } | Repr::Chunked { len, .. } => {
                *len as usize
            }
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, e: u32) -> bool {
        match &self.repr {
            Repr::Inline { len, elems } => elems[..*len as usize].contains(&e),
            Repr::Vector { len, buf } => buf[..*len as usize].binary_search(&e).is_ok(),
            Repr::Chunked { set, .. } => set.contains(e),
        }
    }

    /// Inserts one element; returns whether it was new.
    pub fn insert(&mut self, e: u32) -> bool {
        match &mut self.repr {
            Repr::Inline { len, elems } => {
                let n = *len as usize;
                let Err(i) = elems[..n].binary_search(&e) else {
                    return false;
                };
                if n < INLINE_MAX {
                    elems.copy_within(i..n, i + 1);
                    elems[i] = e;
                    *len += 1;
                } else {
                    let mut buf = vec![0; 2 * INLINE_MAX].into_boxed_slice();
                    buf[..i].copy_from_slice(&elems[..i]);
                    buf[i] = e;
                    buf[i + 1..=n].copy_from_slice(&elems[i..]);
                    self.repr = Repr::Vector {
                        len: n as u32 + 1,
                        buf,
                    };
                }
                true
            }
            Repr::Vector { len, buf } => {
                let n = *len as usize;
                let Err(i) = buf[..n].binary_search(&e) else {
                    return false;
                };
                if n == SMALL_MAX {
                    let mut elems = Vec::with_capacity(n + 1);
                    elems.extend_from_slice(&buf[..i]);
                    elems.push(e);
                    elems.extend_from_slice(&buf[i..n]);
                    *self = PointsToSet::from_sorted(elems);
                    return true;
                }
                if n == buf.len() {
                    let mut grown = vec![0; (2 * n).min(SMALL_MAX)].into_boxed_slice();
                    grown[..n].copy_from_slice(buf);
                    *buf = grown;
                }
                buf.copy_within(i..n, i + 1);
                buf[i] = e;
                *len += 1;
                true
            }
            Repr::Chunked { len, set } => {
                let added = set.insert(e);
                *len += u32::from(added);
                added
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
        if let Some(ov) = other.small() {
            if let Some(sv) = self.small() {
                *self = merge_small(sv, ov, delta);
                return true;
            }
            let Repr::Chunked { len, set } = &mut self.repr else {
                unreachable!("a set without a slice is chunked")
            };
            let before = *len;
            for &e in ov {
                if set.insert(e) {
                    *len += 1;
                    if let Some(d) = delta.as_deref_mut() {
                        d.push(e);
                    }
                }
            }
            return *len != before;
        }
        let oc = other.chunked().expect("a set without a slice is chunked");
        if let Some(sv) = self.small() {
            // The incoming set is chunked; promote to match and do the
            // chunk-merge union (which shares missing dense blocks).
            self.repr = Repr::Chunked {
                len: sv.len() as u32,
                set: Box::new(ChunkedSet::from_sorted(sv)),
            };
        }
        let Repr::Chunked { len, set } = &mut self.repr else {
            unreachable!("promoted above")
        };
        let added = set.union_from(oc, delta);
        *len += added;
        added != 0
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        match self.small() {
            Some(v) => Iter(IterInner::Small(v.iter())),
            None => Iter(IterInner::Chunked(
                self.chunked()
                    .expect("a set without a slice is chunked")
                    .iter(),
            )),
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
        match (self.chunked(), other.chunked()) {
            (Some(a), Some(b)) => a.is_subset(b),
            _ => self.iter().all(|e| other.contains(e)),
        }
    }

    /// Whether the two sets share at least one element.
    pub fn intersects(&self, other: &PointsToSet) -> bool {
        match (self.small(), other.small()) {
            (Some(a), Some(b)) => {
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
            (Some(v), None) => v.iter().any(|&e| other.contains(e)),
            (None, Some(v)) => v.iter().any(|&e| self.contains(e)),
            (None, None) => match (self.chunked(), other.chunked()) {
                (Some(a), Some(b)) => a.intersects(b),
                _ => unreachable!("a set without a slice is chunked"),
            },
        }
    }

    /// Heap bytes this set owns, counting shared dense blocks in full
    /// (sharing-blind; [`account`](Self::account) attributes each shared
    /// block once). An inline set owns none.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Vector { buf, .. } => std::mem::size_of_val::<[u32]>(buf),
            Repr::Chunked { set, .. } => std::mem::size_of::<ChunkedSet>() + set.heap_bytes(),
        }
    }

    /// Accounts every heap byte this set owns into `acc` — a vector's
    /// buffer, or a chunked set's box, key and chunk arrays, sparse
    /// chunks and dense blocks — attributing each CoW-shared dense block
    /// to the first set that reaches it and counting later references as
    /// deduplicated (see [`crate::mem`]).
    pub fn account(&self, acc: &mut crate::mem::PtsAccount) {
        let c = match &self.repr {
            Repr::Inline { .. } => return,
            Repr::Vector { buf, .. } => {
                acc.bytes += std::mem::size_of_val::<[u32]>(buf) as u64;
                return;
            }
            Repr::Chunked { set, .. } => set,
        };
        acc.bytes += (std::mem::size_of::<ChunkedSet>()
            + c.keys.capacity() * std::mem::size_of::<u32>()
            + c.chunks.capacity() * std::mem::size_of::<Chunk>()) as u64;
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

/// The union of two inline or vector sets, in the representation its
/// length calls for; the elements `ov` adds to `sv` go into `delta`.
/// Small pairs merge on the stack, so a union whose result stays inline
/// allocates nothing.
fn merge_small(sv: &[u32], ov: &[u32], delta: Option<&mut Vec<u32>>) -> PointsToSet {
    let cap = sv.len() + ov.len();
    if cap <= 2 * INLINE_MAX {
        let mut buf = [0; 2 * INLINE_MAX];
        let mut n = 0;
        merge_sorted(sv, ov, delta, |e| {
            buf[n] = e;
            n += 1;
        });
        if n <= INLINE_MAX {
            return PointsToSet::inline(&buf[..n]);
        }
        let mut merged = Vec::with_capacity(cap);
        merged.extend_from_slice(&buf[..n]);
        return PointsToSet::from_sorted(merged);
    }
    let mut merged = Vec::with_capacity(cap);
    merge_sorted(sv, ov, delta, |e| merged.push(e));
    PointsToSet::from_sorted(merged)
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

    /// Which representation a set is in.
    fn repr_name(s: &PointsToSet) -> &'static str {
        match s.repr {
            Repr::Inline { .. } => "inline",
            Repr::Vector { .. } => "vector",
            Repr::Chunked { .. } => "chunked",
        }
    }

    /// The representation a set of `n` elements must be in.
    fn expected_repr(n: usize) -> &'static str {
        if n <= INLINE_MAX {
            "inline"
        } else if n <= SMALL_MAX {
            "vector"
        } else {
            "chunked"
        }
    }

    #[test]
    fn set_is_24_bytes() {
        assert_eq!(std::mem::size_of::<PointsToSet>(), 24);
    }

    #[test]
    fn insert_promotes_inline_to_vector_to_chunked() {
        // Descending inserts land at the front, so every insert shifts the
        // whole set, across both promotion boundaries.
        let mut s = PointsToSet::new();
        let mut want = Vec::new();
        for e in (0..=SMALL_MAX as u32 + 1).rev() {
            assert!(s.insert(e * 7));
            assert!(!s.insert(e * 7));
            want.insert(0, e * 7);
            assert_eq!(
                repr_name(&s),
                expected_repr(s.len()),
                "{} elements",
                s.len()
            );
            assert_eq!(s.iter().collect::<Vec<u32>>(), want);
            assert_eq!(s.heap_bytes() == 0, s.len() <= INLINE_MAX);
            assert!(s.contains(e * 7) && !s.contains(e * 7 + 1));
        }
    }

    #[test]
    fn union_promotes_inline_to_vector_to_chunked() {
        // 2 + 2 inline elements make a 4-element vector.
        let mut s: PointsToSet = [1, 9].into_iter().collect();
        let delta = s.union_delta(&[5, 9, 11].into_iter().collect()).unwrap();
        assert_eq!(repr_name(&s), "vector");
        assert_eq!(repr_name(&delta), "inline");
        assert_eq!(s.iter().collect::<Vec<u32>>(), vec![1, 5, 9, 11]);
        assert_eq!(delta.iter().collect::<Vec<u32>>(), vec![5, 11]);
        // Overlapping inline sets whose union still fits stay inline.
        let mut t: PointsToSet = [1, 2].into_iter().collect();
        assert!(t.union_with(&[2, 3].into_iter().collect()));
        assert_eq!(repr_name(&t), "inline");
        assert_eq!(t.iter().collect::<Vec<u32>>(), vec![1, 2, 3]);
        // 60 + 5 vector elements make a 65-element chunked set.
        let mut v: PointsToSet = (0..60u32).map(|e| e * 2).collect();
        assert_eq!(repr_name(&v), "vector");
        let delta = v
            .union_delta(&(0..5u32).map(|e| e * 2 + 1).collect())
            .unwrap();
        assert_eq!(repr_name(&v), "chunked");
        assert_eq!(v.len(), 65);
        assert_eq!(repr_name(&delta), "vector");
        assert_eq!(delta.iter().collect::<Vec<u32>>(), vec![1, 3, 5, 7, 9]);
        // An inline set unioned with a chunked one promotes to chunked.
        let mut w = PointsToSet::singleton(1000);
        assert!(w.union_with(&v));
        assert_eq!(repr_name(&w), "chunked");
        assert_eq!(w.len(), 66);
    }

    #[test]
    fn clone_drops_vector_slack() {
        let mut s: PointsToSet = (0..4u32).collect();
        s.insert(10);
        assert!(s.heap_bytes() > 5 * 4, "growth leaves slack");
        let c = s.clone();
        assert_eq!(c, s);
        assert_eq!(c.heap_bytes(), 5 * 4);
    }

    #[test]
    fn account_counts_the_chunked_box() {
        let inline = PointsToSet::singleton(3);
        let big: PointsToSet = (0..100u32).collect();
        let mut acc = crate::mem::PtsAccount::default();
        inline.account(&mut acc);
        assert_eq!(acc.bytes, 0, "an inline set owns no heap");
        big.account(&mut acc);
        assert_eq!(acc.bytes as usize, big.heap_bytes());
        assert!(big.heap_bytes() > std::mem::size_of::<ChunkedSet>());
    }

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
            matches!(s.repr, Repr::Chunked { .. }),
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
