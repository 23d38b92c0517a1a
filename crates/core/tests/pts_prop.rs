//! Property tests for the points-to set representation.
//!
//! [`csc_core::PointsToSet`] is a hybrid — up to three elements inline, a
//! sorted vector up to 64, a chunked set with copy-on-write dense blocks
//! once promoted — so every observable must be representation-independent:
//!
//! * arbitrary interleavings of `insert` / `union_with` / `union_delta` /
//!   `is_subset` / `intersects` must agree with a `BTreeSet` reference,
//!   including the `union_delta` contract (the returned delta is
//!   *exactly* the genuinely-new elements, and `None` means no growth),
//!   with the set under test on either side of a union; streams of 0–5
//!   element operands walk sets across the inline/vector (3↔4) and
//!   vector/chunked (64↔65) boundaries a few elements at a time;
//! * iteration is ascending and duplicate-free regardless of which
//!   chunks are sparse, dense, or CoW-shared;
//! * copy-on-write chunk sharing is invisible: after a clone or an
//!   absorbing union aliases dense blocks between two sets, mutating
//!   either set never perturbs the other;
//! * batching is invisible: the solver's worklist coalesces the deltas
//!   queued for a pointer in a pending accumulator and commits them with
//!   one `union_delta`, which must observe exactly the growth of
//!   committing them one at a time.

use csc_core::PointsToSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Element domain: mostly ids inside one or two chunks (the hot case),
/// with a scattered tail across a 2²⁰ universe so multi-chunk paths,
/// promotion, and inter-chunk boundaries all get exercised.
fn elem() -> impl Strategy<Value = u32> {
    prop_oneof![
        4 => 0u32..300,
        3 => 3_900u32..4_400,   // straddles the first chunk boundary
        2 => 0u32..20_000,
        1 => 0u32..(1 << 20),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    Insert(u32),
    UnionWith(Vec<u32>),
    UnionDelta(Vec<u32>),
    IsSubset(Vec<u32>),
    Intersects(Vec<u32>),
    /// Unions the set under test into a fresh set of these elements: the
    /// receiver is the smaller side.
    UnionInto(Vec<u32>),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => elem().prop_map(Op::Insert),
        2 => proptest::collection::vec(elem(), 0..200).prop_map(Op::UnionWith),
        2 => proptest::collection::vec(elem(), 0..200).prop_map(Op::UnionDelta),
        1 => proptest::collection::vec(elem(), 0..60).prop_map(Op::IsSubset),
        1 => proptest::collection::vec(elem(), 0..60).prop_map(Op::Intersects),
        1 => proptest::collection::vec(elem(), 0..60).prop_map(Op::UnionInto),
    ]
}

/// Ops whose operands hold 0–5 elements, drawn mostly from a small range
/// so that they overlap the set: a stream of them grows a set one to a
/// few elements at a time, through each representation boundary.
fn small_op() -> impl Strategy<Value = Op> {
    let small = || {
        proptest::collection::vec(
            prop_oneof![
                4 => 0u32..100,
                1 => elem(),
            ],
            0..6,
        )
    };
    prop_oneof![
        3 => (0u32..100).prop_map(Op::Insert),
        3 => small().prop_map(Op::UnionWith),
        3 => small().prop_map(Op::UnionDelta),
        1 => small().prop_map(Op::IsSubset),
        1 => small().prop_map(Op::Intersects),
        2 => small().prop_map(Op::UnionInto),
    ]
}

fn set_of(elems: &[u32]) -> PointsToSet {
    elems.iter().copied().collect()
}

/// Runs one op stream against both the set under test (starting from
/// `base`) and a `BTreeSet` reference, checking every observable after
/// every op.
fn check_against_reference(base: &[u32], ops: &[Op]) {
    let mut s = set_of(base);
    let mut r: BTreeSet<u32> = base.iter().copied().collect();
    for op in ops {
        match op {
            Op::Insert(e) => {
                prop_assert_eq!(s.insert(*e), r.insert(*e), "insert({}) novelty", e);
            }
            Op::UnionWith(elems) => {
                let grew = s.union_with(&set_of(elems));
                let before = r.len();
                r.extend(elems.iter().copied());
                prop_assert_eq!(grew, r.len() > before, "union_with growth flag");
            }
            Op::UnionDelta(elems) => {
                let delta = s.union_delta(&set_of(elems));
                let expect: BTreeSet<u32> =
                    elems.iter().copied().filter(|e| !r.contains(e)).collect();
                r.extend(elems.iter().copied());
                match delta {
                    None => prop_assert!(expect.is_empty(), "None delta but {:?} new", expect),
                    Some(d) => {
                        let got: Vec<u32> = d.iter().collect();
                        let want: Vec<u32> = expect.into_iter().collect();
                        prop_assert_eq!(got, want, "union_delta contents");
                    }
                }
            }
            Op::IsSubset(elems) => {
                let probe = set_of(elems);
                let probe_r: BTreeSet<u32> = elems.iter().copied().collect();
                prop_assert_eq!(probe.is_subset(&s), probe_r.is_subset(&r), "is_subset");
                let r_probe: BTreeSet<u32> = probe.iter().collect();
                prop_assert_eq!(
                    s.is_subset(&probe),
                    r.is_subset(&r_probe),
                    "is_subset reversed"
                );
            }
            Op::Intersects(elems) => {
                let probe = set_of(elems);
                let probe_r: BTreeSet<u32> = elems.iter().copied().collect();
                prop_assert_eq!(s.intersects(&probe), !r.is_disjoint(&probe_r), "intersects");
            }
            Op::UnionInto(elems) => {
                let mut t = set_of(elems);
                let rt: BTreeSet<u32> = elems.iter().copied().collect();
                let delta = t.union_delta(&s);
                let want_delta: Vec<u32> = r.difference(&rt).copied().collect();
                match delta {
                    None => prop_assert!(want_delta.is_empty(), "None delta into {:?}", rt),
                    Some(d) => {
                        prop_assert_eq!(d.iter().collect::<Vec<u32>>(), want_delta, "delta into")
                    }
                }
                let want: Vec<u32> = rt.union(&r).copied().collect();
                prop_assert_eq!(t.len(), want.len(), "len of union into");
                prop_assert_eq!(t.iter().collect::<Vec<u32>>(), want, "union into");
            }
        }
        prop_assert_eq!(s.len(), r.len(), "len after {:?}", op);
        // Ascending, duplicate-free, element-identical iteration.
        let got: Vec<u32> = s.iter().collect();
        let want: Vec<u32> = r.iter().copied().collect();
        prop_assert_eq!(got, want, "iteration order/content after {:?}", op);
        for &e in r.iter().take(8) {
            prop_assert!(s.contains(e), "contains({}) after {:?}", e, op);
        }
    }
}

proptest! {
    /// Differential: the full op algebra agrees with `BTreeSet` across
    /// promotion into the chunked representation.
    #[test]
    fn chunked_matches_btreeset(ops in proptest::collection::vec(op(), 0..30)) {
        check_against_reference(&[], &ops);
    }

    /// Differential with small operands: from a base of up to 74
    /// elements, unions and inserts of 0–5 elements cross the
    /// inline/vector and vector/chunked boundaries, with the set under
    /// test as the receiver and as the operand.
    #[test]
    fn small_ops_cross_representation_boundaries(
        base in proptest::collection::vec(0u32..100, 0..75),
        ops in proptest::collection::vec(small_op(), 0..40),
    ) {
        check_against_reference(&base, &ops);
    }

    /// CoW aliasing safety: clone a set (sharing every dense chunk block),
    /// then mutate both sides independently — neither may observe the
    /// other's writes, and both must equal their references.
    #[test]
    fn cow_clone_isolates_mutations(
        base in proptest::collection::vec(elem(), 0..600),
        left in proptest::collection::vec(elem(), 0..200),
        right in proptest::collection::vec(elem(), 0..200),
    ) {
        let a = set_of(&base);
        let mut b = a.clone();
        let mut a = a;
        for &e in &left {
            a.insert(e);
        }
        b.union_with(&set_of(&right));

        let mut ra: BTreeSet<u32> = base.iter().copied().collect();
        let mut rb = ra.clone();
        ra.extend(left.iter().copied());
        rb.extend(right.iter().copied());
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), ra.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(b.iter().collect::<Vec<_>>(), rb.into_iter().collect::<Vec<_>>());
    }

    /// CoW absorption safety: `union_with` into an empty (or smaller) set
    /// shares the source's chunk blocks; the source must stay intact when
    /// the destination keeps growing, and vice versa.
    #[test]
    fn cow_union_sharing_isolates_mutations(
        src in proptest::collection::vec(elem(), 0..600),
        grow_dst in proptest::collection::vec(elem(), 0..200),
        grow_src in proptest::collection::vec(elem(), 0..200),
    ) {
        let mut source = set_of(&src);
        let mut dst = PointsToSet::new();
        dst.union_with(&source);

        for &e in &grow_dst {
            dst.insert(e);
        }
        source.union_with(&set_of(&grow_src));

        let mut rd: BTreeSet<u32> = src.iter().copied().collect();
        let mut rs = rd.clone();
        rd.extend(grow_dst.iter().copied());
        rs.extend(grow_src.iter().copied());
        prop_assert_eq!(dst.iter().collect::<Vec<_>>(), rd.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(source.iter().collect::<Vec<_>>(), rs.into_iter().collect::<Vec<_>>());
    }

    /// Batched delta commit: coalescing several payloads in a pending
    /// accumulator and committing them with one `union_delta` produces the
    /// same final set, and the same union of new elements, as committing
    /// the payloads one at a time.
    #[test]
    fn batched_delta_equals_stepwise_deltas(
        initial in proptest::collection::vec(0u32..300, 0..40),
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u32..300, 0..20),
            0..8,
        ),
    ) {
        // Stepwise: one union_delta per payload, deltas unioned.
        let mut step_pts = set_of(&initial);
        let mut step_deltas = PointsToSet::new();
        for p in &payloads {
            if let Some(d) = step_pts.union_delta(&set_of(p)) {
                step_deltas.union_with(&d);
            }
        }

        // Batched: coalesce in a pending accumulator, commit once.
        let mut batch_pts = set_of(&initial);
        let mut pending = PointsToSet::new();
        for p in &payloads {
            pending.union_with(&set_of(p));
        }
        let batch_delta = batch_pts.union_delta(&pending).unwrap_or_default();

        prop_assert_eq!(&batch_pts, &step_pts);
        prop_assert_eq!(&batch_delta, &step_deltas);
    }
}
