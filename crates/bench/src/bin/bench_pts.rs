//! `bench_pts` — micro-harness for the [`csc_core::PointsToSet`] union
//! kernels (the innermost loops of the whole solver).
//!
//! Times four pairings the propagation engine actually executes:
//!
//! * `large∪large widen` — `union_with` on two promoted (chunked) sets
//!   (the accumulator path),
//! * `large∪large delta` — `union_delta` on the same operands (the
//!   delta-extraction path),
//! * `large∪large subset` — the no-op union fast path at fixpoint,
//! * `small∪small merge` — the sorted-vector merge below `SMALL_MAX`.
//!
//! Operands are rebuilt from a fixed xorshift seed each iteration batch,
//! so runs are comparable across commits; a checksum of every result is
//! printed to keep the optimizer from deleting the work. Iteration count
//! scales with `CSC_PTS_ITERS` (default 2000).
//!
//! A second section times unions on three element distributions the
//! solver produces — `sparse` (few ids scattered over a wide universe),
//! `clustered` (ids bunched into a few hot chunks, the common
//! allocation-site locality shape), and `dense` (most of a narrow
//! universe) — reporting ns/union and the exact heap bytes per set.

use std::time::Instant;

use csc_core::PointsToSet;

/// Deterministic xorshift32 — no external RNG, identical streams on every
/// run and machine.
struct XorShift(u32);

impl XorShift {
    fn next(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.0 = x;
        x
    }
}

/// A pseudo-random set of `len` elements drawn from `0..universe`.
fn random_set(rng: &mut XorShift, len: usize, universe: u32) -> PointsToSet {
    let mut s = PointsToSet::new();
    while s.len() < len {
        s.insert(rng.next() % universe);
    }
    s
}

fn bench(label: &str, iters: u32, mut f: impl FnMut() -> u64) {
    // One warm-up batch, then the timed run.
    let mut checksum = f();
    let start = Instant::now();
    for _ in 0..iters {
        checksum = checksum.wrapping_add(f());
    }
    let elapsed = start.elapsed();
    println!(
        "{label:<20} {:>10.1} ns/op   (iters={iters}, checksum={checksum})",
        elapsed.as_nanos() as f64 / f64::from(iters),
    );
}

fn main() {
    let iters: u32 = std::env::var("CSC_PTS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let mut rng = XorShift(0x9e37_79b9);

    // Large operands: ~4k elements over a 64k universe, comfortably past
    // promotion, the shape of a hot library pointer.
    let big_a = random_set(&mut rng, 4096, 65_536);
    let big_b = random_set(&mut rng, 4096, 65_536);
    // Small operands: the sub-`SMALL_MAX` sorted-vector regime.
    let small_a = random_set(&mut rng, 48, 65_536);
    let small_b = random_set(&mut rng, 48, 65_536);

    bench("large∪large widen", iters, || {
        let mut s = big_a.clone();
        s.union_with(&big_b);
        s.len() as u64
    });
    bench("large∪large delta", iters, || {
        let mut s = big_a.clone();
        let d = s.union_delta(&big_b).map_or(0, |d| d.len());
        (s.len() + d) as u64
    });
    bench("large∪large subset", iters, || {
        // `big_a ∪ big_a` is the fixpoint no-op the subset test answers.
        let mut s = big_a.clone();
        u64::from(s.union_with(&big_a))
    });
    bench("small∪small merge", iters, || {
        let mut s = small_a.clone();
        s.union_with(&small_b);
        s.len() as u64
    });

    // ---- element distributions -------------------------------------------
    //
    // The rng is reseeded per distribution, so every run unions
    // element-identical operands.
    println!();
    println!(
        "{:<11} {:>12} {:>13} {:>9}",
        "Distrib", "ns/union", "bytes/set", "elems"
    );
    for (dist, len, universe) in [
        // Few ids scattered wide: one sparse chunk per few elements.
        ("sparse", 256usize, 1 << 20u32),
        // Allocation-site locality: many ids inside a handful of chunks.
        ("clustered", 4096, 1 << 20),
        // Most of a narrow universe: every chunk dense.
        ("dense", 49_152, 1 << 16),
    ] {
        let mut rng = XorShift(0xdead_beef ^ len as u32);
        let (a, b) = if dist == "clustered" {
            // Draw from four 4096-id windows spread across the
            // universe — the chunked layout's best case.
            let windows: Vec<u32> = (0..4).map(|_| (rng.next() % universe) & !0xfff).collect();
            let clustered = |rng: &mut XorShift| {
                let mut s = PointsToSet::new();
                while s.len() < len {
                    let w = windows[(rng.next() % 4) as usize];
                    s.insert(w + (rng.next() & 0xfff));
                }
                s
            };
            (clustered(&mut rng), clustered(&mut rng))
        } else {
            (
                random_set(&mut rng, len, universe),
                random_set(&mut rng, len, universe),
            )
        };
        let mut checksum = 0u64;
        let start = Instant::now();
        for _ in 0..iters {
            let mut s = a.clone();
            s.union_with(&b);
            checksum = checksum.wrapping_add(s.len() as u64);
        }
        let elapsed = start.elapsed();
        let mut merged = a.clone();
        merged.union_with(&b);
        println!(
            "{dist:<11} {:>12.1} {:>13} {:>9}   (checksum={checksum})",
            elapsed.as_nanos() as f64 / f64::from(iters),
            merged.heap_bytes(),
            merged.len(),
        );
    }
}
