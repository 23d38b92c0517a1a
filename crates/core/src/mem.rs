//! Memory accounting for the solver data plane.
//!
//! The solver's footprint is dominated by two structures: the points-to
//! sets ([`crate::pts::PointsToSet`] per pointer slot, plus the pending
//! accumulators) and the pointer-flow-graph edge storage (the per-source
//! successor arena and the edge-dedup pair sets). This module gives both a
//! `bytes()`-style walk so `SolverStats` can report `pts_bytes` /
//! `edge_bytes` per solve; the golden suite gate
//! (`crates/core/tests/golden.rs`) pins `pts_bytes` for every suite row.
//!
//! Accounting is *sharing-aware* for the chunked representation's
//! copy-on-write dense blocks: each `Arc`-shared block is attributed to the
//! first set that reaches it, and every later reference is counted as a
//! deduplicated chunk ([`PtsAccount::shared_chunks`]). The numbers are
//! deliberately heap-payload estimates (capacities × element sizes), not
//! allocator-truth; they move with the structures they measure, which is
//! what a regression gate needs.

use crate::fx::FxHashSet;

/// Accumulator for a sharing-aware walk over points-to sets.
#[derive(Default)]
pub struct PtsAccount {
    /// Heap bytes attributed (each shared dense block counted once).
    pub bytes: u64,
    /// Dense-block references that were deduplicated by CoW sharing.
    pub shared_chunks: u64,
    seen: FxHashSet<usize>,
}

impl PtsAccount {
    /// Notes a dense block by address; returns `true` the first time the
    /// block is seen (the caller then attributes its bytes), `false` for
    /// every later reference (the caller counts it as shared).
    pub fn note_block(&mut self, addr: usize) -> bool {
        self.seen.insert(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_block_dedups() {
        let mut acc = PtsAccount::default();
        assert!(acc.note_block(0x1000));
        assert!(!acc.note_block(0x1000));
        assert!(acc.note_block(0x2000));
    }
}
