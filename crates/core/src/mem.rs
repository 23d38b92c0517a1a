//! Memory accounting for the solver data plane.
//!
//! The solver's footprint is dominated by two structures: the points-to
//! sets ([`crate::pts::PointsToSet`] per pointer slot, plus the pending
//! accumulators) and the pointer-flow-graph edge storage (the per-source
//! successor arena and the edge-dedup pair sets). This module gives both a
//! `bytes()`-style walk so `SolverStats` can report `pts_bytes` /
//! `edge_bytes` / `shared_chunks` per solve, and the bench harness can put
//! them next to `peak_rss_kb` in `BENCH_main.json`.
//!
//! Accounting is *sharing-aware* for the chunked representation's
//! copy-on-write dense blocks: each `Arc`-shared block is attributed to the
//! first set that reaches it, and every later reference is counted as a
//! deduplicated chunk ([`PtsAccount::shared_chunks`]) with the bytes it
//! *would* have cost recorded in [`PtsAccount::shared_bytes`]. The numbers
//! are deliberately heap-payload estimates (capacities × element sizes),
//! not allocator-truth; they move with the structures they measure, which
//! is what a regression gate needs.

use crate::fx::FxHashSet;

/// Accumulator for a sharing-aware walk over points-to sets.
#[derive(Default)]
pub struct PtsAccount {
    /// Heap bytes attributed (each shared dense block counted once).
    pub bytes: u64,
    /// Dense-block references that were deduplicated by CoW sharing.
    pub shared_chunks: u64,
    /// Bytes those deduplicated references would have cost unshared.
    pub shared_bytes: u64,
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

/// Peak resident set size of this process in kilobytes, from
/// `/proc/self/status` `VmHWM` (Linux high-water mark). `None` off Linux
/// or when the field is absent — callers print `-` and skip gating.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok();
        }
    }
    None
}

/// Resets the peak RSS that [`peak_rss_kb`] reports to the current RSS,
/// by writing `5` to `/proc/self/clear_refs` (Linux 4.0+), so the next
/// reading covers only what ran since. A no-op where that file is
/// missing or not writable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
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

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("VmHWM present on Linux");
            assert!(kb > 0);
            // 64 MiB is above glibc's largest mmap threshold, so the
            // allocation is unmapped on drop and the reset must bring the
            // high-water mark back down.
            let big = vec![1u8; 64 << 20];
            std::hint::black_box(&big);
            let high = peak_rss_kb().expect("VmHWM present on Linux");
            drop(big);
            reset_peak_rss();
            let low = peak_rss_kb().expect("VmHWM present on Linux");
            assert!(
                low + 32 * 1024 < high,
                "reset must lower VmHWM after the free: {high} kB -> {low} kB"
            );
        }
    }
}
