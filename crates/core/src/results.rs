//! On-disk solved-result cache.
//!
//! Analysis results are pure functions of `(program, analysis,
//! options)`; re-running `csc resolve` (or any other driver) over an
//! unchanged input should answer from disk without running propagation
//! at all. This module caches the *projected* summary of a completed
//! solve — per-variable points-to sets, the reachable-method set, the
//! call-graph edge set, and the four precision metrics — which is
//! exactly the solver's observable output (everything the differential
//! harness compares) and orders of magnitude smaller than the solver
//! state itself.
//!
//! Mechanics mirror the compiled-IR cache (`csc_workloads::compiled`):
//!
//! * content-keyed file names — FNV-1a-64 over the canonical program
//!   encoding ([`csc_ir::Program::to_bytes`]) mixed with canonical
//!   analysis and option descriptors, plus the codec version, so stale
//!   layouts can never be misread;
//! * a dumb, versioned, bounds-checked binary codec: corrupt or
//!   truncated entries decode to `None` and read as misses, never
//!   panics;
//! * atomic population: temp file + rename, unique per process and
//!   call, so concurrent readers never observe a half-written entry;
//! * only **completed** results are cached (a budget-truncated solve is
//!   not a function of the inputs alone);
//! * opt out with `CSC_RESULT_CACHE=0`; redirect with
//!   `CSC_RESULT_CACHE_DIR` (default: the workspace
//!   `target/csc-results`).

use std::path::{Path, PathBuf};

use csc_ir::{CallSiteId, MethodId, ObjId, Program};

use crate::analyses::Analysis;
use crate::clients::PrecisionMetrics;
use crate::solver::{PtaResult, SolverOptions};

/// Magic bytes every encoded summary starts with.
const MAGIC: &[u8; 6] = b"CSCRS\0";
/// Format version; bump whenever the layout (or anything influencing the
/// summarized values) changes.
const VERSION: u32 = 1;

/// The projected summary of one completed solve — the cacheable answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolvedSummary {
    /// The result's analysis tag (e.g. `"csc"`, `"CI"`).
    pub analysis: String,
    /// Projected points-to set per variable, indexed by `VarId`; covers
    /// every variable of the program.
    pub pts: Vec<Vec<ObjId>>,
    /// Projected reachable methods, ascending.
    pub reachable: Vec<MethodId>,
    /// Projected call-graph edges, ascending.
    pub call_edges: Vec<(CallSiteId, MethodId)>,
    /// The four precision metrics of the evaluation.
    pub metrics: PrecisionMetrics,
}

impl SolvedSummary {
    /// Captures the summary of a (completed) result: one projection pass
    /// over the pointer table for every variable, and the metrics taken
    /// from those projections.
    pub fn capture(program: &Program, result: &PtaResult<'_>) -> Self {
        let state = &result.state;
        let pts = state.pt_vars_projected(&vec![true; program.vars().len()]);
        let reachable: Vec<MethodId> = state.reachable_methods_projected().into_iter().collect();
        let call_edges: Vec<_> = state.call_edges_projected().into_iter().collect();
        let metrics = PrecisionMetrics::from_projections(program, &pts, &reachable, &call_edges);
        SolvedSummary {
            analysis: result.analysis.clone(),
            pts,
            reachable,
            call_edges,
            metrics,
        }
    }

    /// Encodes the summary (versioned magic header, little-endian,
    /// length-prefixed tables).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        let u32w = |buf: &mut Vec<u8>, v: u32| buf.extend_from_slice(&v.to_le_bytes());
        let lenw = |buf: &mut Vec<u8>, v: usize| {
            u32w(buf, u32::try_from(v).expect("table length fits u32"))
        };
        lenw(&mut buf, self.analysis.len());
        buf.extend_from_slice(self.analysis.as_bytes());
        lenw(&mut buf, self.pts.len());
        for set in &self.pts {
            lenw(&mut buf, set.len());
            for &o in set {
                u32w(&mut buf, o.raw());
            }
        }
        lenw(&mut buf, self.reachable.len());
        for &m in &self.reachable {
            u32w(&mut buf, m.raw());
        }
        lenw(&mut buf, self.call_edges.len());
        for &(s, m) in &self.call_edges {
            u32w(&mut buf, s.raw());
            u32w(&mut buf, m.raw());
        }
        for v in [
            self.metrics.fail_casts,
            self.metrics.reach_methods,
            self.metrics.poly_calls,
            self.metrics.call_edges,
        ] {
            buf.extend_from_slice(&(v as u64).to_le_bytes());
        }
        buf
    }

    /// Decodes a summary. `None` for anything malformed — wrong magic,
    /// stale version, truncation, trailing bytes — so cache readers
    /// treat damage as a miss.
    pub fn from_bytes(bytes: &[u8]) -> Option<SolvedSummary> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC.as_slice() || r.u32()? != VERSION {
            return None;
        }
        let alen = r.u32()? as usize;
        let analysis = std::str::from_utf8(r.take(alen)?).ok()?.to_owned();
        let nvars = r.u32()? as usize;
        let mut pts = Vec::with_capacity(nvars.min(r.remaining() / 4));
        for _ in 0..nvars {
            let n = r.u32()? as usize;
            if n > r.remaining() / 4 {
                return None;
            }
            let mut set = Vec::with_capacity(n);
            for _ in 0..n {
                set.push(ObjId::new(r.u32()?));
            }
            pts.push(set);
        }
        let n = r.u32()? as usize;
        if n > r.remaining() / 4 {
            return None;
        }
        let reachable = (0..n)
            .map(|_| r.u32().map(MethodId::new))
            .collect::<Option<Vec<_>>>()?;
        let n = r.u32()? as usize;
        if n > r.remaining() / 8 {
            return None;
        }
        let call_edges = (0..n)
            .map(|_| Some((CallSiteId::new(r.u32()?), MethodId::new(r.u32()?))))
            .collect::<Option<Vec<_>>>()?;
        let mut metric = || r.u64().map(|v| v as usize);
        let metrics = PrecisionMetrics {
            fail_casts: metric()?,
            reach_methods: metric()?,
            poly_calls: metric()?,
            call_edges: metric()?,
        };
        if r.remaining() != 0 {
            return None;
        }
        Some(SolvedSummary {
            analysis,
            pts,
            reachable,
            call_edges,
            metrics,
        })
    }
}

/// Bounds-checked little-endian reader.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// FNV-1a 64.
fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cache key of `(program, analysis, options)`: FNV-1a-64 over the
/// canonical program encoding, chained through canonical analysis and
/// option descriptors and the codec version. Conservative by design —
/// options that are provably result-neutral (engine, thread count) still
/// key distinct entries; a cache must not depend on that theorem.
pub fn result_cache_key(program: &Program, analysis: &Analysis, opts: &SolverOptions) -> u64 {
    let mut h = fnv1a64(0xcbf2_9ce4_8422_2325, &program.to_bytes());
    h = fnv1a64(h, format!("{analysis:?}").as_bytes());
    h = fnv1a64(h, format!("{opts:?}").as_bytes());
    h ^ u64::from(VERSION).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Whether the result cache is enabled (`CSC_RESULT_CACHE=0` disables).
pub fn result_cache_enabled() -> bool {
    !matches!(
        std::env::var("CSC_RESULT_CACHE").as_deref(),
        Ok("0") | Ok("off")
    )
}

/// The cache directory: `CSC_RESULT_CACHE_DIR`, or the workspace
/// `target/csc-results` (anchored at this crate's manifest so tests and
/// binaries agree regardless of working directory).
pub fn result_cache_dir() -> PathBuf {
    std::env::var_os("CSC_RESULT_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/csc-results"))
}

/// Looks a summary up by key. Any I/O or decode failure — or a panic
/// anywhere in the read path (injected or organic) — is a miss, never an
/// abort: the cache is an accelerator, not a dependency.
pub fn load_result(dir: &Path, key: u64) -> Option<SolvedSummary> {
    std::panic::catch_unwind(|| {
        crate::fault::hit_io(crate::fault::FaultPoint::CacheRead).ok()?;
        let bytes = std::fs::read(dir.join(format!("{key:016x}.bin"))).ok()?;
        SolvedSummary::from_bytes(&bytes)
    })
    .unwrap_or(None)
}

/// Stores a summary under a key, best-effort and atomic (temp + rename,
/// unique per process and call, so concurrent harness processes sharing a
/// target dir never clobber each other's temp files). Transient I/O
/// errors and rename collisions get one bounded retry with a fresh temp
/// name, then the store is silently skipped; panics in the write path are
/// contained the same way. Callers must only pass summaries of
/// **completed** solves.
pub fn store_result(dir: &Path, key: u64, summary: &SolvedSummary) {
    let _ = std::panic::catch_unwind(|| {
        let path = dir.join(format!("{key:016x}.bin"));
        let attempt = || -> std::io::Result<()> {
            crate::fault::hit_io(crate::fault::FaultPoint::CacheWrite)?;
            std::fs::create_dir_all(dir)?;
            let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), next_tmp_seq()));
            std::fs::write(&tmp, summary.to_bytes())?;
            std::fs::rename(&tmp, &path).inspect_err(|_| {
                // A failed rename must not strand the temp file.
                let _ = std::fs::remove_file(&tmp);
            })
        };
        if attempt().is_err() {
            let _ = attempt();
        }
    });
}

/// Process-unique temp-file sequence shared by cache writers.
pub fn next_tmp_seq() -> u64 {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Budget;
    use crate::{run_analysis, Analysis};

    const SRC: &str = r#"
        class Item { }
        class Carton {
            Item item;
            void setItem(Item item) { this.item = item; }
            Item getItem() { Item r; r = this.item; return r; }
        }
        class Main {
            static void main() {
                Carton c = new Carton();
                Item i = new Item();
                c.setItem(i);
                Item got = c.getItem();
            }
        }
    "#;

    fn sample_summary() -> (csc_ir::Program, SolvedSummary) {
        let program = csc_frontend::compile(SRC).unwrap();
        let out = run_analysis(&program, Analysis::CutShortcut, Budget::unlimited());
        assert!(out.completed());
        let summary = SolvedSummary::capture(&program, &out.result);
        (program, summary)
    }

    #[test]
    fn summary_roundtrips() {
        let (_, summary) = sample_summary();
        let decoded = SolvedSummary::from_bytes(&summary.to_bytes()).expect("decodes");
        assert_eq!(summary, decoded);
        assert_eq!(decoded.analysis, "csc");
        assert!(!decoded.reachable.is_empty());
    }

    #[test]
    fn store_then_load_hits() {
        let (program, summary) = sample_summary();
        let dir = std::env::temp_dir().join(format!("csc-results-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = result_cache_key(&program, &Analysis::CutShortcut, &SolverOptions::default());
        assert!(load_result(&dir, key).is_none(), "cold cache must miss");
        store_result(&dir, key, &summary);
        assert_eq!(load_result(&dir, key).as_ref(), Some(&summary));
        // A different analysis (or options) keys a different entry.
        let other = result_cache_key(&program, &Analysis::Ci, &SolverOptions::default());
        assert_ne!(key, other);
        assert!(load_result(&dir, other).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The corrupt-entry contract: truncation and bit damage anywhere in
    /// the file must read as a miss, never a panic or a wrong summary.
    #[test]
    fn corrupt_entries_read_as_misses() {
        let (_, summary) = sample_summary();
        let good = summary.to_bytes();
        // Truncation at every prefix length.
        for cut in 0..good.len() {
            assert!(
                SolvedSummary::from_bytes(&good[..cut]).is_none(),
                "truncation at {cut} bytes must miss"
            );
        }
        // Single-bit flips: either a clean miss, or a decode to exactly
        // the flipped-field value — never a panic. (Most flips land in
        // length fields or the header and miss; id-payload flips decode
        // to a different but structurally valid summary, which the
        // content-addressed key makes unreachable in practice.)
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            let _ = SolvedSummary::from_bytes(&bad);
        }
        // Header and version flips specifically must always miss.
        for i in 0..10 {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                SolvedSummary::from_bytes(&bad).is_none(),
                "header flip at byte {i} must miss"
            );
        }
        // Trailing garbage must miss.
        let mut long = good.clone();
        long.push(0);
        assert!(SolvedSummary::from_bytes(&long).is_none());
    }

    /// A damaged on-disk entry must behave exactly like a miss for the
    /// load/store pair too.
    #[test]
    fn corrupt_file_is_a_miss() {
        let (program, summary) = sample_summary();
        let dir = std::env::temp_dir().join(format!("csc-results-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = result_cache_key(&program, &Analysis::CutShortcut, &SolverOptions::default());
        store_result(&dir, key, &summary);
        let path = dir.join(format!("{key:016x}.bin"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            load_result(&dir, key).is_none(),
            "truncated entry must miss"
        );
        // Re-store repopulates and the hit comes back.
        store_result(&dir, key, &summary);
        assert_eq!(load_result(&dir, key).as_ref(), Some(&summary));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The key must track program content, not identity.
    #[test]
    fn key_tracks_program_content() {
        let program = csc_frontend::compile(SRC).unwrap();
        let same = csc_frontend::compile(SRC).unwrap();
        let different =
            csc_frontend::compile("class Main { static void main() { Object o = new Object(); } }")
                .unwrap();
        let opts = SolverOptions::default();
        let a = result_cache_key(&program, &Analysis::Ci, &opts);
        assert_eq!(a, result_cache_key(&same, &Analysis::Ci, &opts));
        assert_ne!(a, result_cache_key(&different, &Analysis::Ci, &opts));
        assert_ne!(
            a,
            result_cache_key(&program, &Analysis::Ci, &opts.with_threads(4)),
            "options are part of the key"
        );
    }
}
