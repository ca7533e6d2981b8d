//! Chunk-paged CSR: adjacency spilled to a backing file, served through a
//! real LRU chunk cache.
//!
//! [`PagedGraph`](super::PagedGraph) *simulates* CCAM I/O costs while the
//! arcs stay in memory — the right tool for measuring fault counts on
//! city-scale maps. Continent-scale maps (10⁶ nodes, §V's server-cost
//! setting) also need the *capacity* story: a map larger than RAM must
//! stay servable. [`ChunkedCsr`] provides it by writing the CSR arc array
//! to disk in fixed-size chunks at build time and faulting chunks back in
//! on demand:
//!
//! * in memory: the `n + 1` CSR offsets, node coordinates, and an exact-LRU
//!   cache of decoded chunks (capacity fixed in chunks, so the resident
//!   set is bounded regardless of map size);
//! * on disk: the arc records — 12 bytes each (`u32` head + `f64` weight,
//!   little-endian) — in node order, exactly the CCAM clustering premise
//!   that a node's arcs are contiguous.
//!
//! The store implements [`GraphView`], so every search algorithm runs
//! against it unchanged; [`ChunkedCsr::io_stats`] reports chunk accesses,
//! faults, and evictions through the same [`IoStats`] counters the
//! simulated layer uses. Arc enumeration holds the internal cache borrow
//! while invoking the callback, so `for_each_arc` callbacks must not
//! re-enter the same `ChunkedCsr` (no search in this workspace does).

use super::lru::{IoStats, LruBuffer};
use crate::error::Result;
use crate::geo::Point;
use crate::graph::{GraphView, RoadNetwork};
use crate::ids::NodeId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes per on-disk arc record: `u32` head + `f64` weight.
const RECORD_BYTES: usize = 12;

/// Sizing knobs for [`ChunkedCsr`].
#[derive(Clone, Copy, Debug)]
pub struct ChunkConfig {
    /// Arc records per chunk (≥ 1). Default 4096 ≈ 48 KiB chunks.
    pub arcs_per_chunk: usize,
    /// Chunks held in memory (≥ 1). Default 64, bounding the resident arc
    /// set to ~3 MiB regardless of map size.
    pub cached_chunks: usize,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        ChunkConfig { arcs_per_chunk: 4096, cached_chunks: 64 }
    }
}

/// Decoded chunks currently resident, with exact-LRU recency.
struct ChunkCache {
    lru: LruBuffer,
    data: HashMap<u32, Vec<(u32, f64)>>,
}

/// A road network whose arc array lives in a backing file, paged in
/// chunk-by-chunk. See the [storage module docs](super).
pub struct ChunkedCsr {
    offsets: Vec<u64>,
    points: Vec<Point>,
    symmetric: bool,
    arcs_per_chunk: usize,
    num_arcs: u64,
    file: RefCell<std::fs::File>,
    cache: RefCell<ChunkCache>,
    path: PathBuf,
    owns_file: bool,
}

impl ChunkedCsr {
    /// Spill `g`'s arc array to a new backing file at `path` and return a
    /// store serving it. The file is overwritten if present and is left on
    /// disk when the store drops (use [`ChunkedCsr::spill_temp`] for a
    /// self-cleaning store).
    ///
    /// # Errors
    /// Propagates I/O errors from creating or writing the backing file.
    pub fn spill(g: &RoadNetwork, path: &Path, cfg: ChunkConfig) -> Result<Self> {
        Self::spill_inner(g, path.to_path_buf(), cfg, false)
    }

    /// [`ChunkedCsr::spill`] into a uniquely named file under the system
    /// temp directory, removed when the store drops.
    ///
    /// # Errors
    /// Propagates I/O errors from creating or writing the backing file.
    pub fn spill_temp(g: &RoadNetwork, cfg: ChunkConfig) -> Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "roadnet_chunked_{}_{}.csr",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        Self::spill_inner(g, std::env::temp_dir().join(unique), cfg, true)
    }

    fn spill_inner(g: &RoadNetwork, path: PathBuf, cfg: ChunkConfig, owns: bool) -> Result<Self> {
        assert!(cfg.arcs_per_chunk >= 1, "chunks must hold at least one arc");
        assert!(cfg.cached_chunks >= 1, "cache must hold at least one chunk");
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut writer = BufWriter::new(std::fs::File::create(&path)?);
        let mut written = 0u64;
        let mut record = [0u8; RECORD_BYTES];
        for node in g.nodes() {
            offsets.push(written);
            for a in g.arcs(node) {
                record[..4].copy_from_slice(&a.to.0.to_le_bytes());
                record[4..].copy_from_slice(&a.weight.to_le_bytes());
                writer.write_all(&record)?;
                written += 1;
            }
        }
        offsets.push(written);
        writer.flush()?;
        drop(writer);
        let file = std::fs::File::open(&path)?;
        Ok(ChunkedCsr {
            offsets,
            points: g.nodes().map(|node| g.point(node)).collect(),
            symmetric: g.is_symmetric(),
            arcs_per_chunk: cfg.arcs_per_chunk,
            num_arcs: written,
            file: RefCell::new(file),
            cache: RefCell::new(ChunkCache {
                lru: LruBuffer::new(cfg.cached_chunks),
                data: HashMap::with_capacity(cfg.cached_chunks),
            }),
            path,
            owns_file: owns,
        })
    }

    /// Total arcs on disk.
    pub fn num_arcs(&self) -> u64 {
        self.num_arcs
    }

    /// Configured arcs per chunk.
    pub fn arcs_per_chunk(&self) -> usize {
        self.arcs_per_chunk
    }

    /// Backing file location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Chunk-level I/O counters accumulated so far: each fault is one real
    /// backing-file read of one chunk.
    pub fn io_stats(&self) -> IoStats {
        self.cache.borrow().lru.stats()
    }

    /// Zero the counters, keeping resident chunks (warm cache).
    pub fn reset_io_stats(&self) {
        self.cache.borrow_mut().lru.reset_stats();
    }

    /// Bytes of arc data currently resident.
    pub fn resident_bytes(&self) -> usize {
        // lint: allow(hash-iter) — a sum over all resident chunks;
        // addition over usize is commutative, so order cannot reach the
        // reported byte count.
        self.cache.borrow().data.values().map(|v| v.len() * RECORD_BYTES).sum()
    }

    /// Make `chunk` resident, reading it from the backing file on a fault.
    fn ensure_resident(&self, cache: &mut ChunkCache, chunk: u32) {
        // The LRU decides residency; on eviction the victim's decoded data
        // must be dropped too.
        let (faulted, evicted) = cache.lru.touch_evicting(chunk);
        if !faulted {
            return;
        }
        if let Some(victim) = evicted {
            cache.data.remove(&victim);
        }
        let start_arc = chunk as u64 * self.arcs_per_chunk as u64;
        let arcs = (self.num_arcs - start_arc).min(self.arcs_per_chunk as u64) as usize;
        let mut raw = vec![0u8; arcs * RECORD_BYTES];
        {
            let mut f = self.file.borrow_mut();
            f.seek(SeekFrom::Start(start_arc * RECORD_BYTES as u64)).expect("backing file seek");
            f.read_exact(&mut raw).expect("backing file read");
        }
        let decoded = raw
            .chunks_exact(RECORD_BYTES)
            .map(|r| {
                let to = u32::from_le_bytes(r[..4].try_into().expect("4 bytes"));
                let w = f64::from_le_bytes(r[4..].try_into().expect("8 bytes"));
                (to, w)
            })
            .collect();
        cache.data.insert(chunk, decoded);
    }
}

impl Drop for ChunkedCsr {
    fn drop(&mut self) {
        if self.owns_file {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl GraphView for ChunkedCsr {
    fn num_nodes(&self) -> usize {
        self.points.len()
    }

    fn point(&self, n: NodeId) -> Point {
        // Coordinates are part of the in-memory directory, like
        // `PagedGraph`: no chunk touch.
        self.points[n.index()]
    }

    fn for_each_arc(&self, n: NodeId, f: &mut dyn FnMut(NodeId, f64)) {
        let start = self.offsets[n.index()];
        let end = self.offsets[n.index() + 1];
        let apc = self.arcs_per_chunk as u64;
        let mut cache = self.cache.borrow_mut();
        let mut i = start;
        while i < end {
            let chunk = (i / apc) as u32;
            self.ensure_resident(&mut cache, chunk);
            let data = &cache.data[&chunk];
            let lo = (i - chunk as u64 * apc) as usize;
            let hi = ((end - chunk as u64 * apc) as usize).min(data.len());
            for &(to, w) in &data[lo..hi] {
                f(NodeId(to), w);
            }
            i += (hi - lo) as u64;
        }
    }

    fn is_symmetric(&self) -> bool {
        self.symmetric
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GridConfig, grid_network};

    fn net() -> RoadNetwork {
        grid_network(&GridConfig { width: 14, height: 11, seed: 9, ..Default::default() }).unwrap()
    }

    fn tiny_chunks() -> ChunkConfig {
        // Force many chunks and a small cache so eviction paths run.
        ChunkConfig { arcs_per_chunk: 16, cached_chunks: 3 }
    }

    #[test]
    fn serves_arcs_identical_to_the_in_memory_network() {
        let g = net();
        let c = ChunkedCsr::spill_temp(&g, tiny_chunks()).unwrap();
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_arcs(), g.num_arcs() as u64);
        assert!(c.is_symmetric());
        for n in g.nodes() {
            assert_eq!(c.point(n), g.point(n));
            let mut via_chunks = Vec::new();
            c.for_each_arc(n, &mut |to, w| via_chunks.push((to, w)));
            let direct: Vec<(NodeId, f64)> = g.arcs(n).iter().map(|a| (a.to, a.weight)).collect();
            assert_eq!(via_chunks, direct, "node {n}");
        }
    }

    #[test]
    fn faults_are_counted_and_bounded_by_residency() {
        let g = net();
        let c = ChunkedCsr::spill_temp(&g, tiny_chunks()).unwrap();
        for n in g.nodes() {
            c.for_each_arc(n, &mut |_, _| {});
        }
        let s = c.io_stats();
        let chunks = |c: &ChunkedCsr| c.num_arcs().div_ceil(c.arcs_per_chunk() as u64);
        assert!(s.faults >= chunks(&c), "every chunk read at least once");
        assert!(s.accesses > s.faults, "sequential scan re-touches resident chunks");
        assert!(c.resident_bytes() <= 3 * 16 * RECORD_BYTES);
        // Two chunks, node 0's chunk re-touched after every node: recency,
        // not arrival order, must pick each victim. The counters are
        // experiment outputs (`e20`'s paged leg), so the triple is pinned.
        let two = ChunkedCsr::spill_temp(&g, ChunkConfig { arcs_per_chunk: 16, cached_chunks: 2 })
            .unwrap();
        for n in g.nodes() {
            two.for_each_arc(n, &mut |_, _| {});
            two.for_each_arc(NodeId(0), &mut |_, _| {});
            assert!(two.resident_bytes() <= 2 * 16 * RECORD_BYTES);
        }
        assert_eq!(two.io_stats(), IoStats { accesses: 326, faults: 51, evictions: 49 });
        // A second sequential pass with a big-enough cache never faults.
        let warm =
            ChunkedCsr::spill_temp(&g, ChunkConfig { arcs_per_chunk: 16, cached_chunks: 4096 })
                .unwrap();
        for n in g.nodes() {
            warm.for_each_arc(n, &mut |_, _| {});
        }
        let first = warm.io_stats().faults;
        assert_eq!(first, chunks(&warm));
        for n in g.nodes() {
            warm.for_each_arc(n, &mut |_, _| {});
        }
        assert_eq!(warm.io_stats().faults, first, "warm cache serves pass 2");
    }

    #[test]
    fn stats_reset_keeps_the_cache_warm() {
        let g = net();
        let c = ChunkedCsr::spill_temp(&g, tiny_chunks()).unwrap();
        c.for_each_arc(NodeId(0), &mut |_, _| {});
        c.reset_io_stats();
        c.for_each_arc(NodeId(0), &mut |_, _| {});
        assert_eq!(c.io_stats().faults, 0, "warm cache after stats reset");
    }

    #[test]
    fn searches_run_unchanged_over_the_chunked_store() {
        let g = net();
        let c = ChunkedCsr::spill_temp(&g, tiny_chunks()).unwrap();
        // Hand-rolled Dijkstra would be overkill here; adjacency equality
        // (test above) plus a spot check that multi-chunk nodes stitch
        // correctly across the boundary is what this layer owes.
        let boundary = NodeId::from_index(
            (0..g.num_nodes())
                .find(|&i| {
                    let (s, e) = (c.offsets[i], c.offsets[i + 1]);
                    s / 16 != (e.max(1) - 1) / 16 && e > s
                })
                .expect("some node spans a 16-arc chunk boundary"),
        );
        let mut via_chunks = Vec::new();
        c.for_each_arc(boundary, &mut |to, w| via_chunks.push((to, w)));
        let direct: Vec<(NodeId, f64)> =
            g.arcs(boundary).iter().map(|a| (a.to, a.weight)).collect();
        assert_eq!(via_chunks, direct);
    }

    #[test]
    fn spill_to_explicit_path_leaves_the_file() {
        let g = net();
        let dir = std::env::temp_dir().join("roadnet_chunked_explicit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.csr");
        {
            let c = ChunkedCsr::spill(&g, &path, ChunkConfig::default()).unwrap();
            assert_eq!(c.path(), path.as_path());
        }
        assert!(path.exists(), "explicit spill files persist past drop");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            g.num_arcs() as u64 * RECORD_BYTES as u64
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn temp_spill_removes_its_file_on_drop() {
        let g = net();
        let path = {
            let c = ChunkedCsr::spill_temp(&g, ChunkConfig::default()).unwrap();
            c.path().to_path_buf()
        };
        assert!(!path.exists(), "temp spill cleans up after itself");
    }
}
