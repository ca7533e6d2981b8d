//! Paged CSR: adjacency spilled to a backing file page by page, following a
//! [`PageLayout`], and served through an exact-LRU page buffer.
//!
//! * in memory: each node's page and record range, the page offsets into
//!   the file, node coordinates, and an [`LruBuffer`] of decoded pages
//!   (capacity fixed in pages, so the resident set is bounded regardless
//!   of map size);
//! * on disk: the arc records — 12 bytes each (`u32` head + `f64` weight,
//!   little-endian) — grouped by page in page order, a page's nodes in id
//!   order, so a node's arcs are contiguous and share its page: the CCAM
//!   clustering premise.
//!
//! Every `for_each_arc(n)` touches `n`'s page exactly once, even when `n`
//! has no arcs, and each fault is one real read of one page;
//! [`ChunkedCsr::io_stats`] reports the accesses, faults, and evictions.
//! Arc enumeration holds the internal buffer borrow while invoking the
//! callback, so `for_each_arc` callbacks must not re-enter the same
//! `ChunkedCsr` (no search in this workspace does).

use super::PageLayout;
use super::lru::{IoStats, LruBuffer};
use crate::error::Result;
use crate::geo::Point;
use crate::graph::{GraphView, RoadNetwork};
use crate::ids::NodeId;
use std::cell::RefCell;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes per on-disk arc record: `u32` head + `f64` weight.
const RECORD_BYTES: usize = 12;

/// Where a node's arcs sit: its page and its record range inside it.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    page: u32,
    lo: u32,
    hi: u32,
}

/// A road network whose arc records live in a backing file, paged in
/// through a bounded buffer. See the [storage module docs](super).
pub struct ChunkedCsr {
    spans: Vec<Span>,
    /// First record of each page, then the total record count.
    page_start: Vec<u64>,
    points: Vec<Point>,
    symmetric: bool,
    file: RefCell<std::fs::File>,
    buffer: RefCell<LruBuffer<u32, Vec<(NodeId, f64)>>>,
    path: PathBuf,
    owns_file: bool,
}

impl ChunkedCsr {
    /// Spill `g`'s arcs to a new backing file at `path`, page by page as
    /// `layout` places them, and serve them through a buffer of
    /// `buffer_pages` pages. The file is overwritten if present and is
    /// left on disk when the store drops (use [`ChunkedCsr::spill_temp`]
    /// for a self-cleaning store).
    ///
    /// # Errors
    /// Propagates I/O errors from creating or writing the backing file.
    ///
    /// # Panics
    /// Panics if `layout` was built for a map of another size or
    /// `buffer_pages` is 0.
    pub fn spill(
        g: &RoadNetwork,
        layout: &PageLayout,
        buffer_pages: usize,
        path: &Path,
    ) -> Result<Self> {
        Self::spill_inner(g, layout, buffer_pages, path.to_path_buf(), false)
    }

    /// [`ChunkedCsr::spill`] into a uniquely named file under the system
    /// temp directory, removed when the store drops.
    ///
    /// # Errors
    /// Propagates I/O errors from creating or writing the backing file.
    ///
    /// # Panics
    /// As [`ChunkedCsr::spill`].
    pub fn spill_temp(g: &RoadNetwork, layout: &PageLayout, buffer_pages: usize) -> Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "roadnet_chunked_{}_{}.csr",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        Self::spill_inner(g, layout, buffer_pages, std::env::temp_dir().join(unique), true)
    }

    fn spill_inner(
        g: &RoadNetwork,
        layout: &PageLayout,
        buffer_pages: usize,
        path: PathBuf,
        owns_file: bool,
    ) -> Result<Self> {
        assert_eq!(layout.page_of.len(), g.num_nodes(), "layout built for another map");
        // Reject a zero buffer before any file exists.
        let buffer = LruBuffer::new(buffer_pages);
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_by_key(|&n| layout.page_of(n));

        let mut spans = vec![Span::default(); g.num_nodes()];
        let mut page_start = Vec::with_capacity(layout.num_pages() + 1);
        let mut writer = BufWriter::new(std::fs::File::create(&path)?);
        let mut written = 0u64;
        let mut record = [0u8; RECORD_BYTES];
        for n in order {
            let page = layout.page_of(n);
            while page_start.len() <= page as usize {
                page_start.push(written);
            }
            let lo = (written - page_start[page as usize]) as u32;
            for a in g.arcs(n) {
                record[..4].copy_from_slice(&a.to.0.to_le_bytes());
                record[4..].copy_from_slice(&a.weight.to_le_bytes());
                writer.write_all(&record)?;
                written += 1;
            }
            spans[n.index()] = Span { page, lo, hi: lo + g.degree(n) as u32 };
        }
        page_start.resize(layout.num_pages() + 1, written);
        writer.flush()?;
        drop(writer);
        let file = std::fs::File::open(&path)?;
        Ok(ChunkedCsr {
            spans,
            page_start,
            points: g.points().to_vec(),
            symmetric: g.is_symmetric(),
            file: RefCell::new(file),
            buffer: RefCell::new(buffer),
            path,
            owns_file,
        })
    }

    /// Total arcs on disk.
    pub fn num_arcs(&self) -> u64 {
        self.page_start.last().copied().unwrap_or(0)
    }

    /// Backing file location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Page-level I/O counters accumulated so far: each fault is one real
    /// backing-file read of one page.
    pub fn io_stats(&self) -> IoStats {
        self.buffer.borrow().stats()
    }

    /// Bytes of arc records currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.buffer.borrow().iter().map(|(_, records)| records.len() * RECORD_BYTES).sum()
    }

    /// Read and decode `page`'s records from the backing file.
    fn read_page(&self, page: u32) -> Vec<(NodeId, f64)> {
        let start = self.page_start[page as usize];
        let records = (self.page_start[page as usize + 1] - start) as usize;
        let mut raw = vec![0u8; records * RECORD_BYTES];
        let mut f = self.file.borrow_mut();
        f.seek(SeekFrom::Start(start * RECORD_BYTES as u64)).expect("backing file seek");
        f.read_exact(&mut raw).expect("backing file read");
        raw.chunks_exact(RECORD_BYTES)
            .map(|r| {
                let to = u32::from_le_bytes(r[..4].try_into().expect("4 bytes"));
                let w = f64::from_le_bytes(r[4..].try_into().expect("8 bytes"));
                (NodeId(to), w)
            })
            .collect()
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
        // Coordinates are part of the in-memory directory: no page touch.
        self.points[n.index()]
    }

    fn for_each_arc(&self, n: NodeId, f: &mut dyn FnMut(NodeId, f64)) {
        let Span { page, lo, hi } = self.spans[n.index()];
        let mut buffer = self.buffer.borrow_mut();
        if buffer.get(&page).is_none() {
            let records = self.read_page(page);
            buffer.insert(page, records);
        }
        let records = buffer.peek(&page).expect("page just made resident");
        for &(to, w) in &records[lo as usize..hi as usize] {
            f(to, w);
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
    use crate::storage::PagePlacement;

    fn net() -> RoadNetwork {
        grid_network(&GridConfig { width: 14, height: 11, seed: 9, ..Default::default() }).unwrap()
    }

    /// Small pages, so the file has many and eviction paths run.
    fn tiny_pages(g: &RoadNetwork) -> PageLayout {
        PageLayout::build(g, PagePlacement::Connectivity, 16)
    }

    #[test]
    fn serves_arcs_identical_to_the_in_memory_network() {
        let g = net();
        for placement in [PagePlacement::Connectivity, PagePlacement::Random { seed: 4 }] {
            let layout = PageLayout::build(&g, placement, 16);
            let c = ChunkedCsr::spill_temp(&g, &layout, 3).unwrap();
            assert_eq!(c.num_nodes(), g.num_nodes());
            assert_eq!(c.num_arcs(), g.num_arcs() as u64);
            assert!(c.is_symmetric());
            for n in g.nodes() {
                assert_eq!(c.point(n), g.point(n));
                let mut via_pages = Vec::new();
                c.for_each_arc(n, &mut |to, w| via_pages.push((to, w)));
                let direct: Vec<(NodeId, f64)> =
                    g.arcs(n).iter().map(|a| (a.to, a.weight)).collect();
                assert_eq!(via_pages, direct, "node {n}");
            }
        }
    }

    #[test]
    fn faults_are_counted_and_bounded_by_residency() {
        let g = net();
        let layout = tiny_pages(&g);
        let c = ChunkedCsr::spill_temp(&g, &layout, 3).unwrap();
        for n in g.nodes() {
            c.for_each_arc(n, &mut |_, _| {});
        }
        let s = c.io_stats();
        assert_eq!(s.accesses, g.num_nodes() as u64, "one page touch per node");
        assert!(s.faults >= layout.num_pages() as u64, "every page read at least once");
        assert!(s.accesses > s.faults, "neighbours share pages");
        assert_eq!(s.evictions, s.faults - 3, "a full buffer evicts once per fault");
        assert!(c.resident_bytes() <= 3 * 16 * RECORD_BYTES);
        // A buffer larger than the file never refetches: a second pass
        // serves every touch from memory.
        let warm = ChunkedCsr::spill_temp(&g, &layout, 4 * layout.num_pages()).unwrap();
        for _ in 0..2 {
            for n in g.nodes() {
                warm.for_each_arc(n, &mut |_, _| {});
            }
        }
        let s = warm.io_stats();
        assert_eq!((s.faults, s.evictions), (layout.num_pages() as u64, 0));
        assert_eq!(warm.resident_bytes(), g.num_arcs() * RECORD_BYTES);
    }

    #[test]
    fn searches_run_unchanged_over_the_chunked_store() {
        // A breadth-first sweep through the store visits nodes in the
        // order it does over the in-memory network, under any placement.
        let g = net();
        let direct = super::super::bfs_order(&g);
        for placement in [PagePlacement::BfsOrder, PagePlacement::NodeOrder] {
            let c = ChunkedCsr::spill_temp(&g, &PageLayout::build(&g, placement, 16), 2).unwrap();
            assert_eq!(super::super::bfs_order(&c), direct, "{}", placement.name());
        }
    }

    #[test]
    fn spill_to_explicit_path_leaves_the_file() {
        let g = net();
        let dir = std::env::temp_dir().join("roadnet_chunked_explicit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.csr");
        {
            let c = ChunkedCsr::spill(&g, &PageLayout::ccam(&g), 4, &path).unwrap();
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
            let c = ChunkedCsr::spill_temp(&g, &PageLayout::ccam(&g), 4).unwrap();
            c.path().to_path_buf()
        };
        assert!(!path.exists(), "temp spill cleans up after itself");
    }
}
