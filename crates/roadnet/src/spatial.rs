//! Uniform-grid spatial index over node coordinates.
//!
//! The OPAQUE obfuscator needs geometric primitives over the map it keeps
//! (§IV: "finding fake sources and destinations for path query obfuscation
//! requires the knowledge of the underlying road network"): nearest node to
//! a point, all nodes within a radius, and — the workhorse of the cost-aware
//! fake-selection strategy — sampling nodes from a distance ring around a
//! true endpoint ([`SpatialIndex::ring_cover`]: the ring's outer disk as one
//! contiguous slice of the cell-ordered node list per cell row, so a
//! uniform position over the cover is one binary search over at most
//! `⌈2·r/cell⌉ + 1` spans, and nothing is listed).
//!
//! A uniform grid is the right tool here: node distributions from the
//! generators are roughly uniform, queries are local, and build time is
//! linear.

use crate::geo::{BoundingBox, Point};
use crate::graph::RoadNetwork;
use crate::ids::NodeId;

/// Uniform-grid index over a fixed set of points.
#[derive(Clone, Debug)]
pub struct SpatialIndex {
    bbox: BoundingBox,
    cell: f64,
    cols: usize,
    rows: usize,
    /// CSR layout: `starts[c]..starts[c+1]` indexes `entries` for cell `c`.
    starts: Vec<u32>,
    entries: Vec<NodeId>,
    points: Vec<Point>,
}

impl SpatialIndex {
    /// Index every node of `g`, targeting ~2 points per cell.
    pub fn build(g: &RoadNetwork) -> Self {
        Self::from_points(g.points().to_vec())
    }

    /// Index an explicit point set; ids are positions in `points`.
    pub fn from_points(points: Vec<Point>) -> Self {
        assert!(!points.is_empty(), "spatial index needs at least one point");
        let mut bbox = BoundingBox::of_points(points.iter().copied());
        // Degenerate boxes (single point / collinear) get a tiny margin so
        // cell math stays well-defined.
        if bbox.width() == 0.0 {
            bbox.max.x += 1.0;
        }
        if bbox.height() == 0.0 {
            bbox.max.y += 1.0;
        }
        let target_cells = (points.len() as f64 / 2.0).max(1.0);
        let aspect = bbox.width() / bbox.height();
        let rows = (target_cells / aspect).sqrt().ceil().max(1.0) as usize;
        let cols = (target_cells / rows as f64).ceil().max(1.0) as usize;
        let cell = (bbox.width() / cols as f64).max(bbox.height() / rows as f64);
        // Recompute grid extents with a square cell so ring geometry is easy.
        let cols = (bbox.width() / cell).ceil().max(1.0) as usize;
        let rows = (bbox.height() / cell).ceil().max(1.0) as usize;

        let cell_of = |p: Point| -> usize {
            let cx = (((p.x - bbox.min.x) / cell) as usize).min(cols - 1);
            let cy = (((p.y - bbox.min.y) / cell) as usize).min(rows - 1);
            cy * cols + cx
        };

        let mut counts = vec![0u32; cols * rows + 1];
        for p in &points {
            counts[cell_of(*p) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let starts = counts.clone();
        let mut cursor = starts.clone();
        let mut entries = vec![NodeId(0); points.len()];
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(*p);
            entries[cursor[c] as usize] = NodeId::from_index(i);
            cursor[c] += 1;
        }

        SpatialIndex { bbox, cell, cols, rows, starts, entries, points }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the index holds no points (cannot occur via constructors).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Coordinate of an indexed node.
    pub fn point(&self, n: NodeId) -> Point {
        self.points[n.index()]
    }

    fn cell_coords(&self, p: Point) -> (isize, isize) {
        let cx = ((p.x - self.bbox.min.x) / self.cell).floor() as isize;
        let cy = ((p.y - self.bbox.min.y) / self.cell).floor() as isize;
        (cx.clamp(0, self.cols as isize - 1), cy.clamp(0, self.rows as isize - 1))
    }

    fn cell_entries(&self, cx: isize, cy: isize) -> &[NodeId] {
        if cx < 0 || cy < 0 || cx >= self.cols as isize || cy >= self.rows as isize {
            return &[];
        }
        let c = cy as usize * self.cols + cx as usize;
        let lo = self.starts[c] as usize;
        let hi = self.starts[c + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Visit every cell on the square ring at Chebyshev distance `d` from
    /// `(cx, cy)`.
    fn for_ring_cells(&self, cx: isize, cy: isize, d: isize, f: &mut dyn FnMut(&[NodeId])) {
        if d == 0 {
            f(self.cell_entries(cx, cy));
            return;
        }
        for x in (cx - d)..=(cx + d) {
            f(self.cell_entries(x, cy - d));
            f(self.cell_entries(x, cy + d));
        }
        for y in (cy - d + 1)..(cy + d) {
            f(self.cell_entries(cx - d, y));
            f(self.cell_entries(cx + d, y));
        }
    }

    /// The indexed node nearest to `p` (ties broken by lower id).
    pub fn nearest(&self, p: Point) -> NodeId {
        self.nearest_ranked(p, |id| Some(id.0)).expect("index is non-empty").0
    }

    /// The node nearest to `p` among those `rank` admits (`Some`), ties
    /// broken by the lower rank, with its distance; `None` if `rank` admits
    /// no node. Rings are read outward from `p`'s cell until the best
    /// distance lies inside the rings read: every node of ring `d + 1` is
    /// at least `d` cells away, and the search stops only once that bound
    /// clears the best distance by a millionth of a cell, far above the
    /// rounding of the cell assignment, so no node at the winning distance
    /// is left unread.
    pub(crate) fn nearest_ranked(
        &self,
        p: Point,
        rank: impl Fn(NodeId) -> Option<u32>,
    ) -> Option<(NodeId, f64)> {
        let (cx, cy) = self.cell_coords(p);
        let max_d = self.cols.max(self.rows) as isize;
        let mut best: Option<(f64, u32, NodeId)> = None;
        for d in 0..=max_d {
            self.for_ring_cells(cx, cy, d, &mut |ids| {
                for &id in ids {
                    let Some(r) = rank(id) else { continue };
                    let dist = p.distance(self.points[id.index()]);
                    if best.is_none_or(|(bd, br, _)| dist < bd || (dist == bd && r < br)) {
                        best = Some((dist, r, id));
                    }
                }
            });
            if best.is_some_and(|(bd, _, _)| (d as f64 - 1e-6) * self.cell > bd) {
                break;
            }
        }
        best.map(|(dist, _, id)| (id, dist))
    }

    /// All nodes with distance to `p` in `[r_min, r_max]`.
    pub fn in_ring(&self, p: Point, r_min: f64, r_max: f64) -> Vec<NodeId> {
        assert!(r_min >= 0.0 && r_max >= r_min, "invalid ring radii");
        let (cx, cy) = self.cell_coords(p);
        let d_max = (r_max / self.cell).ceil() as isize + 1;
        let max_d = self.cols.max(self.rows) as isize;
        let mut out = Vec::new();
        for d in 0..=d_max.min(max_d) {
            self.for_ring_cells(cx, cy, d, &mut |ids| {
                for &id in ids {
                    if in_band(p, self.points[id.index()], r_min, r_max) {
                        out.push(id);
                    }
                }
            });
        }
        out
    }

    /// All nodes within `radius` of `p`.
    pub fn within_radius(&self, p: Point, radius: f64) -> Vec<NodeId> {
        self.in_ring(p, 0.0, radius)
    }

    /// A cover of the ring `[r_min, r_max]` around `p` that can be drawn
    /// from without listing it: the nodes of every cell that meets the
    /// disk of radius `r_max`. Cells are stored row-major, so the cells of
    /// one row inside the disk's chord are one contiguous slice of the
    /// cell-ordered node list, found in O(1) from the CSR offsets; the
    /// cover is at most `⌈2·r_max/cell⌉ + 1` such slices. It holds every node
    /// [`SpatialIndex::in_ring`] returns (exactly once) and some that lie
    /// outside the ring, which [`RingCover::contains`] tells apart.
    pub fn ring_cover(&self, p: Point, r_min: f64, r_max: f64) -> RingCover<'_> {
        assert!(r_min >= 0.0 && r_max >= r_min, "invalid ring radii");
        // In cell units, with a slack far above rounding and far below a
        // cell, so a node at exactly `r_max` is never cut off by a
        // rounded chord end.
        let u = (p.x - self.bbox.min.x) / self.cell;
        let v = (p.y - self.bbox.min.y) / self.cell;
        let rho = r_max / self.cell;
        let rho = rho + 1e-9 * (1.0 + rho + u.abs() + v.abs());
        // Same flooring as `build`'s cell assignment (nodes past the last
        // row or column were clamped into it, so the ranges clamp too).
        let clamp = |x: f64, n: usize| (x.floor().max(0.0) as usize).min(n - 1);
        let (row_lo, row_hi) = (clamp(v - rho, self.rows), clamp(v + rho, self.rows));
        let mut spans = Vec::with_capacity(row_hi - row_lo + 1);
        let mut end = 0u32;
        for row in row_lo..=row_hi {
            let dy = (row as f64 - v).max(v - (row + 1) as f64).max(0.0);
            if dy > rho {
                continue;
            }
            let half = (rho * rho - dy * dy).sqrt();
            let first = row * self.cols + clamp(u - half, self.cols);
            let last = row * self.cols + clamp(u + half, self.cols);
            let (lo, hi) = (self.starts[first], self.starts[last + 1]);
            if hi > lo {
                end += hi - lo;
                spans.push(Span { end, lo, hi });
            }
        }
        RingCover { index: self, center: p, r_min, r_max, spans }
    }

    /// The `k` nearest nodes to `p`, closest first.
    pub fn k_nearest(&self, p: Point, k: usize) -> Vec<NodeId> {
        let mut best = Vec::with_capacity(k + 1);
        self.k_nearest_into(p, k, &mut best);
        best.into_iter().map(|(_, id)| id).collect()
    }

    /// [`SpatialIndex::k_nearest`] into a buffer the caller reuses: `best`
    /// ends holding the `min(k, len)` nearest nodes with their distances,
    /// closest first (equal distances in the order their cells were read).
    pub(crate) fn k_nearest_into(&self, p: Point, k: usize, best: &mut Vec<(f64, NodeId)>) {
        best.clear();
        if k == 0 {
            return;
        }
        let (cx, cy) = self.cell_coords(p);
        let max_d = self.cols.max(self.rows) as isize;
        // (distance, id) max-heap via sorted Vec; k is small in practice.
        let mut d = 0isize;
        loop {
            self.for_ring_cells(cx, cy, d, &mut |ids| {
                for &id in ids {
                    let dist = p.distance(self.points[id.index()]);
                    let pos = best.partition_point(|(bd, _)| *bd <= dist);
                    best.insert(pos, (dist, id));
                    if best.len() > k {
                        best.pop();
                    }
                }
            });
            let have_k = best.len() == k.min(self.points.len());
            if have_k {
                let kth = best.last().expect("non-empty").0;
                if (d as f64) * self.cell > kth || d >= max_d {
                    break;
                }
            } else if d >= max_d {
                break;
            }
            d += 1;
        }
    }
}

/// The ring membership test [`SpatialIndex::in_ring`] lists by and
/// [`RingCover::contains`] draws by: one expression, so the two agree on
/// every boundary node.
fn in_band(center: Point, q: Point, r_min: f64, r_max: f64) -> bool {
    let dist = center.distance(q);
    dist >= r_min && dist <= r_max
}

/// The row-span cover of a distance ring, from [`SpatialIndex::ring_cover`]:
/// a superset of the ring addressable by position, so a uniform position
/// drawn in `0..len()` is a uniform node of the cover, and rejecting what
/// [`RingCover::contains`] refuses leaves a uniform node of the ring.
#[derive(Clone, Debug)]
pub struct RingCover<'a> {
    index: &'a SpatialIndex,
    center: Point,
    r_min: f64,
    r_max: f64,
    spans: Vec<Span>,
}

/// One row's slice `entries[lo..hi]`, and the cover position just past it.
#[derive(Clone, Copy, Debug)]
struct Span {
    end: u32,
    lo: u32,
    hi: u32,
}

impl RingCover<'_> {
    /// Number of cover positions (nodes of the cover, ring or not).
    pub fn len(&self) -> usize {
        self.spans.last().map_or(0, |s| s.end as usize)
    }

    /// True if no cell the outer disk meets holds a node.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The node at cover position `i`: one binary search over the spans.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn node(&self, i: usize) -> NodeId {
        let i = u32::try_from(i).expect("cover position fits the index");
        let s = self.spans[self.spans.partition_point(|s| s.end <= i)];
        self.index.entries[(s.hi - (s.end - i)) as usize]
    }

    /// Whether `n` lies in the ring — the distance filter
    /// [`SpatialIndex::in_ring`] applies.
    pub fn contains(&self, n: NodeId) -> bool {
        in_band(self.center, self.index.points[n.index()], self.r_min, self.r_max)
    }

    /// Every node of the cover, in position order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone + '_ {
        self.spans.iter().flat_map(|s| &self.index.entries[s.lo as usize..s.hi as usize]).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn grid_points(n: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for y in 0..n {
            for x in 0..n {
                pts.push(Point::new(x as f64, y as f64));
            }
        }
        pts
    }

    fn brute_nearest(pts: &[Point], p: Point) -> NodeId {
        let mut best = (f64::INFINITY, NodeId(0));
        for (i, q) in pts.iter().enumerate() {
            let d = p.distance(*q);
            if d < best.0 {
                best = (d, NodeId::from_index(i));
            }
        }
        best.1
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = grid_points(10);
        let idx = SpatialIndex::from_points(pts.clone());
        for probe in [
            Point::new(0.2, 0.2),
            Point::new(5.4, 7.6),
            Point::new(9.9, 0.1),
            Point::new(-3.0, -3.0),
            Point::new(20.0, 20.0),
            Point::new(4.5, 4.49),
        ] {
            assert_eq!(idx.nearest(probe), brute_nearest(&pts, probe), "probe {probe}");
        }
    }

    #[test]
    fn nearest_ranked_skips_unranked_nodes_and_breaks_ties_by_rank() {
        // 10×10 lattice; (4.5, 4.5) is equally far from 44, 45, 54, 55.
        let idx = SpatialIndex::from_points(grid_points(10));
        let probe = Point::new(4.5, 4.5);
        let reversed = |id: NodeId| Some(1000 - id.0);
        assert_eq!(idx.nearest_ranked(probe, reversed).unwrap().0, NodeId(55));
        assert_eq!(idx.nearest(probe), NodeId(44));
        // Only the lattice's last row is admitted: 94 and 95 are nearest,
        // at one distance, and the lower rank decides against the lower id.
        let last_row = |id: NodeId| (id.0 >= 90).then_some(1 - id.0 % 2);
        let (id, dist) = idx.nearest_ranked(probe, last_row).unwrap();
        assert_eq!((id, dist), (NodeId(95), probe.distance(Point::new(5.0, 9.0))));
        assert_eq!(idx.nearest_ranked(probe, |_| None), None);
    }

    #[test]
    fn ring_query_matches_brute_force() {
        let pts = grid_points(12);
        let idx = SpatialIndex::from_points(pts.clone());
        let center = Point::new(5.5, 5.5);
        let (rmin, rmax) = (2.0, 4.0);
        let mut got = idx.in_ring(center, rmin, rmax);
        got.sort();
        let mut want: Vec<NodeId> = pts
            .iter()
            .enumerate()
            .filter(|(_, q)| {
                let d = center.distance(**q);
                d >= rmin && d <= rmax
            })
            .map(|(i, _)| NodeId::from_index(i))
            .collect();
        want.sort();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn ring_cover_holds_the_ring_once_and_addresses_it_by_position() {
        let idx = SpatialIndex::from_points(grid_points(12));
        for (center, rmin, rmax) in [
            (Point::new(5.5, 5.5), 2.0, 4.0),
            // Lattice nodes at exactly `r_max` (chord ends on a cell edge).
            (Point::new(5.0, 5.0), 3.0, 3.0),
            (Point::new(0.0, 0.0), 0.0, 3.0),
            (Point::new(11.0, 3.0), 1.0, 100.0),
            // Centre off the map: rows and columns clamp.
            (Point::new(-4.0, 20.0), 0.0, 9.0),
            (Point::new(30.0, 5.0), 0.0, 1.0),
        ] {
            let cover = idx.ring_cover(center, rmin, rmax);
            let listed: Vec<NodeId> = cover.nodes().collect();
            let by_position: Vec<NodeId> = (0..cover.len()).map(|i| cover.node(i)).collect();
            assert_eq!(listed, by_position, "{center}");
            assert_eq!(cover.is_empty(), listed.is_empty());
            let mut unique = listed.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), listed.len(), "{center}: a node covered twice");
            let mut ring: Vec<NodeId> = listed.into_iter().filter(|&n| cover.contains(n)).collect();
            ring.sort();
            let mut want = idx.in_ring(center, rmin, rmax);
            want.sort();
            assert_eq!(ring, want, "{center} [{rmin}, {rmax}]");
        }
    }

    #[test]
    fn ring_cover_stays_within_the_outer_disk_rows() {
        // 40×40 lattice, ~2 points per cell: a radius-3 disk spans at
        // most ⌈2·3/cell⌉ + 1 rows and far fewer nodes than the map.
        let idx = SpatialIndex::from_points(grid_points(40));
        let cover = idx.ring_cover(Point::new(20.0, 20.0), 1.0, 3.0);
        assert!(cover.spans.len() as f64 <= (2.0 * 3.0 / idx.cell).ceil() + 1.0);
        assert!(cover.len() < 100, "{} covered", cover.len());
    }

    #[test]
    fn within_radius_is_ring_from_zero() {
        let pts = grid_points(8);
        let idx = SpatialIndex::from_points(pts);
        let c = Point::new(3.0, 3.0);
        let mut a = idx.within_radius(c, 2.5);
        let mut b = idx.in_ring(c, 0.0, 2.5);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn k_nearest_ordering_and_size() {
        let pts = grid_points(9);
        let idx = SpatialIndex::from_points(pts.clone());
        let probe = Point::new(4.1, 4.1);
        let got = idx.k_nearest(probe, 5);
        assert_eq!(got.len(), 5);
        // Distances must be non-decreasing and must match brute force set.
        let dists: Vec<f64> = got.iter().map(|n| probe.distance(pts[n.index()])).collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let mut all: Vec<(f64, NodeId)> = pts
            .iter()
            .enumerate()
            .map(|(i, q)| (probe.distance(*q), NodeId::from_index(i)))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!((dists[4] - all[4].0).abs() < 1e-12);
    }

    #[test]
    fn k_nearest_with_k_larger_than_points() {
        let pts = grid_points(2); // 4 points
        let idx = SpatialIndex::from_points(pts);
        assert_eq!(idx.k_nearest(Point::new(0.0, 0.0), 10).len(), 4);
        assert!(idx.k_nearest(Point::new(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn single_point_index_works() {
        let idx = SpatialIndex::from_points(vec![Point::new(2.0, 3.0)]);
        assert_eq!(idx.nearest(Point::new(100.0, -7.0)), NodeId(0));
        assert_eq!(idx.within_radius(Point::new(2.0, 3.0), 0.1), vec![NodeId(0)]);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn collinear_points_work() {
        // Zero-height bounding box exercises the degenerate-box margin.
        let pts: Vec<Point> = (0..20).map(|i| Point::new(i as f64, 5.0)).collect();
        let idx = SpatialIndex::from_points(pts.clone());
        assert_eq!(idx.nearest(Point::new(7.4, 5.0)), NodeId(7));
        assert_eq!(idx.within_radius(Point::new(10.0, 5.0), 1.5).len(), 3);
    }

    #[test]
    fn build_from_network() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0)).unwrap();
        let c = b.add_node(Point::new(10.0, 0.0)).unwrap();
        b.add_edge(a, c, 10.0).unwrap();
        let g = b.build().unwrap();
        let idx = SpatialIndex::build(&g);
        assert_eq!(idx.nearest(Point::new(9.0, 1.0)), c);
    }
}
