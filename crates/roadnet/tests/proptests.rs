//! Property tests for the road-network substrate: CSR structural
//! invariants, spatial-index equivalence with brute force, and the LRU
//! buffer against a naive reference model.

use proptest::prelude::*;
use roadnet::{
    BoundingBox, GraphBuilder, LruBuffer, NodeId, PageLayout, PagePlacement, Point, RoadNetwork,
    SpatialIndex,
};

fn arb_undirected(max_nodes: usize) -> impl Strategy<Value = RoadNetwork> {
    (2..max_nodes)
        .prop_flat_map(|n| {
            let coords = proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), n);
            let edges =
                proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f64..100.0), 1..3 * n);
            (coords, edges)
        })
        .prop_map(|(coords, edges)| {
            let mut b = GraphBuilder::new();
            for (x, y) in &coords {
                b.add_node(Point::new(*x, *y)).expect("finite");
            }
            let n = coords.len() as u32;
            for (a, c, w) in edges {
                let (a, c) = (a % n, c % n);
                if a != c {
                    b.add_edge(NodeId(a), NodeId(c), w).expect("valid");
                }
            }
            b.build().expect("non-empty")
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn undirected_csr_is_symmetric(g in arb_undirected(30)) {
        // Every arc (u, v, w, e) has a mirror (v, u, w, e).
        for u in g.nodes() {
            for a in g.arcs(u) {
                let mirror = g
                    .arcs(a.to)
                    .iter()
                    .find(|m| m.to == u && m.edge == a.edge)
                    .unwrap_or_else(|| panic!("arc {u}→{} has no mirror", a.to));
                prop_assert_eq!(mirror.weight, a.weight);
            }
        }
        // Arc count is exactly twice the edge count.
        prop_assert_eq!(g.num_arcs(), 2 * g.num_edges());
        // Degree sum equals arc count.
        let degree_sum: usize = g.nodes().map(|n| g.degree(n)).sum();
        prop_assert_eq!(degree_sum, g.num_arcs());
    }

    #[test]
    fn bbox_contains_every_node(g in arb_undirected(30)) {
        let bb = g.bbox();
        for n in g.nodes() {
            prop_assert!(bb.contains(g.point(n)));
        }
        let recomputed = BoundingBox::of_points(g.points().iter().copied());
        prop_assert_eq!(bb.min, recomputed.min);
        prop_assert_eq!(bb.max, recomputed.max);
    }

    #[test]
    fn largest_component_is_connected_and_maximal(g in arb_undirected(30)) {
        let labels = g.component_labels();
        let (sub, mapping) = g.largest_component().expect("non-empty");
        prop_assert!(sub.is_connected());
        // Its size equals the most frequent label's count.
        let mut counts = std::collections::HashMap::new();
        for l in labels {
            *counts.entry(l).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().expect("non-empty");
        prop_assert_eq!(sub.num_nodes(), max);
        // The mapping points at real nodes with identical coordinates.
        for (new_idx, old) in mapping.iter().enumerate() {
            prop_assert_eq!(sub.point(NodeId::from_index(new_idx)), g.point(*old));
        }
    }

    #[test]
    fn spatial_index_nearest_matches_brute_force(
        points in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..60),
        probes in proptest::collection::vec((-120.0f64..120.0, -120.0f64..120.0), 1..10),
    ) {
        let pts: Vec<Point> = points.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        let index = SpatialIndex::from_points(pts.clone());
        for (px, py) in probes {
            let probe = Point::new(px, py);
            let got = index.nearest(probe);
            let want_dist = pts
                .iter()
                .map(|p| probe.distance(*p))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(
                (probe.distance(pts[got.index()]) - want_dist).abs() < 1e-9,
                "nearest returned non-minimal distance"
            );
        }
    }

    #[test]
    fn spatial_ring_matches_brute_force(
        points in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..50),
        center in (-60.0f64..60.0, -60.0f64..60.0),
        radii in (0.0f64..30.0, 0.0f64..40.0),
    ) {
        let pts: Vec<Point> = points.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        let index = SpatialIndex::from_points(pts.clone());
        let c = Point::new(center.0, center.1);
        let (lo, hi) = (radii.0.min(radii.1), radii.0.max(radii.1));
        let mut got = index.in_ring(c, lo, hi);
        got.sort();
        let mut want: Vec<NodeId> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let d = c.distance(**p);
                d >= lo && d <= hi
            })
            .map(|(i, _)| NodeId::from_index(i))
            .collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn spatial_ring_cover_holds_the_ring_exactly_once(
        points in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..80),
        center in (-60.0f64..60.0, -60.0f64..60.0),
        radii in (0.0f64..30.0, 0.0f64..40.0),
    ) {
        let pts: Vec<Point> = points.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        let index = SpatialIndex::from_points(pts.clone());
        let c = Point::new(center.0, center.1);
        let (lo, hi) = (radii.0.min(radii.1), radii.0.max(radii.1));
        let cover = index.ring_cover(c, lo, hi);
        let listed: Vec<NodeId> = (0..cover.len()).map(|i| cover.node(i)).collect();
        let mut unique = listed.clone();
        unique.sort();
        unique.dedup();
        prop_assert_eq!(unique.len(), listed.len());
        let mut got: Vec<NodeId> = listed.into_iter().filter(|&n| cover.contains(n)).collect();
        got.sort();
        let mut want = index.in_ring(c, lo, hi);
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn lru_matches_reference_model(
        capacity in 1usize..8,
        ops in proptest::collection::vec((0u32..20, 0u32..16, 0u32..1000), 1..200),
    ) {
        let mut lru = LruBuffer::new(capacity);
        // Reference: Vec of (key, value) ordered most-recent-first.
        let mut model: Vec<(u32, u32)> = Vec::new();
        let (mut model_accesses, mut model_faults, mut model_evictions) = (0u64, 0u64, 0u64);
        for &(op, key, value) in &ops {
            let pos = model.iter().position(|&(k, _)| k == key);
            match op {
                // Counted get: a hit moves the key to the front.
                0..=7 => {
                    model_accesses += 1;
                    let want = pos.map(|pos| {
                        let entry = model.remove(pos);
                        model.insert(0, entry);
                        entry.1
                    });
                    model_faults += u64::from(want.is_none());
                    prop_assert_eq!(lru.get(&key).copied(), want, "get {}", key);
                }
                // Insert: replace in place or evict the back at capacity.
                8..=13 => {
                    let old = pos.map(|pos| model.remove(pos).1);
                    if old.is_none() && model.len() == capacity {
                        model.pop();
                        model_evictions += 1;
                    }
                    model.insert(0, (key, value));
                    prop_assert_eq!(lru.insert(key, value), old, "insert {}", key);
                }
                // Peek: the value, with recency left alone.
                14..=17 => {
                    let want = pos.map(|pos| model[pos].1);
                    prop_assert_eq!(lru.peek(&key).copied(), want, "peek {}", key);
                }
                18 => {
                    let keep = |k: u32, v: u32| (k + v + value) % 3 != 0;
                    // Survivors are rewritten in place, recency untouched.
                    model.retain(|&(k, v)| keep(k, v));
                    model.iter_mut().for_each(|(_, v)| *v += 1);
                    lru.retain(|&k, v| {
                        let kept = keep(k, *v);
                        *v += u32::from(kept);
                        kept
                    });
                }
                _ => {
                    model.clear();
                    lru.clear();
                }
            }
            let order: Vec<(u32, u32)> = lru.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&order, &model);
            prop_assert_eq!(lru.len(), model.len());
        }
        let stats = lru.stats();
        prop_assert_eq!(
            (stats.accesses, stats.faults, stats.evictions),
            (model_accesses, model_faults, model_evictions)
        );
    }

    #[test]
    fn page_layouts_cover_all_nodes_for_all_placements(
        g in arb_undirected(25),
        slots in 4usize..64,
    ) {
        for placement in [
            PagePlacement::Connectivity,
            PagePlacement::BfsOrder,
            PagePlacement::NodeOrder,
            PagePlacement::Random { seed: 5 },
        ] {
            let layout = PageLayout::build(&g, placement, slots);
            prop_assert!(layout.num_pages() >= 1);
            for n in g.nodes() {
                prop_assert!((layout.page_of(n) as usize) < layout.num_pages());
            }
            let ratio = layout.colocation_ratio(&g);
            prop_assert!((0.0..=1.0).contains(&ratio));
        }
    }
}
