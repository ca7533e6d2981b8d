//! Fake-endpoint selection strategies.
//!
//! The paper leaves the obfuscation algorithm unspecified beyond requiring
//! "knowledge of the underlying road network" (§IV). The choice matters in
//! two directions the paper's analysis makes precise:
//!
//! * **cost** — Lemma 1 charges each source `s ∈ S` a tree of area
//!   `max_{t∈T} ‖s,t‖²`, so fakes scattered across the whole map blow the
//!   per-source radius up to the map diameter, while fakes placed near the
//!   true endpoints keep the radius close to the true `‖s,t‖`;
//! * **privacy against informed adversaries** — under a background-knowledge
//!   prior, fakes on implausible nodes (e.g. the middle of nowhere) are
//!   discounted, shrinking the effective anonymity set below `|S|·|T|`.
//!
//! Three strategies span this trade-off; E7 measures all of them.

use crate::error::{OpaqueError, Result};
use pathsearch::{Goal, SearchArena, ring_search_in, run_in};
use rand::Rng;
use rand::rngs::StdRng;
use roadnet::{NodeId, Point, RoadNetwork, SpatialIndex};
use std::collections::HashSet;

/// How the obfuscator picks fake endpoints.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FakeSelection {
    /// Fakes drawn uniformly from all map nodes. Maximum geographic spread,
    /// maximum server cost.
    Uniform,
    /// Fakes drawn from an annulus around the true endpoint with radii
    /// `[lo·d, hi·d]`, where `d` is the true query's Euclidean length.
    /// Keeps Lemma 1's per-source radius within a constant factor of the
    /// true query while not co-locating fakes with the true endpoint.
    Ring {
        /// Inner annulus radius as a fraction of the true query length.
        lo: f64,
        /// Outer annulus radius as a fraction of the true query length.
        hi: f64,
    },
    /// Like [`FakeSelection::Ring`], but the annulus is measured in
    /// **network** distance (bounded Dijkstra on the obfuscator's map) —
    /// the exact quantity Lemma 1 charges. Costs one `O((hi·d)²)` range
    /// search per fake batch at obfuscation time; worthwhile on topologies
    /// where Euclidean distance misjudges network distance (radial class).
    NetworkRing {
        /// Inner annulus radius as a fraction of the true query length.
        lo: f64,
        /// Outer annulus radius as a fraction of the true query length.
        hi: f64,
    },
    /// Fakes drawn with probability proportional to per-node plausibility
    /// weights (population density, points of interest, …) supplied to the
    /// obfuscator. Resists the background-knowledge adversary of §II.
    Weighted,
}

impl FakeSelection {
    /// The ring strategy with the default annulus `[0.3·d, 1.2·d]`.
    pub fn default_ring() -> Self {
        FakeSelection::Ring { lo: 0.3, hi: 1.2 }
    }

    /// The network-ring strategy with the default annulus `[0.3·d, 1.2·d]`
    /// (radii in network distance).
    pub fn default_network_ring() -> Self {
        FakeSelection::NetworkRing { lo: 0.3, hi: 1.2 }
    }

    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            FakeSelection::Uniform => "uniform",
            FakeSelection::Ring { .. } => "ring",
            FakeSelection::NetworkRing { .. } => "net-ring",
            FakeSelection::Weighted => "weighted",
        }
    }
}

/// Everything a selection strategy may consult.
pub struct SelectionContext<'a> {
    /// The obfuscator's (coarse) map.
    pub map: &'a RoadNetwork,
    /// Spatial index over the map's nodes.
    pub index: &'a SpatialIndex,
    /// Per-node plausibility weights, if the deployment provides them
    /// (required by [`FakeSelection::Weighted`]).
    pub weights: Option<&'a [f64]>,
    /// The true endpoint being hidden (ring strategies centre on it).
    pub anchor: NodeId,
    /// The other endpoint of the true query (sets the distance scale).
    pub counterpart: NodeId,
}

impl SelectionContext<'_> {
    fn anchor_point(&self) -> Point {
        self.map.point(self.anchor)
    }

    /// The query's Euclidean length; falls back to 5% of the map diagonal
    /// for degenerate (same-node or co-located) queries so ring radii stay
    /// positive.
    fn scale(&self) -> f64 {
        let d = self.map.euclidean(self.anchor, self.counterpart);
        if d > f64::EPSILON { d } else { (self.map.bbox().diagonal() * 0.05).max(1.0) }
    }
}

/// Select `count` distinct fake endpoints, none of which appear in
/// `exclude`.
///
/// # Errors
/// [`OpaqueError::NotEnoughFakes`] when the map has fewer than `count`
/// eligible nodes.
pub fn select_fakes(
    strategy: FakeSelection,
    ctx: &SelectionContext<'_>,
    exclude: &HashSet<NodeId>,
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<NodeId>> {
    if count == 0 {
        return Ok(Vec::new());
    }
    let available = ctx.map.num_nodes().saturating_sub(exclude.len());
    if available < count {
        return Err(OpaqueError::NotEnoughFakes { requested: count, available });
    }
    match strategy {
        FakeSelection::Uniform => uniform(ctx, exclude, count, rng),
        FakeSelection::Ring { lo, hi } => {
            assert!(lo >= 0.0 && hi > lo, "ring radii must satisfy 0 <= lo < hi");
            ring(ctx, exclude, count, lo, hi, rng)
        }
        FakeSelection::NetworkRing { lo, hi } => {
            assert!(lo >= 0.0 && hi > lo, "ring radii must satisfy 0 <= lo < hi");
            network_ring(ctx, exclude, count, lo, hi, rng)
        }
        FakeSelection::Weighted => weighted(ctx, exclude, count, rng),
    }
}

fn uniform(
    ctx: &SelectionContext<'_>,
    exclude: &HashSet<NodeId>,
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<NodeId>> {
    let n = ctx.map.num_nodes() as u32;
    let mut picked = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    // Rejection sampling is fast while the exclusion set is sparse; fall
    // back to a scan when the map is nearly exhausted.
    let max_attempts = 20 * count + 100;
    for _ in 0..max_attempts {
        if out.len() == count {
            break;
        }
        let cand = NodeId(rng.gen_range(0..n));
        if !exclude.contains(&cand) && picked.insert(cand) {
            out.push(cand);
        }
    }
    if out.len() < count {
        for i in 0..n {
            if out.len() == count {
                break;
            }
            let cand = NodeId(i);
            if !exclude.contains(&cand) && picked.insert(cand) {
                out.push(cand);
            }
        }
    }
    debug_assert_eq!(out.len(), count, "availability was checked upfront");
    Ok(out)
}

/// The widen → filter → sort → sample loop both ring strategies share.
/// `band(r_lo, r_hi)` lists the nodes in the current annulus and says
/// whether it already covers every node a wider one could reach — the
/// only way out with [`OpaqueError::NotEnoughFakes`]. While short, the
/// inner radius halves and the outer doubles, clamped to `cap` on the way
/// up; reaching `cap` drops the inner radius to zero, and an annulus that
/// still does not cover everything there keeps doubling.
fn widen_and_sample(
    exclude: &HashSet<NodeId>,
    count: usize,
    (mut r_lo, mut r_hi): (f64, f64),
    cap: f64,
    rng: &mut StdRng,
    mut band: impl FnMut(f64, f64) -> (Vec<NodeId>, bool),
) -> Result<Vec<NodeId>> {
    let mut picked: HashSet<NodeId> = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    loop {
        let (mut candidates, covers_all) = band(r_lo, r_hi);
        candidates.retain(|c| !exclude.contains(c) && !picked.contains(c));
        // Deterministic candidate order before sampling keeps runs
        // reproducible per seed.
        candidates.sort_unstable();
        while out.len() < count && !candidates.is_empty() {
            let i = rng.gen_range(0..candidates.len());
            let cand = candidates.swap_remove(i);
            picked.insert(cand);
            out.push(cand);
        }
        if out.len() == count {
            return Ok(out);
        }
        if covers_all {
            return Err(OpaqueError::NotEnoughFakes { requested: count, available: out.len() });
        }
        r_hi = if r_lo <= 0.0 && r_hi >= cap {
            r_hi * 2.0
        } else {
            (r_hi * 2.0).min(cap.max(r_hi + 1.0))
        };
        r_lo = if r_hi >= cap { 0.0 } else { r_lo * 0.5 };
    }
}

fn ring(
    ctx: &SelectionContext<'_>,
    exclude: &HashSet<NodeId>,
    count: usize,
    lo: f64,
    hi: f64,
    rng: &mut StdRng,
) -> Result<Vec<NodeId>> {
    let center = ctx.anchor_point();
    let d = ctx.scale();
    // A Euclidean annulus `[0, diagonal]` holds the whole map; the
    // availability pre-check makes running dry there unreachable, but it
    // is an error rather than an infinite loop.
    let diag = ctx.map.bbox().diagonal();
    widen_and_sample(exclude, count, (lo * d, hi * d), diag, rng, |r_lo, r_hi| {
        (ctx.index.in_ring(center, r_lo, r_hi), r_lo <= 0.0 && r_hi >= diag)
    })
}

fn network_ring(
    ctx: &SelectionContext<'_>,
    exclude: &HashSet<NodeId>,
    count: usize,
    lo: f64,
    hi: f64,
    rng: &mut StdRng,
) -> Result<Vec<NodeId>> {
    // One search space for the scale query and every band sweep.
    let mut arena = SearchArena::new();
    // Scale by the true query's *network* length when available; the
    // Euclidean length is a lower bound and good enough to seed the radius
    // (the annulus widens on shortage anyway).
    run_in(&mut arena, ctx.map, ctx.anchor, &Goal::Single(ctx.counterpart));
    let d = arena
        .distance(0, ctx.counterpart)
        .unwrap_or_else(|| ctx.map.euclidean(ctx.anchor, ctx.counterpart))
        .max(f64::EPSILON);
    // Network radii are not bounded by any coordinate length (travel-time
    // weights over lon/lat), so the diagonal only paces the widening; the
    // band covers everything once it starts at the anchor and its sweep
    // has exhausted the anchor's component.
    let pace = ctx.map.bbox().diagonal() * 2.0;
    widen_and_sample(exclude, count, (lo * d, hi * d), pace, rng, |r_lo, r_hi| {
        let (band, _, drained) = ring_search_in(&mut arena, ctx.map, ctx.anchor, r_lo, r_hi);
        (band.into_iter().map(|(n, _)| n).collect(), r_lo <= 0.0 && drained)
    })
}

fn weighted(
    ctx: &SelectionContext<'_>,
    exclude: &HashSet<NodeId>,
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<NodeId>> {
    let Some(weights) = ctx.weights else {
        // Without plausibility data the weighted strategy degenerates to
        // uniform — documented fallback rather than an error, so deployments
        // can flip the strategy on before the weights ship.
        return uniform(ctx, exclude, count, rng);
    };
    assert_eq!(weights.len(), ctx.map.num_nodes(), "one weight per node");

    // Prefix sums over eligible nodes; O(n) per call, called once per fake
    // batch.
    let mut prefix = Vec::with_capacity(weights.len());
    let mut total = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        let w = if exclude.contains(&NodeId(i as u32)) { 0.0 } else { w.max(0.0) };
        total += w;
        prefix.push(total);
    }
    if total <= 0.0 {
        return uniform(ctx, exclude, count, rng);
    }

    let mut picked: HashSet<NodeId> = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let max_attempts = 50 * count + 200;
    for _ in 0..max_attempts {
        if out.len() == count {
            break;
        }
        let x = rng.gen_range(0.0..total);
        let i = prefix.partition_point(|&p| p <= x);
        let cand = NodeId(i as u32);
        if !exclude.contains(&cand) && picked.insert(cand) {
            out.push(cand);
        }
    }
    if out.len() < count {
        // Heavy weight concentration can starve rejection sampling; finish
        // uniformly over whatever is left.
        let mut excl = exclude.clone();
        // lint: allow(hash-iter) — set-to-set union: the extended
        // exclusion *set* is the same whatever order the elements
        // arrive, and `uniform` only probes it with `contains`.
        excl.extend(picked.iter().copied());
        let rest = uniform(ctx, &excl, count - out.len(), rng)?;
        out.extend(rest);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use roadnet::generators::{GridConfig, grid_network};

    fn setup() -> (RoadNetwork, SpatialIndex) {
        let g = grid_network(&GridConfig { width: 20, height: 20, seed: 1, ..Default::default() })
            .unwrap();
        let idx = SpatialIndex::build(&g);
        (g, idx)
    }

    fn ctx<'a>(
        g: &'a RoadNetwork,
        idx: &'a SpatialIndex,
        weights: Option<&'a [f64]>,
    ) -> SelectionContext<'a> {
        SelectionContext {
            map: g,
            index: idx,
            weights,
            anchor: NodeId(0),
            counterpart: NodeId(399),
        }
    }

    #[test]
    fn all_strategies_return_distinct_non_excluded_fakes() {
        let (g, idx) = setup();
        let weights: Vec<f64> = (0..g.num_nodes()).map(|i| 1.0 + (i % 7) as f64).collect();
        let exclude: HashSet<NodeId> = [NodeId(0), NodeId(399), NodeId(5)].into_iter().collect();
        for strategy in [
            FakeSelection::Uniform,
            FakeSelection::default_ring(),
            FakeSelection::default_network_ring(),
            FakeSelection::Weighted,
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let c = ctx(&g, &idx, Some(&weights));
            let fakes = select_fakes(strategy, &c, &exclude, 10, &mut rng).unwrap();
            assert_eq!(fakes.len(), 10, "{}", strategy.name());
            let set: HashSet<_> = fakes.iter().collect();
            assert_eq!(set.len(), 10, "{} returned duplicates", strategy.name());
            for f in &fakes {
                assert!(!exclude.contains(f), "{} picked an excluded node", strategy.name());
            }
        }
    }

    #[test]
    fn ring_fakes_stay_near_the_anchor() {
        let (g, idx) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let c = SelectionContext {
            map: &g,
            index: &idx,
            weights: None,
            anchor: NodeId(210), // interior node
            counterpart: NodeId(215),
        };
        let d = g.euclidean(NodeId(210), NodeId(215));
        let fakes = select_fakes(
            FakeSelection::Ring { lo: 0.3, hi: 1.2 },
            &c,
            &HashSet::new(),
            6,
            &mut rng,
        )
        .unwrap();
        let anchor = g.point(NodeId(210));
        for f in fakes {
            let dist = anchor.distance(g.point(f));
            assert!(
                dist <= d * 1.2 + 1e-9 && dist >= d * 0.3 - 1e-9,
                "fake at distance {dist}, scale {d}"
            );
        }
    }

    #[test]
    fn ring_widens_when_annulus_is_too_thin() {
        let (g, idx) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        // Anchor equal to counterpart: degenerate query, scale falls back to
        // 5% of the diagonal. Request more fakes than the thin ring holds.
        let c = SelectionContext {
            map: &g,
            index: &idx,
            weights: None,
            anchor: NodeId(210),
            counterpart: NodeId(210),
        };
        let fakes = select_fakes(
            FakeSelection::Ring { lo: 0.9, hi: 1.0 },
            &c,
            &HashSet::new(),
            50,
            &mut rng,
        )
        .unwrap();
        assert_eq!(fakes.len(), 50);
    }

    #[test]
    fn weighted_respects_weights() {
        let (g, idx) = setup();
        // All mass on nodes 100..110.
        let mut weights = vec![0.0; g.num_nodes()];
        weights[100..110].fill(1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let c = ctx(&g, &idx, Some(&weights));
        let fakes =
            select_fakes(FakeSelection::Weighted, &c, &HashSet::new(), 8, &mut rng).unwrap();
        for f in &fakes {
            assert!((100..110).contains(&f.index()), "fake {f} outside weighted region");
        }
    }

    #[test]
    fn weighted_without_weights_falls_back_to_uniform() {
        let (g, idx) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let c = ctx(&g, &idx, None);
        let fakes =
            select_fakes(FakeSelection::Weighted, &c, &HashSet::new(), 5, &mut rng).unwrap();
        assert_eq!(fakes.len(), 5);
    }

    #[test]
    fn requesting_more_than_available_errors() {
        let (g, idx) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let c = ctx(&g, &idx, None);
        let n = g.num_nodes();
        let err =
            select_fakes(FakeSelection::Uniform, &c, &HashSet::new(), n + 1, &mut rng).unwrap_err();
        assert!(matches!(err, OpaqueError::NotEnoughFakes { .. }));
    }

    #[test]
    fn zero_count_is_empty() {
        let (g, idx) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let c = ctx(&g, &idx, None);
        assert!(
            select_fakes(FakeSelection::Uniform, &c, &HashSet::new(), 0, &mut rng)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn exhaustive_request_succeeds_via_scan_fallback() {
        let (g, idx) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let c = ctx(&g, &idx, None);
        let n = g.num_nodes();
        let fakes = select_fakes(FakeSelection::Uniform, &c, &HashSet::new(), n, &mut rng).unwrap();
        assert_eq!(fakes.len(), n);
    }

    #[test]
    fn same_seed_same_fakes() {
        let (g, idx) = setup();
        let c = ctx(&g, &idx, None);
        let a = select_fakes(
            FakeSelection::default_ring(),
            &c,
            &HashSet::new(),
            5,
            &mut StdRng::seed_from_u64(42),
        )
        .unwrap();
        let b = select_fakes(
            FakeSelection::default_ring(),
            &c,
            &HashSet::new(),
            5,
            &mut StdRng::seed_from_u64(42),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn network_ring_fakes_lie_in_the_network_band() {
        let (g, idx) = setup();
        let mut rng = StdRng::seed_from_u64(13);
        let (anchor, counterpart) = (NodeId(210), NodeId(250));
        let c = SelectionContext { map: &g, index: &idx, weights: None, anchor, counterpart };
        let d = pathsearch::shortest_distance(&g, anchor, counterpart).unwrap();
        let fakes = select_fakes(
            FakeSelection::NetworkRing { lo: 0.5, hi: 2.0 },
            &c,
            &HashSet::new(),
            6,
            &mut rng,
        )
        .unwrap();
        for f in fakes {
            let dist = pathsearch::shortest_distance(&g, anchor, f).unwrap();
            assert!(
                dist >= 0.5 * d - 1e-9 && dist <= 2.0 * d + 1e-9,
                "fake {f} at network distance {dist}, band [{}, {}]",
                0.5 * d,
                2.0 * d
            );
        }
    }

    #[test]
    fn network_ring_widens_under_pressure() {
        let (g, idx) = setup();
        let mut rng = StdRng::seed_from_u64(17);
        let c = SelectionContext {
            map: &g,
            index: &idx,
            weights: None,
            anchor: NodeId(0),
            counterpart: NodeId(1), // tiny scale: thin initial band
        };
        let fakes = select_fakes(
            FakeSelection::NetworkRing { lo: 0.9, hi: 1.0 },
            &c,
            &HashSet::new(),
            40,
            &mut rng,
        )
        .unwrap();
        assert_eq!(fakes.len(), 40);
    }

    /// A chain of `n` nodes on a 0.5 × 0.4 lattice whose every edge
    /// weighs 100: network distances dwarf every coordinate length, as
    /// travel-time weights over lon/lat do.
    fn heavy_chain(n: u32) -> (RoadNetwork, SpatialIndex) {
        let mut b = roadnet::GraphBuilder::new();
        for i in 0..n {
            b.add_node(Point::new((i % 6) as f64 * 0.1, (i / 6) as f64 * 0.1)).unwrap();
        }
        for i in 0..n - 1 {
            b.add_edge(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let g = b.build().unwrap();
        let idx = SpatialIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn network_ring_widens_past_the_coordinate_diagonal() {
        let (g, idx) = heavy_chain(30);
        assert!(g.bbox().diagonal() < 1.0);
        let c = SelectionContext {
            map: &g,
            index: &idx,
            weights: None,
            anchor: NodeId(0),
            counterpart: NodeId(2),
        };
        let exclude: HashSet<NodeId> = [NodeId(0), NodeId(2)].into_iter().collect();
        let mut rng = StdRng::seed_from_u64(1);
        // The initial band [60, 240] holds one eligible node and 2 × the
        // diagonal is under 2; the ninth lies 1000 away.
        let fakes =
            select_fakes(FakeSelection::default_network_ring(), &c, &exclude, 9, &mut rng).unwrap();
        assert_eq!(fakes.iter().collect::<HashSet<_>>().len(), 9);
        assert!(fakes.iter().all(|f| !exclude.contains(f)));
    }

    #[test]
    fn network_ring_gives_up_once_the_anchors_component_is_exhausted() {
        // Two components: a heavy chain of 4 and, unreachable from it,
        // plenty of nodes the count-level pre-check is satisfied by.
        let mut b = roadnet::GraphBuilder::new();
        for i in 0..20u32 {
            b.add_node(Point::new(i as f64 * 0.1, 0.0)).unwrap();
        }
        for i in (0..3u32).chain(4..19) {
            b.add_edge(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let g = b.build().unwrap();
        let idx = SpatialIndex::build(&g);
        let c = SelectionContext {
            map: &g,
            index: &idx,
            weights: None,
            anchor: NodeId(0),
            counterpart: NodeId(1),
        };
        let exclude: HashSet<NodeId> = [NodeId(0), NodeId(1)].into_iter().collect();
        let mut rng = StdRng::seed_from_u64(1);
        let err = select_fakes(FakeSelection::default_network_ring(), &c, &exclude, 5, &mut rng)
            .unwrap_err();
        assert!(
            matches!(err, OpaqueError::NotEnoughFakes { requested: 5, available: 2 }),
            "{err:?}"
        );
    }

    #[test]
    fn strategy_names() {
        assert_eq!(FakeSelection::Uniform.name(), "uniform");
        assert_eq!(FakeSelection::default_ring().name(), "ring");
        assert_eq!(FakeSelection::default_network_ring().name(), "net-ring");
        assert_eq!(FakeSelection::Weighted.name(), "weighted");
    }
}
