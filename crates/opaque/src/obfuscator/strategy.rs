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
use roadnet::{NodeId, Point, RingCover, RoadNetwork, SpatialIndex};
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
    ///
    /// Uniform over the eligible annulus nodes, without replacement, at
    /// O(k + rows) per call: fakes are drawn by rejection from the spatial
    /// index's row-span cover of the outer disk
    /// ([`SpatialIndex::ring_cover`]), never listed.
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

/// Per-node plausibility weights with their cumulative table, built once
/// per weight vector, so a [`FakeSelection::Weighted`] draw is one binary
/// search instead of an O(n) prefix per call.
#[derive(Clone, Debug)]
pub struct Plausibility {
    /// The `n` weights as supplied, then their running sums: entry `n + i`
    /// is the sum of `max(w, 0)` over the first `i + 1` weights. One
    /// buffer, so an obfuscator holding it is no larger than one holding
    /// the bare weight vector.
    table: Vec<f64>,
}

impl Plausibility {
    /// Index `weights` (one per node; negative weights count as zero).
    pub fn new(mut weights: Vec<f64>) -> Self {
        let n = weights.len();
        weights.reserve_exact(n);
        let mut total = 0.0;
        for i in 0..n {
            total += weights[i].max(0.0);
            weights.push(total);
        }
        Plausibility { table: weights }
    }

    /// The weights as supplied.
    pub fn weights(&self) -> &[f64] {
        &self.table[..self.table.len() / 2]
    }

    fn cumulative(&self) -> &[f64] {
        &self.table[self.table.len() / 2..]
    }

    fn total(&self) -> f64 {
        self.table.last().copied().unwrap_or(0.0)
    }

    /// A node drawn with probability proportional to its weight; needs
    /// `total() > 0`.
    fn draw(&self, rng: &mut StdRng) -> NodeId {
        let x = rng.gen_range(0.0..self.total());
        NodeId(self.cumulative().partition_point(|&p| p <= x) as u32)
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
    pub weights: Option<&'a Plausibility>,
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

/// Consecutive rejected draws after which a ring pick stops guessing and
/// walks its cover once (see [`draw_from_ring`]). Acceptance on the
/// benchmark maps is ≈ 0.88, so a run this long means the band is nearly
/// spent, not unlucky.
const MISS_RUN: usize = 64;

/// The fakes one [`select_fakes`] call has drawn so far, and the one
/// eligibility filter every strategy applies: not excluded, not already
/// picked.
struct Draws<'e> {
    exclude: &'e HashSet<NodeId>,
    picked: HashSet<NodeId>,
    out: Vec<NodeId>,
    count: usize,
}

impl<'e> Draws<'e> {
    fn new(exclude: &'e HashSet<NodeId>, count: usize) -> Self {
        Draws {
            exclude,
            picked: HashSet::with_capacity(count),
            out: Vec::with_capacity(count),
            count,
        }
    }

    fn eligible(&self, n: NodeId) -> bool {
        !self.exclude.contains(&n) && !self.picked.contains(&n)
    }

    fn is_full(&self) -> bool {
        self.out.len() == self.count
    }

    fn take(&mut self, n: NodeId) {
        self.picked.insert(n);
        self.out.push(n);
    }

    /// Up to `attempts` candidates from `draw`, keeping the eligible ones,
    /// until full: each kept candidate has `draw`'s law restricted to the
    /// eligible nodes.
    fn reject(&mut self, attempts: usize, mut draw: impl FnMut() -> NodeId) {
        for _ in 0..attempts {
            if self.is_full() {
                break;
            }
            let cand = draw();
            if self.eligible(cand) {
                self.take(cand);
            }
        }
    }
}

/// One node drawn uniformly from the `eligible` ones among `nodes`: a
/// counting pass, a rank drawn from the count, and a pass to that rank.
/// `None` when none is eligible. The exact completion step of the
/// rejection samplers — [`uniform`] once its attempts run out, the ring
/// once a miss run says its band is nearly spent — so the law stays exact
/// whichever path resolves a pick.
fn draw_by_rank(
    nodes: impl Iterator<Item = NodeId> + Clone,
    eligible: impl Fn(NodeId) -> bool,
    rng: &mut StdRng,
) -> Option<NodeId> {
    let m = nodes.clone().filter(|&n| eligible(n)).count();
    if m == 0 {
        return None;
    }
    let rank = rng.gen_range(0..m);
    nodes.filter(|&n| eligible(n)).nth(rank)
}

fn uniform(
    ctx: &SelectionContext<'_>,
    exclude: &HashSet<NodeId>,
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<NodeId>> {
    let n = ctx.map.num_nodes() as u32;
    let mut draws = Draws::new(exclude, count);
    // Rejection sampling is fast while the exclusion set is sparse; on a
    // nearly exhausted map finish by rank over the eligible remainder, so
    // the completion is as uniform as the draws before it.
    draws.reject(20 * count + 100, || NodeId(rng.gen_range(0..n)));
    while !draws.is_full() {
        let Some(cand) = draw_by_rank((0..n).map(NodeId), |c| draws.eligible(c), rng) else {
            break;
        };
        draws.take(cand);
    }
    debug_assert!(draws.is_full(), "availability was checked upfront");
    Ok(draws.out)
}

/// The widening schedule both ring strategies share. `fill(r_lo, r_hi,
/// draws)` draws from the current annulus until `draws` is full or the
/// band has no eligible node left, and says whether the band already
/// covers every node a wider one could reach — the only way out with
/// [`OpaqueError::NotEnoughFakes`]. While short, the inner radius halves
/// and the outer doubles, clamped to `cap` on the way up; reaching `cap`
/// drops the inner radius to zero, and an annulus that still does not
/// cover everything there keeps doubling.
fn widen_and_sample(
    exclude: &HashSet<NodeId>,
    count: usize,
    (mut r_lo, mut r_hi): (f64, f64),
    cap: f64,
    mut fill: impl FnMut(f64, f64, &mut Draws<'_>) -> bool,
) -> Result<Vec<NodeId>> {
    let mut draws = Draws::new(exclude, count);
    loop {
        let covers_all = fill(r_lo, r_hi, &mut draws);
        if draws.is_full() {
            return Ok(draws.out);
        }
        if covers_all {
            return Err(OpaqueError::NotEnoughFakes {
                requested: count,
                available: draws.out.len(),
            });
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
    widen_and_sample(exclude, count, (lo * d, hi * d), diag, |r_lo, r_hi, draws| {
        let cover = ctx.index.ring_cover(center, r_lo, r_hi);
        while !draws.is_full() {
            let Some(fake) = draw_from_ring(&cover, draws, rng) else { break };
            draws.take(fake);
        }
        r_lo <= 0.0 && r_hi >= diag
    })
}

/// One node drawn uniformly from the eligible ring nodes of `cover`, or
/// `None` when it has none. Uniform positions over the cover are accepted
/// iff the node is in the ring and eligible — each accepted draw is
/// uniform over the eligible ring nodes — and a run of [`MISS_RUN`]
/// misses hands the pick to one exact [`draw_by_rank`] walk of the same
/// cover, which is uniform over the same set. Either way the pick has
/// the law the materialised annulus had; only the RNG draws differ.
fn draw_from_ring(cover: &RingCover<'_>, draws: &Draws<'_>, rng: &mut StdRng) -> Option<NodeId> {
    let eligible = |n| cover.contains(n) && draws.eligible(n);
    if !cover.is_empty() {
        for _ in 0..MISS_RUN {
            let n = cover.node(rng.gen_range(0..cover.len()));
            if eligible(n) {
                return Some(n);
            }
        }
    }
    draw_by_rank(cover.nodes(), eligible, rng)
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
        .distance(ctx.counterpart)
        .unwrap_or_else(|| ctx.map.euclidean(ctx.anchor, ctx.counterpart))
        .max(f64::EPSILON);
    // Network radii are not bounded by any coordinate length (travel-time
    // weights over lon/lat), so the diagonal only paces the widening; the
    // band covers everything once it starts at the anchor and its sweep
    // has exhausted the anchor's component.
    let pace = ctx.map.bbox().diagonal() * 2.0;
    widen_and_sample(exclude, count, (lo * d, hi * d), pace, |r_lo, r_hi, draws| {
        // The band is a Dijkstra sweep, O(band) already: list it, filter,
        // and sort it into a deterministic order before sampling.
        let (band, _, drained) = ring_search_in(&mut arena, ctx.map, ctx.anchor, r_lo, r_hi);
        let mut candidates: Vec<NodeId> =
            band.into_iter().map(|(n, _)| n).filter(|&n| draws.eligible(n)).collect();
        candidates.sort_unstable();
        while !draws.is_full() && !candidates.is_empty() {
            let i = rng.gen_range(0..candidates.len());
            draws.take(candidates.swap_remove(i));
        }
        r_lo <= 0.0 && drained
    })
}

fn weighted(
    ctx: &SelectionContext<'_>,
    exclude: &HashSet<NodeId>,
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<NodeId>> {
    // Without plausibility data (or with no positive weight) the weighted
    // strategy degenerates to uniform — documented fallback rather than an
    // error, so deployments can flip the strategy on before the weights
    // ship.
    let Some(weights) = ctx.weights.filter(|w| w.total() > 0.0) else {
        return uniform(ctx, exclude, count, rng);
    };
    assert_eq!(weights.weights().len(), ctx.map.num_nodes(), "one weight per node");

    // Draws over every node's weight; excluded and repeated nodes are
    // rejected, which leaves the weighted law over the eligible ones.
    let mut draws = Draws::new(exclude, count);
    draws.reject(50 * count + 200, || weights.draw(rng));
    if !draws.is_full() {
        // Heavy weight concentration (or exclusions holding most of the
        // mass) can starve rejection sampling; finish uniformly over
        // whatever is left.
        let mut excl = exclude.clone();
        // lint: allow(hash-iter) — set-to-set union: the extended
        // exclusion *set* is the same whatever order the elements
        // arrive, and `uniform` only probes it with `contains`.
        excl.extend(draws.picked.iter().copied());
        let rest = uniform(ctx, &excl, count - draws.out.len(), rng)?;
        draws.out.extend(rest);
    }
    Ok(draws.out)
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
        weights: Option<&'a Plausibility>,
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
        let weights = Plausibility::new((0..g.num_nodes()).map(|i| 1.0 + (i % 7) as f64).collect());
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
        let weights = Plausibility::new(weights);
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

    #[test]
    fn weighted_rejects_excluded_mass() {
        let (g, idx) = setup();
        // All mass on nodes 100..110, half of it excluded.
        let mut weights = vec![0.0; g.num_nodes()];
        weights[100..110].fill(1.0);
        let weights = Plausibility::new(weights);
        let exclude: HashSet<NodeId> = (100..105).map(NodeId).collect();
        let c = ctx(&g, &idx, Some(&weights));
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fakes = select_fakes(FakeSelection::Weighted, &c, &exclude, 3, &mut rng).unwrap();
            assert_eq!(fakes.iter().collect::<HashSet<_>>().len(), 3);
            for f in &fakes {
                assert!((105..110).contains(&f.index()), "fake {f} outside the eligible mass");
            }
        }
    }

    #[test]
    fn uniform_completion_is_uniform() {
        // Eight eligible nodes spread over the ids: 180 rejection
        // attempts at 2 % acceptance usually run out before four land,
        // and the completion must not favour the lowest ids.
        let (g, idx) = setup();
        let eligible = [3u32, 57, 111, 160, 222, 279, 333, 398];
        let exclude: HashSet<NodeId> =
            (0..400).filter(|i| !eligible.contains(i)).map(NodeId).collect();
        let c = ctx(&g, &idx, None);
        let runs = 4_000;
        let mut hits = [0u32; 8];
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed);
            let fakes = select_fakes(FakeSelection::Uniform, &c, &exclude, 4, &mut rng).unwrap();
            assert_eq!(fakes.iter().collect::<HashSet<_>>().len(), 4);
            for f in fakes {
                let slot = eligible.iter().position(|&e| e == f.0).expect("an eligible node");
                hits[slot] += 1;
            }
        }
        for (node, &h) in eligible.iter().zip(&hits) {
            let freq = f64::from(h) / runs as f64;
            assert!((freq - 0.5).abs() <= 0.05, "node {node} in {freq:.3} of the sets, not 0.5");
        }
    }

    /// Pearson's statistic of `counts` against a uniform expectation.
    fn chi_square(counts: &[u64]) -> f64 {
        let expected = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum()
    }

    /// A fixed bound five standard deviations above the statistic's mean
    /// for `cells` cells: a uniform sampler stays under it for every seed
    /// stream in practice, a biased one does not.
    fn chi_square_bound(cells: usize) -> f64 {
        let dof = (cells - 1) as f64;
        dof + 5.0 * (2.0 * dof).sqrt()
    }

    /// The law oracle: the brute-force band around `anchor` (by the same
    /// distance test the sampler applies), minus `exclude`, and the
    /// sampler's single draws and ordered pairs against it.
    fn assert_ring_law(
        g: &RoadNetwork,
        anchor: NodeId,
        counterpart: NodeId,
        (lo, hi): (f64, f64),
        exclude: &HashSet<NodeId>,
        seed: u64,
    ) {
        let idx = SpatialIndex::build(g);
        let c = SelectionContext { map: g, index: &idx, weights: None, anchor, counterpart };
        let d = g.euclidean(anchor, counterpart);
        let center = g.point(anchor);
        let band: Vec<NodeId> = (0..g.num_nodes() as u32)
            .map(NodeId)
            .filter(|&n| {
                let dist = center.distance(g.point(n));
                dist >= lo * d && dist <= hi * d && !exclude.contains(&n)
            })
            .collect();
        let m = band.len();
        assert!(m >= 6, "a band of {m} eligible nodes is too thin to test");
        let slot =
            |f: NodeId| band.binary_search(&f).unwrap_or_else(|_| panic!("{f} off the band"));
        let strategy = FakeSelection::Ring { lo, hi };
        let mut rng = StdRng::seed_from_u64(seed);

        let mut singles = vec![0u64; m];
        for _ in 0..60 * m {
            let fakes = select_fakes(strategy, &c, exclude, 1, &mut rng).unwrap();
            singles[slot(fakes[0])] += 1;
        }
        assert!(singles.iter().all(|&n| n > 0), "an eligible band node was never drawn");
        let stat = chi_square(&singles);
        assert!(stat <= chi_square_bound(m), "single draws: chi-square {stat:.1} over {m} nodes");

        // Ordered pairs: uniform over the m·(m − 1) off-diagonal cells,
        // 20 draws expected per cell.
        let mut pairs = vec![0u64; m * m];
        for _ in 0..20 * m * (m - 1) {
            let fakes = select_fakes(strategy, &c, exclude, 2, &mut rng).unwrap();
            let (a, b) = (slot(fakes[0]), slot(fakes[1]));
            assert_ne!(a, b, "a fake drawn twice");
            pairs[a * m + b] += 1;
        }
        let off_diagonal: Vec<u64> =
            (0..m * m).filter(|i| i / m != i % m).map(|i| pairs[i]).collect();
        let stat = chi_square(&off_diagonal);
        let cells = off_diagonal.len();
        assert!(
            stat <= chi_square_bound(cells),
            "ordered pairs: chi-square {stat:.1} over {cells}"
        );
    }

    #[test]
    fn ring_law_matches_brute_force_on_a_grid() {
        let (g, _) = setup();
        // The true endpoints and a handful of band nodes are excluded.
        let exclude: HashSet<NodeId> =
            [210, 212, 190, 231, 209, 251, 169].into_iter().map(NodeId).collect();
        assert_ring_law(&g, NodeId(210), NodeId(212), (0.3, 1.2), &exclude, 1);
        assert_ring_law(&g, NodeId(210), NodeId(212), (0.9, 2.0), &exclude, 2);
    }

    #[test]
    fn ring_law_matches_brute_force_on_a_geometric_map() {
        use roadnet::generators::{GeometricConfig, random_geometric};
        let g =
            random_geometric(&GeometricConfig { num_nodes: 400, seed: 9, ..Default::default() })
                .unwrap();
        let anchor = SpatialIndex::build(&g).nearest(Point::new(10.0, 10.0));
        let counterpart = SpatialIndex::build(&g).nearest(Point::new(11.5, 11.5));
        let exclude: HashSet<NodeId> = [anchor, counterpart].into_iter().collect();
        assert_ring_law(&g, anchor, counterpart, (0.3, 1.2), &exclude, 3);
    }

    #[test]
    fn ring_finds_the_one_eligible_node_hidden_among_excluded_ones() {
        // Everything but node 213, inside the band [1.5, 6] around 210, is
        // excluded: most picks exhaust their miss run over a cover of
        // ≈ 110 nodes and resolve in the exact walk.
        let (g, idx) = setup();
        let c = SelectionContext {
            map: &g,
            index: &idx,
            weights: None,
            anchor: NodeId(210),
            counterpart: NodeId(215),
        };
        let exclude: HashSet<NodeId> = (0..400).filter(|&i| i != 213).map(NodeId).collect();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fakes = select_fakes(FakeSelection::default_ring(), &c, &exclude, 1, &mut rng);
            assert_eq!(fakes.unwrap(), vec![NodeId(213)], "seed {seed}");
        }
    }

    #[test]
    fn ring_widens_past_a_fully_excluded_band() {
        let (g, idx) = setup();
        let (anchor, counterpart) = (NodeId(210), NodeId(215));
        let c = SelectionContext { map: &g, index: &idx, weights: None, anchor, counterpart };
        let d = g.euclidean(anchor, counterpart);
        let (r_lo, r_hi) = (0.3 * d, 1.2 * d);
        let center = g.point(anchor);
        let dist = |n: NodeId| center.distance(g.point(n));
        let mut exclude: HashSet<NodeId> =
            (0..400).map(NodeId).filter(|&n| dist(n) >= r_lo && dist(n) <= r_hi).collect();
        exclude.extend([anchor, counterpart]);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fakes =
                select_fakes(FakeSelection::default_ring(), &c, &exclude, 3, &mut rng).unwrap();
            assert_eq!(fakes.iter().collect::<HashSet<_>>().len(), 3);
            for f in fakes {
                // The first widening: inner radius halved, outer doubled.
                assert!(!exclude.contains(&f), "seed {seed}: excluded {f}");
                assert!(dist(f) >= r_lo / 2.0 && dist(f) <= 2.0 * r_hi, "seed {seed}: {f}");
            }
        }
    }

    #[test]
    fn ring_exhaustion_reports_what_it_found() {
        // An index over the first 100 of the map's 400 nodes: the count
        // pre-check passes and the whole-map annulus runs dry at the 98
        // eligible indexed nodes — the parent's `available`, unchanged.
        let (g, _) = setup();
        let idx = SpatialIndex::from_points(g.points()[..100].to_vec());
        let c = SelectionContext {
            map: &g,
            index: &idx,
            weights: None,
            anchor: NodeId(45),
            counterpart: NodeId(47),
        };
        let exclude: HashSet<NodeId> = [NodeId(45), NodeId(47)].into_iter().collect();
        let mut rng = StdRng::seed_from_u64(9);
        let err =
            select_fakes(FakeSelection::default_ring(), &c, &exclude, 150, &mut rng).unwrap_err();
        assert!(
            matches!(err, OpaqueError::NotEnoughFakes { requested: 150, available: 98 }),
            "{err:?}"
        );
    }

    #[test]
    fn network_ring_fakes_are_pinned_byte_for_byte() {
        // Recorded at the parent of the ring sampler: the network ring
        // keeps its listed band and its draws, widening included.
        let (g, idx) = setup();
        let exclude: HashSet<NodeId> = [NodeId(210), NodeId(250)].into_iter().collect();
        let fakes = |counterpart: u32, strategy: FakeSelection, count: usize, seed: u64| {
            let c = SelectionContext {
                map: &g,
                index: &idx,
                weights: None,
                anchor: NodeId(210),
                counterpart: NodeId(counterpart),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let got = select_fakes(strategy, &c, &exclude, count, &mut rng).unwrap();
            got.into_iter().map(|n| n.0).collect::<Vec<_>>()
        };
        let default = FakeSelection::default_network_ring();
        assert_eq!(fakes(250, default, 4, 1), [209, 211, 170, 208]);
        assert_eq!(fakes(250, default, 4, 2), [212, 189, 230, 209]);
        assert_eq!(fakes(250, default, 4, 3), [229, 232, 209, 211]);
        let thin = FakeSelection::NetworkRing { lo: 0.9, hi: 1.0 };
        assert_eq!(
            fakes(211, thin, 12, 1),
            [211, 191, 190, 212, 230, 209, 231, 269, 208, 151, 229, 193]
        );
        assert_eq!(
            fakes(211, thin, 12, 2),
            [211, 209, 191, 190, 230, 231, 212, 207, 171, 170, 228, 229]
        );
        assert_eq!(
            fakes(211, thin, 12, 3),
            [211, 212, 230, 231, 190, 191, 209, 270, 207, 228, 192, 271]
        );
    }
}
