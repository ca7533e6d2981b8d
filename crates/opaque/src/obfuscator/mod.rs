//! The path query obfuscator (§IV, Figures 5–6).
//!
//! The obfuscator is the trusted third party between clients and the
//! directions-search server. It keeps a simple road map (generated, in this
//! reproduction, by `roadnet::generators` standing in for TIGER/Line), and
//! turns client requests `⟨u, (s,t), (f_S, f_T)⟩` into obfuscated path
//! queries:
//!
//! * [`Obfuscator::obfuscate_independent`] — one `Q(S,T)` per request with
//!   `|S| = f_S`, `|T| = f_T` (Figure 3);
//! * `Obfuscator::obfuscate_shared` (crate-private) — one `Q(S,T)` for a group of
//!   requests with `{sᵢ} ⊆ S`, `{tᵢ} ⊆ T`, `|S| ≥ max f_Sᵢ`,
//!   `|T| ≥ max f_Tᵢ` (Figure 4);
//! * [`Obfuscator::obfuscate_attributed`] — the full §IV pipeline, and the
//!   only copy of it: one mode dispatch forms the groups (singletons, the
//!   whole batch, or [`clustering`]'s partition), obfuscates each, and
//!   attributes every [`OpaqueError::NotEnoughFakes`] to individual
//!   clients as a [`Rejection`] so the rest of the batch is still served.
//!   [`crate::OpaqueService`] consumes its units and rejections;
//!   [`Obfuscator::obfuscate_batch`] is the same call with any rejection
//!   turned into `Err`.
//!
//! ## Keyed fakes
//!
//! Independent fakes are a function of the obfuscator's seed and the
//! request's `(s, t, f_S, f_T)`: a retry, a second client with the same trip
//! and protection, or a restarted obfuscator gets the same `Q(S,T)`, so
//! linking rounds leaves nothing to intersect (experiment E11), and no
//! state is kept. The seed is the key: whoever holds it can recompute every
//! candidate pair's fakes and find the true one, so it never leaves the
//! obfuscator. [`FakeSelection::NetworkRing`] draws from network-distance
//! bands, which a weight update can move; the other strategies ignore
//! weights. Shared groups draw from a running stream and a retry lands in
//! a different group, so the shared modes promise Definition 2 per query.

pub mod clustering;
pub mod strategy;

pub use clustering::{Cluster, ClusteringConfig, cluster_requests};
pub use strategy::{FakeSelection, Plausibility, SelectionContext, select_fakes};

use crate::error::{OpaqueError, Result};
use crate::query::{ClientId, ClientRequest, ObfuscatedPathQuery};
use rand::SeedableRng;
use rand::rngs::StdRng;
use roadnet::{NodeId, RoadNetwork, SpatialIndex};
use std::collections::HashSet;
use std::sync::Arc;

/// How a batch of requests is turned into obfuscated queries.
///
/// Serializes with serde's externally-tagged enum representation — unit
/// modes as their variant name, `SharedClustered` as a tagged object
/// carrying its [`ClusteringConfig`] — so reports round-trip the *full*
/// mode, parameters included, instead of a lossy display string.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ObfuscationMode {
    /// One independently obfuscated query per request (Figure 3).
    #[default]
    Independent,
    /// A single shared obfuscated query for the whole batch (Figure 4).
    SharedGlobal,
    /// Cluster the batch spatially, one shared query per cluster (§IV).
    SharedClustered(ClusteringConfig),
}

impl std::fmt::Display for ObfuscationMode {
    /// Short name used in experiment tables and logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ObfuscationMode::Independent => "independent",
            ObfuscationMode::SharedGlobal => "shared-global",
            ObfuscationMode::SharedClustered(_) => "shared-clustered",
        })
    }
}

/// One obfuscated query together with the requests it answers. The unit the
/// server processes and the candidate-result filter later unpacks.
#[derive(Clone, Debug)]
pub struct ObfuscationUnit {
    /// The obfuscated query `Q(S, T)` sent to the server.
    pub query: ObfuscatedPathQuery,
    /// The true requests hidden inside it.
    pub requests: Vec<ClientRequest>,
}

impl ObfuscationUnit {
    /// Check the Definition 1 invariants for every carried request: the
    /// true endpoints are embedded and the requested protection met.
    pub fn is_well_formed(&self) -> bool {
        self.requests
            .iter()
            .all(|r| self.query.covers(&r.query) && self.query.satisfies(&r.protection))
    }
}

/// A request the §IV pipeline could not obfuscate, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct Rejection {
    /// The client whose request was ruled out.
    pub client: ClientId,
    /// The [`OpaqueError::NotEnoughFakes`] that ruled it out.
    pub cause: OpaqueError,
    /// `true` when the request was feasible on its own and was evicted
    /// because it held a binding maximum of an infeasible shared group.
    pub collective: bool,
}

impl Rejection {
    /// The verdict as the client reads it.
    pub fn reason(&self) -> String {
        if self.collective {
            format!(
                "{} (group protections jointly unsatisfiable; this request's \
                 demand bound the shared query size)",
                self.cause
            )
        } else {
            self.cause.to_string()
        }
    }
}

/// What one pass of the §IV pipeline produced: the units to send to the
/// server, and the requests no unit carries.
#[derive(Clone, Debug, Default)]
pub struct ObfuscatedBatch {
    /// Obfuscated queries in group order, each with the requests it hides.
    pub units: Vec<ObfuscationUnit>,
    /// Requests left out, in the order they were ruled out.
    pub rejected: Vec<Rejection>,
}

/// The trusted obfuscator. Holds a snapshot of the public map (a built
/// service's fleet reads the same one), a spatial index over it, the
/// fake-selection strategy, optional plausibility weights, and its seed:
/// the key of every independent draw, and the start of the running stream
/// shared groups draw from (all obfuscation is reproducible given the seed).
pub struct Obfuscator {
    map: Arc<RoadNetwork>,
    index: SpatialIndex,
    strategy: FakeSelection,
    weights: Option<Plausibility>,
    seed: u64,
    rng: StdRng,
}

impl Obfuscator {
    /// Build an obfuscator over `map` (owned, or a snapshot already shared
    /// behind an [`Arc`]) with the given strategy and RNG seed.
    pub fn new(map: impl Into<Arc<RoadNetwork>>, strategy: FakeSelection, seed: u64) -> Self {
        let map = map.into();
        let index = SpatialIndex::build(&map);
        Obfuscator { map, index, strategy, weights: None, seed, rng: StdRng::seed_from_u64(seed) }
    }

    /// Attach per-node plausibility weights (enables
    /// [`FakeSelection::Weighted`] and lets experiments model the
    /// background-knowledge adversary). Their cumulative table is built
    /// here, once, not per fake batch.
    ///
    /// # Panics
    /// Panics if `weights.len()` differs from the map's node count.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.map.num_nodes(), "one weight per node");
        self.weights = Some(Plausibility::new(weights));
        self
    }

    /// The obfuscator's map.
    pub fn map(&self) -> &RoadNetwork {
        &self.map
    }

    /// Apply live-traffic weight updates to the obfuscator's map;
    /// copy-on-write, so other holders of a shared snapshot keep the old
    /// weights. A built service never calls this: its obfuscator adopts the
    /// fleet's reweighted snapshot ([`crate::OpaqueService::update_weights`]).
    /// Returns the edges whose weight actually changed.
    ///
    /// The [`SpatialIndex`] is geometry-only and survives untouched; only
    /// [`FakeSelection::NetworkRing`]'s bands read the weights.
    ///
    /// # Errors
    /// Propagates [`roadnet::RoadNetError`] from
    /// [`RoadNetwork::update_weights`]; the weights are untouched on error.
    pub fn update_weights(
        &mut self,
        updates: &[(roadnet::EdgeId, f64)],
    ) -> std::result::Result<Vec<roadnet::EdgeId>, roadnet::RoadNetError> {
        Arc::make_mut(&mut self.map).update_weights(updates)
    }

    /// Adopt a reweighted snapshot of the same map — or hold a
    /// placeholder while the fleet writes that map in place
    /// ([`crate::OpaqueService::update_weights`]). A weight update moves
    /// no geometry and renumbers no node, so the spatial index and the
    /// plausibility weights stay.
    pub(crate) fn adopt_reweighted(&mut self, map: Arc<RoadNetwork>) {
        self.map = map;
    }

    /// Replace the obfuscator's map outright — the topology-change
    /// counterpart of [`Obfuscator::update_weights`]. The spatial index is
    /// rebuilt and the plausibility weights dropped — they describe the old
    /// map's node ids — so [`FakeSelection::Weighted`] falls back to
    /// uniform until [`Obfuscator::with_weights`] supplies weights for the
    /// new map.
    pub fn swap_map(&mut self, map: impl Into<Arc<RoadNetwork>>) {
        let map = map.into();
        self.index = SpatialIndex::build(&map);
        self.map = map;
        self.weights = None;
    }

    /// The active fake-selection strategy.
    pub fn strategy(&self) -> FakeSelection {
        self.strategy
    }

    /// Plausibility weights, if attached.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_ref().map(Plausibility::weights)
    }

    /// Count-level feasibility check: everything `check_request`
    /// validates, plus whether the map can hold the requested sets at all.
    /// Obfuscated queries are built with `S` and `T` disjoint (fakes never
    /// collide with any already-chosen endpoint), so a request needs
    /// `f_S + f_T` distinct nodes — that invariant lives here, next to the
    /// code that enforces it, and the service layer's admission path asks
    /// this method instead of restating the bound. Strategy-level
    /// constraints (e.g. a network ring confined to a small component)
    /// are only discoverable by actually obfuscating.
    pub fn can_satisfy(&self, r: &ClientRequest) -> Result<()> {
        self.check_request(r)?;
        let n = self.map.num_nodes();
        let needed = r.protection.f_s as usize + r.protection.f_t as usize;
        if needed > n {
            return Err(OpaqueError::NotEnoughFakes { requested: needed, available: n });
        }
        Ok(())
    }

    /// Validate a request against this obfuscator's map: endpoints must be
    /// known nodes and the protection sizes positive.
    fn check_request(&self, r: &ClientRequest) -> Result<()> {
        let n = self.map.num_nodes();
        for node in [r.query.source, r.query.destination] {
            if node.index() >= n {
                return Err(OpaqueError::UnknownNode { node });
            }
        }
        if r.protection.f_s == 0 || r.protection.f_t == 0 {
            return Err(OpaqueError::InvalidProtection {
                f_s: r.protection.f_s,
                f_t: r.protection.f_t,
            });
        }
        Ok(())
    }

    fn pick(
        &self,
        rng: &mut StdRng,
        anchor: NodeId,
        counterpart: NodeId,
        exclude: &HashSet<NodeId>,
        count: usize,
    ) -> Result<Vec<NodeId>> {
        let ctx = SelectionContext {
            map: &self.map,
            index: &self.index,
            weights: self.weights.as_ref(),
            anchor,
            counterpart,
        };
        select_fakes(self.strategy, &ctx, exclude, count, rng)
    }

    /// Independently obfuscate one request (Figure 3): `|S| = f_S` and
    /// `|T| = f_T`, with the true endpoints embedded. Keyed: the same
    /// request always gets the same unit (see the module docs).
    pub fn obfuscate_independent(&self, request: &ClientRequest) -> Result<ObfuscationUnit> {
        self.check_request(request)?;
        let (q, p) = (request.query, request.protection);
        // One SplitMix64 step per field: add the generator's increment,
        // mix the field in, finalize.
        let key =
            [q.source.0, q.destination.0, p.f_s, p.f_t].into_iter().fold(self.seed, |h, x| {
                splitmix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ u64::from(x))
            });
        let rng = &mut StdRng::seed_from_u64(key);
        // Fakes may not collide with either true endpoint: a fake source
        // equal to the true destination (or vice versa) would shrink the
        // sorted sets below the requested sizes.
        let mut exclude: HashSet<NodeId> = [q.source, q.destination].into_iter().collect();
        let mut sources = self.pick(rng, q.source, q.destination, &exclude, p.f_s as usize - 1)?;
        exclude.extend(sources.iter().copied());
        let mut targets = self.pick(rng, q.destination, q.source, &exclude, p.f_t as usize - 1)?;
        sources.push(q.source);
        targets.push(q.destination);
        let unit = ObfuscationUnit {
            query: ObfuscatedPathQuery::new(sources, targets),
            requests: vec![*request],
        };
        debug_assert!(unit.is_well_formed());
        Ok(unit)
    }

    /// Obfuscate a group of requests into one shared query (Figure 4):
    /// every true source/destination is embedded and the *strictest*
    /// protection setting in the group is met. Requests whose endpoints
    /// overlap shrink the true sets — fakes are added until the size
    /// constraints hold. The draws advance the obfuscator's running
    /// stream, a failed group's included.
    pub(crate) fn obfuscate_shared(
        &mut self,
        requests: &[ClientRequest],
    ) -> Result<ObfuscationUnit> {
        let mut rng = self.rng.clone();
        let unit = self.draw_shared(&mut rng, requests);
        self.rng = rng;
        unit
    }

    fn draw_shared(&self, rng: &mut StdRng, requests: &[ClientRequest]) -> Result<ObfuscationUnit> {
        if requests.is_empty() {
            return Err(OpaqueError::EmptyBatch);
        }
        for r in requests {
            self.check_request(r)?;
        }

        let mut sources: Vec<NodeId> = requests.iter().map(|r| r.query.source).collect();
        let mut targets: Vec<NodeId> = requests.iter().map(|r| r.query.destination).collect();
        sources.sort_unstable();
        sources.dedup();
        targets.sort_unstable();
        targets.dedup();

        let need_s = requests.iter().map(|r| r.protection.f_s).max().unwrap_or(0) as usize;
        let need_t = requests.iter().map(|r| r.protection.f_t).max().unwrap_or(0) as usize;

        let mut exclude: HashSet<NodeId> = sources.iter().chain(targets.iter()).copied().collect();

        // Anchor each fake on a member request round-robin, so fakes are
        // plausible for every participant rather than clustering around one.
        let missing = need_s.saturating_sub(sources.len());
        for r in requests.iter().cycle().take(missing) {
            let fake = self.pick(rng, r.query.source, r.query.destination, &exclude, 1)?;
            exclude.extend(fake.iter().copied());
            sources.extend(fake);
        }
        let missing = need_t.saturating_sub(targets.len());
        for r in requests.iter().cycle().take(missing) {
            let fake = self.pick(rng, r.query.destination, r.query.source, &exclude, 1)?;
            exclude.extend(fake.iter().copied());
            targets.extend(fake);
        }

        let unit = ObfuscationUnit {
            query: ObfuscatedPathQuery::new(sources, targets),
            requests: requests.to_vec(),
        };
        debug_assert!(unit.is_well_formed());
        Ok(unit)
    }

    /// The full §IV obfuscation pipeline for a batch of requests, as the
    /// "any rejection is `Err`" view of
    /// [`Obfuscator::obfuscate_attributed`]: the first rejection's cause
    /// is returned and the units are dropped.
    pub fn obfuscate_batch(
        &mut self,
        requests: &[ClientRequest],
        mode: ObfuscationMode,
    ) -> Result<Vec<ObfuscationUnit>> {
        let batch = self.obfuscate_attributed(requests, mode)?;
        match batch.rejected.into_iter().next() {
            Some(rejection) => Err(rejection.cause),
            None => Ok(batch.units),
        }
    }

    /// The full §IV obfuscation pipeline: form the mode's groups, obfuscate
    /// each, and attribute [`OpaqueError::NotEnoughFakes`] failures to
    /// individual clients instead of failing the batch.
    ///
    /// [`Obfuscator::can_satisfy`] cannot see strategy constraints — e.g.
    /// [`FakeSelection::NetworkRing`] on a disconnected map can only draw
    /// fakes from the anchor's component — nor *collective* infeasibility,
    /// where a shared group's maximum `f_S`/`f_T` demands jointly exceed
    /// the map. Both become [`Rejection`]s, attributed within the failing
    /// group — for [`ObfuscationMode::SharedClustered`] that is the
    /// individual cluster, so clients in healthy clusters are never blamed
    /// for another cluster's infeasibility. Failure handling probes
    /// members through the keyed independent path, which leaves the
    /// running stream alone.
    ///
    /// # Errors
    /// [`OpaqueError::EmptyBatch`], and any request error other than
    /// `NotEnoughFakes` (unknown node, zero protection).
    pub fn obfuscate_attributed(
        &mut self,
        requests: &[ClientRequest],
        mode: ObfuscationMode,
    ) -> Result<ObfuscatedBatch> {
        if requests.is_empty() {
            return Err(OpaqueError::EmptyBatch);
        }
        let mut batch = ObfuscatedBatch::default();
        match mode {
            // Singletons: failures are individually attributable by
            // construction.
            ObfuscationMode::Independent => {
                batch.units = Vec::with_capacity(requests.len());
                for r in requests {
                    match self.obfuscate_independent(r) {
                        Ok(unit) => batch.units.push(unit),
                        Err(cause @ OpaqueError::NotEnoughFakes { .. }) => {
                            batch.rejected.push(Rejection {
                                client: r.client,
                                cause,
                                collective: false,
                            });
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            ObfuscationMode::SharedGlobal => self.obfuscate_group(requests.to_vec(), &mut batch)?,
            ObfuscationMode::SharedClustered(cfg) => {
                for cluster in cluster_requests(&self.map, requests, &cfg) {
                    let members =
                        cluster.members.iter().filter_map(|&i| requests.get(i).copied()).collect();
                    self.obfuscate_group(members, &mut batch)?;
                }
            }
        }
        Ok(batch)
    }

    /// Obfuscate one shared group into `batch`, rejecting infeasible
    /// members until the rest succeed (no unit when every member had to be
    /// rejected).
    fn obfuscate_group(
        &mut self,
        mut members: Vec<ClientRequest>,
        batch: &mut ObfuscatedBatch,
    ) -> Result<()> {
        while !members.is_empty() {
            match self.obfuscate_shared(&members) {
                Ok(unit) => {
                    batch.units.push(unit);
                    break;
                }
                Err(cause @ OpaqueError::NotEnoughFakes { .. }) => {
                    self.shrink_infeasible_group(&mut members, cause, &mut batch.rejected);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Shrink a shared group that failed with `cause`.
    ///
    /// Members that fail an *individual* obfuscation probe are rejected
    /// first (strategy-level infeasibility, e.g. a disconnected island).
    /// If all members are individually fine, the infeasibility is
    /// collective — a shared query must meet the group's maximum `f_S` and
    /// `f_T` at once, demanded possibly by different members — so the
    /// member whose removal shrinks `max f_S + max f_T` the most (a holder
    /// of a binding max, not merely the largest sum) is rejected.
    fn shrink_infeasible_group(
        &mut self,
        members: &mut Vec<ClientRequest>,
        cause: OpaqueError,
        rejected: &mut Vec<Rejection>,
    ) {
        let before = rejected.len();
        members.retain(|r| match self.obfuscate_independent(r) {
            Ok(_) => true,
            Err(probe) => {
                rejected.push(Rejection { client: r.client, cause: probe, collective: false });
                false
            }
        });
        if rejected.len() > before {
            return;
        }
        let joint_without = |skip: usize| {
            let mut max_s = 0u32;
            let mut max_t = 0u32;
            for (j, r) in members.iter().enumerate() {
                if j != skip {
                    max_s = max_s.max(r.protection.f_s);
                    max_t = max_t.max(r.protection.f_t);
                }
            }
            max_s as u64 + max_t as u64
        };
        if let Some(binding) = (0..members.len()).min_by_key(|&i| joint_without(i)) {
            let evicted = members.remove(binding);
            rejected.push(Rejection { client: evicted.client, cause, collective: true });
        }
    }
}

/// SplitMix64's output finalizer: the explicit integer arithmetic that
/// folds a request into its draw seed, stable across Rust releases (unlike
/// `std`'s hashers).
fn splitmix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ClientId, PathQuery, ProtectionSettings};
    use roadnet::generators::{GridConfig, grid_network};

    fn obfuscator(strategy: FakeSelection) -> Obfuscator {
        let map =
            grid_network(&GridConfig { width: 20, height: 20, seed: 1, ..Default::default() })
                .unwrap();
        Obfuscator::new(map, strategy, 42)
    }

    fn request(i: u32, s: u32, t: u32, f_s: u32, f_t: u32) -> ClientRequest {
        ClientRequest::new(
            ClientId(i),
            PathQuery::new(NodeId(s), NodeId(t)),
            ProtectionSettings::new(f_s, f_t).unwrap(),
        )
    }

    #[test]
    fn independent_meets_exact_sizes() {
        for strategy in [FakeSelection::Uniform, FakeSelection::default_ring()] {
            let ob = obfuscator(strategy);
            let r = request(0, 5, 390, 3, 4);
            let unit = ob.obfuscate_independent(&r).unwrap();
            assert_eq!(unit.query.sources().len(), 3, "{}", strategy.name());
            assert_eq!(unit.query.targets().len(), 4, "{}", strategy.name());
            assert!(unit.query.covers(&r.query));
            assert!(unit.is_well_formed());
            assert!((unit.query.breach_probability() - 1.0 / 12.0).abs() < 1e-12);
        }
    }

    #[test]
    fn protection_of_one_means_no_fakes() {
        let ob = obfuscator(FakeSelection::Uniform);
        let r = request(0, 5, 390, 1, 1);
        let unit = ob.obfuscate_independent(&r).unwrap();
        assert_eq!(unit.query.sources(), &[NodeId(5)]);
        assert_eq!(unit.query.targets(), &[NodeId(390)]);
        assert_eq!(unit.query.breach_probability(), 1.0);
    }

    #[test]
    fn shared_embeds_all_true_endpoints_and_respects_max_protection() {
        let mut ob = obfuscator(FakeSelection::default_ring());
        let reqs =
            vec![request(0, 0, 399, 2, 3), request(1, 21, 378, 4, 2), request(2, 40, 360, 3, 3)];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        for r in &reqs {
            assert!(unit.query.covers(&r.query));
            assert!(unit.query.satisfies(&r.protection));
        }
        assert!(unit.query.sources().len() >= 4);
        assert!(unit.query.targets().len() >= 3);
        assert!(unit.is_well_formed());
    }

    #[test]
    fn shared_with_enough_true_endpoints_adds_no_fakes() {
        let mut ob = obfuscator(FakeSelection::Uniform);
        // 4 distinct sources and destinations; protection only asks for 3.
        let reqs = vec![
            request(0, 0, 399, 3, 3),
            request(1, 21, 378, 3, 3),
            request(2, 40, 360, 3, 3),
            request(3, 60, 340, 3, 3),
        ];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        assert_eq!(unit.query.sources().len(), 4, "true sources suffice");
        assert_eq!(unit.query.targets().len(), 4, "true targets suffice");
    }

    #[test]
    fn shared_handles_overlapping_endpoints() {
        let mut ob = obfuscator(FakeSelection::Uniform);
        // Both clients start at node 0 — the true source set has size 1, so
        // a fake must be added to reach f_S = 2.
        let reqs = vec![request(0, 0, 399, 2, 2), request(1, 0, 380, 2, 2)];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        assert!(unit.query.sources().len() >= 2);
        assert!(unit.query.targets().len() >= 2);
        assert!(unit.is_well_formed());
    }

    #[test]
    fn batch_modes_cover_all_requests() {
        let reqs: Vec<ClientRequest> =
            (0..8).map(|i| request(i, i * 37 % 400, (i * 53 + 200) % 400, 2, 2)).collect();
        for mode in [
            ObfuscationMode::Independent,
            ObfuscationMode::SharedGlobal,
            ObfuscationMode::SharedClustered(ClusteringConfig::default()),
        ] {
            let mut ob = obfuscator(FakeSelection::default_ring());
            let units = ob.obfuscate_batch(&reqs, mode).unwrap();
            let covered: usize = units.iter().map(|u| u.requests.len()).sum();
            assert_eq!(covered, reqs.len(), "{mode}");
            for u in &units {
                assert!(u.is_well_formed(), "{mode}");
            }
            match mode {
                ObfuscationMode::Independent => assert_eq!(units.len(), 8),
                ObfuscationMode::SharedGlobal => assert_eq!(units.len(), 1),
                ObfuscationMode::SharedClustered(_) => assert!(!units.is_empty()),
            }
        }
    }

    #[test]
    fn shared_reduces_total_pairs_versus_independent() {
        // The efficiency claim behind Figure 4: k requests sharing fakes
        // produce far fewer server-side pairs than k independent queries.
        let reqs: Vec<ClientRequest> =
            (0..6).map(|i| request(i, i * 2, 399 - i * 3, 4, 4)).collect();
        let mut ob1 = obfuscator(FakeSelection::default_ring());
        let indep = ob1.obfuscate_batch(&reqs, ObfuscationMode::Independent).unwrap();
        let mut ob2 = obfuscator(FakeSelection::default_ring());
        let shared = ob2.obfuscate_batch(&reqs, ObfuscationMode::SharedGlobal).unwrap();
        let indep_pairs: usize = indep.iter().map(|u| u.query.num_pairs()).sum();
        let shared_pairs: usize = shared.iter().map(|u| u.query.num_pairs()).sum();
        assert!(
            shared_pairs < indep_pairs,
            "shared {shared_pairs} pairs vs independent {indep_pairs}"
        );
    }

    #[test]
    fn errors_are_reported() {
        let mut ob = obfuscator(FakeSelection::Uniform);
        assert!(matches!(ob.obfuscate_shared(&[]), Err(OpaqueError::EmptyBatch)));
        let bad = request(0, 9999, 1, 2, 2);
        assert!(matches!(ob.obfuscate_independent(&bad), Err(OpaqueError::UnknownNode { .. })));
        // Map has 400 nodes; asking for 500 sources cannot be satisfied.
        let greedy = request(0, 0, 399, 500, 2);
        assert!(matches!(
            ob.obfuscate_independent(&greedy),
            Err(OpaqueError::NotEnoughFakes { .. })
        ));
    }

    #[test]
    fn same_seed_reproduces_obfuscation() {
        let r = request(0, 5, 390, 3, 3);
        let a = obfuscator(FakeSelection::default_ring());
        let b = obfuscator(FakeSelection::default_ring());
        assert_eq!(
            a.obfuscate_independent(&r).unwrap().query,
            b.obfuscate_independent(&r).unwrap().query
        );
    }

    #[test]
    fn independent_fakes_are_keyed_by_seed_query_and_protection() {
        let r = request(0, 5, 390, 3, 4);
        let weights: Vec<f64> = (0..400).map(|i| 1.0 + f64::from(i % 7)).collect();
        for strategy in
            [FakeSelection::default_ring(), FakeSelection::Uniform, FakeSelection::Weighted]
        {
            let mut ob = obfuscator(strategy).with_weights(weights.clone());
            let first = ob.obfuscate_independent(&r).unwrap().query;
            let again = |ob: &Obfuscator, case: &str| {
                assert_eq!(ob.obfuscate_independent(&r).unwrap().query, first, "{case}");
            };
            for i in 0..5 {
                ob.obfuscate_independent(&request(i, i * 31, 399 - i * 17, 4, 2)).unwrap();
            }
            again(&ob, "after interleaved requests");
            let others: Vec<_> = (0..4).map(|i| request(i, i * 13, 399 - i * 29, 3, 3)).collect();
            ob.obfuscate_batch(&others, ObfuscationMode::SharedGlobal).unwrap();
            again(&ob, "after a shared batch");
            ob.update_weights(&[(roadnet::EdgeId(0), 9.0), (roadnet::EdgeId(7), 0.5)]).unwrap();
            again(&ob, "after a weight update");
            again(&obfuscator(strategy).with_weights(weights.clone()), "from a second obfuscator");

            // The key is the whole of (seed, s, t, f_S, f_T): changing any
            // part redraws the fakes, not just the set sizes.
            let fakes = |ob: &Obfuscator, r: &ClientRequest| {
                let q = ob.obfuscate_independent(r).unwrap().query;
                let fake = |set: &[NodeId]| -> Vec<NodeId> {
                    set.iter()
                        .copied()
                        .filter(|n| ![r.query.source, r.query.destination].contains(n))
                        .collect()
                };
                (fake(q.sources()), fake(q.targets()))
            };
            let (sources, targets) = fakes(&ob, &r);
            let mut reseeded = obfuscator(strategy).with_weights(weights.clone());
            reseeded.seed ^= 1;
            assert_ne!(fakes(&reseeded, &r).0, sources, "seed");
            assert_ne!(fakes(&ob, &request(0, 5, 391, 3, 4)).0, sources, "destination");
            assert_ne!(fakes(&ob, &request(0, 6, 390, 3, 4)).1, targets, "source");
            assert_ne!(fakes(&ob, &request(0, 5, 390, 3, 5)).0, sources, "f_T");
            assert_ne!(fakes(&ob, &request(0, 5, 390, 4, 4)).1, targets, "f_S");
        }
    }

    #[test]
    fn mode_display_names() {
        assert_eq!(ObfuscationMode::Independent.to_string(), "independent");
        assert_eq!(ObfuscationMode::SharedGlobal.to_string(), "shared-global");
        assert_eq!(
            ObfuscationMode::SharedClustered(ClusteringConfig::default()).to_string(),
            "shared-clustered"
        );
    }

    #[test]
    fn mode_serde_round_trips_with_parameters() {
        for mode in [
            ObfuscationMode::Independent,
            ObfuscationMode::SharedGlobal,
            ObfuscationMode::SharedClustered(ClusteringConfig {
                radius_scale: 0.75,
                max_cluster_size: 9,
            }),
        ] {
            let json = serde_json::to_string(&mode).unwrap();
            let back: ObfuscationMode = serde_json::from_str(&json).unwrap();
            assert_eq!(back, mode, "{json}");
        }
        // Externally tagged: the clustered mode keeps its parameters.
        let json =
            serde_json::to_string(&ObfuscationMode::SharedClustered(ClusteringConfig::default()))
                .unwrap();
        assert!(json.contains("SharedClustered") && json.contains("radius_scale"), "{json}");
        assert_eq!(
            serde_json::to_string(&ObfuscationMode::Independent).unwrap(),
            "\"Independent\""
        );
    }
}
