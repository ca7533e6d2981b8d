//! Property-based invariants of the obfuscation layer: Definition 1
//! (embedding), the protection contract, Definition 2 (breach formula),
//! and the filter's exactness — across random workloads, strategies, and
//! modes.

use opaque::{
    ClientId, ClientRequest, ClusteringConfig, DirectionsBackend, DirectionsServer, FakeSelection,
    ObfuscatedPathQuery, ObfuscationMode, Obfuscator, PathQuery, ProtectionSettings, ServerStats,
    ServiceBuilder,
};
use pathsearch::{MsmdResult, SharingPolicy};
use proptest::prelude::*;
use roadnet::NodeId;
use roadnet::generators::{GridConfig, grid_network};

fn map() -> roadnet::RoadNetwork {
    grid_network(&GridConfig { width: 15, height: 15, seed: 77, ..Default::default() })
        .expect("valid network")
}

/// An honest server that remembers every obfuscated query it was sent.
struct Recording {
    server: DirectionsServer<roadnet::RoadNetwork>,
    seen: Vec<ObfuscatedPathQuery>,
}

impl DirectionsBackend for Recording {
    fn process(&mut self, query: &ObfuscatedPathQuery) -> MsmdResult {
        self.seen.push(query.clone());
        self.server.process(query)
    }

    fn stats(&self) -> ServerStats {
        self.server.stats()
    }
}

fn arb_requests(max: usize) -> impl Strategy<Value = Vec<ClientRequest>> {
    proptest::collection::vec((0u32..225, 0u32..225, 1u32..6, 1u32..6), 1..max).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .filter(|(_, (s, t, _, _))| s != t)
            .map(|(i, (s, t, f_s, f_t))| {
                ClientRequest::new(
                    ClientId(i as u32),
                    PathQuery::new(NodeId(s), NodeId(t)),
                    ProtectionSettings::new(f_s, f_t).expect("generated >= 1"),
                )
            })
            .collect()
    })
}

fn arb_strategy() -> impl Strategy<Value = FakeSelection> {
    prop_oneof![
        Just(FakeSelection::Uniform),
        Just(FakeSelection::default_ring()),
        Just(FakeSelection::default_network_ring()),
        Just(FakeSelection::Weighted), // no weights attached → documented uniform fallback
        (0.1f64..0.9, 1.0f64..3.0).prop_map(|(lo, span)| FakeSelection::Ring { lo, hi: lo + span }),
        (0.1f64..0.9, 1.0f64..2.0)
            .prop_map(|(lo, span)| FakeSelection::NetworkRing { lo, hi: lo + span }),
    ]
}

fn arb_mode() -> impl Strategy<Value = ObfuscationMode> {
    prop_oneof![
        Just(ObfuscationMode::Independent),
        Just(ObfuscationMode::SharedGlobal),
        (0.1f64..2.0, 2usize..10).prop_map(|(radius_scale, max_cluster_size)| {
            ObfuscationMode::SharedClustered(ClusteringConfig { radius_scale, max_cluster_size })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn obfuscation_units_always_well_formed(
        requests in arb_requests(8),
        strategy in arb_strategy(),
        mode in arb_mode(),
        seed in proptest::num::u64::ANY,
    ) {
        prop_assume!(!requests.is_empty());
        let mut ob = Obfuscator::new(map(), strategy, seed);
        let units = ob.obfuscate_batch(&requests, mode).expect("batch fits the map");

        // Every request is carried by exactly one unit.
        let carried: usize = units.iter().map(|u| u.requests.len()).sum();
        prop_assert_eq!(carried, requests.len());

        for unit in &units {
            // Definition 1: true endpoints embedded; protection satisfied.
            prop_assert!(unit.is_well_formed());
            // Definition 2: breach probability equals 1/(|S|·|T|).
            let expected = 1.0
                / (unit.query.sources().len() as f64 * unit.query.targets().len() as f64);
            prop_assert!((unit.query.breach_probability() - expected).abs() < 1e-12);
            // Sets are strictly sorted (deduplicated).
            for w in unit.query.sources().windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for w in unit.query.targets().windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }

        // The service runs this very pipeline: built from the same map,
        // strategy and seed, it sends its backend exactly these units.
        let server = DirectionsServer::new(map(), SharingPolicy::PerSource);
        let mut svc = ServiceBuilder::new()
            .map(map())
            .fake_selection(strategy)
            .seed(seed)
            .obfuscation_mode(mode)
            .build_with_backend(Recording { server, seen: Vec::new() })
            .expect("valid configuration");
        let response = svc.process_batch(&requests).expect("pipeline ok");
        prop_assert_eq!(response.results.len(), requests.len());
        let sent: Vec<ObfuscatedPathQuery> = units.into_iter().map(|u| u.query).collect();
        prop_assert_eq!(&svc.backend().seen, &sent);
    }

    #[test]
    fn independent_obfuscation_meets_exact_sizes(
        s in 0u32..225, t in 0u32..225, f_s in 1u32..8, f_t in 1u32..8,
        strategy in arb_strategy(),
        seed in proptest::num::u64::ANY,
    ) {
        prop_assume!(s != t);
        let ob = Obfuscator::new(map(), strategy, seed);
        let req = ClientRequest::new(
            ClientId(0),
            PathQuery::new(NodeId(s), NodeId(t)),
            ProtectionSettings::new(f_s, f_t).expect(">= 1"),
        );
        let unit = ob.obfuscate_independent(&req).expect("map large enough");
        prop_assert_eq!(unit.query.sources().len(), f_s as usize);
        prop_assert_eq!(unit.query.targets().len(), f_t as usize);
    }

    #[test]
    fn end_to_end_always_returns_true_shortest_paths(
        requests in arb_requests(6),
        mode in arb_mode(),
        seed in proptest::num::u64::ANY,
    ) {
        prop_assume!(!requests.is_empty());
        let g = map();
        let mut svc = ServiceBuilder::new()
            .map(g.clone())
            .fake_selection(FakeSelection::default_ring())
            .seed(seed)
            .sharing_policy(SharingPolicy::PerSource)
            .verify_results(true)
            .obfuscation_mode(mode)
            .build()
            .expect("valid configuration");
        let results = svc.process_batch(&requests).expect("pipeline ok").results;
        prop_assert_eq!(results.len(), requests.len());
        for (res, req) in results.iter().zip(&requests) {
            prop_assert_eq!(res.client, req.client);
            let truth = pathsearch::shortest_distance(&g, req.query.source, req.query.destination)
                .expect("grid is connected");
            prop_assert!((res.path.distance() - truth).abs() < 1e-9);
        }
    }

    #[test]
    fn breach_never_exceeds_the_requested_protection(
        requests in arb_requests(6),
        mode in arb_mode(),
        seed in proptest::num::u64::ANY,
    ) {
        prop_assume!(!requests.is_empty());
        let g = map();
        let mut ob = Obfuscator::new(g, FakeSelection::Uniform, seed);
        let units = ob.obfuscate_batch(&requests, mode).expect("ok");
        for unit in &units {
            for r in &unit.requests {
                prop_assert!(
                    unit.query.breach_probability() <= r.protection.breach_probability() + 1e-12,
                    "client {:?}: {} > {}",
                    r.client,
                    unit.query.breach_probability(),
                    r.protection.breach_probability()
                );
            }
        }
    }
}
