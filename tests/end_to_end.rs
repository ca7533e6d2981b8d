//! End-to-end integration: the full client → obfuscator → server → filter
//! pipeline on every network class and obfuscation mode, checked against
//! ground-truth shortest paths computed directly on the map.

use opaque::{ClusteringConfig, DirectionsServer, FakeSelection, ObfuscationMode, ServiceBuilder};
use pathsearch::SharingPolicy;
use roadnet::SpatialIndex;
use roadnet::generators::NetworkClass;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

fn modes() -> [ObfuscationMode; 3] {
    [
        ObfuscationMode::Independent,
        ObfuscationMode::SharedGlobal,
        ObfuscationMode::SharedClustered(ClusteringConfig::default()),
    ]
}

#[test]
fn every_class_and_mode_delivers_exact_shortest_paths() {
    for class in NetworkClass::ALL {
        let map = class.generate(600, 7).expect("valid network");
        let index = SpatialIndex::build(&map);
        let requests = generate_requests(
            &map,
            &index,
            &WorkloadConfig {
                num_requests: 8,
                queries: QueryDistribution::Uniform,
                protection: ProtectionDistribution::UniformRange { lo: 2, hi: 5 },
                seed: 7,
            },
        );
        for mode in modes() {
            let mut svc = ServiceBuilder::new()
                .map(map.clone())
                .fake_selection(FakeSelection::default_ring())
                .seed(7)
                .sharing_policy(SharingPolicy::Auto)
                .verify_results(true)
                .obfuscation_mode(mode)
                .build()
                .expect("valid configuration");
            let response = svc
                .process_batch(&requests)
                .unwrap_or_else(|e| panic!("{} / {}: {e}", class.name(), mode));
            let (results, report) = (response.results, response.report);
            assert_eq!(results.len(), requests.len());
            for (res, req) in results.iter().zip(&requests) {
                assert_eq!(res.client, req.client);
                let truth =
                    pathsearch::shortest_path(&map, req.query.source, req.query.destination)
                        .expect("connected network");
                assert!(
                    (res.path.distance() - truth.distance()).abs() < 1e-9,
                    "{} / {}: delivered {} vs truth {}",
                    class.name(),
                    mode,
                    res.path.distance(),
                    truth.distance()
                );
            }
            // Every client's protection must be honoured.
            for ((_, breach), req) in report.per_client_breach.iter().zip(&requests) {
                let max_allowed = req.protection.breach_probability();
                assert!(
                    *breach <= max_allowed + 1e-12,
                    "{} / {}: breach {} above requested {}",
                    class.name(),
                    mode,
                    breach,
                    max_allowed
                );
            }
        }
    }
}

#[test]
fn pipeline_works_over_paged_storage() {
    let map = NetworkClass::Grid.generate(400, 3).expect("valid network");
    let index = SpatialIndex::build(&map);
    let layout = roadnet::PageLayout::ccam(&map);
    let paged = roadnet::ChunkedCsr::spill_temp(&map, &layout, 8).expect("spill to temp");
    let requests = generate_requests(
        &map,
        &index,
        &WorkloadConfig { num_requests: 4, seed: 3, ..Default::default() },
    );
    let mut svc = ServiceBuilder::new()
        .map(map.clone())
        .fake_selection(FakeSelection::default_ring())
        .seed(3)
        .obfuscation_mode(ObfuscationMode::SharedGlobal)
        .build_with_backend(DirectionsServer::new(&paged, SharingPolicy::PerSource))
        .expect("valid configuration");
    let results =
        svc.process_batch(&requests).expect("pipeline succeeds over paged storage").results;
    assert_eq!(results.len(), 4);
    assert!(paged.io_stats().faults > 0, "storage layer must have been exercised");
    for (res, req) in results.iter().zip(&requests) {
        let truth = pathsearch::shortest_path(&map, req.query.source, req.query.destination)
            .expect("connected");
        assert!((res.path.distance() - truth.distance()).abs() < 1e-9);
    }
}

#[test]
fn repeated_batches_are_deterministic_per_seed() {
    let map = NetworkClass::Geometric.generate(500, 11).expect("valid network");
    let index = SpatialIndex::build(&map);
    let requests = generate_requests(
        &map,
        &index,
        &WorkloadConfig { num_requests: 6, seed: 11, ..Default::default() },
    );
    let run = || {
        let mut svc = ServiceBuilder::new()
            .map(map.clone())
            .fake_selection(FakeSelection::default_ring())
            .seed(11)
            .sharing_policy(SharingPolicy::PerSource)
            .obfuscation_mode(ObfuscationMode::SharedGlobal)
            .build()
            .expect("valid configuration");
        let response = svc.process_batch(&requests).expect("ok");
        (
            response.results.iter().map(|r| (r.client, r.path.distance())).collect::<Vec<_>>(),
            response.report.total_pairs,
            response.report.server_settled,
        )
    };
    assert_eq!(run(), run(), "same seeds must reproduce the batch bit-for-bit");
}

#[test]
fn large_batch_stress() {
    let map = NetworkClass::Grid.generate(900, 5).expect("valid network");
    let index = SpatialIndex::build(&map);
    let requests = generate_requests(
        &map,
        &index,
        &WorkloadConfig {
            num_requests: 64,
            queries: QueryDistribution::Hotspot { hotspots: 4, exponent: 1.2, spread: 0.1 },
            protection: ProtectionDistribution::UniformRange { lo: 2, hi: 8 },
            seed: 5,
        },
    );
    let mut svc = ServiceBuilder::new()
        .map(map)
        .fake_selection(FakeSelection::Uniform)
        .seed(5)
        .sharing_policy(SharingPolicy::Auto)
        .obfuscation_mode(ObfuscationMode::SharedClustered(ClusteringConfig::default()))
        .build()
        .expect("valid configuration");
    let response = svc.process_batch(&requests).expect("pipeline scales to 64 clients");
    let (results, report) = (response.results, response.report);
    assert_eq!(results.len(), 64);
    assert_eq!(report.per_client_breach.len(), 64);
    assert!(report.num_units <= 64);
}
