//! The goal-directed search guarantee, as a property: for random maps,
//! random batches, random obfuscator seeds, every sharing policy, and
//! every service composition (Sequential/WorkerPool × RoundRobin/
//! RegionOwned × Lru/Off), `SearchHeuristic::Alt` produces the **same
//! answers** as `SearchHeuristic::None` — the same delivered paths and
//! costs, the same per-client outcomes, the same hop-4 payload bytes —
//! while settling **no more** nodes, case by case.
//!
//! ALT pruning is allowed to change exactly one thing: the amount of
//! work. The serialized `BatchReport` carries that work in its
//! `server_settled` / `server_relaxed` fields, so the oracle here
//! compares reports with those two fields normalized to zero and asserts
//! every other byte identical; the fleet's raw counters are then checked
//! directly for `settled(Alt) <= settled(None)`. Any other divergence
//! this test could catch would be a real admissibility bug: a landmark
//! bound overestimating a true distance, a guided trace adopted under the
//! wrong potential, a transposed sweep keyed by the wrong goal set.

mod common;

use common::{arb_batch, arb_map, requests_on};
use opaque::{
    BatchReport, CachePolicy, ClientId, ClientRequest, DirectionsBackend, ExecutionPolicy,
    ObfuscationMode, PartitionPolicy, PathQuery, ProtectionSettings, SearchHeuristic,
    ServiceBuilder, ServiceResponse,
};
use pathsearch::{AltPreprocessing, SearchArena, SharingPolicy, msmd_in, msmd_in_guided};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::generators::{ContinentConfig, continent_network};
use roadnet::{NodeId, RoadNetwork};

struct Composition {
    sharing: SharingPolicy,
    shards: usize,
    execution: ExecutionPolicy,
    partition: PartitionPolicy,
    cache: CachePolicy,
}

fn build_service(
    map: RoadNetwork,
    seed: u64,
    mode: ObfuscationMode,
    comp: &Composition,
    heuristic: SearchHeuristic,
) -> opaque::OpaqueService<opaque::DefaultBackend> {
    ServiceBuilder::new()
        .map(map)
        .seed(seed)
        .shards(comp.shards)
        .obfuscation_mode(mode)
        .sharing_policy(comp.sharing)
        .execution_policy(comp.execution)
        .partition_policy(comp.partition)
        .cache_policy(comp.cache)
        .search_heuristic(heuristic)
        .verify_results(true)
        .build()
        .expect("valid configuration")
}

/// The report with its two work fields normalized away — everything else
/// (deliveries, fakes, traffic bytes per hop, trees grown) must be
/// byte-identical between the guided and unguided evaluation.
fn normalized_report_json(report: &BatchReport) -> String {
    let mut r = report.clone();
    r.server_settled = 0;
    r.server_relaxed = 0;
    serde_json::to_string(&r).expect("report serializes")
}

/// The equivalence oracle: every observable piece of a batch's output,
/// modulo the settled/relaxed work counters.
fn assert_answer_identical(plain: &ServiceResponse, alt: &ServiceResponse, ctx: &str) {
    assert_eq!(plain.outcomes, alt.outcomes, "{ctx}: per-client outcomes diverged");
    assert_eq!(plain.results.len(), alt.results.len(), "{ctx}: delivery count diverged");
    for (x, y) in plain.results.iter().zip(&alt.results) {
        assert_eq!(x.client, y.client, "{ctx}: delivery order diverged");
        assert_eq!(x.path, y.path, "{ctx}: delivered path diverged for {:?}", x.client);
        assert_eq!(
            x.path.distance().to_bits(),
            y.path.distance().to_bits(),
            "{ctx}: delivered cost diverged for {:?}",
            x.client
        );
    }
    assert_eq!(
        plain.report.traffic, alt.report.traffic,
        "{ctx}: hop payload bytes diverged (hop 4 included)"
    );
    assert_eq!(
        normalized_report_json(&plain.report),
        normalized_report_json(&alt.report),
        "{ctx}: BatchReport diverged beyond the settled/relaxed counters"
    );
}

/// Fleet counters with the work counters masked: all of these must match
/// between heuristics (pruning may only shrink work, never change what
/// was answered or how many trees grew). The physical cache hit/miss pair
/// is also masked — under `SharingPolicy::None` each (root, target) pair
/// carries its own potential params, so a single-root cache slot can
/// churn differently between the regimes.
fn masked_stats(svc: &opaque::OpaqueService<opaque::DefaultBackend>) -> opaque::ServerStats {
    let mut stats = svc.backend().stats();
    stats.tree_cache_hits = 0;
    stats.tree_cache_misses = 0;
    stats.search.settled = 0;
    stats.search.relaxed = 0;
    stats
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn alt_answers_are_identical_to_none_and_settle_no_more(
        map in arb_map(40),
        raw_batch in arb_batch(10),
        seed in proptest::num::u64::ANY,
        landmarks in 1usize..4,
        sharing_pick in 0u8..3,
        execution_pick in 0u8..2,
        partition_pick in 0u8..2,
        cache_pick in 0u8..2,
        mode_pick in 0u8..2,
    ) {
        let sharing = match sharing_pick {
            0 => SharingPolicy::None,
            1 => SharingPolicy::PerSource,
            _ => SharingPolicy::Auto,
        };
        let (shards, execution) = match execution_pick {
            0 => (1, ExecutionPolicy::Sequential),
            _ => (3, ExecutionPolicy::WorkerPool { threads: 3 }),
        };
        let partition = match partition_pick {
            0 => PartitionPolicy::RoundRobin,
            _ => PartitionPolicy::RegionOwned { halo: 1 },
        };
        let cache = match cache_pick {
            0 => CachePolicy::Off,
            _ => CachePolicy::Lru { trees: 4 },
        };
        let mode = match mode_pick {
            0 => ObfuscationMode::Independent,
            _ => ObfuscationMode::SharedGlobal,
        };
        let comp = Composition { sharing, shards, execution, partition, cache };
        let requests = requests_on(&map, &raw_batch);
        let mut plain = build_service(map.clone(), seed, mode, &comp, SearchHeuristic::None);
        let mut alt = build_service(
            map.clone(), seed, mode, &comp, SearchHeuristic::Alt { landmarks },
        );

        // Repeated rounds: round 1 runs cold caches, later rounds adopt
        // previously recorded (guided vs unguided) traces. The obfuscator
        // RNG advances identically, so both services see the same units.
        for round in 0..3 {
            let ctx = format!(
                "n={} requests={} seed={seed} landmarks={landmarks} sharing={sharing:?} \
                 execution={execution:?} partition={partition:?} cache={cache:?} \
                 mode={mode:?} round={round}",
                map.num_nodes(),
                requests.len()
            );
            match (plain.process_batch(&requests), alt.process_batch(&requests)) {
                (Ok(a), Ok(b)) => assert_answer_identical(&a, &b, &ctx),
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}: errors diverged", ctx),
                (a, b) => prop_assert!(
                    false,
                    "{}: one heuristic failed, the other did not: {:?} vs {:?}",
                    ctx,
                    a.map(|r| r.outcomes),
                    b.map(|r| r.outcomes)
                ),
            }
        }
        prop_assert_eq!(
            masked_stats(&plain),
            masked_stats(&alt),
            "non-work fleet counters diverged"
        );
        let (p, a) = (plain.backend().stats(), alt.backend().stats());
        // Settled-work dominance. Per tree `settled(Alt) ⊆ settled(None)`
        // is a theorem for every single-tree policy: the potential is the
        // bound to the nearest goal the tree has not settled yet, so it is
        // 0 at every such goal, every guided settle key is at most the
        // plain distance of the tree's farthest goal, and the plain sweep
        // settles everything within that distance before it stops. The
        // fleet total is a sum over the same trees, so it is held to the
        // strict inequality case by case.
        prop_assert!(
            a.search.settled <= p.search.settled,
            "guided fleet settled more than unguided: {} vs {} \
             (sharing={:?} execution={:?} partition={:?} cache={:?} mode={:?} n={})",
            a.search.settled,
            p.search.settled,
            sharing,
            execution,
            partition,
            cache,
            mode,
            map.num_nodes()
        );
    }
}

/// The full 2×2×2 composition grid, deterministically, on one fixed map
/// and batch — so every cell of the satellite's matrix is exercised on
/// every test run, not just the sampled ones.
#[test]
fn every_composition_cell_is_answer_identical() {
    use roadnet::generators::{GridConfig, grid_network};
    let map =
        grid_network(&GridConfig { width: 10, height: 10, seed: 4, ..Default::default() }).unwrap();
    let requests: Vec<ClientRequest> = (0..6)
        .map(|i| {
            ClientRequest::new(
                ClientId(i),
                PathQuery::new(NodeId(i * 9), NodeId(99 - i * 11)),
                ProtectionSettings::new(3, 3).unwrap(),
            )
        })
        .collect();
    for (shards, execution) in
        [(1, ExecutionPolicy::Sequential), (2, ExecutionPolicy::WorkerPool { threads: 2 })]
    {
        for partition in [PartitionPolicy::RoundRobin, PartitionPolicy::RegionOwned { halo: 1 }] {
            for cache in [CachePolicy::Off, CachePolicy::Lru { trees: 8 }] {
                let comp = Composition {
                    sharing: SharingPolicy::PerSource,
                    shards,
                    execution,
                    partition,
                    cache,
                };
                let mut plain = build_service(
                    map.clone(),
                    7,
                    ObfuscationMode::Independent,
                    &comp,
                    SearchHeuristic::None,
                );
                let mut alt = build_service(
                    map.clone(),
                    7,
                    ObfuscationMode::Independent,
                    &comp,
                    SearchHeuristic::Alt { landmarks: 8 },
                );
                for round in 0..2 {
                    let ctx = format!(
                        "execution={execution:?} partition={partition:?} cache={cache:?} \
                         round={round}"
                    );
                    let a = plain.process_batch(&requests).unwrap();
                    let b = alt.process_batch(&requests).unwrap();
                    assert_answer_identical(&a, &b, &ctx);
                }
                let (p, a) = (plain.backend().stats(), alt.backend().stats());
                assert!(a.search.settled <= p.search.settled);
                assert!(
                    a.search.settled < p.search.settled,
                    "on spread-out grid queries ALT should actually prune \
                     (settled {} vs {})",
                    a.search.settled,
                    p.search.settled
                );
            }
        }
    }
}

/// The pruning itself, as a host-independent count: on obfuscation sets
/// scattered uniformly over a continent — the shape ring fakes give `T` —
/// guided per-source sweeps settle at most a quarter of what unguided ones
/// do. A potential that is slack on spread targets (the whole spread of
/// `T` at every near target) reads ≈ 0.86 here.
#[test]
fn guided_sweeps_prune_spread_targets() {
    let cfg = ContinentConfig {
        provinces_x: 4,
        provinces_y: 4,
        province_width: 40,
        province_height: 40,
        weight_factor: (1.0, 3.0),
        sea_gap: 20.0,
        ..Default::default()
    };
    let g = continent_network(&cfg).unwrap();
    let n = g.num_nodes();
    assert_eq!(n, 25_600);
    let pre = AltPreprocessing::try_build(&g, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let mut arena = SearchArena::new();
    let (mut plain, mut guided) = (0u64, 0u64);
    for _ in 0..40 {
        let mut draw =
            || -> Vec<NodeId> { (0..3).map(|_| NodeId::from_index(rng.gen_range(0..n))).collect() };
        let (sources, targets) = (draw(), draw());
        let a = msmd_in(&mut arena, &g, &sources, &targets, SharingPolicy::PerSource);
        let b = msmd_in_guided(
            &mut arena,
            &g,
            &sources,
            &targets,
            SharingPolicy::PerSource,
            Some(&pre),
        );
        assert_eq!(a.paths, b.paths);
        plain += a.stats.settled;
        guided += b.stats.settled;
    }
    assert!(
        guided * 4 <= plain,
        "guided sweeps settled {guided} of the unguided {plain} ({:.3})",
        guided as f64 / plain as f64
    );
}
