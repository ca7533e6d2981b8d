//! The goal-directed search guarantee, as a property: for random maps,
//! batches, seeds, every sharing policy and every composition
//! (Sequential/WorkerPool × RoundRobin/RegionOwned × Lru/Off),
//! `SearchHeuristic::Alt` produces the **same answers** as
//! `SearchHeuristic::None` — paths, cost bits, outcomes, hop payload bytes
//! and every report byte but `server_settled`/`server_relaxed` — while the
//! fleet settles **no more** nodes, case by case. A divergence is an
//! admissibility bug: a landmark bound overestimating a true distance, a
//! guided trace adopted under the wrong potential, a transposed sweep
//! keyed by the wrong goal set. The lattice (`tests/lattice.rs`) holds
//! every guided composition to the plain one-shard reference as well.
//!
//! The regression below pins that the guidance is worth having on the
//! spread-out obfuscation sets ring fakes give.

mod common;

use common::{Mask, arb_batch, arb_map, assert_rounds_agree, requests_on};
use opaque::{
    CachePolicy, DirectionsBackend, ExecutionPolicy, ObfuscationMode, PartitionPolicy,
    SearchHeuristic, ServiceConfig,
};
use pathsearch::{AltPreprocessing, SearchArena, SharingPolicy, msmd_in, msmd_in_guided};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::NodeId;
use roadnet::generators::{ContinentConfig, continent_network};

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
        let plain = ServiceConfig {
            seed,
            mode,
            sharing,
            shards,
            execution,
            partition,
            cache,
            ..ServiceConfig::default()
        };
        let alt = ServiceConfig { heuristic: SearchHeuristic::Alt { landmarks }, ..plain };
        let ctx = format!("n={} {alt:?}", map.num_nodes());
        // Round 1 runs cold caches, later rounds adopt recorded traces.
        let requests = requests_on(&map, &raw_batch);
        let (plain, alt) = assert_rounds_agree(&map, &requests, (plain, alt), 3, Mask::Work, &ctx);
        // Per tree `settled(Alt) ⊆ settled(None)`: the potential is the
        // bound to the nearest goal the tree has not settled yet, so every
        // guided settle key is at most the plain distance of the tree's
        // farthest goal. The fleet total sums the same trees.
        let (p, a) = (plain.backend().stats(), alt.backend().stats());
        prop_assert!(
            a.search.settled <= p.search.settled,
            "{}: guided fleet settled more than unguided: {} vs {}",
            ctx,
            a.search.settled,
            p.search.settled
        );
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
