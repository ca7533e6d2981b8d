//! E18 — region-owned spatial sharding: routed placement vs round-robin
//! on the hotspot workload (extends §V / Lemma 1).
//!
//! PR 4's shard-local tree cache (e15) made spanning-tree reuse the
//! payoff; this experiment measures what *placement* does to that payoff.
//! Identical hotspot batch streams drive two sharded `OpaqueService`s
//! that differ only in [`PartitionPolicy`]: round-robin scatters each
//! hotspot root across every shard (every shard pays its own cold
//! misses), while `RegionOwned` routes each obfuscated query to the
//! shard owning its tree-root region, so the fleet grows each popular
//! tree once.
//!
//! Three claims, checked on every run:
//!
//! * **determinism** — every batch's `BatchReport` is byte-identical
//!   across placements and the delivered paths are identical (the
//!   partition-equivalence harness's guarantee, re-proven at bench
//!   scale);
//! * **locality pays** — the region-owned fleet ends the run with a
//!   strictly higher aggregate tree-cache hit rate than round-robin;
//! * **searches stay home** — replaying the routed sweeps with
//!   `SweepTrace` shows a larger fraction of settled nodes inside the
//!   serving shard's owned+halo coverage under region routing than under
//!   round-robin (asserted at bench scale, reported always).

use crate::setup::{Measured, Scale, drive, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{
    CachePolicy, FakeSelection, ObfuscationMode, Obfuscator, Partition, PartitionPolicy, RouteKind,
    ServiceBuilder,
};
use pathsearch::{Goal, SearchArena, SharingPolicy, run_in_traced};
use roadnet::generators::NetworkClass;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

const SHARDS: usize = 4;
const HALO: u32 = 2;
/// Cap on the units replayed for the settled-node locality probe.
const LOCALITY_SAMPLE: usize = 64;

/// The cached four-shard fleet under one placement policy.
fn fleet(g: &roadnet::RoadNetwork, partition: PartitionPolicy) -> ServiceBuilder {
    ServiceBuilder::new()
        .map(g.clone())
        .seed(0xE18)
        .shards(SHARDS)
        .partition_policy(partition)
        // Auto transposition roots one tree at the (hotspot) destination
        // of each unit — the root whose owner the router targets.
        .sharing_policy(SharingPolicy::Auto)
        .fake_selection(FakeSelection::Uniform)
        .obfuscation_mode(ObfuscationMode::Independent)
        .cache_policy(CachePolicy::Lru { trees: 64 })
}

/// Replay a sample of obfuscated units as traced sweeps and report, per
/// placement, the mean fraction of settled nodes lying inside the serving
/// shard's owned+halo coverage — plus the region router's route-kind mix.
fn settled_locality(
    g: &roadnet::RoadNetwork,
    partition: &Partition,
    requests: &[opaque::ClientRequest],
) -> (f64, f64, [usize; 3]) {
    let obfuscator = Obfuscator::new(g.clone(), FakeSelection::Uniform, 0xE18);
    let mut arena = SearchArena::new();
    let (mut region_sum, mut rr_sum, mut kinds) = (0.0, 0.0, [0usize; 3]);
    let sample = requests.len().min(LOCALITY_SAMPLE);
    for (i, request) in requests.iter().take(sample).enumerate() {
        let unit = obfuscator.obfuscate_independent(request).expect("unit obfuscates");
        let (region_shard, kind) = partition.route_explain(&unit.query);
        kinds[match kind {
            RouteKind::Owner => 0,
            RouteKind::Halo => 1,
            RouteKind::Fallback => 2,
        }] += 1;
        let rr_shard = i % partition.shards();
        // `f_t = 1` keeps one tree per unit, rooted (under Auto
        // transposition) at the single hotspot destination and grown
        // until every source is settled — the sweep the server runs.
        let root = unit.query.targets()[0];
        let goal = Goal::Set(unit.query.sources().to_vec());
        let (_, trace) = run_in_traced(&mut arena, g, root, &goal);
        let settled = trace.len().max(1) as f64;
        let in_shard = |shard: usize| {
            trace.settled().filter(|&n| partition.covers(shard, n)).count() as f64 / settled
        };
        region_sum += in_shard(region_shard);
        rr_sum += in_shard(rr_shard);
    }
    let denom = sample.max(1) as f64;
    (region_sum / denom, rr_sum / denom, kinds)
}

/// Run E18.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E18",
        "region-owned spatial sharding vs round-robin placement",
        "routed queries keep hotspot trees on their owner shard (extends §V)",
        &["placement", "batches", "pairs", "ms/batch", "hit rate", "settled in shard"],
    );
    let (g, idx) = network_with_index(NetworkClass::Geometric, scale);
    let bench_scale = scale.network_nodes >= 2_000;
    let reps = if bench_scale { 6 } else { 4 };
    t.note(format!(
        "geometric map, {} nodes, {SHARDS} shards (halo {HALO}), {reps} hotspot batches",
        g.num_nodes()
    ));

    // The same regime as e15 — everyone drives to a few malls — but now
    // the question is *which shard* answers. Fresh source seeds per
    // batch; destinations keep revisiting the same few hotspot nodes, so
    // each root has exactly one owner for the router to find.
    let batches: Vec<Vec<opaque::ClientRequest>> = (0..reps)
        .map(|rep| {
            generate_requests(
                &g,
                &idx,
                &WorkloadConfig {
                    num_requests: scale.queries.max(8),
                    queries: QueryDistribution::Hotspot {
                        hotspots: 4,
                        exponent: 1.0,
                        spread: 0.005,
                    },
                    protection: ProtectionDistribution::Fixed { f_s: 4, f_t: 1 },
                    seed: 0xE180 + rep as u64,
                },
            )
        })
        .collect();

    let rr = drive(fleet(&g, PartitionPolicy::RoundRobin), &batches, |_, _| {});
    let region = drive(fleet(&g, PartitionPolicy::RegionOwned { halo: HALO }), &batches, |_, _| {});

    // Determinism, re-proven at this scale: placement never changes a
    // report byte or a delivered path.
    assert_eq!(
        region.report_json, rr.report_json,
        "placement must not change a single report byte"
    );
    assert_eq!(region.delivered, rr.delivered, "placement must not change a delivered path");

    // The payoff: same stream, same per-shard caches, strictly better
    // hit rate when each hotspot root has one owner instead of SHARDS
    // cold copies.
    assert!(
        region.hit_rate > rr.hit_rate,
        "region-owned hit rate {:.4} must strictly beat round-robin {:.4}",
        region.hit_rate,
        rr.hit_rate
    );

    // The settled-node locality probe over the first batch's units.
    let partition = Partition::build(&g, SHARDS, HALO).expect("partition builds");
    let (local_region, local_rr, kinds) = settled_locality(&g, &partition, &batches[0]);
    t.note(format!(
        "route mix over {} sampled units: {} owner / {} halo / {} fallback",
        kinds.iter().sum::<usize>(),
        kinds[0],
        kinds[1],
        kinds[2]
    ));
    if bench_scale {
        assert!(
            local_region > local_rr,
            "settled-node locality must favour region routing at bench scale \
             (region {local_region:.3} vs round-robin {local_rr:.3})"
        );
    }

    let row = |t: &mut ExperimentTable, name: &str, m: &Measured, locality: f64| {
        t.row(vec![
            name.to_string(),
            m.report_json.len().to_string(),
            m.total_pairs.to_string(),
            f3(m.elapsed_secs * 1e3 / m.report_json.len() as f64),
            f3(m.hit_rate),
            f3(locality),
        ]);
    };
    row(&mut t, "round-robin", &rr, local_rr);
    row(&mut t, &format!("region-owned(halo={HALO})"), &region, local_region);
    t.note(format!(
        "hit rate {:.0}% -> {:.0}%; settled-in-shard {:.0}% -> {:.0}%",
        rr.hit_rate * 100.0,
        region.hit_rate * 100.0,
        local_rr * 100.0,
        local_region * 100.0
    ));

    t.metric("cache_hit_rate_region", region.hit_rate);
    t.metric("cache_hit_rate_rr", rr.hit_rate);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_quick_scale_with_identical_reports_and_a_locality_win() {
        // run() itself asserts byte-identical reports, identical
        // deliveries, and the strict hit-rate win; the settled-node
        // locality assertion is scale-gated inside.
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 2, "round-robin + region-owned");
        assert_eq!(t.rows[0][2], t.rows[1][2], "identical pair workload");
        let region = t.metric_value("cache_hit_rate_region").unwrap();
        let rr = t.metric_value("cache_hit_rate_rr").unwrap();
        assert!(region > rr, "metrics carry the win: {region} vs {rr}");
    }

    #[test]
    fn e18_quick_table_is_pinned() {
        // Every column but ms/batch is deterministic (the fleet runs
        // sequentially), so hit rates and settled-in-shard locality are
        // pinned.
        let t = run(&Scale::quick());
        let rows: Vec<String> =
            t.rows.iter().map(|r| [0, 1, 2, 4, 5].map(|i| r[i].as_str()).join(" ")).collect();
        assert_eq!(
            rows,
            ["round-robin 4 128 0.1250 0.2482", "region-owned(halo=2) 4 128 0.4688 0.4823"]
        );
    }
}
