//! E19 — live-traffic maps: repair vs drop-all refresh under rush-hour
//! churn (extends the §IV server cost model to maps whose weights move
//! while the fleet is serving).
//!
//! The blunt refresh tool is `swap_map`, which bumps every shard's map
//! epoch and empties every tree cache even when a traffic tick touched a
//! handful of streets. This experiment measures what the repairing path
//! (`OpaqueService::update_weights`) buys over that drop-all baseline on
//! an identical stream. It keeps every trace whose recorded sweep settled
//! no endpoint of an updated edge as it is, rewrites each touched complete
//! trace into the sweep the new map records, and evicts only the touched
//! early-stopped ones.
//!
//! The workload is "district errands": each trip starts near one of a few
//! district centres and ends at the district's mall node, so the fleet
//! grows one small, spatially confined tree per mall and re-adopts it
//! batch after batch. Between batches a [`workload::rush_hour_schedule`]
//! round reweights a congestion zone around one epicenter. Districts away
//! from the epicenter never cross the zone, so their trees stay valid —
//! value only the repairing path can keep; the trees that do cross it are
//! repaired when their sweeps were complete.
//!
//! Two claims, checked on every run:
//!
//! * **correctness under churn** — both cached services produce
//!   byte-identical serialized `BatchReport`s and identical delivered
//!   paths to an uncached reference driven through the same interleaved
//!   updates (a cache may only skip work, never serve a stale tree);
//! * **repair pays** — the repairing fleet ends the run with a strictly
//!   higher tree-cache hit rate than the drop-all fleet.
//!
//! No second copy of the map can drift: the obfuscator adopts the snapshot
//! `update_weights` builds for the fleet, so verification on the default
//! fleet checks answers against the one immutable snapshot the fleet
//! searched.

use crate::setup::{Measured, Scale, drive, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{
    CachePolicy, ClientId, ClientRequest, FakeSelection, ObfuscationMode, PartitionPolicy,
    PathQuery, ProtectionSettings, ServiceBuilder,
};
use pathsearch::SharingPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::generators::NetworkClass;
use roadnet::{NodeId, RoadNetwork, SpatialIndex};
use workload::{ChurnConfig, rush_hour_schedule};

const SHARDS: usize = 4;
const HALO: u32 = 2;
/// District errand pools: each district is the `DISTRICT_SIZE` nodes
/// nearest a random centre; trips run from a district node to its mall.
const DISTRICTS: usize = 6;
const DISTRICT_SIZE: usize = 12;

/// How the service learns about a churn round.
#[derive(Clone, Copy, PartialEq)]
enum Refresh {
    /// `update_weights`: reweight in place, repair touched complete
    /// traces, evict the other touched ones.
    Repair,
    /// `swap_map` with the reweighted map: epoch bump, every cache emptied.
    DropAll,
}

/// Replay `batches` through the region-owned fleet, applying one churn
/// round of `schedule` after each batch the way `refresh` says.
fn replay(
    g: &RoadNetwork,
    batches: &[Vec<ClientRequest>],
    schedule: &[Vec<(roadnet::EdgeId, f64)>],
    cache: CachePolicy,
    refresh: Refresh,
) -> Measured {
    let fleet = ServiceBuilder::new()
        .map(g.clone())
        .seed(0xE19)
        .shards(SHARDS)
        .partition_policy(PartitionPolicy::RegionOwned { halo: HALO })
        // Auto transposition roots one tree at each errand's single mall
        // destination — the root every batch revisits.
        .sharing_policy(SharingPolicy::Auto)
        // Ring fakes stay within a factor of the (short) true trip, so
        // obfuscation never forces a district tree to span the map.
        .fake_selection(FakeSelection::default_ring())
        .obfuscation_mode(ObfuscationMode::Independent)
        .cache_policy(cache);

    // The drop-all baseline rebuilds the reweighted map on the side, as a
    // pre-`update_weights` operator would have had to.
    let mut live = g.clone();
    drive(fleet, batches, |svc, b| {
        let Some(round) = schedule.get(b) else { return };
        match refresh {
            Refresh::Repair => {
                svc.update_weights(round).expect("schedule updates are valid");
            }
            Refresh::DropAll => {
                live.update_weights(round).expect("schedule updates are valid");
                svc.swap_map(live.clone());
            }
        }
    })
}

/// District errand batches: every trip ends at its district's mall, so
/// roots repeat across batches while sources vary inside the district.
fn errand_batches(
    g: &RoadNetwork,
    idx: &SpatialIndex,
    batches: usize,
    per_batch: usize,
) -> Vec<Vec<ClientRequest>> {
    let mut rng = StdRng::seed_from_u64(0xE19);
    let districts: Vec<Vec<NodeId>> = (0..DISTRICTS)
        .map(|_| {
            let centre = NodeId(rng.gen_range(0..g.num_nodes() as u32));
            idx.k_nearest(g.point(centre), DISTRICT_SIZE)
        })
        .collect();
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|i| {
                    let pool = &districts[rng.gen_range(0..DISTRICTS)];
                    let mall = pool[0];
                    let home = pool[1 + rng.gen_range(0..pool.len() - 1)];
                    ClientRequest::new(
                        ClientId(i as u32),
                        PathQuery::new(home, mall),
                        // One fake source, one true target: the smallest
                        // protected unit that still exercises obfuscation.
                        ProtectionSettings::new(2, 1).expect("nonzero protection"),
                    )
                })
                .collect()
        })
        .collect()
}

/// Run E19.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E19",
        "repair vs drop-all refresh under rush-hour churn",
        "weight updates repair the traces that crossed an updated edge (extends §IV)",
        &["refresh", "batches", "pairs", "ms/batch", "hit rate"],
    );
    let (g, idx) = network_with_index(NetworkClass::Geometric, scale);
    let bench_scale = scale.network_nodes >= 2_000;
    let reps = if bench_scale { 8 } else { 5 };
    let batches = errand_batches(&g, &idx, reps, scale.queries.max(8));
    let churn = ChurnConfig {
        rounds: reps - 1,
        updates_per_round: (g.edges().len() / 50).max(4),
        zone_fraction: 0.10,
        surge: 3.0,
        seed: 0xE19,
    };
    let schedule = rush_hour_schedule(&g, &churn);
    t.note(format!(
        "geometric map, {} nodes, {SHARDS} shards (halo {HALO}), {reps} errand batches, \
         {} churn rounds x {} updates in a {:.0}% congestion zone",
        g.num_nodes(),
        churn.rounds,
        churn.updates_per_round,
        churn.zone_fraction * 100.0
    ));

    let reference = replay(&g, &batches, &schedule, CachePolicy::Off, Refresh::Repair);
    let repair = replay(&g, &batches, &schedule, CachePolicy::Lru { trees: 64 }, Refresh::Repair);
    let dropall = replay(&g, &batches, &schedule, CachePolicy::Lru { trees: 64 }, Refresh::DropAll);

    // Correctness under churn: neither refresh strategy may change a
    // report byte or a delivered path relative to the uncached reference.
    for (name, m) in [("repair", &repair), ("drop-all", &dropall)] {
        assert_eq!(
            m.report_json, reference.report_json,
            "{name} refresh must not change a single report byte under churn"
        );
        assert_eq!(
            m.delivered, reference.delivered,
            "{name} refresh must not change a delivered path under churn"
        );
    }

    // The payoff: identical stream, identical caches, strictly more
    // retained value when touched traces are repaired.
    assert!(
        repair.hit_rate > dropall.hit_rate,
        "repair hit rate {:.4} must strictly beat drop-all {:.4}",
        repair.hit_rate,
        dropall.hit_rate
    );

    let row = |t: &mut ExperimentTable, name: &str, m: &Measured| {
        t.row(vec![
            name.to_string(),
            m.report_json.len().to_string(),
            m.total_pairs.to_string(),
            f3(m.elapsed_secs * 1e3 / m.report_json.len() as f64),
            f3(m.hit_rate),
        ]);
    };
    row(&mut t, "uncached reference", &reference);
    row(&mut t, "drop-all (swap_map)", &dropall);
    row(&mut t, "repair (update_weights)", &repair);
    t.note(format!(
        "hit rate under churn: drop-all {:.0}% -> repair {:.0}%",
        dropall.hit_rate * 100.0,
        repair.hit_rate * 100.0
    ));

    t.metric("churn_hit_rate_repair", repair.hit_rate);
    t.metric("churn_hit_rate_dropall", dropall.hit_rate);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_quick_scale_with_identical_reports_and_a_retention_win() {
        // run() itself asserts byte-identical reports and delivered paths
        // across refresh strategies, and the strict hit-rate win.
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 3, "reference + drop-all + repair");
        assert_eq!(t.rows[0][2], t.rows[1][2], "identical pair workload");
        let repair = t.metric_value("churn_hit_rate_repair").unwrap();
        let dropall = t.metric_value("churn_hit_rate_dropall").unwrap();
        assert!(repair > dropall, "metrics carry the win: {repair} vs {dropall}");
    }

    #[test]
    fn e19_quick_table_is_pinned() {
        // Every column but ms/batch is deterministic, so each refresh's
        // hit rate under churn is pinned.
        let t = run(&Scale::quick());
        let rows: Vec<String> =
            t.rows.iter().map(|r| [0, 1, 2, 4].map(|i| r[i].as_str()).join(" ")).collect();
        assert_eq!(
            rows,
            [
                "uncached reference 5 80 0",
                "drop-all (swap_map) 5 80 0.3250",
                "repair (update_weights) 5 80 0.5750",
            ]
        );
    }
}
