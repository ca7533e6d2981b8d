//! E15 — shard-local tree cache: hit rate and throughput on the hotspot
//! workload (extends §V / Lemma 1).
//!
//! Lemma 1 makes spanning trees the unit of server work, and the hotspot
//! workload (`workload::QueryDistribution::Hotspot` — everyone drives to
//! a few malls) makes many obfuscated queries share tree roots: under
//! `SharingPolicy::Auto` with `|T| < |S|`, trees grow from the popular
//! *destinations*. This experiment drives identical batch streams through
//! two `OpaqueService`s differing only in
//! [`CachePolicy`] — `Off` vs `Lru` — and reports wall time, hit rate,
//! and speedup.
//!
//! Two claims, checked on every run:
//!
//! * **determinism** — every batch's `BatchReport` is byte-identical
//!   across cache policies, and the cached service delivers identical
//!   paths (the lattice oracle's guarantee, re-proven at bench
//!   scale); the warm cache must also actually *hit* (hit rate > 0 —
//!   otherwise the experiment is vacuous);
//! * **throughput** — at bench scale the cached service clears ≥ 1.3×
//!   the uncached pair throughput on this workload. The assertion is
//!   gated on bench-scale inputs (as in e14): at quick scale fixed
//!   per-batch overheads dwarf the microseconds of search the cache
//!   saves, and no assertion on timing noise is meaningful.

use crate::setup::{Measured, Scale, drive, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::{CachePolicy, FakeSelection, ObfuscationMode, ServiceBuilder};
use pathsearch::SharingPolicy;
use roadnet::generators::NetworkClass;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

/// One server under one cache policy.
fn server(g: &roadnet::RoadNetwork, cache: CachePolicy) -> ServiceBuilder {
    ServiceBuilder::new()
        .map(g.clone())
        .seed(0xE15)
        // Auto transposition roots one tree at the (hotspot) destination
        // of each unit — the sharing the cache exploits.
        .sharing_policy(SharingPolicy::Auto)
        // Uniform fakes keep obfuscation cost negligible, so the
        // measurement isolates the server's tree work.
        .fake_selection(FakeSelection::Uniform)
        .obfuscation_mode(ObfuscationMode::Independent)
        .cache_policy(cache)
}

/// Run E15.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E15",
        "shard-local tree cache on the hotspot workload",
        "reusable spanning trees under the Lemma 1 cost model (extends §V)",
        &[
            "cache",
            "batches",
            "pairs",
            "trees",
            "ms/batch",
            "pairs/s",
            "hit rate",
            "speedup",
            "shallow misses",
        ],
    );
    let (g, idx) = network_with_index(NetworkClass::Geometric, scale);
    let bench_scale = scale.network_nodes >= 2_000;
    let reps = if bench_scale { 6 } else { 4 };
    t.note(format!("geometric map, {} nodes, {reps} batches, hotspot destinations", g.num_nodes()));

    // A fixed stream of hotspot batches, replayed verbatim for both cache
    // policies. Sources vary per batch (fresh seeds); destinations keep
    // revisiting the same few hotspot nodes — the root sharing the cache
    // exists for. `f_t = 1` (destination unprotected) keeps one tree per
    // unit; `f_s = 4` gives each tree a map-wide goal set so an adopted
    // tree replaces a deep sweep.
    let batches: Vec<Vec<opaque::ClientRequest>> = (0..reps)
        .map(|rep| {
            generate_requests(
                &g,
                &idx,
                &WorkloadConfig {
                    num_requests: scale.queries.max(8),
                    queries: QueryDistribution::Hotspot {
                        hotspots: 2,
                        exponent: 1.0,
                        // A tight spread concentrates destinations onto a
                        // handful of nodes — everyone really is heading to
                        // one of two malls, the regime the cache targets.
                        spread: 0.005,
                    },
                    protection: ProtectionDistribution::Fixed { f_s: 4, f_t: 1 },
                    seed: 0xE150 + rep as u64,
                },
            )
        })
        .collect();

    let off = drive(server(&g, CachePolicy::Off), &batches, |_, _| {});
    let lru = drive(server(&g, CachePolicy::Lru { trees: 64 }), &batches, |_, _| {});

    // Determinism, re-proven at this scale: byte-identical reports and
    // identical deliveries, batch by batch.
    assert_eq!(
        lru.report_json, off.report_json,
        "cache policy must not change a single report byte"
    );
    assert_eq!(lru.delivered, off.delivered, "cache policy must not change a delivered path");
    assert_eq!(lru.trees_grown, off.trees_grown, "adopted trees still count as trees");
    assert!(lru.hit_rate > 0.0, "hotspot roots recur: the warm cache must hit");
    assert_eq!(off.hit_rate, 0.0, "no cache, no hits");

    let speedup = off.elapsed_secs / lru.elapsed_secs.max(f64::MIN_POSITIVE);
    let row = |t: &mut ExperimentTable, name: String, m: &Measured, speedup: f64| {
        t.row(vec![
            name,
            m.report_json.len().to_string(),
            m.total_pairs.to_string(),
            m.trees_grown.to_string(),
            f3(m.elapsed_secs * 1e3 / m.report_json.len() as f64),
            f3(m.total_pairs as f64 / m.elapsed_secs.max(f64::MIN_POSITIVE)),
            f3(m.hit_rate),
            f3(speedup),
            m.shallow_misses.to_string(),
        ]);
    };
    row(&mut t, CachePolicy::Off.name(), &off, 1.0);
    row(&mut t, CachePolicy::Lru { trees: 64 }.name(), &lru, speedup);

    // The throughput claim, where the scale can express it.
    if bench_scale {
        assert!(
            speedup >= 1.3,
            "the tree cache must clear >= 1.3x uncached throughput on the hotspot \
             workload at bench scale, got {speedup:.2}x"
        );
        t.note(format!(
            "throughput claim holds: {speedup:.2}x >= 1.3x at {:.0}% hit rate",
            lru.hit_rate * 100.0
        ));
    } else {
        t.note(format!(
            "throughput assertion skipped (quick scale); determinism and hit rate \
             ({:.0}%) still verified",
            lru.hit_rate * 100.0
        ));
    }

    t.metric("trees_grown", lru.trees_grown as f64);
    t.metric("cache_hit_rate", lru.hit_rate);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_quick_scale_with_hits_and_identical_reports() {
        // run() itself asserts byte-identical reports, identical
        // deliveries, and a non-zero hit rate; the throughput claim is
        // scale-gated inside.
        let t = run(&Scale::quick());
        assert_eq!(t.rows.len(), 2, "off + lru");
        assert_eq!(t.rows[0][2], t.rows[1][2], "identical pair workload");
        assert!(t.metric_value("cache_hit_rate").unwrap() > 0.0);
        assert!(t.metric_value("trees_grown").unwrap() > 0.0);
        let hit_rate: f64 = t.rows[1][6].parse().unwrap();
        assert!(hit_rate > 0.0, "lru row reports its hit rate");
        // Every tree consults the cache once, so shallow misses are a
        // share of the trees.
        let shallow: u64 = t.rows[1][8].parse().unwrap();
        assert!(shallow < t.rows[1][3].parse().unwrap());
        assert_eq!(t.rows[0][8], "0", "no cache, no misses");
    }

    #[test]
    fn e15_quick_table_is_pinned() {
        // Every column but the wall-clock ones (ms/batch, pairs/s,
        // speedup) is deterministic, so it is pinned: a change to what the
        // cache keeps or adopts shows up here first.
        let t = run(&Scale::quick());
        let rows: Vec<String> =
            t.rows.iter().map(|r| [0, 1, 2, 3, 6, 8].map(|i| r[i].as_str()).join(" ")).collect();
        assert_eq!(rows, ["off 4 128 32 0 0", "lru(64) 4 128 32 0.6562 0"]);
    }
}
