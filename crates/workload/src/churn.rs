//! Rush-hour traffic churn: live weight-update schedules for the
//! dynamic-map experiments.
//!
//! The live-traffic regime interleaves serving with weight updates every
//! few ticks. Real congestion is *spatially localized* — a surge builds
//! around an epicenter (an incident, a stadium emptying) and decays —
//! so the schedule this module generates congests a compact zone of the
//! map rather than sprinkling random edges everywhere. The tree cache's
//! weight-update path (`opaque::service::TreeCache::repair_edges`)
//! exploits that locality twice: cached trees whose sweeps stay clear of
//! the zone survive every tick untouched, and complete trees that cross it
//! are repaired in place — only the few labels the surge moved are
//! recomputed — while a drop-all policy re-cools the whole fleet each
//! time.
//!
//! Schedules are pure data (`Vec` of per-round update batches), fully
//! determined by the seed, and independent of how the consumer
//! interleaves them with queries — the `e19_livemap` experiment replays
//! one batch of queries after each round, and the livemap-equivalence
//! harness threads them through both a cached and an uncached service.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::{EdgeId, RoadNetwork};

/// Configuration of a rush-hour churn schedule.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChurnConfig {
    /// Number of traffic ticks (update rounds) in the schedule.
    pub rounds: usize,
    /// Edges re-weighted per round (drawn from the congestion zone).
    pub updates_per_round: usize,
    /// Fraction of the map's edges forming the congestion zone — the
    /// `zone_fraction·|E|` edges nearest the epicenter. Must be in
    /// `(0, 1]`; small fractions model a localized incident.
    pub zone_fraction: f64,
    /// Peak congestion multiplier (≥ 1). Per-round factors ramp up
    /// towards this peak through the first half of the schedule and decay
    /// back towards free flow through the second half.
    pub surge: f64,
    /// RNG seed; schedules are reproducible per seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig { rounds: 8, updates_per_round: 4, zone_fraction: 0.15, surge: 3.0, seed: 0 }
    }
}

/// Generate a rush-hour schedule over `map`: one weight-update batch per
/// round, every entry a valid input to `RoadNetwork::update_weights`
/// (finite, non-negative, in-range edge ids). Weights are expressed
/// relative to the map's *current* weights at generation time, so apply
/// the rounds in order.
///
/// The epicenter is a seed-chosen node; the congestion zone is the
/// `zone_fraction` of edges whose midpoints lie nearest it (ties broken
/// by edge id, so the zone is deterministic). Each round re-weights
/// `updates_per_round` distinct zone edges to `base · factor`, where the
/// factor follows a tent profile over the schedule — building to `surge`
/// mid-schedule, relaxing after — plus per-edge jitter. The final round
/// restores every previously congested edge to its base weight, so a
/// full replay ends on the original map.
///
/// # Panics
/// Panics on a degenerate configuration: zero rounds or updates, a
/// non-finite or sub-1 surge, or `zone_fraction` outside `(0, 1]`.
pub fn rush_hour_schedule(map: &RoadNetwork, cfg: &ChurnConfig) -> Vec<Vec<(EdgeId, f64)>> {
    assert!(cfg.rounds >= 1, "a schedule needs at least one round");
    assert!(cfg.updates_per_round >= 1, "a round needs at least one update");
    assert!(cfg.surge.is_finite() && cfg.surge >= 1.0, "surge must be a finite factor >= 1");
    assert!(cfg.zone_fraction > 0.0 && cfg.zone_fraction <= 1.0, "zone_fraction must be in (0, 1]");

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6368_7572_6e21); // "churn!"
    let epicenter = map.point(roadnet::NodeId(rng.gen_range(0..map.num_nodes() as u32)));

    // The congestion zone: edges ranked by midpoint distance to the
    // epicenter, nearest first, ties by edge id for determinism.
    let mut ranked: Vec<(f64, usize)> = map
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| (map.point(e.a).midpoint(map.point(e.b)).distance(epicenter), i))
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let zone_len =
        ((map.num_edges() as f64 * cfg.zone_fraction).ceil() as usize).clamp(1, map.num_edges());
    let zone: Vec<usize> = ranked[..zone_len].iter().map(|&(_, i)| i).collect();
    let base: Vec<f64> = map.edges().iter().map(|e| e.weight).collect();

    let mut congested: Vec<usize> = Vec::new();
    let mut schedule = Vec::with_capacity(cfg.rounds);
    for round in 0..cfg.rounds {
        if round + 1 == cfg.rounds {
            // Relief: the surge dissipates and every congested edge
            // returns to free flow.
            congested.sort_unstable();
            congested.dedup();
            schedule.push(congested.iter().map(|&i| (EdgeId::from_index(i), base[i])).collect());
            break;
        }
        // Tent profile peaking at surge mid-schedule.
        let peak_at = (cfg.rounds as f64 - 1.0) / 2.0;
        let ramp = 1.0 - ((round as f64 - peak_at).abs() / peak_at.max(1.0));
        let level = 1.0 + (cfg.surge - 1.0) * ramp.max(0.0);
        let mut batch = Vec::with_capacity(cfg.updates_per_round);
        for _ in 0..cfg.updates_per_round {
            let i = zone[rng.gen_range(0..zone.len())];
            // Per-edge jitter keeps rounds from being scalar multiples of
            // each other while staying within [1, level].
            let factor = 1.0 + (level - 1.0) * rng.gen_range(0.5..=1.0);
            batch.push((EdgeId::from_index(i), base[i] * factor));
            congested.push(i);
        }
        schedule.push(batch);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::{GridConfig, grid_network};

    fn grid() -> RoadNetwork {
        grid_network(&GridConfig { width: 16, height: 16, seed: 5, ..Default::default() }).unwrap()
    }

    #[test]
    fn schedule_is_deterministic_and_applies_cleanly() {
        let g = grid();
        let cfg = ChurnConfig { seed: 7, ..Default::default() };
        let a = rush_hour_schedule(&g, &cfg);
        let b = rush_hour_schedule(&g, &cfg);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), cfg.rounds);
        let mut live = g.clone();
        for batch in &a {
            live.update_weights(batch).expect("every entry must be valid");
        }
        assert_ne!(
            a,
            rush_hour_schedule(&g, &ChurnConfig { seed: 8, ..Default::default() }),
            "different seeds diverge"
        );
    }

    #[test]
    fn final_round_restores_base_weights() {
        let g = grid();
        let cfg = ChurnConfig { rounds: 6, updates_per_round: 5, seed: 11, ..Default::default() };
        let schedule = rush_hour_schedule(&g, &cfg);
        let mut live = g.clone();
        let mut mid_schedule_changed = false;
        for (i, batch) in schedule.iter().enumerate() {
            let changed = live.update_weights(batch).unwrap();
            if i + 1 < schedule.len() && !changed.is_empty() {
                mid_schedule_changed = true;
            }
        }
        assert!(mid_schedule_changed, "the surge must actually move weights");
        for (e, base) in live.edges().iter().zip(g.edges()) {
            assert_eq!(e.weight, base.weight, "full replay ends on the original map");
        }
    }

    #[test]
    fn congestion_stays_inside_the_zone() {
        let g = grid();
        let cfg = ChurnConfig {
            rounds: 8,
            updates_per_round: 6,
            zone_fraction: 0.1,
            seed: 3,
            ..Default::default()
        };
        let schedule = rush_hour_schedule(&g, &cfg);
        // Collect every touched edge and check the spread: a 10% zone on a
        // 16x16 grid must not touch most of the map.
        let mut touched: Vec<u32> = schedule.iter().flatten().map(|&(e, _)| e.0).collect();
        touched.sort_unstable();
        touched.dedup();
        let zone_cap = (g.num_edges() as f64 * cfg.zone_fraction).ceil() as usize;
        assert!(
            touched.len() <= zone_cap,
            "{} distinct edges touched, zone holds {zone_cap}",
            touched.len()
        );
        // Surge factors stay within [base, base·surge].
        for (e, w) in schedule.iter().flatten() {
            let base = g.edge(*e).weight;
            assert!(*w >= base - 1e-12);
            assert!(*w <= base * cfg.surge + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zone_fraction")]
    fn degenerate_zone_is_rejected() {
        let g = grid();
        rush_hour_schedule(&g, &ChurnConfig { zone_fraction: 0.0, ..Default::default() });
    }
}
