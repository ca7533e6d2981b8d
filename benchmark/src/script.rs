//! Script generation: everything a run feeds the program, made before any
//! clock starts. The program under test receives only these inputs: a map
//! generator config, requests, weight updates, and the RNG seed its
//! obfuscator is configured with.
//!
//! What `--seed` decides, and what it does not. Every later change is
//! accepted or rejected on the spread of these metrics over runs with
//! *different* seeds, so the seed must change which work comes when, never
//! how much work a run is: a hotspot layout drawn per seed moves
//! `metro_hotspot_churn`'s throughput by 28 % between seeds, and 400
//! continent trips drawn per seed move its p95 by 9 % — the generator's
//! variance, not the program's. Therefore the map, the hotspot layout, the
//! churn schedule and the population of windows are fixed per workload
//! (drawn once from [`POPULATION_SEED`]), and the seed supplies the
//! **order** in which the timed windows arrive and the **obfuscator's RNG
//! stream** (which fakes hide each request — and so which trees the server
//! grows).

use crate::spec::{Scale, UPDATES_PER_ROUND, WorkloadSpec};
use opaque::{ClientId, ClientRequest, PathQuery, ProtectionSettings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::{EdgeId, NodeId, RoadNetwork, SpatialIndex};
use workload::{ChurnConfig, QuerySampler, rush_hour_schedule};

/// Seed of everything a workload fixes across runs: its map, its hotspot
/// layout, and the population of windows the run's seed then orders.
pub const POPULATION_SEED: u64 = 14;

/// One run's inputs.
pub struct Script {
    /// The workload this script drives.
    pub spec: &'static WorkloadSpec,
    /// The run's seed: window order and obfuscator RNG.
    pub seed: u64,
    /// The map generator's seed ([`POPULATION_SEED`]).
    pub map_seed: u64,
    /// The map at its initial weights. Set-ups regenerate their own copy
    /// from the generator (that cost is part of `setup_s`); this one is the
    /// benchmark's, for sampling trips and checking delivered costs.
    pub map: RoadNetwork,
    /// `(source, destination)` of every request, warm-up first, window after
    /// window, in the run's order. Request `i` carries `ClientId(i)`, so ids
    /// never repeat and no submission is ever deferred as a duplicate.
    trips: Vec<(u32, u32)>,
    /// Warm-up windows at the head of `trips`.
    pub warmup_windows: usize,
    /// Timed windows after them.
    pub timed_windows: usize,
    /// Weight-update rounds; round `k` is applied after timed window
    /// `(k + 1) · update_every − 1`. Empty for workloads without churn.
    pub updates: Vec<Vec<(EdgeId, f64)>>,
}

impl Script {
    /// Generate the script for `timed_windows` timed windows.
    pub fn generate(spec: &'static WorkloadSpec, seed: u64, timed_windows: usize) -> Script {
        let map = spec.map.generate(POPULATION_SEED);
        let index = SpatialIndex::build(&map);
        // The population: as many windows as the run drives, drawn once.
        let mut rng = StdRng::seed_from_u64(POPULATION_SEED ^ 0x7472_6970_7321); // "trips!"
        let sampler = QuerySampler::new(&map, &index, spec.trips, &mut rng);
        let windows = spec.warmup_windows + timed_windows;
        let population: Vec<(u32, u32)> = (0..windows * spec.window)
            .map(|_| {
                let (s, t) = sampler.sample(&mut rng);
                (s.0, t.0)
            })
            .collect();
        // The run's order: a Fisher–Yates shuffle of the timed windows
        // (warm-up stays put, so every seed times the same population).
        let mut order: Vec<usize> = (0..windows).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6f72_6465_7221); // "order!"
        for i in (spec.warmup_windows + 1..windows).rev() {
            order.swap(i, rng.gen_range(spec.warmup_windows..=i));
        }
        let trips = order
            .iter()
            .flat_map(|&w| population[w * spec.window..(w + 1) * spec.window].iter().copied())
            .collect();
        let updates = match spec.update_every {
            Some(every) if timed_windows >= every => rush_hour_schedule(
                &map,
                &ChurnConfig {
                    rounds: timed_windows / every,
                    updates_per_round: UPDATES_PER_ROUND,
                    zone_fraction: 0.15,
                    surge: 3.0,
                    seed: POPULATION_SEED,
                },
            ),
            _ => Vec::new(),
        };
        Script {
            spec,
            seed,
            map_seed: POPULATION_SEED,
            map,
            trips,
            warmup_windows: spec.warmup_windows,
            timed_windows,
            updates,
        }
    }

    /// The script of an untraced run at `scale`.
    pub fn for_run(spec: &'static WorkloadSpec, seed: u64, scale: &Scale) -> Script {
        Script::generate(spec, seed, scale.timed_windows(spec))
    }

    /// Index of the first request of window `w` (warm-up windows count).
    fn first_request(&self, w: usize) -> usize {
        w * self.spec.window
    }

    /// Trips of window `w`, warm-up windows first.
    pub fn window_trips(&self, w: usize) -> &[(u32, u32)] {
        &self.trips[self.first_request(w)..self.first_request(w + 1)]
    }

    /// The requests of window `w` (warm-up windows first), ids included.
    pub fn window_requests(&self, w: usize) -> impl Iterator<Item = ClientRequest> + '_ {
        let (f_s, f_t) = self.spec.protection;
        let protection = ProtectionSettings::new(f_s, f_t).expect("spec protections are >= 1");
        let first = self.first_request(w);
        self.window_trips(w).iter().enumerate().map(move |(i, &(s, t))| {
            ClientRequest::new(
                ClientId((first + i) as u32),
                PathQuery::new(NodeId(s), NodeId(t)),
                protection,
            )
        })
    }

    /// The update round due right after *timed* window `t` (0-based), if any.
    pub fn update_after(&self, t: usize) -> Option<&[(EdgeId, f64)]> {
        let every = self.spec.update_every?;
        if (t + 1) % every != 0 {
            return None;
        }
        self.updates.get((t + 1) / every - 1).map(Vec::as_slice)
    }

    /// Total requests in the timed windows.
    pub fn timed_requests(&self) -> usize {
        self.timed_windows * self.spec.window
    }

    /// A digest of the whole script (trips and update schedule), printed
    /// with the run so two outputs can be told to be the same work.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(self.map.num_nodes() as u64);
        eat(self.map.num_edges() as u64);
        for &(s, t) in &self.trips {
            eat(u64::from(s) << 32 | u64::from(t));
        }
        for round in &self.updates {
            for &(e, w) in round {
                eat(e.index() as u64);
                eat(w.to_bits());
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn equal_seeds_make_identical_scripts_and_different_seeds_do_not() {
        // wire_bare's map is 100 nodes: generation is instant.
        let spec = workload("wire_bare").unwrap();
        let a = Script::generate(spec, 14, 40);
        let b = Script::generate(spec, 14, 40);
        let c = Script::generate(spec, 15, 40);
        assert_eq!(a.trips, b.trips);
        assert_eq!(a.map.edges(), b.map.edges());
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.trips, c.trips);
        assert_ne!(a.digest(), c.digest());
        // …but only in order: the population of trips is the workload's.
        let sorted = |s: &Script| {
            let mut t = s.trips.clone();
            t.sort_unstable();
            t
        };
        assert_eq!(sorted(&a), sorted(&c));
        assert_eq!(a.map.edges(), c.map.edges());
    }

    #[test]
    fn windows_partition_the_trips_with_unique_client_ids() {
        let spec = workload("wire_bare").unwrap();
        let s = Script::generate(spec, 14, 10);
        let total = (spec.warmup_windows + 10) * spec.window;
        let mut seen = std::collections::BTreeSet::new();
        for w in 0..spec.warmup_windows + 10 {
            let reqs: Vec<_> = s.window_requests(w).collect();
            assert_eq!(reqs.len(), spec.window);
            for r in reqs {
                assert!(seen.insert(r.client), "client id reused");
                assert_ne!(r.query.source, r.query.destination);
            }
        }
        assert_eq!(seen.len(), total);
        assert_eq!(s.timed_requests(), 10 * spec.window);
    }

    #[test]
    fn churn_rounds_fall_after_every_tenth_timed_window() {
        let spec = workload("metro_hotspot_churn").unwrap();
        // A small stand-in map keeps the test fast: only the schedule
        // arithmetic is under test.
        let mut s = Script::generate(workload("wire_bare").unwrap(), 14, 35);
        s.spec = spec;
        s.updates = vec![vec![(EdgeId::from_index(0), 2.0)]; 3];
        let due: Vec<usize> = (0..35).filter(|&t| s.update_after(t).is_some()).collect();
        assert_eq!(due, vec![9, 19, 29]);
    }
}
