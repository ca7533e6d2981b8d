//! Strategy tuning: pick a fake-selection strategy for a deployment.
//!
//! The paper requires the obfuscator to know the road network to pick fake
//! endpoints (§IV) but leaves the policy open. This example evaluates the
//! three implemented strategies on one map against two criteria an operator
//! cares about — server cost (Lemma 1) and resistance to a
//! background-knowledge adversary (§II's public-records attacker) — and
//! prints a recommendation matrix.
//!
//! ```text
//! cargo run --example strategy_tuning
//! ```

use opaque::attack::Posterior;
use opaque::{ClientId, ClientRequest, FakeSelection, Obfuscator, PathQuery, ProtectionSettings};
use pathsearch::{SharingPolicy, msmd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::NodeId;
use roadnet::generators::{GeometricConfig, random_geometric};
use workload::{PopulationConfig, population_weights};

fn main() {
    let map =
        random_geometric(&GeometricConfig { num_nodes: 2_000, seed: 5, ..Default::default() })
            .expect("valid network");
    // Synthetic population density = the adversary's public records.
    let weights = population_weights(&map, &PopulationConfig::default());
    let n = map.num_nodes() as u32;
    let f = 4u32;
    let queries = 20;
    let mut rng = StdRng::seed_from_u64(5);

    println!("strategy   settled/query   victim posterior   effective anonymity (of {})", f * f);
    let mut rows = Vec::new();
    for strategy in [
        FakeSelection::Uniform,
        FakeSelection::default_ring(),
        FakeSelection::default_network_ring(),
        FakeSelection::Weighted,
    ] {
        let ob = Obfuscator::new(map.clone(), strategy, 5).with_weights(weights.clone());
        let mut settled = 0u64;
        let mut posterior = 0.0;
        let mut anonymity = 0.0;
        for _ in 0..queries {
            let (s, t) = loop {
                let s = NodeId(rng.gen_range(0..n));
                let t = NodeId(rng.gen_range(0..n));
                if s != t {
                    break (s, t);
                }
            };
            let req = ClientRequest::new(
                ClientId(0),
                PathQuery::new(s, t),
                ProtectionSettings::new(f, f).expect("valid"),
            );
            let unit = ob.obfuscate_independent(&req).expect("map large enough");
            let r =
                msmd(&map, unit.query.sources(), unit.query.targets(), SharingPolicy::PerSource);
            settled += r.stats.settled;
            let b = Posterior::new(&unit, ClientId(0)).weigh(&weights).breach();
            posterior += b.truth_mass;
            anonymity += b.effective_anonymity;
        }
        let cost = settled as f64 / queries as f64;
        let post = posterior / queries as f64;
        let anon = anonymity / queries as f64;
        println!("{:<9}  {:>13.0}  {:>17.4}  {:>19.1}", strategy.name(), cost, post, anon);
        rows.push((strategy.name(), cost, post));
    }

    println!();
    let cheapest = rows.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty");
    let most_robust = rows.iter().min_by(|a, b| a.2.total_cmp(&b.2)).expect("non-empty");
    println!("cheapest for the server:            {}", cheapest.0);
    println!("strongest vs informed adversary:    {}", most_robust.0);
    println!();
    println!("Rule of thumb: a ring variant when the threat model is the honest-but-");
    println!("curious server of the paper (`net-ring` if obfuscation-time Dijkstra is");
    println!("affordable, `ring` otherwise); `weighted` when the adversary holds");
    println!("public records; `uniform` only when endpoint spread itself is the");
    println!("requirement.");
}
