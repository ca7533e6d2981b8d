//! Collusion audit: when does shared obfuscation stop being safer?
//!
//! Shared obfuscated queries protect better than independent ones — until
//! other clients embedded in the same query collude (abstract, §I). This
//! example builds a shared query over 8 clients and replays collusion
//! attacks with 0..6 conspirators against client 0, reporting the residual
//! breach probability and the crossover against the independent baseline.
//!
//! ```text
//! cargo run --example collusion_audit
//! ```

use opaque::attack::Posterior;
use opaque::{ClientId, FakeSelection, ObfuscationMode, Obfuscator};
use rand::SeedableRng;
use rand::rngs::StdRng;
use roadnet::SpatialIndex;
use roadnet::generators::{GridConfig, grid_network};
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

fn main() {
    let map = grid_network(&GridConfig { width: 28, height: 28, seed: 99, ..Default::default() })
        .expect("valid network");
    let index = SpatialIndex::build(&map);

    let clients = 8;
    let protection = 4u32; // every client asks for f_S = f_T = 4
    let requests = generate_requests(
        &map,
        &index,
        &WorkloadConfig {
            num_requests: clients,
            queries: QueryDistribution::Uniform,
            protection: ProtectionDistribution::Fixed { f_s: protection, f_t: protection },
            seed: 99,
        },
    );

    let mut obfuscator = Obfuscator::new(map, FakeSelection::default_ring(), 99);
    let units = obfuscator
        .obfuscate_batch(&requests, ObfuscationMode::SharedGlobal)
        .expect("batch obfuscation succeeds");
    let unit = &units[0];
    println!(
        "shared query over {clients} clients: |S|={}, |T|={} → breach {:.4}",
        unit.query.sources().len(),
        unit.query.targets().len(),
        unit.query.breach_probability()
    );
    let independent_breach = 1.0 / (protection as f64 * protection as f64);
    println!("independent baseline at f={protection}: breach {independent_breach:.4}\n");

    println!("colluders  residual pairs  breach (analytic)  breach (simulated)  verdict");
    let victim = ClientId(0);
    let mut rng = StdRng::seed_from_u64(7);
    for colluders in 0..=(clients - 2) {
        let conspirators: Vec<ClientId> = (1..=colluders as u32).map(ClientId).collect();
        let post = Posterior::new(unit, victim).reveal(&conspirators);
        let breach = post.breach();
        let simulated = post.hit_rate(100_000, &mut rng);
        let verdict = if breach.truth_mass <= independent_breach {
            "shared still safer"
        } else {
            "INDEPENDENT would be safer"
        };
        println!(
            "{colluders:>9}  {:>14}  {:>17.4}  {simulated:>18.4}  {verdict}",
            breach.candidates, breach.truth_mass
        );
    }

    println!();
    println!("Each colluder removes its own endpoints from the victim's cover.");
    println!("Past the crossover, a client worried about insiders should request");
    println!("independent obfuscation — exactly the trade-off §III-C describes.");
}
