//! E6 — collusion attacks on shared obfuscated queries (abstract, §I).
//!
//! The paper motivates having *both* query variants with collusion: shared
//! queries embed several clients' true endpoints, so clients inside the
//! same `Q(S,T)` can pool what they know and shrink a victim's anonymity
//! set. This experiment measures the residual breach probability as the
//! number of colluders grows, with independent obfuscation (immune — no
//! other client is embedded) as the control, and locates the crossover
//! where shared queries stop being the safer choice.

use crate::setup::{Scale, network_with_index};
use crate::table::{ExperimentTable, f3};
use opaque::attack::Posterior;
use opaque::{ClientId, FakeSelection, ObfuscationMode, Obfuscator};
use rand::SeedableRng;
use rand::rngs::StdRng;
use roadnet::generators::NetworkClass;
use workload::{ProtectionDistribution, QueryDistribution, WorkloadConfig, generate_requests};

/// Run E6.
pub fn run(scale: &Scale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "E6",
        "collusion attack on shared obfuscation",
        "abstract / §I collusion claim",
        &[
            "colluders",
            "shared analytic",
            "shared empirical",
            "independent (control)",
            "shared still safer",
        ],
    );
    let (g, idx) = network_with_index(NetworkClass::Grid, scale);
    let k = 8usize; // clients in the shared query
    let f = 4u32; // per-client protection request
    let cfg = WorkloadConfig {
        num_requests: k,
        queries: QueryDistribution::Uniform,
        protection: ProtectionDistribution::Fixed { f_s: f, f_t: f },
        seed: 0xE6,
    };
    let requests = generate_requests(&g, &idx, &cfg);

    let mut ob = Obfuscator::new(g.clone(), FakeSelection::default_ring(), 0xE6);
    let units = ob.obfuscate_batch(&requests, ObfuscationMode::SharedGlobal).expect("ok");
    let unit = &units[0];
    let victim = ClientId(0);
    let independent_breach = 1.0 / (f as f64 * f as f64);
    let mut rng = StdRng::seed_from_u64(0xE6);

    for colluders in 0..=(k - 2) {
        let conspirators: Vec<ClientId> = (1..=colluders as u32).map(ClientId).collect();
        let post = Posterior::new(unit, victim).reveal(&conspirators);
        let analytic = post.breach().truth_mass;
        t.row(vec![
            colluders.to_string(),
            f3(analytic),
            f3(post.hit_rate(scale.trials, &mut rng)),
            f3(independent_breach),
            if analytic <= independent_breach { "yes" } else { "NO" }.into(),
        ]);
    }
    t.note(format!(
        "shared query embeds {k} clients: |S|={}, |T|={}",
        unit.query.sources().len(),
        unit.query.targets().len()
    ));
    t.note("with 0 colluders shared breach beats the independent control; each colluder erodes it");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_breach_monotonically_degrades_with_colluders() {
        let t = run(&Scale::quick());
        let analytic: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for w in analytic.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "collusion must not improve privacy: {analytic:?}");
        }
        // No colluders: shared is at least as good as independent.
        let first = &t.rows[0];
        let shared: f64 = first[1].parse().unwrap();
        let control: f64 = first[3].parse().unwrap();
        assert!(shared <= control + 1e-12);
    }

    #[test]
    fn e6_empirical_matches_analytic() {
        let t = run(&Scale::quick());
        for row in &t.rows {
            let a: f64 = row[1].parse().unwrap();
            let e: f64 = row[2].parse().unwrap();
            assert!((a - e).abs() < 0.02, "Monte-Carlo mismatch: {row:?}");
        }
    }

    #[test]
    fn e6_quick_table_is_pinned() {
        // Every column is deterministic: the colluders' residual sets fix the
        // analytic breach, and one seeded RNG shared across rows draws the
        // simulated guesses.
        let t = run(&Scale::quick());
        let rows: Vec<String> = t.rows.iter().map(|r| r.join(" ")).collect();
        assert_eq!(
            rows,
            [
                "0 0.0156 0.0152 0.0625 yes",
                "1 0.0204 0.0217 0.0625 yes",
                "2 0.0278 0.0272 0.0625 yes",
                "3 0.0400 0.0387 0.0625 yes",
                "4 0.0625 0.0611 0.0625 yes",
                "5 0.1111 0.1121 0.0625 NO",
                "6 0.2500 0.2511 0.0625 NO",
            ]
        );
    }
}
