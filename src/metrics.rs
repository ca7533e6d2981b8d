//! Definition 2 and its information-theoretic companions, read through
//! `opaque`'s public adversary on small hand-built units: the breach
//! probability `1/(|S|·|T|)` of a uniform posterior, its MAP guess, and the
//! effective anonymity `2^H` of a posterior narrowed by plausibility
//! weights.

mod tests {
    use opaque::attack::{Breach, Posterior};
    use opaque::obfuscator::ObfuscationUnit;
    use opaque::query::{
        ClientId, ClientRequest, ObfuscatedPathQuery, PathQuery, ProtectionSettings,
    };
    use roadnet::NodeId;

    /// A unit over `sources × targets` in which client `i` asks for
    /// `pairs[i]`.
    fn unit(sources: &[u32], targets: &[u32], pairs: &[(u32, u32)]) -> ObfuscationUnit {
        let nodes = |ns: &[u32]| ns.iter().map(|&n| NodeId(n)).collect();
        let request = |(i, &(s, t))| {
            let protection = ProtectionSettings::new(1, 1).unwrap();
            ClientRequest::new(ClientId(i), PathQuery::new(NodeId(s), NodeId(t)), protection)
        };
        ObfuscationUnit {
            query: ObfuscatedPathQuery::new(nodes(sources), nodes(targets)),
            requests: (0..).zip(pairs).map(request).collect(),
        }
    }

    /// What `u` gives away about client `victim` once the adversary weighs
    /// each node `n` by `weights[n]`.
    fn weighed(u: &ObfuscationUnit, victim: u32, weights: &[f64]) -> Breach {
        Posterior::new(u, ClientId(victim)).weigh(weights).breach()
    }

    #[test]
    fn breach_matches_definition_2() {
        let u = unit(&[1, 2], &[3, 4, 5], &[(1, 4)]);
        let b = Posterior::new(&u, ClientId(0)).breach();
        assert!((b.truth_mass - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(b.truth_mass, u.query.breach_probability());
        let single = unit(&[1], &[3], &[(1, 3)]);
        assert_eq!(Posterior::new(&single, ClientId(0)).breach().truth_mass, 1.0);
    }

    #[test]
    fn uniform_entropy_is_log_k() {
        // 2×4: eight equally likely pairs carry 3 bits.
        let u = unit(&[1, 2], &[3, 4, 5, 6], &[(1, 3)]);
        let b = Posterior::new(&u, ClientId(0)).breach();
        assert!((b.effective_anonymity.log2() - 3.0).abs() < 1e-12);
        assert!((b.effective_anonymity - 8.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_posterior_reduces_anonymity() {
        // 2×2, source 1 ten times as plausible as source 2.
        let u = unit(&[1, 2], &[3, 4], &[(1, 3)]);
        let uniform = weighed(&u, 0, &[1.0; 5]);
        let skewed = weighed(&u, 0, &[0.0, 10.0, 1.0, 1.0, 1.0]);
        assert!(skewed.effective_anonymity < uniform.effective_anonymity);
        assert!(skewed.map_success > 0.25);
    }

    #[test]
    fn posterior_is_normalized_product() {
        // One client per pair, so each pair's mass is some client's truth.
        let u = unit(&[1, 2], &[3, 4], &[(1, 3), (1, 4), (2, 3), (2, 4)]);
        let weights = [0.0, 1.0, 3.0, 1.0, 1.0];
        let post: Vec<f64> = (0..4).map(|i| weighed(&u, i, &weights).truth_mass).collect();
        let sum: f64 = post.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // P(s2, ·) should carry 3/4 of the mass.
        assert!((post[2] + post[3] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn uniform_posterior_map_equals_breach() {
        let u = unit(&[1, 2], &[3, 4, 5], &[(1, 4)]);
        let b = weighed(&u, 0, &[1.0; 6]);
        assert!((b.map_success - u.query.breach_probability()).abs() < 1e-12);
    }

    #[test]
    fn zero_weights_are_ignored_by_entropy() {
        // 1×3, target 4 weighted 0: two equally likely pairs carry 1 bit.
        let u = unit(&[1], &[2, 3, 4], &[(1, 2)]);
        let b = weighed(&u, 0, &[0.0, 1.0, 0.5, 0.5, 0.0]);
        assert!((b.effective_anonymity.log2() - 1.0).abs() < 1e-12);
        assert_eq!(b.candidates, 2);
    }
}
