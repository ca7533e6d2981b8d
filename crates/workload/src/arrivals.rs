//! Temporal request arrivals.
//!
//! The paper's obfuscator receives a *stream* of requests and clusters
//! "the received queries" (§IV) — which implicitly requires collecting
//! requests for some window before obfuscating them together. This module
//! models the stream: arrival processes over a time horizon, which
//! the `opaque` gateway's queue cuts into batches. Experiment E12 sweeps the
//! window length to expose the deployment trade-off (bigger windows →
//! bigger batches → better sharing and breach probability, but higher
//! answer latency).
//!
//! Three [`ArrivalProcess`]es are available. [`ArrivalProcess::Poisson`]
//! is the memoryless baseline. [`ArrivalProcess::Bursty`] is a two-state
//! Markov-modulated Poisson process — exponential-length burst and quiet
//! phases whose rates bracket the base rate — producing the clumped
//! traffic that stresses batch admission. [`ArrivalProcess::Diurnal`]
//! modulates the rate sinusoidally (Lewis–Shedler thinning), the
//! day/night swell a deployed directions service sees. All three are
//! deterministic per seed: the same [`crate::WorkloadConfig::seed`]
//! yields the same [`TimedRequest`] stream, byte for byte.

use crate::distributions::QuerySampler;
use crate::generator::WorkloadConfig;
use opaque::{ClientId, ClientRequest, PathQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::{RoadNetwork, SpatialIndex};

/// A request stamped with its arrival time (seconds from stream start).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimedRequest {
    /// Arrival offset in seconds from stream start.
    pub arrival: f64,
    /// The request itself.
    pub request: ClientRequest,
}

/// The mean rate and horizon of an [`arrival_stream`].
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArrivalConfig {
    /// Mean request arrivals per second (λ of the Poisson process).
    pub rate_per_sec: f64,
    /// Length of the generated stream, in seconds.
    pub horizon_secs: f64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig { rate_per_sec: 2.0, horizon_secs: 60.0 }
    }
}

/// The temporal shape of a request stream.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at the configured rate — the baseline.
    Poisson,
    /// Two-state Markov-modulated Poisson process: bursts at
    /// `multiplier ×` the base rate alternate with quiet phases at
    /// `1/multiplier ×`, each phase exponentially distributed around its
    /// mean length. The long-run rate stays near the base rate while the
    /// index of dispersion rises well above Poisson's 1.
    Bursty {
        /// Rate multiplier during a burst (and divisor when quiet); > 1.
        multiplier: f64,
        /// Mean burst-phase length, seconds.
        mean_burst_secs: f64,
        /// Mean quiet-phase length, seconds.
        mean_quiet_secs: f64,
    },
    /// Sinusoidal rate modulation via Lewis–Shedler thinning:
    /// `λ(t) = rate · (1 + amplitude · sin(2πt / period))`.
    Diurnal {
        /// One full day/night cycle, seconds.
        period_secs: f64,
        /// Swing of the modulation, in `[0, 1)`.
        amplitude: f64,
    },
}

/// Generate a request stream whose timing follows `process`.
///
/// Spatial/protection characteristics come from `workload` (its
/// `num_requests` is ignored — the stream length is governed by the
/// horizon); the mean rate and horizon from `arrivals`.
pub fn arrival_stream(
    map: &RoadNetwork,
    index: &SpatialIndex,
    workload: &WorkloadConfig,
    arrivals: &ArrivalConfig,
    process: ArrivalProcess,
) -> Vec<TimedRequest> {
    assert!(arrivals.rate_per_sec > 0.0, "arrival rate must be positive");
    assert!(arrivals.horizon_secs > 0.0, "horizon must be positive");
    match process {
        ArrivalProcess::Poisson => {}
        ArrivalProcess::Bursty { multiplier, mean_burst_secs, mean_quiet_secs } => {
            assert!(multiplier > 1.0, "burst multiplier must exceed 1");
            assert!(mean_burst_secs > 0.0 && mean_quiet_secs > 0.0, "phase means must be positive");
        }
        ArrivalProcess::Diurnal { period_secs, amplitude } => {
            assert!(period_secs > 0.0, "period must be positive");
            assert!((0.0..1.0).contains(&amplitude), "amplitude must be in [0, 1)");
        }
    }
    let mut rng = StdRng::seed_from_u64(workload.seed ^ 0x6172_7276); // "arrv"
    let sampler = QuerySampler::new(map, index, workload.queries, &mut rng);

    // Bursty bookkeeping: current phase and its exponential end time.
    let mut in_burst = false;
    let mut phase_end = match process {
        ArrivalProcess::Bursty { mean_quiet_secs, .. } => {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            -u.ln() * mean_quiet_secs
        }
        _ => f64::INFINITY,
    };

    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut id = 0u32;
    loop {
        match process {
            // Exponential inter-arrival times: -ln(U)/λ. This arm's draw
            // sequence is pinned by the Poisson stream digests — do not
            // reorder.
            ArrivalProcess::Poisson => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() / arrivals.rate_per_sec;
            }
            ArrivalProcess::Bursty { multiplier, mean_burst_secs, mean_quiet_secs } => {
                // Draw from the current phase's rate; a draw that crosses
                // the phase boundary is discarded and redrawn from the
                // boundary (valid by memorylessness of the exponential).
                loop {
                    let rate = if in_burst {
                        arrivals.rate_per_sec * multiplier
                    } else {
                        arrivals.rate_per_sec / multiplier
                    };
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let candidate = t + -u.ln() / rate;
                    if candidate < phase_end {
                        t = candidate;
                        break;
                    }
                    t = phase_end;
                    in_burst = !in_burst;
                    let mean = if in_burst { mean_burst_secs } else { mean_quiet_secs };
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    phase_end = t + -u.ln() * mean;
                    if t >= arrivals.horizon_secs {
                        break;
                    }
                }
            }
            ArrivalProcess::Diurnal { period_secs, amplitude } => {
                // Lewis–Shedler thinning against λmax = rate·(1+amplitude).
                let lambda_max = arrivals.rate_per_sec * (1.0 + amplitude);
                loop {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -u.ln() / lambda_max;
                    if t >= arrivals.horizon_secs {
                        break;
                    }
                    let lambda_t = arrivals.rate_per_sec
                        * (1.0 + amplitude * (2.0 * std::f64::consts::PI * t / period_secs).sin());
                    let accept: f64 = rng.gen_range(0.0..1.0);
                    if accept <= lambda_t / lambda_max {
                        break;
                    }
                }
            }
        }
        if t >= arrivals.horizon_secs {
            break;
        }
        let (s, d) = sampler.sample(&mut rng);
        let protection = workload.protection.sample(&mut rng);
        out.push(TimedRequest {
            arrival: t,
            request: ClientRequest::new(ClientId(id), PathQuery::new(s, d), protection),
        });
        id += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ProtectionDistribution;
    use roadnet::generators::{GridConfig, grid_network};

    fn setup() -> (RoadNetwork, SpatialIndex) {
        let g = grid_network(&GridConfig { width: 15, height: 15, seed: 8, ..Default::default() })
            .unwrap();
        let idx = SpatialIndex::build(&g);
        (g, idx)
    }

    fn stream(rate: f64, horizon: f64, seed: u64) -> Vec<TimedRequest> {
        process_stream(ArrivalProcess::Poisson, rate, horizon, seed)
    }

    #[test]
    fn poisson_rate_is_approximately_honoured() {
        let s = stream(5.0, 200.0, 1);
        let got = s.len() as f64 / 200.0;
        assert!((got - 5.0).abs() < 0.75, "rate {got} too far from 5.0");
        // Arrival times strictly increasing, within the horizon.
        for w in s.windows(2) {
            assert!(w[0].arrival < w[1].arrival);
        }
        assert!(s.last().unwrap().arrival < 200.0);
        // Client ids dense in arrival order.
        for (i, tr) in s.iter().enumerate() {
            assert_eq!(tr.request.client, ClientId(i as u32));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(stream(2.0, 30.0, 9), stream(2.0, 30.0, 9));
        assert_ne!(stream(2.0, 30.0, 9), stream(2.0, 30.0, 10));
    }

    fn process_stream(
        process: ArrivalProcess,
        rate: f64,
        horizon: f64,
        seed: u64,
    ) -> Vec<TimedRequest> {
        let (g, idx) = setup();
        arrival_stream(
            &g,
            &idx,
            &WorkloadConfig { seed, ..Default::default() },
            &ArrivalConfig { rate_per_sec: rate, horizon_secs: horizon },
            process,
        )
    }

    const BURSTY: ArrivalProcess =
        ArrivalProcess::Bursty { multiplier: 6.0, mean_burst_secs: 3.0, mean_quiet_secs: 9.0 };
    const DIURNAL: ArrivalProcess = ArrivalProcess::Diurnal { period_secs: 100.0, amplitude: 0.9 };

    /// FNV-1a over every request's arrival bits, endpoints and protection,
    /// in stream order.
    fn stream_digest(stream: &[TimedRequest]) -> u64 {
        stream.iter().fold(0xcbf2_9ce4_8422_2325, |h, tr| {
            let (q, p) = (tr.request.query, tr.request.protection);
            let words = [
                tr.arrival.to_bits(),
                u64::from(q.source.0),
                u64::from(q.destination.0),
                u64::from(p.f_s),
                u64::from(p.f_t),
            ];
            words.iter().fold(h, |h, w| {
                w.to_le_bytes()
                    .iter()
                    .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
            })
        })
    }

    /// The Poisson streams E12 and E16 draw (their workload and arrival
    /// configs over this module's map, at E12's full-scale horizon and
    /// E16's quick-scale one), and a plain `(3 /s, 60 s, seed 7)` stream,
    /// pinned by length and digest as the legacy stream drew them.
    #[test]
    fn poisson_process_reproduces_the_legacy_stream_draw_for_draw() {
        let hotspot =
            crate::QueryDistribution::Hotspot { hotspots: 3, exponent: 1.0, spread: 0.08 };
        let e12 = WorkloadConfig {
            num_requests: 0,
            queries: hotspot,
            protection: ProtectionDistribution::Fixed { f_s: 4, f_t: 4 },
            seed: 0xE12,
        };
        let e16 = WorkloadConfig {
            protection: ProtectionDistribution::Fixed { f_s: 3, f_t: 3 },
            seed: 0xE16,
            ..e12
        };
        let plain = WorkloadConfig { seed: 7, ..Default::default() };
        let (g, idx) = setup();
        let cases = [
            (
                e12,
                ArrivalConfig { rate_per_sec: 1.0, horizon_secs: 40.0 },
                40,
                0x6924_6b6a_e9cc_317a,
            ),
            (
                e16,
                ArrivalConfig { rate_per_sec: 8.0, horizon_secs: 24.0 },
                189,
                0xca69_c7aa_31b7_4030,
            ),
            (
                plain,
                ArrivalConfig { rate_per_sec: 3.0, horizon_secs: 60.0 },
                165,
                0xf77a_a1c8_8ade_c7ba,
            ),
        ];
        for (workload, arrivals, len, digest) in cases {
            let s = arrival_stream(&g, &idx, &workload, &arrivals, ArrivalProcess::Poisson);
            assert_eq!((s.len(), stream_digest(&s)), (len, digest), "{workload:?} {arrivals:?}");
        }
    }

    #[test]
    fn every_process_is_deterministic_per_seed_and_well_formed() {
        for process in [ArrivalProcess::Poisson, BURSTY, DIURNAL] {
            let a = process_stream(process, 4.0, 120.0, 11);
            let b = process_stream(process, 4.0, 120.0, 11);
            assert_eq!(a, b, "{process:?} not seed-deterministic");
            assert_ne!(a, process_stream(process, 4.0, 120.0, 12), "{process:?} ignores the seed");
            assert!(!a.is_empty(), "{process:?} produced nothing");
            for w in a.windows(2) {
                assert!(w[0].arrival < w[1].arrival, "{process:?} times not increasing");
            }
            assert!(a.last().unwrap().arrival < 120.0);
            for (i, tr) in a.iter().enumerate() {
                assert_eq!(tr.request.client, ClientId(i as u32), "{process:?} ids not dense");
            }
        }
    }

    /// Index of dispersion (variance/mean of per-second counts): 1 for
    /// Poisson, well above 1 for the burst-modulated process.
    fn dispersion(stream: &[TimedRequest], horizon: f64) -> f64 {
        let bins = horizon as usize;
        let mut counts = vec![0f64; bins];
        for tr in stream {
            counts[(tr.arrival as usize).min(bins - 1)] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / bins as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / bins as f64;
        var / mean
    }

    #[test]
    fn bursty_arrivals_are_overdispersed_relative_to_poisson() {
        let horizon = 400.0;
        let poisson =
            dispersion(&process_stream(ArrivalProcess::Poisson, 4.0, horizon, 21), horizon);
        let bursty = dispersion(&process_stream(BURSTY, 4.0, horizon, 21), horizon);
        assert!(
            bursty > poisson * 2.0,
            "bursty dispersion {bursty:.2} not clearly above poisson {poisson:.2}"
        );
    }

    #[test]
    fn diurnal_peaks_outdraw_troughs() {
        // Peak quarter of each 100 s cycle is around t ≡ 25, trough around 75.
        let s = process_stream(DIURNAL, 4.0, 500.0, 31);
        let (mut peak, mut trough) = (0usize, 0usize);
        for tr in &s {
            let phase = tr.arrival % 100.0;
            if (12.5..37.5).contains(&phase) {
                peak += 1;
            } else if (62.5..87.5).contains(&phase) {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > trough as f64 * 2.0,
            "peak {peak} vs trough {trough}: modulation too weak"
        );
    }

    #[test]
    fn arrival_process_round_trips_through_serde() {
        for process in [ArrivalProcess::Poisson, BURSTY, DIURNAL] {
            let json = serde_json::to_string(&process).unwrap();
            let back: ArrivalProcess = serde_json::from_str(&json).unwrap();
            assert_eq!(back, process, "{json}");
        }
    }

    #[test]
    fn protection_range_respected_in_stream() {
        let (g, idx) = setup();
        let s = arrival_stream(
            &g,
            &idx,
            &WorkloadConfig {
                protection: ProtectionDistribution::UniformRange { lo: 2, hi: 4 },
                seed: 5,
                ..Default::default()
            },
            &ArrivalConfig { rate_per_sec: 3.0, horizon_secs: 40.0 },
            ArrivalProcess::Poisson,
        );
        for tr in &s {
            assert!((2..=4).contains(&tr.request.protection.f_s));
            assert!((2..=4).contains(&tr.request.protection.f_t));
        }
    }
}
