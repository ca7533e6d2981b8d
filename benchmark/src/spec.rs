//! The four workloads, as data.
//!
//! Everything that decides *how much* work a run does is a constant here —
//! never a measurement taken during the run — so two runs of one seed, on
//! any host, at any commit, execute the same script.

use opaque::obfuscator::FakeSelection;
use opaque::{CachePolicy, PartitionPolicy, SearchHeuristic};
use pathsearch::SharingPolicy;
use roadnet::RoadNetwork;
use roadnet::generators::{
    ContinentConfig, GeometricConfig, GridConfig, continent_network, grid_network, random_geometric,
};
use workload::QueryDistribution;

/// Which generator makes the workload's map (the seed is the run's).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MapKind {
    /// `random_geometric` with this many nodes.
    Geometric { nodes: usize },
    /// `continent_network`: a 4×4 lattice of `province × province` street
    /// grids with sparse highways and weight factors in `[1, 3]`.
    Continent { province: usize },
    /// `grid_network`, `side × side`.
    Grid { side: usize },
}

impl MapKind {
    /// Generate the map for `seed`.
    pub fn generate(self, seed: u64) -> RoadNetwork {
        match self {
            MapKind::Geometric { nodes } => random_geometric(&GeometricConfig {
                num_nodes: nodes,
                seed,
                ..GeometricConfig::default()
            }),
            MapKind::Continent { province } => continent_network(&ContinentConfig {
                province_width: province,
                province_height: province,
                weight_factor: (1.0, 3.0),
                sea_gap: 20.0,
                seed,
                ..ContinentConfig::default()
            }),
            MapKind::Grid { side } => grid_network(&GridConfig {
                width: side,
                height: side,
                seed,
                ..GridConfig::default()
            }),
        }
        .expect("the fixed generator configs are valid")
    }
}

/// One workload: deployment shape, traffic, and the sizing constants.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line for the output header.
    pub about: &'static str,
    /// Map generator.
    pub map: MapKind,
    /// Trip distribution.
    pub trips: QueryDistribution,
    /// Protection `(f_S, f_T)` every request asks for.
    pub protection: (u32, u32),
    /// Fake-endpoint strategy.
    pub fakes: FakeSelection,
    /// MSMD sharing policy.
    pub sharing: SharingPolicy,
    /// Per-shard tree cache.
    pub cache: CachePolicy,
    /// Shard count.
    pub shards: usize,
    /// Shard placement.
    pub partition: PartitionPolicy,
    /// Goal direction.
    pub heuristic: SearchHeuristic,
    /// Requests per window (`BatchPolicy::max_batch`, so the size trigger
    /// flushes exactly one window per tick).
    pub window: usize,
    /// Apply one weight-update round after every this many windows.
    pub update_every: Option<usize>,
    /// Through real loopback sockets (`NetServer`) rather than in process.
    pub wire: bool,
    /// Timed windows per `--seconds` second. Pinned from this container's
    /// calibrated rate; sizes the script, never read back from a run.
    pub windows_per_second: f64,
    /// Warm-up windows run by every set-up (part of `setup_s`).
    pub warmup_windows: usize,
    /// Cold set-ups whose calibrated median is `setup_s`.
    pub setups: usize,
    /// Set-ups between two reference samples.
    pub setups_per_chunk: usize,
    /// Reference grid side (≥ 140; as many nodes as the map).
    pub ref_side: usize,
    /// Reference sweeps per sample (≥ 25 ms of work).
    pub ref_sweeps: usize,
    /// Landmark tables the reference's sweeps are guided by: the workload's
    /// own landmark count when it searches with ALT (so the reference reads
    /// a working set like the workload's, the same scattered way), else 0.
    pub ref_landmarks: usize,
    /// What one reference sample took on the container the baseline was
    /// recorded on. Changing it rescales every calibrated metric of the
    /// workload, so it changes only together with the committed baseline.
    pub ref_nominal_ms: f64,
}

impl WorkloadSpec {
    /// Windows between two reference samples: ≤ 0.4 s of measured work at
    /// the pinned rate.
    pub fn chunk_windows(&self) -> usize {
        ((0.4 * self.windows_per_second).floor() as usize).max(1)
    }
}

/// Fewest timed windows at full scale, so p95 keeps ≥10 samples beyond it
/// however short `--seconds` is.
pub const MIN_WINDOWS: usize = 200;

/// Edges re-weighted per churn round.
pub const UPDATES_PER_ROUND: usize = 8;

/// `BatchPolicy::max_delay` for every workload: the deadline trigger never
/// fires, windows flush on size alone.
pub const NEVER: f64 = 1.0e9;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "metro_uniform",
        about: "20 000-node geometric map, uniform trips, 3x3 ring fakes, PerSource, cache off, \
                1 shard, windows of 16, in process",
        map: MapKind::Geometric { nodes: 20_000 },
        trips: QueryDistribution::Uniform,
        protection: (3, 3),
        fakes: FakeSelection::Ring { lo: 0.3, hi: 1.2 },
        sharing: SharingPolicy::PerSource,
        cache: CachePolicy::Off,
        shards: 1,
        partition: PartitionPolicy::RoundRobin,
        heuristic: SearchHeuristic::None,
        window: 16,
        update_every: None,
        wire: false,
        windows_per_second: 13.5,
        warmup_windows: 1,
        setups: 7,
        setups_per_chunk: 1,
        ref_side: 142,
        ref_sweeps: 18,
        ref_landmarks: 0,
        ref_nominal_ms: 32.0,
    },
    WorkloadSpec {
        name: "metro_hotspot_churn",
        about: "same map, 4 hotspot destinations, 4x1 uniform fakes, Auto, Lru{64}, 2 region-owned \
                shards (halo 2), one weight-update round per 10 windows of 16, in process",
        map: MapKind::Geometric { nodes: 20_000 },
        trips: QueryDistribution::Hotspot { hotspots: 4, exponent: 1.0, spread: 0.003 },
        protection: (4, 1),
        fakes: FakeSelection::Uniform,
        sharing: SharingPolicy::Auto,
        cache: CachePolicy::Lru { trees: 64 },
        shards: 2,
        partition: PartitionPolicy::RegionOwned { halo: 2 },
        heuristic: SearchHeuristic::None,
        window: 16,
        update_every: Some(10),
        wire: false,
        windows_per_second: 66.0,
        warmup_windows: 2,
        setups: 7,
        setups_per_chunk: 1,
        ref_side: 142,
        ref_sweeps: 18,
        ref_landmarks: 0,
        ref_nominal_ms: 31.6,
    },
    WorkloadSpec {
        name: "continent_alt",
        about: "102 400-node continent, ALT with 16 landmarks, uniform trips, 3x3 ring fakes, \
                PerSource, cache off, 1 shard, windows of 2, in process",
        map: MapKind::Continent { province: 80 },
        trips: QueryDistribution::Uniform,
        protection: (3, 3),
        fakes: FakeSelection::Ring { lo: 0.3, hi: 1.2 },
        sharing: SharingPolicy::PerSource,
        cache: CachePolicy::Off,
        shards: 1,
        partition: PartitionPolicy::RoundRobin,
        heuristic: SearchHeuristic::Alt { landmarks: 16 },
        window: 2,
        update_every: None,
        wire: false,
        windows_per_second: 7.5,
        warmup_windows: 1,
        setups: 7,
        setups_per_chunk: 1,
        ref_side: 320,
        ref_sweeps: 2,
        ref_landmarks: 16,
        ref_nominal_ms: 67.5,
    },
    WorkloadSpec {
        name: "wire_bare",
        about: "100-node grid, 1x1 protection (no fakes), windows of 32 over loopback TCP \
                (NetServer::poll_once and one non-blocking client on one thread)",
        map: MapKind::Grid { side: 10 },
        trips: QueryDistribution::Uniform,
        protection: (1, 1),
        fakes: FakeSelection::Ring { lo: 0.3, hi: 1.2 },
        sharing: SharingPolicy::PerSource,
        cache: CachePolicy::Off,
        shards: 1,
        partition: PartitionPolicy::RoundRobin,
        heuristic: SearchHeuristic::None,
        window: 32,
        update_every: None,
        wire: true,
        windows_per_second: 2600.0,
        warmup_windows: 2,
        setups: 400,
        setups_per_chunk: 100,
        ref_side: 140,
        ref_sweeps: 18,
        ref_landmarks: 0,
        ref_nominal_ms: 31.5,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much of the script a run executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// `--seconds`: the timed window's nominal length.
    pub seconds: f64,
    /// `--quick`: smoke scale — one set-up, a floor of 4 windows. Labelled
    /// non-comparable in the output.
    pub quick: bool,
}

impl Scale {
    /// Timed windows in an untraced run.
    pub fn timed_windows(&self, spec: &WorkloadSpec) -> usize {
        let by_rate = (self.seconds * spec.windows_per_second).ceil() as usize;
        if self.quick { by_rate.max(4) } else { by_rate.max(MIN_WINDOWS) }
    }

    /// Timed windows in a traced run: the first quarter of the script.
    pub fn traced_windows(&self, spec: &WorkloadSpec) -> usize {
        (self.timed_windows(spec) / 4).max(2)
    }

    /// Cold set-ups behind `setup_s`.
    pub fn setups(&self, spec: &WorkloadSpec) -> usize {
        if self.quick { 1 } else { spec.setups }
    }
}
