//! Scenario-sweep definitions: the matrix, its cells, and the report.
//!
//! The paper's contribution is comparative — a migration policy is only
//! good or bad *against* the alternatives, on a workload, at a scale,
//! under a cache budget. [`SweepConfig`] declares that comparison as a
//! matrix (policy × workload preset × scale × cache size); the runner
//! (see [`crate::runner`]) expands it into independent cells, executes
//! them on a deterministic worker pool, and folds the results into a
//! [`SweepReport`] with per-shard paper deltas and per-group winner
//! tables.
//!
//! # Determinism
//!
//! Every randomized stage of a cell derives its seed from the sweep's
//! `base_seed` and the cell's *coordinates* (never from scheduling
//! order), so a sweep produces byte-identical reports at any worker
//! count. Cells that share a (preset, scale) coordinate deliberately
//! share one generated trace — policies must be judged on the same
//! request stream — while distinct coordinates get distinct RNG streams
//! for both the generator and the device simulator (threaded through
//! [`WorkloadConfig::seed`] and [`fmig_sim::SimConfig::with_seed`]).

use fmig_analysis::{render_paper_rows, Comparison};
use fmig_migrate::eval::LatencyOutcome;
use fmig_migrate::policy::{
    Belady, Fifo, LargestFirst, Lru, LruMad, MigrationPolicy, RandomEvict, Saac, SmallestFirst,
    Stp, StpLat,
};
use fmig_sim::fault::{FaultPlan, FaultTarget, OutageClause, SlowDriveClause};
use fmig_workload::WorkloadConfig;
use serde::{Deserialize, Serialize};

/// A migration policy the sweep can instantiate, identified by a stable
/// name that survives JSON round-trips and CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyId {
    /// Smith's space-time product, exponent 1.4 (his best).
    Stp14,
    /// Space-time product, exponent 1.0 (pure size × age).
    Stp10,
    /// Space-time product, exponent 2.0 (age-heavy).
    Stp20,
    /// Least recently used.
    Lru,
    /// First in, first out.
    Fifo,
    /// Largest file first (Lawrie's "length" criterion).
    LargestFirst,
    /// Smallest file first.
    SmallestFirst,
    /// Lawrie's space-age-activity criterion.
    Saac,
    /// Salted random eviction (baseline).
    Random,
    /// Belady's clairvoyant bound.
    Belady,
    /// Latency-aware LRU: minimise aggregate delay (delayed-hits model).
    LruMad,
    /// Latency-aware space-time product: recall wait folded into STP(1.4).
    StpLat,
}

impl PolicyId {
    /// Every policy, in report order.
    pub const ALL: [PolicyId; 12] = [
        PolicyId::Stp14,
        PolicyId::Stp10,
        PolicyId::Stp20,
        PolicyId::Lru,
        PolicyId::Fifo,
        PolicyId::LargestFirst,
        PolicyId::SmallestFirst,
        PolicyId::Saac,
        PolicyId::Random,
        PolicyId::Belady,
        PolicyId::LruMad,
        PolicyId::StpLat,
    ];

    /// The stable identifier used in JSON reports and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyId::Stp14 => "stp1.4",
            PolicyId::Stp10 => "stp1.0",
            PolicyId::Stp20 => "stp2.0",
            PolicyId::Lru => "lru",
            PolicyId::Fifo => "fifo",
            PolicyId::LargestFirst => "largest",
            PolicyId::SmallestFirst => "smallest",
            PolicyId::Saac => "saac",
            PolicyId::Random => "random",
            PolicyId::Belady => "belady",
            PolicyId::LruMad => "lru-mad",
            PolicyId::StpLat => "stp-lat",
        }
    }

    /// Parses a stable identifier back to the policy.
    pub fn parse(s: &str) -> Option<PolicyId> {
        PolicyId::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn MigrationPolicy> {
        match self {
            PolicyId::Stp14 => Box::new(Stp::classic()),
            PolicyId::Stp10 => Box::new(Stp { exponent: 1.0 }),
            PolicyId::Stp20 => Box::new(Stp { exponent: 2.0 }),
            PolicyId::Lru => Box::new(Lru),
            PolicyId::Fifo => Box::new(Fifo),
            PolicyId::LargestFirst => Box::new(LargestFirst),
            PolicyId::SmallestFirst => Box::new(SmallestFirst),
            PolicyId::Saac => Box::new(Saac),
            PolicyId::Random => Box::new(RandomEvict { salt: 0xA5A5 }),
            PolicyId::Belady => Box::new(Belady),
            PolicyId::LruMad => Box::new(LruMad::classic()),
            PolicyId::StpLat => Box::new(StpLat::classic()),
        }
    }

    /// Whether the policy reads the miss-latency feedback channel.
    ///
    /// Latency-aware cells diverge between open-loop and closed-loop
    /// evaluation: the closed loop feeds them live recall-wait EWMAs
    /// while the open loop offers just the `wait_s_per_miss` constant,
    /// so their victim choices — and hence miss ratios — may differ.
    pub fn latency_aware(&self) -> bool {
        self.build().latency_aware()
    }
}

/// A named workload shape: the NCAR calibration with a documented twist.
///
/// Presets vary the generator knobs that change migration *behaviour*
/// (re-read intensity, creation-write share, archive coldness); `scale`
/// stays a separate matrix axis so any preset can run from smoke-test to
/// full-trace volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PresetId {
    /// The paper's calibrated defaults.
    Ncar,
    /// Re-read heavy: higher echo probability and steeper read growth —
    /// the workload migration likes best.
    ReadHot,
    /// Write dominated: most datasets are created inside the window and
    /// echoes are rare, stressing write-behind and placement.
    WriteHeavy,
    /// Archive dominated: most datasets predate the window and residency
    /// clocks are short, stressing shelf restaging.
    Archival,
    /// A real trace imported into the columnar replay store
    /// (`fmig_trace::ingest::store`) rather than generated. The shard's
    /// workload comes from [`SweepConfig::trace_store`], so this preset
    /// has no generator configuration and never appears in
    /// [`PresetId::ALL`].
    Imported,
}

impl PresetId {
    /// Every *generator* preset, in report order. [`PresetId::Imported`]
    /// is deliberately absent: it describes an external trace, not a
    /// generator configuration, so matrix helpers that instantiate
    /// workloads can iterate `ALL` safely.
    pub const ALL: [PresetId; 4] = [
        PresetId::Ncar,
        PresetId::ReadHot,
        PresetId::WriteHeavy,
        PresetId::Archival,
    ];

    /// The stable identifier used in JSON reports and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            PresetId::Ncar => "ncar",
            PresetId::ReadHot => "read-hot",
            PresetId::WriteHeavy => "write-heavy",
            PresetId::Archival => "archival",
            PresetId::Imported => "imported",
        }
    }

    /// Parses a stable identifier back to the preset.
    pub fn parse(s: &str) -> Option<PresetId> {
        if s == PresetId::Imported.name() {
            return Some(PresetId::Imported);
        }
        PresetId::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The generator configuration for this preset at a scale and seed.
    ///
    /// # Panics
    ///
    /// Panics for [`PresetId::Imported`], which replays a stored trace
    /// instead of generating one — the runner routes it to the columnar
    /// store before ever asking for a generator.
    pub fn workload(&self, scale: f64, seed: u64) -> WorkloadConfig {
        assert!(
            *self != PresetId::Imported,
            "the `imported` preset replays a trace store and has no generator config"
        );
        let base = WorkloadConfig {
            scale,
            seed,
            ..WorkloadConfig::default()
        };
        match self {
            PresetId::Ncar => base,
            PresetId::ReadHot => WorkloadConfig {
                echo_probability: 0.40,
                read_growth: 3.0,
                ..base
            },
            PresetId::WriteHeavy => WorkloadConfig {
                pre_trace_fraction: 0.08,
                echo_probability: 0.12,
                ..base
            },
            PresetId::Archival => WorkloadConfig {
                pre_trace_fraction: 0.55,
                disk_residency_days: 30.0,
                silo_residency_days: 45.0,
                ..base
            },
            PresetId::Imported => unreachable!("rejected above"),
        }
    }
}

/// A named degraded-mode scenario for the fault axis: a stable
/// identifier (JSON / CLI) mapping to a concrete [`FaultPlan`].
///
/// Scenarios are *descriptions*; the concrete outage windows and
/// read-error decisions derive from each cell's seed, so the same
/// matrix always degrades the same way. `None` is the healthy system —
/// a matrix whose fault axis is `[None]` (the default) produces
/// byte-identical reports to the pre-fault engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScenarioId {
    /// No faults: the healthy hierarchy.
    None,
    /// Media read errors on recalls with bounded retry — the classic
    /// "dirty heads" week.
    FlakyReads,
    /// Drive failures with multi-hour repair windows on both tape
    /// tiers.
    DriveCrunch,
    /// Mounter outages: operator shifts go unstaffed, the robot arm
    /// sees occasional maintenance.
    OperatorStrike,
    /// The compound worst case: read errors, silo drive failures, and
    /// slow-drive degradation windows at once.
    DegradedPeak,
}

impl FaultScenarioId {
    /// Every scenario, in report order.
    pub const ALL: [FaultScenarioId; 5] = [
        FaultScenarioId::None,
        FaultScenarioId::FlakyReads,
        FaultScenarioId::DriveCrunch,
        FaultScenarioId::OperatorStrike,
        FaultScenarioId::DegradedPeak,
    ];

    /// The stable identifier used in JSON reports and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            FaultScenarioId::None => "none",
            FaultScenarioId::FlakyReads => "flaky-reads",
            FaultScenarioId::DriveCrunch => "drive-crunch",
            FaultScenarioId::OperatorStrike => "operator-strike",
            FaultScenarioId::DegradedPeak => "degraded-peak",
        }
    }

    /// Parses a stable identifier back to the scenario.
    pub fn parse(s: &str) -> Option<FaultScenarioId> {
        FaultScenarioId::ALL.into_iter().find(|f| f.name() == s)
    }

    /// The fault plan this scenario injects.
    pub fn plan(&self) -> FaultPlan {
        let outage = |target, mean_up_s, down_s| OutageClause {
            target,
            mean_up_s,
            down_s,
            jitter: 0.3,
        };
        match self {
            FaultScenarioId::None => FaultPlan::none(),
            FaultScenarioId::FlakyReads => FaultPlan {
                read_error_prob: 0.12,
                max_read_retries: 3,
                retry_backoff_s: 60.0,
                ..FaultPlan::none()
            },
            FaultScenarioId::DriveCrunch => FaultPlan {
                outages: vec![
                    outage(FaultTarget::SiloDrive, 6.0 * 3600.0, 2_700.0),
                    outage(FaultTarget::ManualDrive, 12.0 * 3600.0, 7_200.0),
                ],
                ..FaultPlan::none()
            },
            FaultScenarioId::OperatorStrike => FaultPlan {
                outages: vec![
                    outage(FaultTarget::Operator, 8.0 * 3600.0, 4.0 * 3600.0),
                    outage(FaultTarget::RobotArm, 24.0 * 3600.0, 1_800.0),
                ],
                ..FaultPlan::none()
            },
            FaultScenarioId::DegradedPeak => FaultPlan {
                outages: vec![outage(FaultTarget::SiloDrive, 8.0 * 3600.0, 3_600.0)],
                read_error_prob: 0.08,
                max_read_retries: 2,
                retry_backoff_s: 45.0,
                slow_drive: Some(SlowDriveClause {
                    rate_factor: 0.5,
                    mean_up_s: 4.0 * 3600.0,
                    down_s: 1.5 * 3600.0,
                }),
            },
        }
    }
}

/// The scenario matrix: every combination of the five axes is one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Policies to compare (axis 1).
    pub policies: Vec<PolicyId>,
    /// Workload presets (axis 2).
    pub presets: Vec<PresetId>,
    /// Workload scales (axis 3).
    pub scales: Vec<f64>,
    /// Staging-disk capacities as fractions of each cell's referenced
    /// bytes (axis 4). The paper's predecessors operated near 0.015.
    pub cache_fractions: Vec<f64>,
    /// Root seed; per-shard generator and simulator seeds derive from it.
    pub base_seed: u64,
    /// Run the device simulation per shard (adds latency aggregates).
    pub simulate_devices: bool,
    /// Latency-true (closed-loop) evaluation: every cell replays its
    /// policy through the hierarchy engine, so cell results carry
    /// measured first-byte wait distributions and person-minutes derive
    /// from measured miss waits instead of the open-loop constant. For
    /// latency-blind policies the miss ratios are identical to open-loop
    /// mode by construction; latency-aware policies (those whose
    /// [`fmig_migrate::MigrationPolicy::latency_aware`] returns `true`)
    /// see the engine's live recall-wait feedback and may evict
    /// differently than the open-loop replay, which only offers them the
    /// `wait_s_per_miss` constant. The cost is one device simulation per
    /// cell instead of one per shard.
    pub latency: bool,
    /// Fault-scenario axis (axis 5). Every scenario expands the matrix
    /// like any other axis; non-`None` scenarios are inherently
    /// closed-loop (the faults live in the device model), so their
    /// cells run the hierarchy engine even when `latency` is off, and
    /// their results carry degraded-mode metrics. `[None]` — the
    /// default — reproduces the pre-fault report byte for byte. An
    /// empty vector behaves as `[None]`.
    pub faults: Vec<FaultScenarioId>,
    /// Worker threads; 0 means one per available CPU, capped at each
    /// phase's task count (shards during preparation, cell units during
    /// execution). Any value produces the identical report.
    pub workers: usize,
    /// Columnar replay-store directory backing [`PresetId::Imported`]
    /// shards (see `fmig_trace::ingest::store`). Must be `Some` whenever
    /// the preset axis contains `Imported`, and shows up in the report
    /// JSON as a `"trace"` config key only then — generated matrices
    /// keep the pre-ingestion schema byte for byte. Imported shards
    /// replay the store in streaming chunks, so even multi-GB traces
    /// never materialize in memory; `latency` and the fault axis apply
    /// to them as to generated shards (closed-loop cells keep
    /// per-reference state).
    pub trace_store: Option<String>,
}

impl SweepConfig {
    /// The smoke-test matrix: five policies (including both
    /// latency-aware entrants) on the NCAR preset at a tiny scale,
    /// one cache point, healthy plus one compound fault scenario —
    /// 10 cells, 1 shard.
    pub fn tiny() -> Self {
        SweepConfig {
            policies: vec![
                PolicyId::Stp14,
                PolicyId::Lru,
                PolicyId::Belady,
                PolicyId::LruMad,
                PolicyId::StpLat,
            ],
            presets: vec![PresetId::Ncar],
            scales: vec![0.002],
            cache_fractions: vec![0.015],
            base_seed: 0x5357_4545, // "SWEE"
            simulate_devices: true,
            latency: false,
            faults: vec![FaultScenarioId::None, FaultScenarioId::DegradedPeak],
            workers: 0,
            trace_store: None,
        }
    }

    /// A comparative matrix that still runs in seconds: five policies ×
    /// two presets × two scales × two cache sizes — 40 cells, 4 shards.
    pub fn small() -> Self {
        SweepConfig {
            policies: vec![
                PolicyId::Stp14,
                PolicyId::Lru,
                PolicyId::Fifo,
                PolicyId::Saac,
                PolicyId::Belady,
            ],
            presets: vec![PresetId::Ncar, PresetId::ReadHot],
            scales: vec![0.002, 0.004],
            cache_fractions: vec![0.005, 0.015],
            base_seed: 0x5357_4545,
            simulate_devices: true,
            latency: false,
            faults: vec![FaultScenarioId::None],
            workers: 0,
            trace_store: None,
        }
    }

    /// The scaling matrix: one policy, one open-loop cell, at a scale
    /// that interns ~1 million distinct files (≈1.1× the paper's 900 k
    /// store, ~4 M raw references). Devices and latency are off — the
    /// point of this preset is the replay hot path itself: it must
    /// complete a single-policy open-loop sweep cell under bounded
    /// memory, which the dense-id arenas make a matter of one
    /// `Vec<PreparedRef>` plus flat per-file state.
    pub fn large() -> Self {
        SweepConfig {
            policies: vec![PolicyId::Lru],
            presets: vec![PresetId::Ncar],
            scales: vec![1.1],
            cache_fractions: vec![0.015],
            base_seed: 0x5357_4545,
            simulate_devices: false,
            latency: false,
            faults: vec![FaultScenarioId::None],
            workers: 0,
            trace_store: None,
        }
    }

    /// [`SweepConfig::large`] pushed to ~4× the paper's store (~3.6 M
    /// distinct files): a headroom check that the `u32` id space and
    /// the arena layout keep scaling past anything the trace needs.
    pub fn huge() -> Self {
        SweepConfig {
            scales: vec![4.0],
            ..Self::large()
        }
    }

    /// A matrix over one imported trace store: the five comparison
    /// policies at the classic cache fractions, open-loop until
    /// `latency` or `faults` say otherwise. Imported shards carry no
    /// generator scale — the axis is pinned to `1.0` so seed derivation
    /// and report keys stay well-defined.
    pub fn imported(store_dir: &str) -> Self {
        SweepConfig {
            policies: vec![
                PolicyId::Stp14,
                PolicyId::Lru,
                PolicyId::Fifo,
                PolicyId::Saac,
                PolicyId::Belady,
            ],
            presets: vec![PresetId::Imported],
            scales: vec![1.0],
            cache_fractions: vec![0.005, 0.015, 0.05],
            base_seed: 0x5357_4545,
            simulate_devices: false,
            latency: false,
            faults: vec![FaultScenarioId::None],
            workers: 0,
            trace_store: Some(store_dir.to_string()),
        }
    }

    /// The fault axis with the empty-vector fallback applied.
    pub fn fault_axis(&self) -> Vec<FaultScenarioId> {
        if self.faults.is_empty() {
            vec![FaultScenarioId::None]
        } else {
            self.faults.clone()
        }
    }

    /// Number of scenario cells the matrix expands to.
    pub fn cell_count(&self) -> usize {
        self.policies.len()
            * self.presets.len()
            * self.scales.len()
            * self.cache_fractions.len()
            * self.fault_axis().len()
    }

    /// Number of trace shards (distinct preset × scale coordinates); each
    /// shard generates and simulates one trace shared by its cells.
    pub fn shard_count(&self) -> usize {
        self.presets.len() * self.scales.len()
    }

    /// The generator seed for shard `(preset_idx, scale_idx)`.
    ///
    /// Derived from coordinates, not from execution order, so any worker
    /// can run any shard and the stream is still the cell's own.
    pub fn workload_seed(&self, preset_idx: usize, scale_idx: usize) -> u64 {
        mix(
            mix(mix(self.base_seed, 0x574B_4C44), preset_idx as u64),
            scale_idx as u64,
        )
    }

    /// The simulator seed for shard `(preset_idx, scale_idx)`; distinct
    /// from the generator seed so the two stages never share a stream.
    pub fn sim_seed(&self, preset_idx: usize, scale_idx: usize) -> u64 {
        mix(self.workload_seed(preset_idx, scale_idx), 0x5349_4D21)
    }

    /// The closed-loop hierarchy-engine seed for one latency cell.
    ///
    /// Latency mode runs one device simulation per (policy, cache
    /// fraction) cell, so every cell needs its own stream — derived from
    /// the cell's *coordinates*, never from scheduling order, like every
    /// other sweep seed.
    pub fn cell_sim_seed(
        &self,
        preset_idx: usize,
        scale_idx: usize,
        cache_idx: usize,
        policy_idx: usize,
    ) -> u64 {
        mix(
            mix(
                mix(self.sim_seed(preset_idx, scale_idx), 0x4C41_5443), // "LATC"
                cache_idx as u64,
            ),
            policy_idx as u64,
        )
    }

    /// The hierarchy-engine seed for one cell of the fault axis.
    ///
    /// The healthy scenario (`None`) keeps the pre-fault
    /// [`SweepConfig::cell_sim_seed`] untouched — that is what makes a
    /// `[None]` axis byte-identical to the old engine — while every
    /// fault scenario derives a distinct stream from the same
    /// coordinates plus its *position* on the axis, so its outage
    /// windows and device noise decorrelate from the healthy twin and
    /// from each other.
    pub fn cell_fault_seed(
        &self,
        preset_idx: usize,
        scale_idx: usize,
        cache_idx: usize,
        policy_idx: usize,
        fault_idx: usize,
        scenario: FaultScenarioId,
    ) -> u64 {
        let base = self.cell_sim_seed(preset_idx, scale_idx, cache_idx, policy_idx);
        if scenario == FaultScenarioId::None {
            base
        } else {
            mix(base, 0x4641_554C + fault_idx as u64) // "FAUL"
        }
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self::small()
    }
}

// The workspace's one splitmix64 seed-derivation mixer, shared with
// the fault schedule so every derived stream has a single definition.
use fmig_sim::fault::seed_mix as mix;

/// One cell's outcome: a policy under a cache budget on a shard's trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The policy evaluated.
    pub policy: PolicyId,
    /// The fault scenario this cell degraded under (`None` = healthy).
    pub fault: FaultScenarioId,
    /// The cache axis value (fraction of referenced bytes).
    pub cache_fraction: f64,
    /// The resolved staging-disk capacity in bytes.
    pub capacity_bytes: u64,
    /// Read miss ratio by references.
    pub miss_ratio: f64,
    /// Read miss ratio by bytes.
    pub byte_miss_ratio: f64,
    /// §2.3 person-minutes lost per day. In latency mode this derives
    /// from the cell's measured mean miss wait; open-loop cells charge
    /// the configured constant.
    pub person_minutes_per_day: f64,
    /// Measured first-byte wait distributions from the closed-loop run;
    /// `None` for open-loop cells.
    pub latency: Option<LatencyOutcome>,
}

/// Everything measured on one trace shard (a preset × scale coordinate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Workload preset.
    pub preset: PresetId,
    /// Workload scale.
    pub scale: f64,
    /// Seed the generator ran with.
    pub workload_seed: u64,
    /// Seed the device simulator ran with.
    pub sim_seed: u64,
    /// Trace records generated (including errors).
    pub records: u64,
    /// Files in the generated population.
    pub files: u64,
    /// Bytes referenced by the population, in GB.
    pub referenced_gb: f64,
    /// Read share of successful references.
    pub read_share: f64,
    /// Mean simulated read startup latency in seconds (0 when the device
    /// simulation is off).
    pub mean_read_latency_s: f64,
    /// Mean simulated write startup latency in seconds.
    pub mean_write_latency_s: f64,
    /// Published-vs-measured rows for the shape claims the sweep tracks.
    /// Populated only for the NCAR-calibrated preset; the other presets
    /// deviate from the paper's knobs by design, so a delta there would
    /// be noise dressed up as a fidelity check.
    pub paper_deltas: Vec<Comparison>,
    /// One result per (fault, cache fraction, policy) cell, in matrix
    /// order (fault-scenario major, then cache fraction, then policy).
    pub cells: Vec<CellResult>,
}

/// The winning policy of one (preset, scale, cache) group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Winner {
    /// Workload preset.
    pub preset: PresetId,
    /// Workload scale.
    pub scale: f64,
    /// Cache fraction.
    pub cache_fraction: f64,
    /// Best policy by read miss ratio.
    pub by_miss_ratio: PolicyId,
    /// Best policy by person-minutes per day.
    pub by_person_minutes: PolicyId,
    /// Best *practical* policy by miss ratio (Belady excluded), when the
    /// group contains a practical policy.
    pub practical: Option<PolicyId>,
    /// Best policy by mean first-byte read wait; latency mode only.
    pub by_mean_wait: Option<PolicyId>,
    /// Best policy by p99 first-byte read wait; latency mode only.
    pub by_p99_wait: Option<PolicyId>,
    /// Most *robust* policy: the one whose worst-case p99 read wait
    /// across the group's fault scenarios is lowest. `None` when the
    /// matrix carries no fault scenarios — policies are then never
    /// ranked by a world they were not run in.
    pub by_degraded_p99: Option<PolicyId>,
}

/// The comparative output of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Root seed the sweep derived every cell seed from.
    pub base_seed: u64,
    /// Whether shards ran the device simulation.
    pub simulated_devices: bool,
    /// Whether cells ran latency-true (closed-loop) evaluation.
    pub latency_mode: bool,
    /// The columnar replay store the matrix drew imported shards from;
    /// `None` for purely generated matrices, which keep the
    /// pre-ingestion JSON schema byte for byte.
    pub trace_store: Option<String>,
    /// The fault axis the matrix expanded over. A `[None]` axis keeps
    /// every fault-related field out of the JSON entirely, making the
    /// healthy report byte-identical to the pre-fault schema.
    pub fault_scenarios: Vec<FaultScenarioId>,
    /// One report per trace shard, in matrix order (preset major).
    pub shards: Vec<ShardReport>,
    /// One winner row per (preset, scale, cache) group.
    pub winners: Vec<Winner>,
}

impl SweepReport {
    /// True when the matrix degraded at least one scenario — the switch
    /// for every fault-related JSON field and text column.
    pub fn fault_mode(&self) -> bool {
        self.fault_scenarios
            .iter()
            .any(|f| *f != FaultScenarioId::None)
    }
    /// Fills the winner table from the shard cells. Ties go to the first
    /// policy in the shard's cell order, which is the matrix order —
    /// deterministic by construction.
    ///
    /// The classic columns rank the *healthy* cells (fault `None`);
    /// when the matrix has no healthy scenario they fall back to the
    /// first scenario on the axis. `by_degraded_p99` ranks robustness:
    /// each policy is scored by its worst p99 read wait across the
    /// group's fault scenarios, lowest worst-case wins.
    pub(crate) fn compute_winners(&mut self) {
        self.winners.clear();
        let healthy = if self.fault_scenarios.contains(&FaultScenarioId::None) {
            FaultScenarioId::None
        } else {
            *self
                .fault_scenarios
                .first()
                .unwrap_or(&FaultScenarioId::None)
        };
        for shard in &self.shards {
            let mut fractions: Vec<f64> = Vec::new();
            for cell in &shard.cells {
                if !fractions.contains(&cell.cache_fraction) {
                    fractions.push(cell.cache_fraction);
                }
            }
            for frac in fractions {
                let group: Vec<&CellResult> = shard
                    .cells
                    .iter()
                    .filter(|c| c.cache_fraction == frac && c.fault == healthy)
                    .collect();
                let best = |key: fn(&CellResult) -> f64| {
                    group
                        .iter()
                        .fold(None::<&&CellResult>, |acc, c| match acc {
                            Some(a) if key(a) <= key(c) => Some(a),
                            _ => Some(c),
                        })
                        .expect("non-empty winner group")
                        .policy
                };
                let practical = group
                    .iter()
                    .filter(|c| c.policy != PolicyId::Belady)
                    .fold(None::<&&CellResult>, |acc, c| match acc {
                        Some(a) if a.miss_ratio <= c.miss_ratio => Some(a),
                        _ => Some(c),
                    })
                    .map(|c| c.policy);
                // Latency columns exist only when every cell in the
                // group carries a closed-loop measurement.
                let best_wait = |key: fn(&LatencyOutcome) -> f64| -> Option<PolicyId> {
                    if !group.iter().all(|c| c.latency.is_some()) {
                        return None;
                    }
                    group
                        .iter()
                        .fold(None::<&&CellResult>, |acc, c| match acc {
                            Some(a)
                                if key(&a.latency.expect("checked above"))
                                    <= key(&c.latency.expect("checked above")) =>
                            {
                                Some(a)
                            }
                            _ => Some(c),
                        })
                        .map(|c| c.policy)
                };
                // Robustness column: worst-case p99 across the group's
                // fault scenarios, per policy, in matrix policy order.
                let fault_cells: Vec<&CellResult> = shard
                    .cells
                    .iter()
                    .filter(|c| {
                        c.cache_fraction == frac
                            && c.fault != FaultScenarioId::None
                            && c.latency.is_some()
                    })
                    .collect();
                let mut by_degraded_p99: Option<(PolicyId, f64)> = None;
                let mut scored: Vec<PolicyId> = Vec::new();
                for cell in &fault_cells {
                    if scored.contains(&cell.policy) {
                        continue;
                    }
                    scored.push(cell.policy);
                    let worst = fault_cells
                        .iter()
                        .filter(|c| c.policy == cell.policy)
                        .map(|c| c.latency.expect("filtered above").p99_read_wait_s)
                        .fold(f64::NEG_INFINITY, f64::max);
                    match by_degraded_p99 {
                        Some((_, best_worst)) if best_worst <= worst => {}
                        _ => by_degraded_p99 = Some((cell.policy, worst)),
                    }
                }
                self.winners.push(Winner {
                    preset: shard.preset,
                    scale: shard.scale,
                    cache_fraction: frac,
                    by_miss_ratio: best(|c| c.miss_ratio),
                    by_person_minutes: best(|c| c.person_minutes_per_day),
                    practical,
                    by_mean_wait: best_wait(|l| l.mean_read_wait_s),
                    by_p99_wait: best_wait(|l| l.p99_read_wait_s),
                    by_degraded_p99: by_degraded_p99.map(|(p, _)| p),
                });
            }
        }
    }

    /// Serializes the report as deterministic JSON: fixed key order,
    /// shortest-round-trip float formatting, no timing or host data. Two
    /// runs of the same matrix — at any worker count — produce identical
    /// bytes, which is what the golden fixtures and the determinism tests
    /// key on.
    pub fn to_json(&self) -> String {
        let fault_mode = self.fault_mode();
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"base_seed\": ");
        out.push_str(&self.base_seed.to_string());
        out.push_str(",\n  \"simulated_devices\": ");
        out.push_str(if self.simulated_devices {
            "true"
        } else {
            "false"
        });
        out.push_str(",\n  \"latency_mode\": ");
        out.push_str(if self.latency_mode { "true" } else { "false" });
        // Like the fault keys below, the trace key exists only when the
        // matrix actually imported something.
        if let Some(store) = &self.trace_store {
            out.push_str(",\n  \"trace\": ");
            json_str(&mut out, store);
        }
        // Every fault-related key is conditional on the matrix actually
        // degrading something: a [None] axis reproduces the pre-fault
        // schema byte for byte.
        if fault_mode {
            out.push_str(",\n  \"fault_scenarios\": [");
            for (i, f) in self.fault_scenarios.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json_str(&mut out, f.name());
            }
            out.push(']');
        }
        out.push_str(",\n  \"shards\": [");
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            shard_json(&mut out, shard, fault_mode);
        }
        out.push_str("\n  ],\n  \"winners\": [");
        for (i, w) in self.winners.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"preset\": ");
            json_str(&mut out, w.preset.name());
            out.push_str(", \"scale\": ");
            json_f64(&mut out, w.scale);
            out.push_str(", \"cache_fraction\": ");
            json_f64(&mut out, w.cache_fraction);
            out.push_str(", \"by_miss_ratio\": ");
            json_str(&mut out, w.by_miss_ratio.name());
            out.push_str(", \"by_person_minutes\": ");
            json_str(&mut out, w.by_person_minutes.name());
            out.push_str(", \"practical\": ");
            match w.practical {
                Some(p) => json_str(&mut out, p.name()),
                None => out.push_str("null"),
            }
            out.push_str(", \"by_mean_wait\": ");
            match w.by_mean_wait {
                Some(p) => json_str(&mut out, p.name()),
                None => out.push_str("null"),
            }
            out.push_str(", \"by_p99_wait\": ");
            match w.by_p99_wait {
                Some(p) => json_str(&mut out, p.name()),
                None => out.push_str("null"),
            }
            if fault_mode {
                out.push_str(", \"by_degraded_p99\": ");
                match w.by_degraded_p99 {
                    Some(p) => json_str(&mut out, p.name()),
                    None => out.push_str("null"),
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the winner table and per-shard summaries as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for shard in &self.shards {
            out.push_str(&format!(
                "shard {}/{:<6} {} records, {} files, {:.2} GB referenced, read share {:.1}%\n",
                shard.preset.name(),
                shard.scale,
                shard.records,
                shard.files,
                shard.referenced_gb,
                shard.read_share * 100.0,
            ));
            out.push_str(&render_paper_rows(&shard.paper_deltas));
            for cell in &shard.cells {
                out.push_str(&format!(
                    "  cache {:>5.2}% {:<9} miss {:>6.2}% byte-miss {:>6.2}% person-min/day {:>10.1}",
                    cell.cache_fraction * 100.0,
                    cell.policy.name(),
                    cell.miss_ratio * 100.0,
                    cell.byte_miss_ratio * 100.0,
                    cell.person_minutes_per_day,
                ));
                if let Some(l) = &cell.latency {
                    out.push_str(&format!(
                        " wait mean {:>6.1}s p99 {:>6.1}s coalesced {}",
                        l.mean_read_wait_s, l.p99_read_wait_s, l.delayed_hits,
                    ));
                    if let Some(d) = &l.degraded {
                        out.push_str(&format!(
                            " [{}: retries {} outages {} outage-wait {:.0}s]",
                            cell.fault.name(),
                            d.read_retries,
                            d.outage_events,
                            d.outage_wait_s,
                        ));
                    }
                }
                out.push('\n');
            }
        }
        out.push_str("winners:\n");
        for w in &self.winners {
            out.push_str(&format!(
                "  {}/{} @ cache {:.2}%: miss-ratio {} | person-minutes {} | practical {}",
                w.preset.name(),
                w.scale,
                w.cache_fraction * 100.0,
                w.by_miss_ratio.name(),
                w.by_person_minutes.name(),
                w.practical.map_or("-", |p| p.name()),
            ));
            if let (Some(mean), Some(p99)) = (w.by_mean_wait, w.by_p99_wait) {
                out.push_str(&format!(
                    " | mean-wait {} | p99-wait {}",
                    mean.name(),
                    p99.name()
                ));
            }
            if let Some(p) = w.by_degraded_p99 {
                out.push_str(&format!(" | degraded-p99 {}", p.name()));
            }
            out.push('\n');
        }
        out
    }
}

fn shard_json(out: &mut String, s: &ShardReport, fault_mode: bool) {
    out.push_str("{\"preset\": ");
    json_str(out, s.preset.name());
    out.push_str(", \"scale\": ");
    json_f64(out, s.scale);
    out.push_str(", \"workload_seed\": ");
    out.push_str(&s.workload_seed.to_string());
    out.push_str(", \"sim_seed\": ");
    out.push_str(&s.sim_seed.to_string());
    out.push_str(", \"records\": ");
    out.push_str(&s.records.to_string());
    out.push_str(", \"files\": ");
    out.push_str(&s.files.to_string());
    out.push_str(", \"referenced_gb\": ");
    json_f64(out, s.referenced_gb);
    out.push_str(", \"read_share\": ");
    json_f64(out, s.read_share);
    out.push_str(", \"mean_read_latency_s\": ");
    json_f64(out, s.mean_read_latency_s);
    out.push_str(", \"mean_write_latency_s\": ");
    json_f64(out, s.mean_write_latency_s);
    out.push_str(", \"paper_deltas\": [");
    for (i, d) in s.paper_deltas.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"metric\": ");
        json_str(out, &d.metric);
        out.push_str(", \"paper\": ");
        json_f64(out, d.paper);
        out.push_str(", \"measured\": ");
        json_f64(out, d.measured);
        out.push('}');
    }
    out.push_str("], \"cells\": [");
    for (i, c) in s.cells.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"policy\": ");
        json_str(out, c.policy.name());
        if fault_mode {
            out.push_str(", \"fault\": ");
            json_str(out, c.fault.name());
        }
        out.push_str(", \"cache_fraction\": ");
        json_f64(out, c.cache_fraction);
        out.push_str(", \"capacity_bytes\": ");
        out.push_str(&c.capacity_bytes.to_string());
        out.push_str(", \"miss_ratio\": ");
        json_f64(out, c.miss_ratio);
        out.push_str(", \"byte_miss_ratio\": ");
        json_f64(out, c.byte_miss_ratio);
        out.push_str(", \"person_minutes_per_day\": ");
        json_f64(out, c.person_minutes_per_day);
        out.push_str(", \"latency\": ");
        match &c.latency {
            None => out.push_str("null"),
            Some(l) => {
                out.push_str("{\"mean_read_wait_s\": ");
                json_f64(out, l.mean_read_wait_s);
                out.push_str(", \"p99_read_wait_s\": ");
                json_f64(out, l.p99_read_wait_s);
                out.push_str(", \"mean_miss_wait_s\": ");
                json_f64(out, l.mean_miss_wait_s);
                out.push_str(", \"mean_delayed_wait_s\": ");
                json_f64(out, l.mean_delayed_wait_s);
                out.push_str(", \"delayed_hits\": ");
                out.push_str(&l.delayed_hits.to_string());
                out.push_str(", \"recalls\": ");
                out.push_str(&l.recalls.to_string());
                out.push_str(", \"flush_bytes\": ");
                out.push_str(&l.flush_bytes.to_string());
                out.push_str(", \"mean_flush_queue_s\": ");
                json_f64(out, l.mean_flush_queue_s);
                // The degraded object exists exactly on fault cells, so
                // the healthy schema carries no trace of it.
                if let Some(d) = &l.degraded {
                    out.push_str(", \"degraded\": {\"read_retries\": ");
                    out.push_str(&d.read_retries.to_string());
                    out.push_str(", \"outage_events\": ");
                    out.push_str(&d.outage_events.to_string());
                    out.push_str(", \"outage_wait_s\": ");
                    json_f64(out, d.outage_wait_s);
                    out.push_str(", \"slow_transfers\": ");
                    out.push_str(&d.slow_transfers.to_string());
                    out.push('}');
                }
                out.push('}');
            }
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// Writes a JSON string literal (the report only carries ASCII
/// identifiers, but escape defensively).
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an f64 with Rust's shortest-round-trip formatting — stable for
/// identical bits, which deterministic cells guarantee. Non-finite values
/// (which no metric should produce) become `null` rather than invalid
/// JSON.
fn json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x:?}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_migrate::eval::DegradedOutcome;

    #[test]
    fn policy_ids_round_trip() {
        for p in PolicyId::ALL {
            assert_eq!(PolicyId::parse(p.name()), Some(p));
            // The instantiated policy self-describes consistently.
            assert!(!p.build().name().is_empty());
        }
        assert_eq!(PolicyId::parse("nope"), None);
    }

    #[test]
    fn every_shipped_policy_ranks_through_its_regime() {
        use fmig_migrate::cache::{CacheConfig, DiskCache, RankingRegime};
        // The regime table, asked of a real cache: drive a few purges
        // with sizes and next uses that arrive out of order, and see
        // which ranking each policy ends on.
        let regime = |p: PolicyId| {
            let policy = p.build();
            let mut cache = DiskCache::new(CacheConfig::with_capacity(1000), policy.as_ref());
            for i in 0..30u32 {
                let size = 60 + u64::from(i * 37 % 61);
                let next_use = 500 + i64::from(i * 53 % 97);
                cache.write(i, size, 60 + i64::from(i), Some(next_use));
            }
            assert!(cache.stats().evictions > 0, "{}: no purge ran", p.name());
            cache.ranking_regime()
        };
        for p in PolicyId::ALL {
            let want = match p {
                // Power-age forms (SAAC at exponent 1), and the affine
                // policies whose keys arrive out of order.
                PolicyId::Stp14
                | PolicyId::Stp10
                | PolicyId::Stp20
                | PolicyId::Saac
                | PolicyId::LargestFirst
                | PolicyId::SmallestFirst
                | PolicyId::Belady => RankingRegime::Scan,
                // Keys that never rise: the deque.
                PolicyId::Lru | PolicyId::Fifo => RankingRegime::Monotone,
                // Neither form: every resident keyed once per purge.
                PolicyId::Random | PolicyId::StpLat | PolicyId::LruMad => RankingRegime::Rescan,
            };
            assert_eq!(regime(p), want, "{}", p.name());
        }
    }

    #[test]
    fn preset_ids_round_trip() {
        for p in PresetId::ALL {
            assert_eq!(PresetId::parse(p.name()), Some(p));
            let cfg = p.workload(0.01, 7);
            assert_eq!(cfg.scale, 0.01);
            assert_eq!(cfg.seed, 7);
        }
    }

    #[test]
    fn seeds_differ_per_coordinate_and_stage() {
        let cfg = SweepConfig::small();
        let mut seen = std::collections::HashSet::new();
        for p in 0..cfg.presets.len() {
            for s in 0..cfg.scales.len() {
                assert!(seen.insert(cfg.workload_seed(p, s)), "workload seed reused");
                assert!(seen.insert(cfg.sim_seed(p, s)), "sim seed reused");
                for c in 0..cfg.cache_fractions.len() {
                    for pol in 0..cfg.policies.len() {
                        assert!(
                            seen.insert(cfg.cell_sim_seed(p, s, c, pol)),
                            "cell sim seed reused"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_counts() {
        let cfg = SweepConfig::small();
        assert_eq!(cfg.cell_count(), 5 * 2 * 2 * 2);
        assert_eq!(cfg.shard_count(), 4);
        // tiny carries the healthy axis plus one fault scenario.
        assert_eq!(SweepConfig::tiny().cell_count(), 10);
        assert_eq!(SweepConfig::tiny().shard_count(), 1);
        // An empty fault axis behaves as [None].
        let mut bare = SweepConfig::tiny();
        bare.faults = vec![];
        assert_eq!(bare.fault_axis(), vec![FaultScenarioId::None]);
        assert_eq!(bare.cell_count(), 5);
    }

    #[test]
    fn fault_scenario_ids_round_trip() {
        for f in FaultScenarioId::ALL {
            assert_eq!(FaultScenarioId::parse(f.name()), Some(f));
            // Only the healthy scenario maps to an inert plan.
            assert_eq!(f.plan().is_none(), f == FaultScenarioId::None);
        }
        assert_eq!(FaultScenarioId::parse("meteor-strike"), None);
    }

    #[test]
    fn fault_cell_seeds_differ_from_healthy_and_per_scenario() {
        let cfg = SweepConfig::tiny();
        let healthy = cfg.cell_fault_seed(0, 0, 0, 0, 0, FaultScenarioId::None);
        assert_eq!(
            healthy,
            cfg.cell_sim_seed(0, 0, 0, 0),
            "the healthy scenario must keep the pre-fault stream"
        );
        let a = cfg.cell_fault_seed(0, 0, 0, 0, 1, FaultScenarioId::DegradedPeak);
        let b = cfg.cell_fault_seed(0, 0, 0, 0, 2, FaultScenarioId::FlakyReads);
        assert_ne!(a, healthy);
        assert_ne!(a, b);
    }

    #[test]
    fn json_escapes_and_floats() {
        let mut s = String::new();
        json_str(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000a\"");
        let mut f = String::new();
        json_f64(&mut f, 0.015);
        assert_eq!(f, "0.015");
        let mut nan = String::new();
        json_f64(&mut nan, f64::NAN);
        assert_eq!(nan, "null");
    }

    fn test_report(cells: Vec<CellResult>) -> SweepReport {
        SweepReport {
            base_seed: 0,
            simulated_devices: false,
            latency_mode: false,
            trace_store: None,
            fault_scenarios: vec![FaultScenarioId::None],
            shards: vec![ShardReport {
                preset: PresetId::Ncar,
                scale: 0.002,
                workload_seed: 0,
                sim_seed: 0,
                records: 0,
                files: 0,
                referenced_gb: 0.0,
                read_share: 0.0,
                mean_read_latency_s: 0.0,
                mean_write_latency_s: 0.0,
                paper_deltas: vec![],
                cells,
            }],
            winners: vec![],
        }
    }

    fn cell(policy: PolicyId, miss: f64, pm: f64) -> CellResult {
        CellResult {
            policy,
            fault: FaultScenarioId::None,
            cache_fraction: 0.01,
            capacity_bytes: 1,
            miss_ratio: miss,
            byte_miss_ratio: miss,
            person_minutes_per_day: pm,
            latency: None,
        }
    }

    #[test]
    fn winners_pick_the_minimum_and_exclude_belady_from_practical() {
        let mut report = test_report(vec![
            cell(PolicyId::Belady, 0.10, 5.0),
            cell(PolicyId::Lru, 0.30, 1.0),
            cell(PolicyId::Stp14, 0.20, 2.0),
        ]);
        report.compute_winners();
        assert_eq!(report.winners.len(), 1);
        let w = &report.winners[0];
        assert_eq!(w.by_miss_ratio, PolicyId::Belady);
        assert_eq!(w.by_person_minutes, PolicyId::Lru);
        assert_eq!(w.practical, Some(PolicyId::Stp14));
        // No latency measurements: the wait columns stay empty.
        assert_eq!(w.by_mean_wait, None);
        assert_eq!(w.by_p99_wait, None);
    }

    #[test]
    fn latency_winner_columns_rank_by_measured_waits() {
        let lat = |mean: f64, p99: f64| LatencyOutcome {
            mean_read_wait_s: mean,
            p99_read_wait_s: p99,
            mean_miss_wait_s: 60.0,
            mean_delayed_wait_s: 5.0,
            delayed_hits: 3,
            recalls: 10,
            flush_bytes: 0,
            mean_flush_queue_s: 0.0,
            degraded: None,
        };
        let mut cells = vec![
            cell(PolicyId::Lru, 0.30, 1.0),
            cell(PolicyId::Stp14, 0.20, 2.0),
        ];
        // LRU has the better mean, STP the better tail.
        cells[0].latency = Some(lat(10.0, 300.0));
        cells[1].latency = Some(lat(12.0, 150.0));
        let mut report = test_report(cells);
        report.latency_mode = true;
        report.compute_winners();
        let w = &report.winners[0];
        assert_eq!(w.by_mean_wait, Some(PolicyId::Lru));
        assert_eq!(w.by_p99_wait, Some(PolicyId::Stp14));
        // Both the JSON and the text rendering carry the new columns.
        let json = report.to_json();
        assert!(json.contains("\"latency_mode\": true"));
        assert!(json.contains("\"p99_read_wait_s\": 150.0"));
        assert!(json.contains("\"by_p99_wait\": \"stp1.4\""));
        let text = report.render();
        assert!(text.contains("p99-wait stp1.4"));
        assert!(text.contains("mean-wait lru"));
    }

    #[test]
    fn degraded_winner_ranks_by_worst_case_p99_and_keys_the_json() {
        let lat = |p99: f64, degraded: bool| LatencyOutcome {
            mean_read_wait_s: p99 / 3.0,
            p99_read_wait_s: p99,
            mean_miss_wait_s: 60.0,
            mean_delayed_wait_s: 5.0,
            delayed_hits: 0,
            recalls: 10,
            flush_bytes: 0,
            mean_flush_queue_s: 0.0,
            degraded: degraded.then_some(DegradedOutcome {
                read_retries: 4,
                outage_events: 2,
                outage_wait_s: 123.0,
                slow_transfers: 1,
            }),
        };
        let mut cells = vec![
            cell(PolicyId::Lru, 0.30, 1.0),
            cell(PolicyId::Stp14, 0.20, 2.0),
        ];
        // Two fault scenarios: LRU is great under one, terrible under
        // the other; STP is consistently middling. Worst-case ranking
        // must prefer STP.
        for (scenario, lru_p99, stp_p99) in [
            (FaultScenarioId::FlakyReads, 100.0, 200.0),
            (FaultScenarioId::DegradedPeak, 900.0, 250.0),
        ] {
            let mut lru = cell(PolicyId::Lru, 0.30, 1.0);
            lru.fault = scenario;
            lru.latency = Some(lat(lru_p99, true));
            let mut stp = cell(PolicyId::Stp14, 0.20, 2.0);
            stp.fault = scenario;
            stp.latency = Some(lat(stp_p99, true));
            cells.push(lru);
            cells.push(stp);
        }
        let mut report = test_report(cells);
        report.fault_scenarios = vec![
            FaultScenarioId::None,
            FaultScenarioId::FlakyReads,
            FaultScenarioId::DegradedPeak,
        ];
        report.compute_winners();
        let w = &report.winners[0];
        // Healthy columns ranked over the healthy cells only.
        assert_eq!(w.by_miss_ratio, PolicyId::Stp14);
        assert_eq!(w.by_degraded_p99, Some(PolicyId::Stp14));
        let json = report.to_json();
        assert!(
            json.contains("\"fault_scenarios\": [\"none\", \"flaky-reads\", \"degraded-peak\"]")
        );
        assert!(json.contains("\"by_degraded_p99\": \"stp1.4\""));
        assert!(json.contains("\"fault\": \"degraded-peak\""));
        assert!(json.contains("\"degraded\": {\"read_retries\": 4"));
        assert!(report.render().contains("degraded-p99 stp1.4"));
    }

    #[test]
    fn healthy_reports_carry_no_fault_keys() {
        let mut report = test_report(vec![cell(PolicyId::Lru, 0.1, 1.0)]);
        report.compute_winners();
        assert!(!report.fault_mode());
        let json = report.to_json();
        assert!(!json.contains("fault"));
        assert!(!json.contains("degraded"));
        assert_eq!(report.winners[0].by_degraded_p99, None);
    }
}
