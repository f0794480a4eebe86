//! The deterministic parallel sweep runner.
//!
//! [`run_sweep`] expands a [`SweepConfig`] into trace shards (one per
//! preset × scale coordinate) and runs them in **two phases** on the
//! workspace's bounded worker pool ([`parallel_indexed`], shared with
//! `PreparedTrace::evaluate`). Workers pull indices from an atomic
//! counter — classic self-scheduling fan-out, the same shape the
//! `ptexec` family used for parallel Unix commands — and write results
//! into the task's own slot, so scheduling order never leaks into the
//! report:
//!
//! 1. **Shard preparation** — each shard generates its workload and
//!    streams it once, as path-free [`IdRecord`]s, through the device
//!    simulator (or a plain pass) into the accumulators the report
//!    reads — [`TraceStats`], the [`IdFileTracker`] census (NCAR shards
//!    only: it feeds just the paper deltas) and the [`LatencyMoments`]
//!    behind the two mean-latency columns — and the policy-replay
//!    preparation ([`IdTracePrep`]) — the same pass [`crate::Study::run`]
//!    makes for the experiment registry. No path string is built and no
//!    annotated record is kept, which is what makes wide matrices
//!    affordable. An imported shard instead opens
//!    its columnar replay store and reads only the import-time census.
//! 2. **Cell execution** — the matrix is split into *cell units* that
//!    draw from one global queue: a closed-loop unit is a single
//!    (fault, cache, policy) hierarchy-engine run, an open-loop unit is
//!    one policy's entire single-pass miss-ratio curve (shared by every
//!    healthy open-loop cell of that policy, bit-identical to per-cell
//!    replay — see `fmig_migrate::mrc`). Splitting below the shard
//!    means a matrix with *one* shard but many cells — the `large`
//!    scaling preset, or a latency sweep — still spreads across every
//!    worker, and each unit's result lands in a pre-assigned slot that
//!    phase 3's purely serial assembly reads back in matrix order.
//!    Every unit reads its shard as one stream of [`PreparedRef`]s — the
//!    in-memory slice of a generated shard or the chunked store of an
//!    imported one — so either kind runs either unit.
//!
//! The assembled report is therefore a pure function of the config:
//! any worker count yields byte-identical [`SweepReport::to_json`]
//! output, pinned by a tier-1 test.

use std::path::Path;

use fmig_analysis::{Comparison, IdFileTracker, LatencyMoments};
use fmig_migrate::eval::{EvalConfig, IdTracePrep, PreparedRef, PreparedTrace};
use fmig_migrate::mrc::{sweep_capacities_streaming, MissRatioCurve};
use fmig_migrate::pool::parallel_indexed;
use fmig_sim::fault::fault_horizon;
use fmig_sim::{HierarchySimulator, MssSimulator, SimConfig, SimMs};
use fmig_trace::ingest::store::{StoreReader, StoreRow, CHUNK_RECORDS};
use fmig_trace::{Direction, IdRecord, TraceStats};
use fmig_workload::{PaperTargets, Workload};

use crate::sweep::{CellResult, FaultScenarioId, PresetId, ShardReport, SweepConfig, SweepReport};

/// Expands the matrix and runs every cell; see the module docs.
///
/// The report is a pure function of `config`: any worker count (including
/// the serial `workers = 1`) yields byte-identical
/// [`SweepReport::to_json`] output.
///
/// # Panics
///
/// Panics if the matrix is empty on any axis.
pub fn run_sweep(config: &SweepConfig) -> SweepReport {
    assert!(
        !config.policies.is_empty()
            && !config.presets.is_empty()
            && !config.scales.is_empty()
            && !config.cache_fractions.is_empty(),
        "sweep matrix must be non-empty on every axis"
    );
    if config.presets.contains(&PresetId::Imported) {
        assert!(
            config.trace_store.is_some(),
            "the `imported` preset needs `trace_store` to point at a replay store"
        );
    }
    let coords: Vec<(usize, usize)> = (0..config.presets.len())
        .flat_map(|p| (0..config.scales.len()).map(move |s| (p, s)))
        .collect();

    // Phase 1: prepare every shard (generate + simulate + analyze).
    let prepared: Vec<PreparedShard> = parallel_indexed(coords.len(), config.workers, |i| {
        prepare_shard(config, coords[i].0, coords[i].1)
    });

    // Phase 2: run cell units from one global queue spanning all shards.
    let units = expand_units(config, coords.len());
    let outputs: Vec<UnitOutput> = parallel_indexed(units.len(), config.workers, |i| {
        run_unit(config, &units[i], &prepared[units[i].shard()], &coords)
    });

    // Phase 3: serial assembly in matrix order.
    let shards = assemble(config, prepared, &units, outputs);
    let mut report = SweepReport {
        base_seed: config.base_seed,
        simulated_devices: config.simulate_devices,
        latency_mode: config.latency,
        trace_store: config.trace_store.clone(),
        fault_scenarios: config.fault_axis(),
        shards,
        winners: Vec::new(),
    };
    report.compute_winners();
    report
}

/// One prepared trace shard plus the analysis-derived report skeleton.
struct PreparedShard {
    preset_idx: usize,
    scale_idx: usize,
    records: u64,
    files: u64,
    referenced_bytes: u64,
    read_share: f64,
    mean_read_latency_s: f64,
    mean_write_latency_s: f64,
    paper_deltas: Vec<Comparison>,
    data: ShardData,
    capacities: Vec<u64>,
    /// Fault-schedule horizon of the shard's references (virtual ms),
    /// known before the stream is read.
    horizon: (SimMs, SimMs),
}

/// Where a shard's replayable references live: in memory for generated
/// workloads, on disk for imported traces.
enum ShardData {
    /// A generated trace, fully materialized by [`IdTracePrep`].
    Generated(PreparedTrace),
    /// An imported trace in the columnar replay store; phase 2 streams
    /// it chunk by chunk, so the references never materialize.
    Imported(StoreReader),
}

/// Streams a replay store as [`PreparedRef`]s, one
/// [`CHUNK_RECORDS`]-sized buffer at a time.
///
/// The store was validated at open (column lengths match the manifest)
/// and is immutable after import, so a read failure mid-replay is a
/// broken environment, not bad input — it panics like any other
/// violated runner invariant rather than threading `Result` through
/// the fused sweep pass.
struct StoreRefStream {
    rows: fmig_trace::ingest::store::StoreRows,
    buf: Vec<StoreRow>,
    pos: usize,
}

impl StoreRefStream {
    fn open(store: &StoreReader) -> Self {
        let rows = store
            .rows(CHUNK_RECORDS)
            .expect("replay store columns open");
        StoreRefStream {
            rows,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Iterator for StoreRefStream {
    type Item = PreparedRef;

    // Both engines' per-reference loops call this, and with two callers
    // the compiler stops inlining it on its own.
    #[inline]
    fn next(&mut self) -> Option<PreparedRef> {
        if self.pos == self.buf.len() {
            let more = self
                .rows
                .next_chunk(&mut self.buf)
                .expect("replay store chunk reads");
            self.pos = 0;
            if !more {
                return None;
            }
        }
        let row = self.buf[self.pos];
        self.pos += 1;
        Some(row.into())
    }
}

/// Opens the columnar store behind an imported shard and lifts its
/// import-time statistics into the report skeleton. No trace data is
/// read here — phase 2 streams the columns per cell unit.
fn prepare_imported_shard(
    config: &SweepConfig,
    preset_idx: usize,
    scale_idx: usize,
) -> PreparedShard {
    let dir = config
        .trace_store
        .as_deref()
        .expect("validated by run_sweep");
    let store =
        StoreReader::open(Path::new(dir)).unwrap_or_else(|e| panic!("trace store {dir}: {e}"));
    let stats = store
        .stats()
        .unwrap_or_else(|e| panic!("trace store {dir}: {e}"));
    let manifest = store.manifest().clone();
    let capacities: Vec<u64> = config
        .cache_fractions
        .iter()
        .map(|&fraction| ((manifest.referenced_bytes as f64 * fraction) as u64).max(1))
        .collect();
    PreparedShard {
        preset_idx,
        scale_idx,
        records: stats.raw_references,
        files: manifest.files,
        referenced_bytes: manifest.referenced_bytes,
        read_share: stats.read_reference_share(),
        // Imported formats carry transfer durations at best, not the
        // simulator's startup-latency model; the stats file's latency
        // sums are whatever the source logs recorded (often zero).
        mean_read_latency_s: mean_latency(&stats.reads),
        mean_write_latency_s: mean_latency(&stats.writes),
        // Paper deltas row only makes sense for the NCAR-calibrated
        // generator; an external trace has its own shape by definition.
        paper_deltas: Vec::new(),
        data: ShardData::Imported(store),
        capacities,
        horizon: fault_horizon(manifest.epoch, manifest.last),
    }
}

/// Mean recorded latency across a direction's device classes.
fn mean_latency(d: &fmig_trace::DirectionStats) -> f64 {
    let (refs, sum) = d.by_device.iter().fold((0u64, 0.0f64), |(n, s), a| {
        (n + a.references, s + a.latency_sum_s)
    });
    if refs == 0 {
        0.0
    } else {
        sum / refs as f64
    }
}

/// Generates, simulates, and analyzes one shard; policy evaluation is
/// phase 2's job.
fn prepare_shard(config: &SweepConfig, preset_idx: usize, scale_idx: usize) -> PreparedShard {
    let preset = config.presets[preset_idx];
    if preset == PresetId::Imported {
        return prepare_imported_shard(config, preset_idx, scale_idx);
    }
    let scale = config.scales[scale_idx];
    let workload_seed = config.workload_seed(preset_idx, scale_idx);
    let sim_seed = config.sim_seed(preset_idx, scale_idx);

    let workload = Workload::generate(&preset.workload(scale, workload_seed));
    let files = workload.files().len() as u64;
    let referenced_bytes: u64 = workload.files().iter().map(|f| f.size).sum();

    // One streaming pass: simulator → (analysis, policy prep). Each
    // accumulator skips errored records where the paper does. The file
    // census feeds only the NCAR paper deltas below, so other presets
    // skip it.
    let mut stats = TraceStats::new();
    let mut tracked = (preset == PresetId::Ncar).then(IdFileTracker::new);
    let mut latency = LatencyMoments::new();
    let records = workload.len() as u64;
    let mut prep = IdTracePrep::with_capacity(files as usize, workload.len());
    let sink = |rec: IdRecord| {
        stats.observe(&rec);
        if let Some(tracked) = &mut tracked {
            tracked.observe(rec.file, &rec);
        }
        latency.observe(&rec);
        prep.observe(rec.file, &rec);
    };
    if config.simulate_devices {
        MssSimulator::new(SimConfig::default().with_seed(sim_seed))
            .run_streaming(workload.requests(), sink);
    } else {
        workload.requests().for_each(sink);
    }
    // Nothing reads the workload after its one pass.
    drop(workload);
    let prepared = prep.finish();
    let refs = prepared.refs();
    let horizon = fault_horizon(
        refs.first().map_or(0, |r| r.time),
        refs.last().map_or(0, |r| r.time),
    );
    let capacities: Vec<u64> = config
        .cache_fractions
        .iter()
        .map(|&fraction| ((referenced_bytes as f64 * fraction) as u64).max(1))
        .collect();

    // Published-vs-measured rows only make sense where the generator
    // runs its NCAR calibration; the other presets twist those very
    // knobs on purpose, so deltas there would read as fidelity failures.
    let paper_deltas = if let Some(tracked) = tracked {
        let targets = PaperTargets::ncar();
        vec![
            Comparison::new(
                "read_share",
                targets.read_share(),
                stats.read_reference_share(),
            ),
            Comparison::new(
                "error_fraction",
                targets.error_fraction(),
                stats.error_fraction(),
            ),
            Comparison::new(
                "files_never_read",
                targets.files_never_read,
                tracked.never_read(),
            ),
            Comparison::new(
                "files_accessed_once",
                targets.files_accessed_once,
                tracked.accessed_once(),
            ),
            Comparison::new(
                "requests_within_8h",
                targets.requests_within_8h_of_same_file,
                tracked.repeat_within_8h_fraction(),
            ),
            Comparison::new(
                "file_gap_under_1d",
                targets.file_gap_under_1d,
                tracked.intervals_under_1d(),
            ),
        ]
    } else {
        Vec::new()
    };

    PreparedShard {
        preset_idx,
        scale_idx,
        records,
        files,
        referenced_bytes,
        read_share: stats.read_reference_share(),
        mean_read_latency_s: latency.direction_mean(Direction::Read),
        mean_write_latency_s: latency.direction_mean(Direction::Write),
        paper_deltas,
        data: ShardData::Generated(prepared),
        capacities,
        horizon,
    }
}

/// One schedulable unit of cell work; see the module docs.
#[derive(Debug, Clone, Copy)]
enum CellUnit {
    /// One policy's full single-pass miss-ratio curve over the shard's
    /// capacity grid — serves every healthy open-loop cell of that
    /// policy, across all open-loop fault-axis entries.
    Curve { shard: usize, policy_idx: usize },
    /// One closed-loop hierarchy-engine run: a single
    /// (fault, cache, policy) cell.
    Closed {
        shard: usize,
        fault_idx: usize,
        cache_idx: usize,
        policy_idx: usize,
    },
}

impl CellUnit {
    fn shard(&self) -> usize {
        match *self {
            CellUnit::Curve { shard, .. } | CellUnit::Closed { shard, .. } => shard,
        }
    }
}

enum UnitOutput {
    Curve(MissRatioCurve),
    Closed(CellResult),
}

/// Expands the matrix into the phase-2 task list, in a deterministic
/// order (shard-major, then matrix order within the shard).
fn expand_units(config: &SweepConfig, shards: usize) -> Vec<CellUnit> {
    let faults = config.fault_axis();
    let mut units = Vec::new();
    for shard in 0..shards {
        let any_open = faults
            .iter()
            .any(|&s| !(config.latency || s != FaultScenarioId::None));
        if any_open {
            for policy_idx in 0..config.policies.len() {
                units.push(CellUnit::Curve { shard, policy_idx });
            }
        }
        for (fault_idx, &scenario) in faults.iter().enumerate() {
            if config.latency || scenario != FaultScenarioId::None {
                for cache_idx in 0..config.cache_fractions.len() {
                    for policy_idx in 0..config.policies.len() {
                        units.push(CellUnit::Closed {
                            shard,
                            fault_idx,
                            cache_idx,
                            policy_idx,
                        });
                    }
                }
            }
        }
    }
    units
}

/// Executes one cell unit against its prepared shard. The shard kind is
/// matched here, once, where its reference stream opens; both unit
/// kinds then consume that stream through [`run_unit_over`].
fn run_unit(
    config: &SweepConfig,
    unit: &CellUnit,
    shard: &PreparedShard,
    coords: &[(usize, usize)],
) -> UnitOutput {
    match &shard.data {
        ShardData::Generated(prepared) => {
            run_unit_over(config, unit, shard, coords, prepared.refs().iter().copied())
        }
        // Chunk by chunk off disk: the references never materialize.
        ShardData::Imported(store) => {
            run_unit_over(config, unit, shard, coords, StoreRefStream::open(store))
        }
    }
}

/// One cell unit over its shard's reference stream — monomorphic per
/// stream type, so the engines' per-reference loops stay static calls.
fn run_unit_over(
    config: &SweepConfig,
    unit: &CellUnit,
    shard: &PreparedShard,
    coords: &[(usize, usize)],
    refs: impl IntoIterator<Item = PreparedRef>,
) -> UnitOutput {
    match *unit {
        // One pass per policy covers the whole capacity grid.
        CellUnit::Curve { policy_idx, .. } => UnitOutput::Curve(sweep_capacities_streaming(
            refs,
            config.policies[policy_idx].build().as_ref(),
            &shard.capacities,
            &EvalConfig::with_capacity(0),
        )),
        CellUnit::Closed {
            shard: shard_idx,
            fault_idx,
            cache_idx,
            policy_idx,
        } => {
            let (preset_idx, scale_idx) = coords[shard_idx];
            let scenario = config.fault_axis()[fault_idx];
            let cell_seed = config.cell_fault_seed(
                preset_idx, scale_idx, cache_idx, policy_idx, fault_idx, scenario,
            );
            let policy = config.policies[policy_idx];
            let outcome = HierarchySimulator::new(SimConfig::default().with_seed(cell_seed))
                .evaluate_with_faults(
                    refs,
                    shard.horizon,
                    policy.build().as_ref(),
                    &EvalConfig::with_capacity(shard.capacities[cache_idx]),
                    &scenario.plan(),
                );
            UnitOutput::Closed(CellResult {
                policy,
                fault: scenario,
                cache_fraction: config.cache_fractions[cache_idx],
                capacity_bytes: shard.capacities[cache_idx],
                miss_ratio: outcome.miss_ratio,
                byte_miss_ratio: outcome.byte_miss_ratio,
                person_minutes_per_day: outcome.person_minutes_per_day,
                latency: outcome.latency,
            })
        }
    }
}

/// Stitches unit outputs back into per-shard cell lists, in the exact
/// matrix order the serial runner produced.
fn assemble(
    config: &SweepConfig,
    prepared: Vec<PreparedShard>,
    units: &[CellUnit],
    outputs: Vec<UnitOutput>,
) -> Vec<ShardReport> {
    let faults = config.fault_axis();
    // Index unit outputs by coordinates for order-free lookup.
    let mut curves: Vec<Vec<Option<&MissRatioCurve>>> =
        vec![vec![None; config.policies.len()]; prepared.len()];
    let mut closed: Vec<Vec<Option<&CellResult>>> =
        vec![
            vec![None; faults.len() * config.cache_fractions.len() * config.policies.len()];
            prepared.len()
        ];
    let cell_slot = |fault_idx: usize, cache_idx: usize, policy_idx: usize| {
        (fault_idx * config.cache_fractions.len() + cache_idx) * config.policies.len() + policy_idx
    };
    for (unit, out) in units.iter().zip(&outputs) {
        match (*unit, out) {
            (CellUnit::Curve { shard, policy_idx }, UnitOutput::Curve(c)) => {
                curves[shard][policy_idx] = Some(c);
            }
            (
                CellUnit::Closed {
                    shard,
                    fault_idx,
                    cache_idx,
                    policy_idx,
                },
                UnitOutput::Closed(c),
            ) => {
                closed[shard][cell_slot(fault_idx, cache_idx, policy_idx)] = Some(c);
            }
            _ => unreachable!("unit and output kinds are paired by construction"),
        }
    }

    prepared
        .into_iter()
        .enumerate()
        .map(|(shard_idx, shard)| {
            let mut cells = Vec::with_capacity(
                faults.len() * config.cache_fractions.len() * config.policies.len(),
            );
            for (fault_idx, &scenario) in faults.iter().enumerate() {
                let closed_loop = config.latency || scenario != FaultScenarioId::None;
                for (cache_idx, &fraction) in config.cache_fractions.iter().enumerate() {
                    let eval_config = EvalConfig::with_capacity(shard.capacities[cache_idx]);
                    for (policy_idx, policy) in config.policies.iter().enumerate() {
                        if closed_loop {
                            let cell = closed[shard_idx]
                                [cell_slot(fault_idx, cache_idx, policy_idx)]
                            .expect("closed unit ran");
                            cells.push(cell.clone());
                        } else {
                            let curve = curves[shard_idx][policy_idx].expect("curve unit ran");
                            let point = &curve.points[cache_idx];
                            cells.push(CellResult {
                                policy: *policy,
                                fault: scenario,
                                cache_fraction: fraction,
                                capacity_bytes: shard.capacities[cache_idx],
                                miss_ratio: point.miss_ratio(),
                                byte_miss_ratio: point.byte_miss_ratio(),
                                person_minutes_per_day: point.stats.person_minutes_per_day(
                                    eval_config.wait_s_per_miss,
                                    eval_config.trace_days,
                                ),
                                latency: None,
                            });
                        }
                    }
                }
            }
            ShardReport {
                preset: config.presets[shard.preset_idx],
                scale: config.scales[shard.scale_idx],
                workload_seed: config.workload_seed(shard.preset_idx, shard.scale_idx),
                sim_seed: config.sim_seed(shard.preset_idx, shard.scale_idx),
                records: shard.records,
                files: shard.files,
                referenced_gb: shard.referenced_bytes as f64 / 1e9,
                read_share: shard.read_share,
                mean_read_latency_s: shard.mean_read_latency_s,
                mean_write_latency_s: shard.mean_write_latency_s,
                paper_deltas: shard.paper_deltas,
                cells,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::PolicyId;

    #[test]
    fn tiny_sweep_produces_the_full_matrix() {
        let report = run_sweep(&SweepConfig::tiny());
        assert_eq!(report.shards.len(), 1);
        let shard = &report.shards[0];
        // Five policies × (healthy + degraded-peak).
        assert_eq!(shard.cells.len(), 10);
        assert!(shard.records > 0);
        assert!(shard.files > 0);
        assert!(
            shard.mean_read_latency_s > 0.0,
            "simulation annotated reads"
        );
        assert_eq!(report.winners.len(), 1);
        // Belady bounds every practical policy on the shared trace —
        // under faults too, since faults never change cache decisions.
        let belady = shard
            .cells
            .iter()
            .find(|c| c.policy == PolicyId::Belady)
            .expect("belady cell");
        for cell in &shard.cells {
            assert!(
                belady.miss_ratio <= cell.miss_ratio + 1e-12,
                "Belady beaten by {}",
                cell.policy.name()
            );
        }
        assert_ne!(report.winners[0].practical, Some(PolicyId::Belady));
        // The fault-scenario cells measured a degraded world.
        let degraded: Vec<_> = shard
            .cells
            .iter()
            .filter(|c| c.fault == FaultScenarioId::DegradedPeak)
            .collect();
        assert_eq!(degraded.len(), 5);
        for cell in degraded.iter() {
            let lat = cell.latency.expect("fault cells are closed-loop");
            let d = lat.degraded.expect("fault cells carry attribution");
            assert!(
                d.read_retries + d.outage_events + d.slow_transfers > 0,
                "the compound scenario must actually bite"
            );
            // Same trace, same decisions: miss ratio equals the healthy
            // twin's. Latency-aware policies are exempt — their healthy
            // twin ran open-loop on the wait constant while the fault
            // cell evicted against live (degraded) recall waits.
            let healthy = shard
                .cells
                .iter()
                .find(|h| h.fault == FaultScenarioId::None && h.policy == cell.policy)
                .expect("healthy twin");
            if !cell.policy.latency_aware() {
                assert_eq!(healthy.miss_ratio, cell.miss_ratio);
            }
            assert!(healthy.latency.is_none(), "healthy cells follow the flag");
        }
        assert!(report.winners[0].by_degraded_p99.is_some());
    }

    #[test]
    fn shard_sink_keeps_what_the_full_accumulators_report() {
        let mut config = SweepConfig::tiny();
        config.presets = PresetId::ALL.to_vec();
        for (preset_idx, &preset) in config.presets.iter().enumerate() {
            let shard = prepare_shard(&config, preset_idx, 0);
            // The same stream into the full accumulators.
            let workload = Workload::generate(
                &preset.workload(config.scales[0], config.workload_seed(preset_idx, 0)),
            );
            let sim =
                MssSimulator::new(SimConfig::default().with_seed(config.sim_seed(preset_idx, 0)));
            let mut latency = fmig_analysis::LatencyAnalysis::new();
            let mut tracked = IdFileTracker::new();
            sim.run_streaming(workload.requests(), |rec| {
                latency.observe(&rec);
                tracked.observe(rec.file, &rec);
            });
            assert_eq!(
                shard.mean_read_latency_s.to_bits(),
                latency.direction_mean(Direction::Read).to_bits(),
                "{preset:?}"
            );
            assert_eq!(
                shard.mean_write_latency_s.to_bits(),
                latency.direction_mean(Direction::Write).to_bits(),
                "{preset:?}"
            );
            if preset == PresetId::Ncar {
                let never_read = shard
                    .paper_deltas
                    .iter()
                    .find(|d| d.metric == "files_never_read")
                    .expect("NCAR shards carry the census deltas");
                assert_eq!(
                    never_read.measured.to_bits(),
                    tracked.never_read().to_bits()
                );
            } else {
                assert!(shard.paper_deltas.is_empty(), "{preset:?}");
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        // At least two shards, or phase 1 runs serially and the
        // comparison exercises less of the scheduler.
        let mut serial = SweepConfig::tiny();
        serial.scales = vec![0.002, 0.003];
        serial.simulate_devices = false;
        let mut parallel = serial.clone();
        serial.workers = 1;
        parallel.workers = 4;
        assert!(serial.shard_count() >= 2);
        assert_eq!(run_sweep(&serial), run_sweep(&parallel));
    }

    #[test]
    fn one_shard_many_cells_is_worker_count_invariant() {
        // Cell-level splitting: a single-shard latency matrix has one
        // phase-1 task but many phase-2 units, so a wide pool must still
        // assemble the identical report.
        let mut serial = SweepConfig::tiny();
        serial.latency = true;
        serial.simulate_devices = false;
        let mut parallel = serial.clone();
        serial.workers = 1;
        parallel.workers = 8;
        assert_eq!(serial.shard_count(), 1);
        assert!(parallel.cell_count() >= 8);
        assert_eq!(run_sweep(&serial), run_sweep(&parallel));
    }

    #[test]
    fn latency_mode_reproduces_open_loop_miss_ratios() {
        let mut open = SweepConfig::tiny();
        open.simulate_devices = false;
        open.faults = vec![FaultScenarioId::None];
        let mut closed = open.clone();
        closed.latency = true;
        let a = run_sweep(&open);
        let b = run_sweep(&closed);
        assert!(!a.latency_mode && b.latency_mode);
        for (ca, cb) in a.shards[0].cells.iter().zip(&b.shards[0].cells) {
            assert_eq!(ca.policy, cb.policy);
            // The open≡closed miss-ratio identity holds by construction
            // for latency-blind policies only; latency-aware ones see
            // live feedback in the closed loop and may evict differently.
            if !ca.policy.latency_aware() {
                assert_eq!(ca.miss_ratio, cb.miss_ratio, "{}", ca.policy.name());
                assert_eq!(ca.byte_miss_ratio, cb.byte_miss_ratio);
            }
            assert!(ca.latency.is_none());
            let lat = cb.latency.expect("latency cell");
            assert!(lat.mean_read_wait_s > 0.0, "device model must be felt");
            assert!(lat.recalls > 0);
            // Person-minutes now derive from the measured miss wait.
            assert_ne!(ca.person_minutes_per_day, cb.person_minutes_per_day);
        }
        let w = &b.winners[0];
        assert!(w.by_mean_wait.is_some() && w.by_p99_wait.is_some());
    }

    #[test]
    fn collapsed_capacity_cells_match_per_cell_replay() {
        // Three cache fractions share one MRC pass per policy; every
        // cell must still carry exactly what an individual replay at its
        // capacity produces. The closed-loop run replays each cell
        // individually, so equal miss ratios across all cells is an
        // end-to-end check of the collapse.
        let mut open = SweepConfig::tiny();
        open.simulate_devices = false;
        open.faults = vec![FaultScenarioId::None];
        open.cache_fractions = vec![0.005, 0.015, 0.05];
        let mut closed = open.clone();
        closed.latency = true;
        let a = run_sweep(&open);
        let b = run_sweep(&closed);
        assert_eq!(a.shards[0].cells.len(), 15);
        for (ca, cb) in a.shards[0].cells.iter().zip(&b.shards[0].cells) {
            assert_eq!(ca.policy, cb.policy);
            assert_eq!(ca.cache_fraction, cb.cache_fraction);
            if !ca.policy.latency_aware() {
                assert_eq!(ca.miss_ratio, cb.miss_ratio, "{}", ca.policy.name());
                assert_eq!(ca.byte_miss_ratio, cb.byte_miss_ratio);
            }
        }
        // Bigger caches never miss more on the same trace and policy.
        for policy in &open.policies {
            let series: Vec<f64> = a.shards[0]
                .cells
                .iter()
                .filter(|c| c.policy == *policy)
                .map(|c| c.miss_ratio)
                .collect();
            for w in series.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "{}: {series:?}", policy.name());
            }
        }
    }

    #[test]
    fn shards_get_distinct_rng_streams() {
        // Two shards of one sweep must not replay the same trace: the
        // derived seeds differ, so the generated populations differ.
        let mut cfg = SweepConfig::tiny();
        cfg.scales = vec![0.002, 0.002];
        cfg.simulate_devices = false;
        let report = run_sweep(&cfg);
        assert_eq!(report.shards.len(), 2);
        assert_ne!(
            report.shards[0].workload_seed,
            report.shards[1].workload_seed
        );
        assert_ne!(report.shards[0].records, report.shards[1].records);
    }
}
