//! End-to-end study orchestration: generate → simulate → analyze.
//!
//! [`Study`] wires the substrates together the way the paper's
//! measurement campaign did: a two-year request stream (synthetic, since
//! the NCAR logs are unavailable), the MSS hardware serving it (the
//! discrete-event simulator), and the analysis pass that produces every
//! table and figure.

use fmig_analysis::Analyzer;
use fmig_migrate::eval::{IdTracePrep, PreparedTrace};
use fmig_sim::{MssSimulator, SimConfig};
use fmig_trace::IdRecord;
use fmig_workload::{PaperTargets, Workload, WorkloadConfig};
use serde::{Deserialize, Serialize};

/// Configuration of a full study run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Workload generator settings (scale, seed, calibration knobs).
    pub workload: WorkloadConfig,
    /// MSS hardware settings.
    pub sim: SimConfig,
    /// Run the device simulation to obtain latencies (Figure 3 and the
    /// Table 3 latency rows need it; the other analyses do not).
    pub simulate_devices: bool,
}

impl StudyConfig {
    /// A study at the given workload scale.
    ///
    /// The MSS hardware stays full-size at every scale: NCAR's machine
    /// room was provisioned for burst service (average drive utilisation
    /// was a few percent), so latency comes from short-term session
    /// queueing that exists at any traffic volume, not from long-term
    /// utilisation. `SimConfig::scaled` remains available for ablations.
    pub fn at_scale(scale: f64) -> Self {
        StudyConfig {
            workload: WorkloadConfig::at_scale(scale),
            sim: SimConfig::default(),
            simulate_devices: true,
        }
    }
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self::at_scale(0.02)
    }
}

/// How many leading records Table 2 renders through the trace codec,
/// and so how many startup latencies a simulated study keeps.
pub const TABLE2_SAMPLE: usize = 50_000;

/// Everything a study run produces.
#[derive(Debug)]
pub struct StudyOutput {
    /// The configuration that produced this output.
    pub config: StudyConfig,
    /// The generated workload (namespace, file population, events): the
    /// source every experiment re-streams requests or records from.
    pub workload: Workload,
    /// Figure/table analyses over the (simulated) request stream.
    pub analysis: Analyzer,
    /// The request stream prepared for policy replay.
    pub prepared: PreparedTrace,
    /// The simulated startup latencies of the first [`TABLE2_SAMPLE`]
    /// requests, in trace order; empty when device simulation is off.
    pub latencies: Vec<u32>,
    /// The paper's published values for comparison.
    pub targets: PaperTargets,
}

/// The study driver.
#[derive(Debug, Clone, Default)]
pub struct Study {
    config: StudyConfig,
}

impl Study {
    /// Creates a study with the given configuration.
    pub fn new(config: StudyConfig) -> Self {
        Study { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Runs the full pipeline.
    ///
    /// One pass streams the workload's path-free requests through the
    /// device simulator (when it runs) into the analysis and the
    /// policy-replay preparation, as a sweep shard does (see
    /// [`crate::runner`]); a file's path is rendered once, for the
    /// directory census. No per-record string is built or kept.
    pub fn run(&self) -> StudyOutput {
        let workload = Workload::generate(&self.config.workload);
        let mut analysis = Analyzer::new();
        let mut prep = IdTracePrep::with_capacity(workload.files().len(), workload.len());
        let sample = if self.config.simulate_devices {
            TABLE2_SAMPLE.min(workload.len())
        } else {
            0
        };
        let mut latencies = Vec::with_capacity(sample);
        let sink = |rec: IdRecord| {
            analysis.observe_file(rec.file, &rec, |file| workload.file_path(file));
            prep.observe(rec.file, &rec);
            if latencies.len() < sample {
                latencies.push(rec.startup_latency_s);
            }
        };
        if self.config.simulate_devices {
            let sim = MssSimulator::new(self.config.sim.clone());
            sim.run_streaming(workload.requests(), sink);
        } else {
            workload.requests().for_each(sink);
        }
        StudyOutput {
            config: self.config.clone(),
            workload,
            analysis,
            prepared: prep.finish(),
            latencies,
            targets: PaperTargets::ncar(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::Direction;

    fn tiny() -> StudyOutput {
        let mut config = StudyConfig::at_scale(0.002);
        config.workload.seed = 99;
        Study::new(config).run()
    }

    #[test]
    fn pipeline_produces_consistent_artifacts() {
        let out = tiny();
        assert!(!out.workload.is_empty());
        assert_eq!(out.analysis.stats.raw_references, out.workload.len() as u64);
        let ok = out.workload.requests().filter(|r| r.error.is_none());
        assert_eq!(out.prepared.len(), ok.count());
        assert_eq!(out.prepared.file_count(), out.analysis.files.file_count());
        assert_eq!(
            out.analysis.dirs.file_count(),
            out.analysis.files.file_count()
        );
        assert_eq!(out.latencies.len(), out.workload.len().min(TABLE2_SAMPLE));
    }

    #[test]
    fn simulation_fills_latencies() {
        let out = tiny();
        let with_latency = out.latencies.iter().filter(|&&l| l > 0).count();
        // The vast majority of requests should have a non-zero simulated
        // startup latency.
        assert!(
            with_latency as f64 > 0.5 * out.latencies.len() as f64,
            "only {with_latency} of {} requests have latency",
            out.latencies.len()
        );
        // And the analysis sees them.
        assert!(out.analysis.latency.direction_mean(Direction::Read) > 0.0);
    }

    #[test]
    fn skipping_simulation_leaves_latencies_zero() {
        let mut config = StudyConfig::at_scale(0.002);
        config.simulate_devices = false;
        let out = Study::new(config).run();
        assert!(out.latencies.is_empty());
        assert_eq!(out.analysis.latency.direction_mean(Direction::Read), 0.0);
        // Non-latency analyses still work.
        assert!(out.analysis.files.file_count() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.prepared.refs(), b.prepared.refs());
        assert_eq!(a.analysis.stats, b.analysis.stats);
    }
}
