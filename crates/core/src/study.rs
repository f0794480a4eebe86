//! End-to-end study orchestration: generate → simulate → analyze.
//!
//! [`Study`] wires the substrates together the way the paper's
//! measurement campaign did: a two-year request stream (synthetic, since
//! the NCAR logs are unavailable), the MSS hardware serving it (the
//! discrete-event simulator), and the analysis pass that produces every
//! table and figure.

use fmig_analysis::Analyzer;
use fmig_sim::{Metrics, MssSimulator, SimConfig};
use fmig_trace::TraceRecord;
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

/// Everything a study run produces.
#[derive(Debug)]
pub struct StudyOutput {
    /// The configuration that produced this output.
    pub config: StudyConfig,
    /// The generated workload (namespace, file population, events).
    pub workload: Workload,
    /// The trace, annotated with simulated latencies when device
    /// simulation ran.
    pub records: Vec<TraceRecord>,
    /// Figure/table analyses over `records`.
    pub analysis: Analyzer,
    /// Simulator metrics (latency histograms), if it ran.
    pub sim_metrics: Option<Metrics>,
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
    /// The analysis pass is fed record by record from the simulator's
    /// streaming sink, so analysis never requires a second sweep over the
    /// trace; the records themselves are kept because [`StudyOutput`]
    /// exposes them to the experiment registry. Sweep cells, which only
    /// need the aggregates, skip this type entirely and stream records
    /// straight into their accumulators (see [`crate::sweep`]).
    pub fn run(&self) -> StudyOutput {
        let workload = Workload::generate(&self.config.workload);
        let mut analysis = Analyzer::new();
        let mut records = Vec::with_capacity(workload.len());
        let sim_metrics = if self.config.simulate_devices {
            let sim = MssSimulator::new(self.config.sim.clone());
            let metrics = sim.run_streaming(workload.records(), |rec| {
                analysis.observe(&rec);
                records.push(rec);
            });
            Some(metrics)
        } else {
            for rec in workload.records() {
                analysis.observe(&rec);
                records.push(rec);
            }
            None
        };
        StudyOutput {
            config: self.config.clone(),
            workload,
            records,
            analysis,
            sim_metrics,
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
        assert!(!out.records.is_empty());
        assert_eq!(out.records.len(), out.workload.len());
        assert_eq!(out.analysis.stats.raw_references, out.records.len() as u64);
        assert!(out.sim_metrics.is_some());
    }

    #[test]
    fn simulation_fills_latencies() {
        let out = tiny();
        let with_latency = out
            .records
            .iter()
            .filter(|r| r.is_ok() && r.startup_latency_s > 0)
            .count();
        // The vast majority of successful requests should have a
        // non-zero simulated startup latency.
        assert!(
            with_latency as f64 > 0.5 * out.records.len() as f64,
            "only {with_latency} of {} records have latency",
            out.records.len()
        );
        // And the analysis sees them.
        assert!(out.analysis.latency.direction_mean(Direction::Read) > 0.0);
    }

    #[test]
    fn skipping_simulation_leaves_latencies_zero() {
        let mut config = StudyConfig::at_scale(0.002);
        config.simulate_devices = false;
        let out = Study::new(config).run();
        assert!(out.sim_metrics.is_none());
        assert!(out.records.iter().all(|r| r.startup_latency_s == 0));
        // Non-latency analyses still work.
        assert!(out.analysis.files.file_count() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.records, b.records);
    }
}
