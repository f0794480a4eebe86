//! End-to-end reproduction of Miller & Katz, *An Analysis of File
//! Migration in a Unix Supercomputing Environment* (USENIX Winter 1993).
//!
//! This crate is the public entry point of the workspace. It wires the
//! substrates together:
//!
//! * [`fmig_workload`] generates an NCAR-calibrated synthetic request
//!   trace (the original logs are unavailable);
//! * [`fmig_sim`] replays it against a discrete-event model of the NCAR
//!   MSS (disk farm, StorageTek silo, operator-mounted shelf tape);
//! * [`fmig_analysis`] regenerates every table and figure, and §6-b's
//!   same-file repeat table from its file census;
//! * [`fmig_migrate`] runs the other §6 algorithm studies (STP/LRU/SAAC
//!   comparison, dividing point, write-behind).
//!
//! [`Study`] runs the pipeline; [`experiments`] maps each paper artefact
//! (`table1`..`table4`, `fig3`..`fig12`, `policies`, `dedup`, ...) to a
//! regenerated report with paper-vs-measured comparisons. [`sweep`]
//! declares a scenario matrix (policy × preset × scale × cache size) and
//! [`runner`] executes it on a deterministic worker pool, streaming each
//! cell end to end instead of materializing its trace.
//!
//! # Examples
//!
//! ```
//! use fmig_core::{Study, StudyConfig};
//!
//! let output = Study::new(StudyConfig::at_scale(0.001)).run();
//! let fig8 = fmig_core::experiments::run_experiment("fig8", &output).unwrap();
//! assert!(fig8.render().contains("never read"));
//! ```

pub mod experiments;
pub mod runner;
pub mod study;
pub mod sweep;

pub use experiments::{experiment_ids, run_experiment, ExperimentResult};
pub use runner::run_sweep;
pub use study::{Study, StudyConfig, StudyOutput};
pub use sweep::{
    CellResult, FaultScenarioId, PolicyId, PresetId, ShardReport, SweepConfig, SweepReport, Winner,
};

pub use fmig_analysis as analysis;
pub use fmig_migrate as migrate;
pub use fmig_sim as sim;
pub use fmig_trace as trace;
pub use fmig_workload as workload;
