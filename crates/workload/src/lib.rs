//! Synthetic NCAR mass-storage workload generator.
//!
//! The original two-year NCAR trace (October 1990 – September 1992,
//! ~3.7 M references) is not publicly available, so this crate generates
//! a synthetic equivalent calibrated against every statistic the paper
//! publishes:
//!
//! * [`preset::PaperTargets`] transcribes the published numbers;
//! * [`rate`] models the daily/weekly/holiday/growth periodicity of
//!   Figures 4–6 (human-driven reads, machine-driven writes);
//! * [`namespace`] grows the directory tree of Table 4 / Figure 12;
//! * [`population`] draws file sizes (Figures 10–11) and per-file
//!   reference behaviour (Figure 8, §5.3);
//! * [`generator`] schedules batch write jobs, clustered read sessions,
//!   within-8-hours echo requests (§6), error references (§5.1), and the
//!   disk/silo/shelf placement policy (§3.1), streaming the time-ordered
//!   requests as path-free [`fmig_trace::IdRecord`]s or as rendered
//!   [`fmig_trace::TraceRecord`]s.
//!
//! # Examples
//!
//! ```
//! use fmig_workload::{Workload, WorkloadConfig};
//!
//! let workload = Workload::generate(&WorkloadConfig {
//!     scale: 0.001,
//!     seed: 7,
//!     ..WorkloadConfig::default()
//! });
//! assert!(!workload.is_empty());
//! let reads = workload
//!     .records()
//!     .filter(|r| r.direction() == fmig_trace::Direction::Read)
//!     .count();
//! assert!(reads > 0);
//! ```

pub mod dist;
pub mod generator;
pub mod namespace;
pub mod population;
pub mod preset;
pub mod rate;

pub use generator::{EventKind, FileMeta, RawEvent, Workload};
pub use namespace::Namespace;
pub use population::{ClassSample, FileSpec, SizeModel};
pub use preset::{PaperTargets, WorkloadConfig};
pub use rate::{RateKind, RateModel};
