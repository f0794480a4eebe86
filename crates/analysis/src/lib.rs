//! Trace analysis toolkit for the Miller & Katz file-migration study.
//!
//! Every table and figure of the paper's evaluation is regenerated by a
//! module here, fed from a single pass over a trace by [`Analyzer`]:
//!
//! | paper artefact | module |
//! |---|---|
//! | Table 3 (overall statistics) | [`fmig_trace::stats`] + [`latency`] |
//! | Table 4 (file store census) | [`filetrack`] + [`dirs`] |
//! | Figure 3 (latency CDFs) | [`latency`] |
//! | Figures 4–6 (periodicity) | [`timeseries`] |
//! | Figure 7 (request gaps) | [`interref`] |
//! | Figures 8–9 (per-file references) | [`filetrack`] |
//! | Figure 10 (dynamic sizes) | [`sizes`] |
//! | Figure 11 (static sizes) | [`filetrack`] |
//! | Figure 12 (directories) | [`dirs`] |
//! | §6-b (same-file repeats) | [`filetrack`] |
//!
//! [`report`] renders text tables and ASCII CDF plots for the `repro`
//! harness.
//!
//! # Examples
//!
//! ```
//! use fmig_analysis::Analyzer;
//! use fmig_trace::{Endpoint, Timestamp, TraceRecord};
//!
//! let records = vec![
//!     TraceRecord::read(Endpoint::MssDisk, Timestamp::from_unix(0), 1 << 20, "/u/a/x", 7),
//!     TraceRecord::write(Endpoint::MssTapeSilo, Timestamp::from_unix(4), 80 << 20, "/u/a/y", 7),
//! ];
//! let analysis = Analyzer::analyze(records.iter());
//! assert_eq!(analysis.files.file_count(), 2);
//! assert_eq!(analysis.stats.total_references(), 2);
//! ```

pub mod analyzer;
pub mod dirs;
pub mod filetrack;
pub mod hist;
pub mod interref;
pub mod latency;
pub mod report;
pub mod sizes;
pub mod timeseries;

pub use analyzer::Analyzer;
pub use dirs::DirStats;
pub use filetrack::{IdFileTracker, REPEAT_WINDOWS_H};
pub use hist::{LogHistogram, Welford};
pub use interref::GapTracker;
pub use latency::{LatencyAnalysis, LatencyMoments};
pub use report::{ascii_cdf, render_comparisons, render_paper_rows, Comparison, TextTable};
pub use sizes::DynamicSizes;
pub use timeseries::{HourlyProfile, WeekSeries, WeeklyProfile};
