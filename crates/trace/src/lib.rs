//! Trace substrate for the Miller & Katz NCAR file-migration study.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`TraceRecord`] — one mass-storage-system (MSS) request, carrying the
//!   fields of Table 2 of the paper (source/destination device, flags,
//!   delta-encoded start time, startup latency, transfer time, file size,
//!   MSS and local path, and requesting user).
//! * [`codec`] — the compact machine-readable ASCII trace format of §4.2,
//!   with delta-encoded timestamps and a same-user flag bit, plus the
//!   verbose "system log" format it was distilled from (used to reproduce
//!   the 50 MB → 10–11 MB per month compaction claim).
//! * [`time`] — a self-contained proleptic-Gregorian calendar (the offline
//!   crate set has no `chrono`), weekday/hour arithmetic, and the US
//!   holiday calendar behind the Figure 6 read-rate dips.
//! * [`stats`] — a single-pass accumulator producing the rows of Table 3.
//!
//! The crate is deliberately free of policy: generation lives in
//! `fmig-workload`, device timing in `fmig-sim`, and analysis in
//! `fmig-analysis`.
//!
//! # Examples
//!
//! ```
//! use fmig_trace::{Direction, Endpoint, TraceRecord, Timestamp};
//!
//! let rec = TraceRecord::read(
//!     Endpoint::MssTapeSilo,
//!     Timestamp::from_unix(655_886_400),
//!     80 << 20,
//!     "/USER/model/run1/day001",
//!     4242,
//! );
//! assert_eq!(rec.direction(), Direction::Read);
//! assert_eq!(rec.mss_device(), Some(fmig_trace::DeviceClass::TapeSilo));
//! ```

pub mod codec;
pub mod error;
pub mod flags;
pub mod ident;
pub mod ingest;
pub mod line;
pub mod record;
pub mod stats;
pub mod time;

pub use codec::{TraceReader, TraceWriter, VerboseLogWriter};
pub use error::TraceError;
pub use flags::FlagWord;
pub use ident::{FileId, FileTable};
pub use ingest::{FormatId, IngestConfig, IngestStream, Sampler};
pub use line::MAX_LINE_BYTES;
pub use record::{DeviceClass, Direction, Endpoint, ErrorKind, IdRecord, Request, TraceRecord};
pub use stats::{DeviceBreakdown, DirectionStats, TraceStats};
pub use time::{CivilDate, Holiday, Timestamp, Weekday, TRACE_EPOCH, TRACE_SECONDS};
