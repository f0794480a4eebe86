//! The trace record and its supporting enums (Table 2 of the paper).
//!
//! A record describes one explicit MSS request made from the Cray with the
//! UNICOS `lread`/`lwrite` commands: where the data came from and went to,
//! when the request started, how long the MSS took to deliver the first
//! byte (startup latency), how long the transfer ran, the file size, both
//! file names, and the requesting user.

use serde::{Deserialize, Serialize};

use crate::ingest::fnv1a64;
use crate::time::Timestamp;

/// One endpoint of a transfer — either the Cray or one of the three MSS
/// storage classes (§3.1: 3380 disk, StorageTek silo, shelved tape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// The Cray Y-MP's local disks (the requesting side).
    Cray,
    /// IBM 3380 disk attached to the MSS control processor.
    MssDisk,
    /// A 3480 cartridge inside the StorageTek 4400 automated silo.
    MssTapeSilo,
    /// A shelved cartridge requiring an operator mount.
    MssTapeManual,
}

impl Endpoint {
    /// The MSS storage class of this endpoint, or `None` for the Cray.
    pub const fn device_class(self) -> Option<DeviceClass> {
        match self {
            Endpoint::Cray => None,
            Endpoint::MssDisk => Some(DeviceClass::Disk),
            Endpoint::MssTapeSilo => Some(DeviceClass::TapeSilo),
            Endpoint::MssTapeManual => Some(DeviceClass::TapeManual),
        }
    }

    /// Short mnemonic used by the trace codec.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Endpoint::Cray => "cray",
            Endpoint::MssDisk => "disk",
            Endpoint::MssTapeSilo => "silo",
            Endpoint::MssTapeManual => "shelf",
        }
    }

    /// Parses the codec mnemonic back into an endpoint.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "cray" => Endpoint::Cray,
            "disk" => Endpoint::MssDisk,
            "silo" => Endpoint::MssTapeSilo,
            "shelf" => Endpoint::MssTapeManual,
            _ => return None,
        })
    }
}

impl core::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The three MSS storage classes the paper breaks Table 3 down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// MSS magnetic disk (IBM 3380).
    Disk,
    /// Robot-mounted tape (StorageTek 4400 ACS).
    TapeSilo,
    /// Operator-mounted shelved tape.
    TapeManual,
}

impl DeviceClass {
    /// All classes in the paper's Table 3 row order.
    pub const ALL: [DeviceClass; 3] = [
        DeviceClass::Disk,
        DeviceClass::TapeSilo,
        DeviceClass::TapeManual,
    ];

    /// Human-readable label matching the paper's tables.
    pub const fn label(self) -> &'static str {
        match self {
            DeviceClass::Disk => "Disk",
            DeviceClass::TapeSilo => "Tape (silo)",
            DeviceClass::TapeManual => "Tape (manual)",
        }
    }

    /// The MSS-side endpoint for this class.
    pub const fn endpoint(self) -> Endpoint {
        match self {
            DeviceClass::Disk => Endpoint::MssDisk,
            DeviceClass::TapeSilo => Endpoint::MssTapeSilo,
            DeviceClass::TapeManual => Endpoint::MssTapeManual,
        }
    }
}

impl core::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Transfer direction as seen from the Cray (§5.2: reads are human-driven,
/// writes machine-driven).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// MSS → Cray.
    Read,
    /// Cray → MSS.
    Write,
}

impl Direction {
    /// Both directions in the paper's column order.
    pub const ALL: [Direction; 2] = [Direction::Read, Direction::Write];

    /// Label used in tables ("Reads"/"Writes").
    pub const fn label(self) -> &'static str {
        match self {
            Direction::Read => "Reads",
            Direction::Write => "Writes",
        }
    }
}

impl core::fmt::Display for Direction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a request failed (§5.1: 4.76% of the 3,688,817 raw references).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The requested bitfile does not exist — "the most common error".
    FileNotFound,
    /// Unrecoverable media (tape/disk) error.
    MediaError,
    /// The transfer was cut short before completion.
    PrematureTermination,
}

impl ErrorKind {
    /// All kinds, in flag-code order (code 1, 2, 3; 0 means no error).
    pub const ALL: [ErrorKind; 3] = [
        ErrorKind::FileNotFound,
        ErrorKind::MediaError,
        ErrorKind::PrematureTermination,
    ];

    /// Flag-field code for this kind (`1..=3`).
    pub const fn code(self) -> u8 {
        match self {
            ErrorKind::FileNotFound => 1,
            ErrorKind::MediaError => 2,
            ErrorKind::PrematureTermination => 3,
        }
    }

    /// Decodes a flag-field code; `0` and unknown codes yield `None`.
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(ErrorKind::FileNotFound),
            2 => Some(ErrorKind::MediaError),
            3 => Some(ErrorKind::PrematureTermination),
            _ => None,
        }
    }
}

impl core::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ErrorKind::FileNotFound => "file not found",
            ErrorKind::MediaError => "media error",
            ErrorKind::PrematureTermination => "premature termination",
        };
        f.write_str(s)
    }
}

/// A single trace record: one MSS request with the Table 2 fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Device the data came from.
    pub source: Endpoint,
    /// Device the data is going to.
    pub destination: Endpoint,
    /// Instant the request was issued on the Cray.
    pub start: Timestamp,
    /// Seconds from request issue until the first byte moved (queueing +
    /// mount + seek).
    pub startup_latency_s: u32,
    /// Milliseconds the data transfer itself took.
    pub transfer_ms: u64,
    /// File size in bytes (MSS files are capped at 200 MB, §3.1).
    pub file_size: u64,
    /// Bitfile name on the MSS.
    pub mss_path: String,
    /// File name on the requesting computer.
    pub local_path: String,
    /// Numeric id of the requesting user.
    pub uid: u32,
    /// Failure recorded for this request, if any.
    pub error: Option<ErrorKind>,
    /// Whether the data was compressed in flight.
    pub compressed: bool,
}

impl TraceRecord {
    /// Builds a successful read of `size` bytes from an MSS device.
    ///
    /// Latency and transfer time start at zero; the simulator fills them
    /// in, or the workload generator synthesises them.
    pub fn read(
        device: Endpoint,
        start: Timestamp,
        size: u64,
        mss_path: impl Into<String>,
        uid: u32,
    ) -> Self {
        let mss_path = mss_path.into();
        let local_path = derive_local_path(&mss_path);
        TraceRecord {
            source: device,
            destination: Endpoint::Cray,
            start,
            startup_latency_s: 0,
            transfer_ms: 0,
            file_size: size,
            mss_path,
            local_path,
            uid,
            error: None,
            compressed: false,
        }
    }

    /// Builds a successful write of `size` bytes to an MSS device.
    pub fn write(
        device: Endpoint,
        start: Timestamp,
        size: u64,
        mss_path: impl Into<String>,
        uid: u32,
    ) -> Self {
        let mss_path = mss_path.into();
        let local_path = derive_local_path(&mss_path);
        TraceRecord {
            source: Endpoint::Cray,
            destination: device,
            start,
            startup_latency_s: 0,
            transfer_ms: 0,
            file_size: size,
            mss_path,
            local_path,
            uid,
            error: None,
            compressed: false,
        }
    }

    /// Transfer direction implied by the endpoints.
    ///
    /// A record whose source is the Cray is a write; anything flowing out
    /// of an MSS device is a read.
    pub fn direction(&self) -> Direction {
        if self.source == Endpoint::Cray {
            Direction::Write
        } else {
            Direction::Read
        }
    }

    /// The MSS storage class serving this request.
    ///
    /// `None` only for malformed records with no MSS endpoint.
    pub fn mss_device(&self) -> Option<DeviceClass> {
        self.source
            .device_class()
            .or_else(|| self.destination.device_class())
    }

    /// True if the request completed without error.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Instant the first byte moved.
    pub fn first_byte_at(&self) -> Timestamp {
        self.start.add_secs(self.startup_latency_s as i64)
    }

    /// Instant the transfer finished.
    ///
    /// `transfer_ms` is carried through at millisecond resolution and
    /// rounded to the nearest whole second at the [`Timestamp`]
    /// boundary, so sub-second transfers do not collapse onto
    /// [`Self::first_byte_at`].
    pub fn completed_at(&self) -> Timestamp {
        self.first_byte_at()
            .add_secs(((self.transfer_ms + 500) / 1000) as i64)
    }
}

/// What the device model, [`crate::TraceStats`], the per-file census and
/// policy-replay preparation read of one request — everything in a
/// [`TraceRecord`] except the names. Implemented by [`TraceRecord`] and
/// by the path-free [`IdRecord`], so each of those layers is one engine
/// over either.
pub trait Request {
    /// Instant the request was issued on the Cray.
    fn start(&self) -> Timestamp;
    /// File size in bytes.
    fn file_size(&self) -> u64;
    /// Transfer direction.
    fn direction(&self) -> Direction;
    /// The MSS storage class serving this request, if it names one.
    fn mss_device(&self) -> Option<DeviceClass>;
    /// Failure recorded for this request, if any.
    fn error(&self) -> Option<ErrorKind>;
    /// Seconds from request issue until the first byte moved.
    fn startup_latency_s(&self) -> u32;
    /// [`fnv1a64`] of the MSS directory the file lives in (the path up
    /// to its last `/`). Files of one directory share a 3380 volume, so
    /// the device model picks the spindle from this.
    fn volume_hash(&self) -> u64;
    /// Records the timing the device model measured.
    fn annotate(&mut self, startup_latency_s: u32, transfer_ms: u64);
}

impl Request for TraceRecord {
    fn start(&self) -> Timestamp {
        self.start
    }

    fn file_size(&self) -> u64 {
        self.file_size
    }

    fn direction(&self) -> Direction {
        TraceRecord::direction(self)
    }

    fn mss_device(&self) -> Option<DeviceClass> {
        TraceRecord::mss_device(self)
    }

    fn error(&self) -> Option<ErrorKind> {
        self.error
    }

    fn startup_latency_s(&self) -> u32 {
        self.startup_latency_s
    }

    fn volume_hash(&self) -> u64 {
        let dir = self
            .mss_path
            .rsplit_once('/')
            .map_or(self.mss_path.as_str(), |(d, _)| d);
        fnv1a64(dir.as_bytes())
    }

    fn annotate(&mut self, startup_latency_s: u32, transfer_ms: u64) {
        self.startup_latency_s = startup_latency_s;
        self.transfer_ms = transfer_ms;
    }
}

/// A request whose file is named by a caller-assigned slot instead of a
/// path: what a source that already knows its files' identities (the
/// workload generator) hands the sweep, so no layer builds, hashes or
/// frees a string per record. `Copy`, 40 bytes. The slot space belongs
/// to whoever built the record; the id-keyed accumulators index by it
/// directly and take no paths, so the two cannot mix on one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdRecord {
    /// Instant the request was issued on the Cray.
    pub start: Timestamp,
    /// [`Request::volume_hash`] of the file's directory.
    pub volume: u64,
    /// File size in bytes.
    pub file_size: u64,
    /// The file's slot: equal for two records exactly when a
    /// [`TraceRecord`] rendering would give them one `mss_path`.
    /// Meaningless (`u32::MAX`) on errored records, which name files
    /// that never existed.
    pub file: u32,
    /// Seconds from request issue until the first byte moved.
    pub startup_latency_s: u32,
    /// Transfer direction.
    pub direction: Direction,
    /// MSS storage class serving the request.
    pub device: DeviceClass,
    /// Failure recorded for this request, if any.
    pub error: Option<ErrorKind>,
}

impl Request for IdRecord {
    fn start(&self) -> Timestamp {
        self.start
    }

    fn file_size(&self) -> u64 {
        self.file_size
    }

    fn direction(&self) -> Direction {
        self.direction
    }

    fn mss_device(&self) -> Option<DeviceClass> {
        Some(self.device)
    }

    fn error(&self) -> Option<ErrorKind> {
        self.error
    }

    fn startup_latency_s(&self) -> u32 {
        self.startup_latency_s
    }

    fn volume_hash(&self) -> u64 {
        self.volume
    }

    /// Keeps the latency; nothing downstream of the device model reads
    /// an id record's transfer time.
    fn annotate(&mut self, startup_latency_s: u32, _transfer_ms: u64) {
        self.startup_latency_s = startup_latency_s;
    }
}

/// Derives the Cray-local scratch path the paper's Table 2 pairs with each
/// MSS bitfile name.
fn derive_local_path(mss_path: &str) -> String {
    match mss_path.rsplit_once('/') {
        Some((_, base)) => format!("/tmp/wk/{base}"),
        None => format!("/tmp/wk/{mss_path}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TRACE_EPOCH;

    #[test]
    fn read_and_write_directions() {
        let r = TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH, 1 << 20, "/A/b/c", 7);
        assert_eq!(r.direction(), Direction::Read);
        assert_eq!(r.mss_device(), Some(DeviceClass::Disk));
        let w = TraceRecord::write(Endpoint::MssTapeSilo, TRACE_EPOCH, 1 << 20, "/A/b/c", 7);
        assert_eq!(w.direction(), Direction::Write);
        assert_eq!(w.mss_device(), Some(DeviceClass::TapeSilo));
    }

    #[test]
    fn local_path_mirrors_basename() {
        let r = TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH, 1, "/CCM/run9/day004", 7);
        assert_eq!(r.local_path, "/tmp/wk/day004");
        let r2 = TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH, 1, "bare", 7);
        assert_eq!(r2.local_path, "/tmp/wk/bare");
    }

    #[test]
    fn id_record_reads_like_the_record_it_stands_for() {
        let mut rec = TraceRecord::write(Endpoint::MssTapeSilo, TRACE_EPOCH, 9, "/u1/run/f0001", 7);
        let mut id = IdRecord {
            start: TRACE_EPOCH,
            volume: fnv1a64(b"/u1/run"),
            file_size: 9,
            file: 3,
            startup_latency_s: 0,
            direction: Direction::Write,
            device: DeviceClass::TapeSilo,
            error: None,
        };
        assert_eq!(std::mem::size_of::<IdRecord>(), 40);
        rec.annotate(12, 3400);
        id.annotate(12, 3400);
        assert_eq!((rec.startup_latency_s, rec.transfer_ms), (12, 3400));
        // Through the trait, so the record's inherent methods stay out.
        fn same(a: &impl Request, b: &impl Request) {
            assert_eq!(a.start(), b.start());
            assert_eq!(a.file_size(), b.file_size());
            assert_eq!(a.direction(), b.direction());
            assert_eq!(a.mss_device(), b.mss_device());
            assert_eq!(a.error(), b.error());
            assert_eq!(a.startup_latency_s(), b.startup_latency_s());
            assert_eq!(a.volume_hash(), b.volume_hash());
        }
        same(&rec, &id);
        // A path without a directory is its own volume.
        let bare = TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH, 1, "bare", 7);
        assert_eq!(bare.volume_hash(), fnv1a64(b"bare"));
    }

    #[test]
    fn endpoint_mnemonics_roundtrip() {
        for ep in [
            Endpoint::Cray,
            Endpoint::MssDisk,
            Endpoint::MssTapeSilo,
            Endpoint::MssTapeManual,
        ] {
            assert_eq!(Endpoint::from_mnemonic(ep.mnemonic()), Some(ep));
        }
        assert_eq!(Endpoint::from_mnemonic("nope"), None);
    }

    #[test]
    fn error_codes_roundtrip() {
        for kind in ErrorKind::ALL {
            assert_eq!(ErrorKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(ErrorKind::from_code(0), None);
        assert_eq!(ErrorKind::from_code(7), None);
    }

    #[test]
    fn completion_times_accumulate() {
        let mut r = TraceRecord::read(Endpoint::MssTapeSilo, TRACE_EPOCH, 80_000_000, "/x", 1);
        r.startup_latency_s = 85;
        r.transfer_ms = 40_000;
        assert_eq!(r.first_byte_at(), TRACE_EPOCH.add_secs(85));
        assert_eq!(r.completed_at(), TRACE_EPOCH.add_secs(125));
    }

    #[test]
    fn completed_at_rounds_transfer_millis_to_nearest_second() {
        let mut r = TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH, 1, "/x", 1);
        r.startup_latency_s = 10;
        // Below half a second: rounds down to the first-byte instant.
        r.transfer_ms = 400;
        assert_eq!(r.completed_at(), TRACE_EPOCH.add_secs(10));
        // At or above half a second: carries into the next second
        // instead of truncating to zero.
        r.transfer_ms = 500;
        assert_eq!(r.completed_at(), TRACE_EPOCH.add_secs(11));
        r.transfer_ms = 999;
        assert_eq!(r.completed_at(), TRACE_EPOCH.add_secs(11));
        // Whole-plus-fraction: 1.5 s rounds to 2 s, not the floored 1 s.
        r.transfer_ms = 1_500;
        assert_eq!(r.completed_at(), TRACE_EPOCH.add_secs(12));
    }

    #[test]
    fn device_class_labels_match_paper() {
        assert_eq!(DeviceClass::Disk.label(), "Disk");
        assert_eq!(DeviceClass::TapeSilo.label(), "Tape (silo)");
        assert_eq!(DeviceClass::TapeManual.label(), "Tape (manual)");
        assert_eq!(DeviceClass::TapeManual.endpoint(), Endpoint::MssTapeManual);
    }
}
