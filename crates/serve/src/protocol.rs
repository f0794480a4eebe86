//! The hand-rolled wire protocol of the live HSM service.
//!
//! Every frame on every socket is `u32` little-endian payload length,
//! one `u8` frame type, then a fixed-width little-endian payload. There
//! is no external serialization dependency and no self-describing
//! metadata — both ends are this workspace, so the codec optimizes for
//! auditability: every field is written and read in one obvious place.
//!
//! # Robustness contract
//!
//! Decoding is total: any byte sequence either yields a [`Frame`] or a
//! [`ProtoError`] — never a panic, and never an allocation larger than
//! [`MAX_FRAME`] (the length prefix is validated **before**
//! `Vec::with_capacity`, so a hostile or corrupted 4-GiB length field
//! cannot balloon memory). Truncated payloads, trailing garbage,
//! unknown frame types, and invalid enum discriminants are all distinct
//! errors. The property tests in `tests/protocol_props.rs` pin all of
//! this: round-trips for every frame type, and rejection (not panic)
//! for truncated, corrupted, and oversized inputs.
//!
//! Virtual time: the service simulates the paper's hardware, so frames
//! carry **virtual milliseconds** (`_vms` fields) on the same clock the
//! simulator oracle uses — that equivalence is what the smoke test
//! checks. See `docs/architecture.md` for the topology.

use std::io::{self, Read, Write};

use fmig_trace::DeviceClass;

/// Protocol version; bumped on any wire-incompatible change.
pub const PROTO_VERSION: u32 = 1;

/// Hard cap on a frame's payload length, enforced before any
/// allocation. Every real frame is under 200 bytes; the cap only exists
/// so a corrupted length prefix fails fast instead of allocating.
pub const MAX_FRAME: u32 = 1 << 20;

/// Sentinel for "no next-use annotation" in request frames (wire form
/// of `Option<i64>::None`).
pub const NO_NEXT_USE: i64 = i64::MIN;

/// Sentinel deadline meaning "no deadline" (simulator-compat mode).
pub const NO_DEADLINE: i64 = i64::MAX;

/// Virtual time far past any trace: advancing here drains everything,
/// the split-engine equivalent of the simulator's final queue drain.
/// Also the origin's bound on every wire-supplied time, which keeps
/// `time + stage delay` far from overflow.
pub const DRAIN_HORIZON_VMS: i64 = i64::MAX / 4;

/// Decode failure; the connection that produced it is poisoned and
/// should be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// The payload ended before the frame's fixed-width fields did.
    Truncated,
    /// The payload was longer than the frame's fields.
    TrailingBytes(usize),
    /// Unknown frame-type byte.
    UnknownType(u8),
    /// A field carried an invalid enum discriminant.
    BadDiscriminant(&'static str, u8),
    /// Socket-level failure while reading a frame.
    Io(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversized(n) => write!(f, "frame length {n} exceeds cap {MAX_FRAME}"),
            ProtoError::Truncated => write!(f, "frame payload truncated"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame payload"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtoError::BadDiscriminant(what, v) => write!(f, "invalid {what} discriminant {v}"),
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e.to_string())
    }
}

/// Why the daemon refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The daemon is draining; no new work is admitted.
    Draining,
    /// The origin circuit breaker is open and the degraded-mode queue
    /// bound is exhausted: load is shed instead of queued.
    Shedding,
}

/// How a request was served, as reported to the load generator. Mirrors
/// `fmig_sim::ServedBy` plus the degraded outcome a live service needs:
/// a recall abandoned after its deadline/retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedKind {
    /// Disk read hit.
    Hit,
    /// Read coalesced onto an outstanding recall.
    DelayedHit,
    /// Read served by its own tape recall.
    Recall,
    /// Write absorbed by the staging disk.
    Write,
    /// The recall was abandoned (deadline or retry budget exhausted);
    /// the reply is an error, not data.
    Failed,
}

/// One protocol frame; see the module docs for the wire layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- client <-> daemon ----
    /// Client hello: version check plus the connection's id.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        version: u32,
        /// Client-chosen connection id (loadgen connection index).
        conn: u32,
    },
    /// Daemon's hello reply.
    HelloAck {
        /// The daemon's protocol version.
        version: u32,
    },
    /// Read request for one trace reference.
    ReadReq {
        /// Global trace-order sequence number; the daemon serves
        /// requests in this order regardless of connection.
        req: u64,
        /// Dense file id, in first-appearance order: taken in `req`
        /// order, a file never seen before is exactly one past the
        /// highest id so far. The daemon drops a connection whose
        /// request skips ahead — its per-file arenas are indexed by
        /// this number. This narrows what a client may send (any id
        /// below 2^32 used to be admitted) without changing the frame
        /// layout, so [`PROTO_VERSION`] stands: `fmig-loadgen` and the
        /// store importer already number files this way, a client that
        /// does not is refused.
        file: u64,
        /// File size in bytes.
        size: u64,
        /// Virtual arrival time, seconds.
        time_s: i64,
        /// Next-use annotation ([`NO_NEXT_USE`] when absent).
        next_use: i64,
        /// The trace's device annotation for the file.
        device: DeviceClass,
    },
    /// Write request for one trace reference; same fields as
    /// [`Frame::ReadReq`].
    WriteReq {
        /// Global trace-order sequence number.
        req: u64,
        /// Dense file id, in first-appearance order.
        file: u64,
        /// File size in bytes.
        size: u64,
        /// Virtual arrival time, seconds.
        time_s: i64,
        /// Next-use annotation ([`NO_NEXT_USE`] when absent).
        next_use: i64,
        /// The trace's device annotation for the file.
        device: DeviceClass,
    },
    /// A request reached its first byte.
    Done {
        /// The request's sequence number.
        req: u64,
        /// First-byte wait in virtual milliseconds.
        wait_vms: i64,
        /// How it was served.
        served: ServedKind,
    },
    /// A request was refused.
    Rejected {
        /// The request's sequence number.
        req: u64,
        /// Why.
        reason: RejectReason,
    },
    /// Graceful-shutdown signal: drain in-flight recalls, land every
    /// pending writeback on tape, then reply [`Frame::DrainDone`].
    Drain,
    /// Drain finished; the accounting the shutdown test audits.
    DrainDone {
        /// Writes acknowledged with [`Frame::Done`].
        acked_writes: u64,
        /// Bytes those writes carried.
        acked_write_bytes: u64,
        /// Flush jobs sent to the origin.
        flush_jobs: u64,
        /// Bytes those flush jobs carried.
        flush_bytes: u64,
        /// Bytes the origin confirmed landed on tape.
        origin_flushed_bytes: u64,
    },
    /// Ask the daemon for its counters.
    StatsReq,
    /// The daemon's counters; cache fields match `CacheStats` and the
    /// rest mirror `HierarchyMetrics`, which is what lets the smoke
    /// test compare them to the oracle field by field. Boxed: the
    /// 160-byte payload would otherwise size every queued frame.
    Stats(Box<ServiceStats>),
    /// Terminate the daemon (after a drain).
    Shutdown,

    // ---- daemon <-> origin ----
    /// Daemon hello to the origin: seed + scenario so both sides
    /// materialize the identical fault schedule and keyed-noise stream.
    OriginHello {
        /// Must equal [`PROTO_VERSION`].
        version: u32,
        /// The cell's engine seed (keyed noise + fault schedule).
        seed: u64,
        /// Fault scenario name index (`FaultScenarioId::ALL` position).
        scenario: u8,
        /// Fault-schedule span start, virtual ms.
        span_start_vms: i64,
        /// Fault-schedule span end, virtual ms.
        span_end_vms: i64,
    },
    /// Origin's hello reply.
    OriginHelloAck {
        /// The origin's protocol version.
        version: u32,
    },
    /// A recall enters the origin's tape queue.
    Recall {
        /// Daemon-assigned job id, echoed in every reply about it.
        job: u64,
        /// Dense file id (for logging; the origin keys nothing on it).
        file: u64,
        /// Arrival-order recall sequence number — the identity the
        /// fault schedule's read-error decisions and the keyed noise
        /// draws use, so origin physics equal oracle physics.
        seq: u64,
        /// Bytes to stage.
        size: u64,
        /// Tape tier.
        tier: DeviceClass,
        /// Virtual time the recall joins the drive queue.
        enter_vms: i64,
        /// First-byte deadline; [`NO_DEADLINE`] disables it.
        deadline_vms: i64,
    },
    /// A write-behind flush enters the origin's tape queue.
    Flush {
        /// Daemon-assigned job id.
        job: u64,
        /// Dense file id.
        file: u64,
        /// Spawn-order flush sequence number (keyed-noise identity).
        seq: u64,
        /// Bytes to land.
        size: u64,
        /// Tape tier.
        tier: DeviceClass,
        /// Virtual time the flush becomes ready to queue.
        ready_vms: i64,
    },
    /// Run the origin's event queue up to (and including) `until_vms`.
    Advance {
        /// Watermark, virtual ms.
        until_vms: i64,
    },
    /// The origin processed everything at or before `now_vms`.
    AdvanceDone {
        /// The lookahead grant: at least the watermark, and up to the
        /// millisecond before the origin's next queued event.
        now_vms: i64,
    },
    /// A recall's transfer started: its requester (and coalesced
    /// waiters) are served from this instant.
    RecallFirstByte {
        /// The recall's job id.
        job: u64,
        /// First-byte virtual time.
        fb_vms: i64,
    },
    /// A recall's transfer finished; the file is fully staged.
    RecallDone {
        /// The recall's job id.
        job: u64,
        /// Completion virtual time.
        done_vms: i64,
    },
    /// A recall attempt failed (media read error, or first byte past
    /// its deadline). The origin holds this recall until the daemon
    /// answers [`Frame::RecallRetry`] or [`Frame::RecallAbandon`].
    RecallFailed {
        /// The recall's job id.
        job: u64,
        /// Failed attempts so far, this one included.
        attempt: u32,
        /// Failure virtual time.
        failed_vms: i64,
        /// When the drive finishes unloading (earliest possible
        /// rejoin; the daemon adds its backoff on top).
        drive_free_vms: i64,
    },
    /// Retry decision: the recall rejoins its drive queue at
    /// `rejoin_vms` (drive-free time plus the daemon's backoff).
    RecallRetry {
        /// The recall's job id.
        job: u64,
        /// Rejoin virtual time.
        rejoin_vms: i64,
    },
    /// Abandon decision: budget or deadline exhausted; the origin
    /// drops the job.
    RecallAbandon {
        /// The recall's job id.
        job: u64,
    },
    /// A flush landed on tape.
    FlushDone {
        /// The flush's job id.
        job: u64,
        /// Completion virtual time.
        done_vms: i64,
        /// Bytes landed.
        bytes: u64,
    },
    /// The origin drained; its degraded-mode accounting.
    OriginDrainDone {
        /// Outage windows that actually parked a unit.
        outage_events: u64,
        /// Queue wait attributed to outage overlap, virtual ms.
        outage_wait_vms: i64,
        /// Transfers run inside a slow-drive window.
        slow_transfers: u64,
        /// Total bytes landed by completed flush jobs.
        flushed_bytes: u64,
        /// Recalls that completed successfully.
        recalls_completed: u64,
        /// Recall attempts that failed.
        read_failures: u64,
    },
}

/// The daemon's counter snapshot (the payload of [`Frame::Stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests admitted.
    pub requests: u64,
    /// `CacheStats::read_hits`.
    pub read_hits: u64,
    /// `CacheStats::read_misses`.
    pub read_misses: u64,
    /// `CacheStats::read_hit_bytes`.
    pub read_hit_bytes: u64,
    /// `CacheStats::read_miss_bytes`.
    pub read_miss_bytes: u64,
    /// `CacheStats::writes`.
    pub writes: u64,
    /// `CacheStats::evictions`.
    pub evictions: u64,
    /// `CacheStats::evicted_bytes`.
    pub evicted_bytes: u64,
    /// `CacheStats::stall_bytes`: always zero, since nothing writes it
    /// any more. It keeps the frame layout and the benchmark's reader;
    /// ROADMAP item 4 drops it with that reader.
    pub stall_bytes: u64,
    /// `CacheStats::purge_flush_bytes`: always zero, and dropped with
    /// `stall_bytes`.
    pub purge_flush_bytes: u64,
    /// `CacheStats::writeback_bytes`.
    pub writeback_bytes: u64,
    /// `DiskCache::fetch_retries` — failed recall attempts.
    pub fetch_retries: u64,
    /// Recalls issued.
    pub recalls: u64,
    /// Reads coalesced onto outstanding recalls.
    pub delayed_hits: u64,
    /// Flush jobs sent to the origin.
    pub flush_jobs: u64,
    /// Bytes those flush jobs carried.
    pub flush_bytes: u64,
    /// Recalls abandoned (deadline or retry budget).
    pub abandoned: u64,
    /// Origin-reported outage windows that parked a unit.
    pub outage_events: u64,
    /// Origin-reported outage-overlapped queue wait, virtual ms.
    pub outage_wait_vms: i64,
    /// Origin-reported transfers inside slow-drive windows.
    pub slow_transfers: u64,
}

// ---- little-endian field helpers ----

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.at.checked_add(n).ok_or(ProtoError::Truncated)?;
        let s = self.buf.get(self.at..end).ok_or(ProtoError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn device(&mut self) -> Result<DeviceClass, ProtoError> {
        match self.u8()? {
            0 => Ok(DeviceClass::Disk),
            1 => Ok(DeviceClass::TapeSilo),
            2 => Ok(DeviceClass::TapeManual),
            v => Err(ProtoError::BadDiscriminant("device", v)),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.buf.len() - self.at))
        }
    }
}

fn device_byte(d: DeviceClass) -> u8 {
    match d {
        DeviceClass::Disk => 0,
        DeviceClass::TapeSilo => 1,
        DeviceClass::TapeManual => 2,
    }
}

fn served_byte(s: ServedKind) -> u8 {
    match s {
        ServedKind::Hit => 0,
        ServedKind::DelayedHit => 1,
        ServedKind::Recall => 2,
        ServedKind::Write => 3,
        ServedKind::Failed => 4,
    }
}

fn served_of(v: u8) -> Result<ServedKind, ProtoError> {
    match v {
        0 => Ok(ServedKind::Hit),
        1 => Ok(ServedKind::DelayedHit),
        2 => Ok(ServedKind::Recall),
        3 => Ok(ServedKind::Write),
        4 => Ok(ServedKind::Failed),
        v => Err(ProtoError::BadDiscriminant("served", v)),
    }
}

fn reason_byte(r: RejectReason) -> u8 {
    match r {
        RejectReason::Draining => 0,
        RejectReason::Shedding => 1,
    }
}

fn reason_of(v: u8) -> Result<RejectReason, ProtoError> {
    match v {
        0 => Ok(RejectReason::Draining),
        1 => Ok(RejectReason::Shedding),
        v => Err(ProtoError::BadDiscriminant("reason", v)),
    }
}

// Frame-type bytes.
const T_HELLO: u8 = 0x01;
const T_HELLO_ACK: u8 = 0x02;
const T_READ: u8 = 0x10;
const T_WRITE: u8 = 0x11;
const T_DONE: u8 = 0x12;
const T_REJECTED: u8 = 0x13;
const T_DRAIN: u8 = 0x14;
const T_DRAIN_DONE: u8 = 0x15;
const T_STATS_REQ: u8 = 0x16;
const T_STATS: u8 = 0x17;
const T_SHUTDOWN: u8 = 0x18;
const T_ORIGIN_HELLO: u8 = 0x20;
const T_ORIGIN_HELLO_ACK: u8 = 0x21;
const T_RECALL: u8 = 0x22;
const T_FLUSH: u8 = 0x23;
const T_ADVANCE: u8 = 0x24;
const T_ADVANCE_DONE: u8 = 0x25;
const T_RECALL_FIRST_BYTE: u8 = 0x26;
const T_RECALL_DONE: u8 = 0x27;
const T_RECALL_FAILED: u8 = 0x28;
const T_RECALL_RETRY: u8 = 0x29;
const T_RECALL_ABANDON: u8 = 0x2A;
const T_FLUSH_DONE: u8 = 0x2B;
const T_ORIGIN_DRAIN_DONE: u8 = 0x2C;

impl Frame {
    /// Encodes the frame's type byte plus payload (everything after the
    /// length prefix).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        match *self {
            Frame::Hello { version, conn } => {
                b.push(T_HELLO);
                b.extend_from_slice(&version.to_le_bytes());
                b.extend_from_slice(&conn.to_le_bytes());
            }
            Frame::HelloAck { version } => {
                b.push(T_HELLO_ACK);
                b.extend_from_slice(&version.to_le_bytes());
            }
            Frame::ReadReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            }
            | Frame::WriteReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            } => {
                b.push(if matches!(self, Frame::ReadReq { .. }) {
                    T_READ
                } else {
                    T_WRITE
                });
                b.extend_from_slice(&req.to_le_bytes());
                b.extend_from_slice(&file.to_le_bytes());
                b.extend_from_slice(&size.to_le_bytes());
                b.extend_from_slice(&time_s.to_le_bytes());
                b.extend_from_slice(&next_use.to_le_bytes());
                b.push(device_byte(device));
            }
            Frame::Done {
                req,
                wait_vms,
                served,
            } => {
                b.push(T_DONE);
                b.extend_from_slice(&req.to_le_bytes());
                b.extend_from_slice(&wait_vms.to_le_bytes());
                b.push(served_byte(served));
            }
            Frame::Rejected { req, reason } => {
                b.push(T_REJECTED);
                b.extend_from_slice(&req.to_le_bytes());
                b.push(reason_byte(reason));
            }
            Frame::Drain => b.push(T_DRAIN),
            Frame::DrainDone {
                acked_writes,
                acked_write_bytes,
                flush_jobs,
                flush_bytes,
                origin_flushed_bytes,
            } => {
                b.push(T_DRAIN_DONE);
                for v in [
                    acked_writes,
                    acked_write_bytes,
                    flush_jobs,
                    flush_bytes,
                    origin_flushed_bytes,
                ] {
                    b.extend_from_slice(&v.to_le_bytes());
                }
            }
            Frame::StatsReq => b.push(T_STATS_REQ),
            Frame::Stats(ref s) => {
                b.push(T_STATS);
                for v in [
                    s.requests,
                    s.read_hits,
                    s.read_misses,
                    s.read_hit_bytes,
                    s.read_miss_bytes,
                    s.writes,
                    s.evictions,
                    s.evicted_bytes,
                    s.stall_bytes,
                    s.purge_flush_bytes,
                    s.writeback_bytes,
                    s.fetch_retries,
                    s.recalls,
                    s.delayed_hits,
                    s.flush_jobs,
                    s.flush_bytes,
                    s.abandoned,
                    s.outage_events,
                ] {
                    b.extend_from_slice(&v.to_le_bytes());
                }
                b.extend_from_slice(&s.outage_wait_vms.to_le_bytes());
                b.extend_from_slice(&s.slow_transfers.to_le_bytes());
            }
            Frame::Shutdown => b.push(T_SHUTDOWN),
            Frame::OriginHello {
                version,
                seed,
                scenario,
                span_start_vms,
                span_end_vms,
            } => {
                b.push(T_ORIGIN_HELLO);
                b.extend_from_slice(&version.to_le_bytes());
                b.extend_from_slice(&seed.to_le_bytes());
                b.push(scenario);
                b.extend_from_slice(&span_start_vms.to_le_bytes());
                b.extend_from_slice(&span_end_vms.to_le_bytes());
            }
            Frame::OriginHelloAck { version } => {
                b.push(T_ORIGIN_HELLO_ACK);
                b.extend_from_slice(&version.to_le_bytes());
            }
            Frame::Recall {
                job,
                file,
                seq,
                size,
                tier,
                enter_vms,
                deadline_vms,
            } => {
                b.push(T_RECALL);
                for v in [job, file, seq, size] {
                    b.extend_from_slice(&v.to_le_bytes());
                }
                b.push(device_byte(tier));
                b.extend_from_slice(&enter_vms.to_le_bytes());
                b.extend_from_slice(&deadline_vms.to_le_bytes());
            }
            Frame::Flush {
                job,
                file,
                seq,
                size,
                tier,
                ready_vms,
            } => {
                b.push(T_FLUSH);
                for v in [job, file, seq, size] {
                    b.extend_from_slice(&v.to_le_bytes());
                }
                b.push(device_byte(tier));
                b.extend_from_slice(&ready_vms.to_le_bytes());
            }
            Frame::Advance { until_vms } => {
                b.push(T_ADVANCE);
                b.extend_from_slice(&until_vms.to_le_bytes());
            }
            Frame::AdvanceDone { now_vms } => {
                b.push(T_ADVANCE_DONE);
                b.extend_from_slice(&now_vms.to_le_bytes());
            }
            Frame::RecallFirstByte { job, fb_vms } => {
                b.push(T_RECALL_FIRST_BYTE);
                b.extend_from_slice(&job.to_le_bytes());
                b.extend_from_slice(&fb_vms.to_le_bytes());
            }
            Frame::RecallDone { job, done_vms } => {
                b.push(T_RECALL_DONE);
                b.extend_from_slice(&job.to_le_bytes());
                b.extend_from_slice(&done_vms.to_le_bytes());
            }
            Frame::RecallFailed {
                job,
                attempt,
                failed_vms,
                drive_free_vms,
            } => {
                b.push(T_RECALL_FAILED);
                b.extend_from_slice(&job.to_le_bytes());
                b.extend_from_slice(&attempt.to_le_bytes());
                b.extend_from_slice(&failed_vms.to_le_bytes());
                b.extend_from_slice(&drive_free_vms.to_le_bytes());
            }
            Frame::RecallRetry { job, rejoin_vms } => {
                b.push(T_RECALL_RETRY);
                b.extend_from_slice(&job.to_le_bytes());
                b.extend_from_slice(&rejoin_vms.to_le_bytes());
            }
            Frame::RecallAbandon { job } => {
                b.push(T_RECALL_ABANDON);
                b.extend_from_slice(&job.to_le_bytes());
            }
            Frame::FlushDone {
                job,
                done_vms,
                bytes,
            } => {
                b.push(T_FLUSH_DONE);
                b.extend_from_slice(&job.to_le_bytes());
                b.extend_from_slice(&done_vms.to_le_bytes());
                b.extend_from_slice(&bytes.to_le_bytes());
            }
            Frame::OriginDrainDone {
                outage_events,
                outage_wait_vms,
                slow_transfers,
                flushed_bytes,
                recalls_completed,
                read_failures,
            } => {
                b.push(T_ORIGIN_DRAIN_DONE);
                b.extend_from_slice(&outage_events.to_le_bytes());
                b.extend_from_slice(&outage_wait_vms.to_le_bytes());
                for v in [
                    slow_transfers,
                    flushed_bytes,
                    recalls_completed,
                    read_failures,
                ] {
                    b.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        b
    }

    /// Decodes a frame body (type byte + payload, no length prefix).
    pub fn decode_body(body: &[u8]) -> Result<Frame, ProtoError> {
        let mut r = Reader::new(body);
        let t = r.u8()?;
        let frame = match t {
            T_HELLO => Frame::Hello {
                version: r.u32()?,
                conn: r.u32()?,
            },
            T_HELLO_ACK => Frame::HelloAck { version: r.u32()? },
            T_READ | T_WRITE => {
                let req = r.u64()?;
                let file = r.u64()?;
                let size = r.u64()?;
                let time_s = r.i64()?;
                let next_use = r.i64()?;
                let device = r.device()?;
                if t == T_READ {
                    Frame::ReadReq {
                        req,
                        file,
                        size,
                        time_s,
                        next_use,
                        device,
                    }
                } else {
                    Frame::WriteReq {
                        req,
                        file,
                        size,
                        time_s,
                        next_use,
                        device,
                    }
                }
            }
            T_DONE => Frame::Done {
                req: r.u64()?,
                wait_vms: r.i64()?,
                served: served_of(r.u8()?)?,
            },
            T_REJECTED => Frame::Rejected {
                req: r.u64()?,
                reason: reason_of(r.u8()?)?,
            },
            T_DRAIN => Frame::Drain,
            T_DRAIN_DONE => Frame::DrainDone {
                acked_writes: r.u64()?,
                acked_write_bytes: r.u64()?,
                flush_jobs: r.u64()?,
                flush_bytes: r.u64()?,
                origin_flushed_bytes: r.u64()?,
            },
            T_STATS_REQ => Frame::StatsReq,
            T_STATS => Frame::Stats(Box::new(ServiceStats {
                requests: r.u64()?,
                read_hits: r.u64()?,
                read_misses: r.u64()?,
                read_hit_bytes: r.u64()?,
                read_miss_bytes: r.u64()?,
                writes: r.u64()?,
                evictions: r.u64()?,
                evicted_bytes: r.u64()?,
                stall_bytes: r.u64()?,
                purge_flush_bytes: r.u64()?,
                writeback_bytes: r.u64()?,
                fetch_retries: r.u64()?,
                recalls: r.u64()?,
                delayed_hits: r.u64()?,
                flush_jobs: r.u64()?,
                flush_bytes: r.u64()?,
                abandoned: r.u64()?,
                outage_events: r.u64()?,
                outage_wait_vms: r.i64()?,
                slow_transfers: r.u64()?,
            })),
            T_SHUTDOWN => Frame::Shutdown,
            T_ORIGIN_HELLO => Frame::OriginHello {
                version: r.u32()?,
                seed: r.u64()?,
                scenario: r.u8()?,
                span_start_vms: r.i64()?,
                span_end_vms: r.i64()?,
            },
            T_ORIGIN_HELLO_ACK => Frame::OriginHelloAck { version: r.u32()? },
            T_RECALL => Frame::Recall {
                job: r.u64()?,
                file: r.u64()?,
                seq: r.u64()?,
                size: r.u64()?,
                tier: r.device()?,
                enter_vms: r.i64()?,
                deadline_vms: r.i64()?,
            },
            T_FLUSH => Frame::Flush {
                job: r.u64()?,
                file: r.u64()?,
                seq: r.u64()?,
                size: r.u64()?,
                tier: r.device()?,
                ready_vms: r.i64()?,
            },
            T_ADVANCE => Frame::Advance {
                until_vms: r.i64()?,
            },
            T_ADVANCE_DONE => Frame::AdvanceDone { now_vms: r.i64()? },
            T_RECALL_FIRST_BYTE => Frame::RecallFirstByte {
                job: r.u64()?,
                fb_vms: r.i64()?,
            },
            T_RECALL_DONE => Frame::RecallDone {
                job: r.u64()?,
                done_vms: r.i64()?,
            },
            T_RECALL_FAILED => Frame::RecallFailed {
                job: r.u64()?,
                attempt: r.u32()?,
                failed_vms: r.i64()?,
                drive_free_vms: r.i64()?,
            },
            T_RECALL_RETRY => Frame::RecallRetry {
                job: r.u64()?,
                rejoin_vms: r.i64()?,
            },
            T_RECALL_ABANDON => Frame::RecallAbandon { job: r.u64()? },
            T_FLUSH_DONE => Frame::FlushDone {
                job: r.u64()?,
                done_vms: r.i64()?,
                bytes: r.u64()?,
            },
            T_ORIGIN_DRAIN_DONE => Frame::OriginDrainDone {
                outage_events: r.u64()?,
                outage_wait_vms: r.i64()?,
                slow_transfers: r.u64()?,
                flushed_bytes: r.u64()?,
                recalls_completed: r.u64()?,
                read_failures: r.u64()?,
            },
            t => return Err(ProtoError::UnknownType(t)),
        };
        r.finish()?;
        Ok(frame)
    }

    /// Writes the length-prefixed frame to `w` (no flush; callers batch
    /// and flush at synchronization points).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtoError> {
        let body = self.encode_body();
        debug_assert!(body.len() as u64 <= MAX_FRAME as u64);
        w.write_all(&(body.len() as u32).to_le_bytes())?;
        w.write_all(&body)?;
        Ok(())
    }

    /// Reads one length-prefixed frame from `r`. The length prefix is
    /// validated against [`MAX_FRAME`] before the payload buffer is
    /// allocated.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, ProtoError> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len);
        if len > MAX_FRAME {
            return Err(ProtoError::Oversized(len));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?;
        Frame::decode_body(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_a_byte_stream() {
        let frames = vec![
            Frame::Hello {
                version: PROTO_VERSION,
                conn: 3,
            },
            Frame::ReadReq {
                req: 42,
                file: 7,
                size: 1 << 20,
                time_s: 1234,
                next_use: NO_NEXT_USE,
                device: DeviceClass::TapeSilo,
            },
            Frame::Done {
                req: 42,
                wait_vms: 302_000,
                served: ServedKind::Recall,
            },
            Frame::Drain,
            Frame::Stats(Box::new(ServiceStats {
                requests: 5764,
                read_hits: 100,
                ..ServiceStats::default()
            })),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.write_to(&mut buf).unwrap();
        }
        let mut cursor = &buf[..];
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut cursor).unwrap(), f);
        }
    }

    #[test]
    fn a_queued_frame_stays_small() {
        // Every request and reply crossing the daemon's channels is one
        // of these; `Stats` is boxed so its payload does not size them.
        assert!(std::mem::size_of::<Frame>() <= 64);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        match Frame::read_from(&mut &buf[..]) {
            Err(ProtoError::Oversized(n)) => assert_eq!(n, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_distinct_errors() {
        let body = Frame::Advance { until_vms: 99 }.encode_body();
        assert_eq!(
            Frame::decode_body(&body[..body.len() - 1]),
            Err(ProtoError::Truncated)
        );
        let mut long = body.clone();
        long.push(0);
        assert_eq!(Frame::decode_body(&long), Err(ProtoError::TrailingBytes(1)));
        assert_eq!(Frame::decode_body(&[]), Err(ProtoError::Truncated));
        assert_eq!(
            Frame::decode_body(&[0xEE]),
            Err(ProtoError::UnknownType(0xEE))
        );
    }
}
