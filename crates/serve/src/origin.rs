//! `fmig-origin`: the "tape" server.
//!
//! Serves one daemon session over TCP as a host of
//! [`fmig_sim::tape::TapeHalf`] — the single statement of the tape
//! physics, the same code the simulators run. This host keeps the
//! half's events in a queue of its own and drains it only as far as the
//! daemon's [`Frame::Advance`] watermarks allow, so the tape physics
//! runs exactly as far as the daemon has observed its own clock; stage
//! noise is the keyed draws of [`fmig_sim::noise`], a pure function of
//! (seed, job identity, stage); completions become frames on the
//! socket. Chaos mode is a [`FaultScenarioId`] materialized into the
//! same outage / read-error / slow-drive schedule the simulator would
//! use for the handshake's seed and span — live chaos injection that
//! stays oracle-comparable.
//!
//! An `Advance { until_vms }` is answered, once everything due is
//! handled, with a **lookahead grant**: `AdvanceDone { now_vms }` names
//! the last millisecond before this host's next queued event
//! ([`DRAIN_HORIZON_VMS`] when nothing is queued), never less than
//! `until_vms`. Nothing is queued in between, so "everything up to
//! `now_vms` is processed" is true as it stands, and the daemon need not
//! ask again before then unless it enqueues something earlier itself.
//!
//! Protocol (daemon → origin): `OriginHello`, then any interleaving of
//! `Recall` / `Flush` enqueues and `Advance` watermarks; `Drain` asks
//! for the degraded-mode counter report; `Shutdown` (or simply closing
//! the connection) ends the session. Origin → daemon frames
//! (`RecallFirstByte`, `RecallDone`, `RecallFailed`, `FlushDone`) are
//! emitted only between an `Advance` and its `AdvanceDone`, except that
//! `RecallFailed` is a blocking round-trip: the origin waits for the
//! daemon's `RecallRetry` / `RecallAbandon` verdict before the engine
//! proceeds — the daemon owns the backoff policy and the retry budget,
//! the origin owns the physics.
//!
//! Every wire-supplied tier and time is checked where it enters: a
//! `Disk` tier, or a time outside `0..=`[`DRAIN_HORIZON_VMS`], ends the
//! session with an error instead of reaching the engine.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};

use fmig_core::FaultScenarioId;
use fmig_sim::config::SimConfig;
use fmig_sim::event::{EventQueue, SimMs, MS};
use fmig_sim::fault::FaultSchedule;
use fmig_sim::noise::Noise;
use fmig_sim::tape::{RetryVerdict, TapeCounters, TapeEv, TapeHalf, TapeHost, Tier};
use fmig_trace::DeviceClass;

use crate::protocol::{Frame, ProtoError, DRAIN_HORIZON_VMS, NO_DEADLINE, PROTO_VERSION};

/// The tape half's host for one daemon session: its event queue, its
/// keyed noise, and the connection completions are framed onto. Emitted
/// frames ride the write buffer until the enclosing advance (or a
/// blocking failure round-trip) flushes them.
struct Session {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    queue: EventQueue<TapeEv>,
    noise: Noise,
    summary: SessionSummary,
}

impl Session {
    fn send(&mut self, frame: Frame) -> Result<(), ProtoError> {
        frame.write_to(&mut self.writer)?;
        Ok(self.writer.flush()?)
    }

    /// Buffers one tape completion for the daemon.
    fn emit(&mut self, frame: Frame) -> Result<(), ProtoError> {
        self.summary.frames_emitted += 1;
        frame.write_to(&mut self.writer)
    }
}

impl TapeHost for Session {
    type Error = ProtoError;

    fn schedule(&mut self, at: SimMs, ev: TapeEv) {
        self.queue.push(at, ev);
    }

    fn noise(&mut self) -> &mut Noise {
        &mut self.noise
    }

    fn first_byte(&mut self, job: u64, at: SimMs) -> Result<(), ProtoError> {
        self.emit(Frame::RecallFirstByte { job, fb_vms: at })
    }

    fn done(&mut self, job: u64, at: SimMs) -> Result<(), ProtoError> {
        self.emit(Frame::RecallDone { job, done_vms: at })
    }

    fn flush_done(&mut self, job: u64, at: SimMs, bytes: u64) -> Result<(), ProtoError> {
        self.emit(Frame::FlushDone {
            job,
            done_vms: at,
            bytes,
        })
    }

    fn failed(
        &mut self,
        job: u64,
        attempts: u32,
        failed_ms: SimMs,
        drive_free_ms: SimMs,
    ) -> Result<RetryVerdict, ProtoError> {
        self.emit(Frame::RecallFailed {
            job,
            attempt: attempts,
            failed_vms: failed_ms,
            drive_free_vms: drive_free_ms,
        })?;
        self.writer.flush()?;
        match Frame::read_from(&mut self.reader)? {
            Frame::RecallRetry { job: j, rejoin_vms } if j == job => Ok(RetryVerdict::Retry {
                rejoin_ms: rejoin_vms,
            }),
            Frame::RecallAbandon { job: j } if j == job => Ok(RetryVerdict::Abandon),
            other => Err(ProtoError::Io(format!(
                "expected retry verdict for job {job}, got {other:?}"
            ))),
        }
    }
}

/// The drain-report frame for the half's counters.
fn drain_frame(c: TapeCounters) -> Frame {
    Frame::OriginDrainDone {
        outage_events: c.outage_events,
        outage_wait_vms: (c.outage_wait_s * MS as f64) as i64,
        slow_transfers: c.slow_transfers,
        flushed_bytes: c.flushed_bytes,
        recalls_completed: c.recalls_completed,
        read_failures: c.read_failures,
    }
}

/// A wire-supplied tape tier; disk jobs never reach the origin.
fn checked_tier(tier: DeviceClass) -> Result<Tier, String> {
    Tier::of(tier).ok_or_else(|| format!("tier {tier:?} is not a tape tier"))
}

/// A wire-supplied virtual time, bounded so no stage delay added to it
/// can overflow.
fn checked_vms(what: &str, vms: SimMs) -> Result<SimMs, String> {
    if (0..=DRAIN_HORIZON_VMS).contains(&vms) {
        Ok(vms)
    } else {
        Err(format!("{what} {vms} outside 0..={DRAIN_HORIZON_VMS}"))
    }
}

/// What one daemon session cost on the link, counted at the origin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// `Advance` watermarks answered: synchronous round trips.
    pub advances: u64,
    /// Tape completions framed to the daemon (`RecallFirstByte`,
    /// `RecallDone`, `RecallFailed`, `FlushDone`).
    pub frames_emitted: u64,
}

/// Accepts one daemon session and serves it to completion.
///
/// Returns the session's link counts on an orderly end (a `Shutdown`
/// frame or the daemon closing the connection); protocol violations are
/// errors.
pub fn serve(listener: TcpListener) -> Result<SessionSummary, String> {
    let (stream, _peer) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = BufWriter::new(stream);

    // Handshake: the daemon tells us the seed, chaos scenario, and the
    // virtual-time span to materialize the fault schedule over.
    let (seed, scenario, span) = match Frame::read_from(&mut reader) {
        Ok(Frame::OriginHello {
            version,
            seed,
            scenario,
            span_start_vms,
            span_end_vms,
        }) => {
            if version != PROTO_VERSION {
                return Err(format!(
                    "protocol version mismatch: daemon {version}, origin {PROTO_VERSION}"
                ));
            }
            let scenario = *FaultScenarioId::ALL
                .get(scenario as usize)
                .ok_or_else(|| format!("unknown fault scenario index {scenario}"))?;
            (seed, scenario, (span_start_vms, span_end_vms))
        }
        Ok(other) => return Err(format!("expected OriginHello, got {other:?}")),
        Err(e) => return Err(format!("handshake: {e}")),
    };
    Frame::OriginHelloAck {
        version: PROTO_VERSION,
    }
    .write_to(&mut writer)
    .and_then(|()| writer.flush().map_err(ProtoError::from))
    .map_err(|e| format!("handshake ack: {e}"))?;

    let cfg = SimConfig::default().with_seed(seed);
    let schedule = FaultSchedule::materialize(&scenario.plan(), seed, span.0, span.1);
    let mut tape = TapeHalf::new(&cfg, schedule);
    let mut session = Session {
        reader,
        writer,
        queue: EventQueue::new(),
        noise: Noise::Keyed(seed),
        summary: SessionSummary::default(),
    };
    tape.schedule_outages(&mut session);

    loop {
        let frame = match Frame::read_from(&mut session.reader) {
            Ok(f) => f,
            // The daemon closing the socket is an orderly end.
            Err(ProtoError::Io(_)) | Err(ProtoError::Truncated) => return Ok(session.summary),
            Err(e) => return Err(format!("read: {e}")),
        };
        match frame {
            Frame::Recall {
                job,
                file: _,
                seq,
                size,
                tier,
                enter_vms,
                deadline_vms,
            } => {
                let deadline = (deadline_vms != NO_DEADLINE).then_some(deadline_vms);
                let j = tape.recall(job, seq, size, checked_tier(tier)?, deadline);
                session.schedule(checked_vms("enter_vms", enter_vms)?, TapeEv::Join(j));
            }
            Frame::Flush {
                job,
                file: _,
                seq,
                size,
                tier,
                ready_vms,
            } => {
                let j = tape.flush(job, seq, size, checked_tier(tier)?);
                session.schedule(checked_vms("ready_vms", ready_vms)?, TapeEv::Join(j));
            }
            Frame::Advance { until_vms } => {
                let until = checked_vms("until_vms", until_vms)?;
                while let Some((now, ev)) = session.queue.pop_due(until) {
                    tape.handle(now, ev, &mut session)
                        .map_err(|e| format!("advance to {until}: {e}"))?;
                }
                // The grant: nothing is queued before the next event, so
                // everything up to the millisecond before it is processed
                // too. A verdict-scheduled rejoin is already in the queue
                // here; only a later `Recall`/`Flush` can land earlier, and
                // the daemon accounts for those itself.
                let grant = session.queue.peek_time().map_or(DRAIN_HORIZON_VMS, |t| {
                    (t - 1).clamp(until, DRAIN_HORIZON_VMS)
                });
                session.summary.advances += 1;
                session
                    .send(Frame::AdvanceDone { now_vms: grant })
                    .map_err(|e| format!("advance ack: {e}"))?;
            }
            Frame::Drain => session
                .send(drain_frame(tape.counters()))
                .map_err(|e| format!("drain report: {e}"))?,
            Frame::Shutdown => return Ok(session.summary),
            other => return Err(format!("unexpected frame from daemon: {other:?}")),
        }
    }
}
