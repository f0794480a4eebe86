//! `fmig-served`: the HSM cache daemon.
//!
//! Owns a policy-driven [`ShardedCache`] plus the *disk half* of the
//! device model — MSCP dispatch, spindles, channel movers, stall-flush
//! gates — and schedules every miss as a recall against the origin
//! server, which owns the tape half ([`crate::origin`]). The two halves
//! stay causally consistent through a watermark protocol: before the
//! daemon processes anything at virtual time `t`, the origin must have
//! processed everything up to `t` and the daemon must have applied every
//! tape event it emitted on the way. The daemon asks (`Advance`) only
//! when the answer can be non-empty: each `AdvanceDone` carries a
//! **lookahead grant** — the last millisecond before the origin's next
//! queued event — and until virtual time passes it the origin is left
//! alone. Only the daemon can make the origin's next event earlier than
//! granted, by sending a `Recall` (entering at `enter_vms`), a `Flush`
//! (ready at `ready_vms`) or a retry verdict; the first two lower the
//! held grant to the millisecond before the job joins, the third is
//! scheduled origin-side before the grant is computed. A grant below
//! the requested watermark or past [`DRAIN_HORIZON_VMS`] ends the
//! session with an error.
//!
//! Client connections are validated where their frames enter: a frame
//! that only a daemon sends, a file id outside the dense `u32` space, or
//! a request time outside `0..=DRAIN_HORIZON_VMS / MS` drops that
//! connection; the daemon and every other connection carry on.
//!
//! # Robustness core
//!
//! Every recall carries a first-byte **deadline** (`deadline_ms`); an
//! attempt whose first byte would land past it fails like a media read
//! error. Failed attempts are retried under the daemon's
//! [`RetryPolicy`] — jittered exponential backoff up to an attempt
//! budget in live mode, the simulator's fixed backoff in compat mode —
//! and a recall that exhausts its budget is **abandoned**: its waiters
//! get `Done(Failed)` replies and the cache entry is left re-missable.
//! Persistent failures trip an origin [`CircuitBreaker`]; while it is
//! open the daemon degrades in documented order: resident data still
//! serves (serve-stale), non-resident reads beyond the bounded recall
//! queue are shed with `Rejected(Shedding)`. **Graceful shutdown**
//! (`Drain`) stops admitting work, drains every in-flight recall, and
//! flushes all dirty writeback bytes before acknowledging.
//!
//! In simulator-compat mode (no deadline, compat retry, breaker
//! disabled, one shard) a replay of a prepared trace reproduces
//! [`fmig_sim::HierarchySimulator`]'s cache decisions exactly — that is
//! the oracle contract `repro service-smoke` enforces.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, PolicyId};
use fmig_migrate::cache::{CacheConfig, CacheOp, ReadResult};
use fmig_migrate::{LatencyFeedback, ShardedCache};
use fmig_sim::config::SimConfig;
use fmig_sim::event::{EventQueue, SimMs, MS};
use fmig_sim::noise;
use fmig_sim::Pool;
use fmig_trace::{DeviceClass, FileId};

use crate::backoff::RetryPolicy;
use crate::breaker::{should_shed, CircuitBreaker};
use crate::protocol::{
    Frame, ProtoError, RejectReason, ServedKind, ServiceStats, DRAIN_HORIZON_VMS, NO_DEADLINE,
    NO_NEXT_USE, PROTO_VERSION,
};

/// Daemon configuration. [`DaemonConfig::compat`] is the
/// simulator-oracle mode the smoke test runs; the public fields let a
/// live deployment turn on deadlines, bounded retry, and the breaker.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// `host:port` of the origin (tape) server.
    pub origin_addr: String,
    /// Staging-disk capacity in bytes.
    pub capacity: u64,
    /// Victim-ranking policy; runs unmodified behind the shard adapter.
    pub policy: PolicyId,
    /// Chaos scenario the origin materializes.
    pub scenario: FaultScenarioId,
    /// Seed shared with the origin and the oracle.
    pub seed: u64,
    /// Fault-schedule span start (first reference), virtual ms.
    pub span_start_vms: SimMs,
    /// Fault-schedule span end (last reference + slack), virtual ms.
    pub span_end_vms: SimMs,
    /// Cache shards (1 for oracle-exact replays).
    pub shards: usize,
    /// Recall first-byte deadline relative to issue; `None` disables.
    pub deadline_ms: Option<SimMs>,
    /// Retry backoff policy for failed recalls.
    pub retry: RetryPolicy,
    /// Consecutive recall failures that trip the breaker (0 disables).
    pub breaker_threshold: u32,
    /// Virtual ms the breaker stays open before a half-open probe.
    pub breaker_cooldown_ms: SimMs,
    /// In-flight recall bound while the breaker is open; misses beyond
    /// it are shed.
    pub queue_bound: usize,
}

impl DaemonConfig {
    /// The simulator-oracle configuration: no deadline, the fault
    /// plan's fixed unbounded backoff, breaker disabled, one shard.
    pub fn compat(
        origin_addr: String,
        capacity: u64,
        policy: PolicyId,
        scenario: FaultScenarioId,
        seed: u64,
        span_start_vms: SimMs,
        span_end_vms: SimMs,
    ) -> Self {
        DaemonConfig {
            origin_addr,
            capacity,
            policy,
            scenario,
            seed,
            span_start_vms,
            span_end_vms,
            shards: 1,
            deadline_ms: None,
            retry: RetryPolicy::compat(&scenario.plan(), seed),
            breaker_threshold: 0,
            breaker_cooldown_ms: 0,
            queue_bound: usize::MAX,
        }
    }
}

/// Messages from connection threads into the single-threaded core.
enum CoreMsg {
    /// New client connection and the sender feeding its writer thread.
    NewConn(u64, Sender<Frame>),
    /// A frame read from a client connection.
    Msg(u64, Frame),
    /// The client connection closed or errored.
    Gone(u64),
}

/// A client request that passed [`Request::checked`].
#[derive(Debug, Clone, Copy)]
struct Request {
    req: u64,
    id: FileId,
    size: u64,
    time_s: i64,
    next_use: Option<i64>,
    device: DeviceClass,
    write: bool,
}

impl Request {
    /// The request in a `ReadReq`/`WriteReq` frame, or `None` when the
    /// frame is anything else, names a file outside the dense id space,
    /// or carries a time whose milliseconds the origin would refuse.
    fn checked(frame: Frame) -> Option<Request> {
        let (req, file, size, time_s, next_use, device, write) = match frame {
            Frame::ReadReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            } => (req, file, size, time_s, next_use, device, false),
            Frame::WriteReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            } => (req, file, size, time_s, next_use, device, true),
            _ => return None,
        };
        if !(0..=DRAIN_HORIZON_VMS / MS).contains(&time_s) {
            return None;
        }
        Some(Request {
            req,
            id: FileId::from(u32::try_from(file).ok()?),
            size,
            time_s,
            next_use: (next_use != NO_NEXT_USE).then_some(next_use),
            device,
            write,
        })
    }
}

/// Local (disk-half) events.
#[derive(Debug, Clone, Copy)]
enum LEv {
    /// MSCP dispatch overhead elapsed for reference `r`.
    Dispatch(usize),
    /// Disk transfer finished for disk job `j`.
    DiskDone(usize),
}

/// Per-reference state, the daemon's `RefState`.
#[derive(Debug, Clone, Copy)]
struct RefSt {
    arrival_vms: SimMs,
    id: FileId,
    size: u64,
    write: bool,
    served: ServedKind,
    /// Tape tier behind the file (recalls), or `Disk`.
    device: DeviceClass,
    done: bool,
    /// Outstanding stall-flushes gating this reference's disk start.
    gate: u32,
    /// Dispatched and waiting only on its gate.
    ready: bool,
    recall_seq: u64,
    conn: u64,
    req: u64,
}

/// A foreground disk service job.
#[derive(Debug, Clone, Copy)]
struct DJob {
    r: usize,
    spindle: usize,
}

/// A coalesced in-flight recall (the daemon's `OutstandingRecall`).
#[derive(Debug, Clone, Default)]
struct Outst {
    first_byte_vms: Option<SimMs>,
    waiters: Vec<usize>,
}

/// An in-flight recall job at the origin.
#[derive(Debug, Clone, Copy)]
struct RecallJob {
    r: usize,
    file: FileId,
}

/// An in-flight flush job at the origin.
#[derive(Debug, Clone, Copy)]
struct FlushJob {
    gated: Option<usize>,
}

/// The origin's end-of-run fault accounting.
#[derive(Debug, Clone, Copy, Default)]
struct OriginReport {
    outage_events: u64,
    outage_wait_vms: i64,
    slow_transfers: u64,
}

struct Core<'p> {
    cfg: DaemonConfig,
    sim: SimConfig,
    cache: ShardedCache<'p>,
    feedback: LatencyFeedback,
    queue: EventQueue<LEv>,
    spindles: Vec<Pool>,
    movers: Pool,
    states: Vec<RefSt>,
    djobs: Vec<DJob>,
    outstanding: Vec<Option<Outst>>,
    file_tape: Vec<Option<DeviceClass>>,
    recall_tbl: HashMap<u64, RecallJob>,
    flush_tbl: HashMap<u64, FlushJob>,
    next_job: u64,
    next_recall_seq: u64,
    requests: u64,
    recalls: u64,
    delayed_hits: u64,
    flush_jobs: u64,
    flush_bytes: u64,
    abandoned: u64,
    acked_writes: u64,
    acked_write_bytes: u64,
    origin_flushed_bytes: u64,
    origin_r: BufReader<TcpStream>,
    origin_w: BufWriter<TcpStream>,
    /// The origin has nothing left to do at or before here: its latest
    /// lookahead grant, lowered by [`Core::origin_enqueued`] to just
    /// before every job sent since.
    origin_clock: SimMs,
    origin_report: Option<OriginReport>,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    live_recalls: usize,
    draining: bool,
    conns: HashMap<u64, Sender<Frame>>,
    /// Reorder buffer: requests process in global `req` order so a
    /// multi-connection replay is trace-order deterministic.
    pending: BTreeMap<u64, (u64, Request)>,
    next_req: u64,
}

/// Runs the daemon on `listener` until a client sends `Shutdown`.
/// Returns the final service statistics.
pub fn serve(listener: TcpListener, cfg: DaemonConfig) -> Result<ServiceStats, String> {
    let origin = connect_origin(&cfg.origin_addr)?;
    origin.set_nodelay(true).ok();
    let mut origin_r = BufReader::new(
        origin
            .try_clone()
            .map_err(|e| format!("origin clone: {e}"))?,
    );
    let mut origin_w = BufWriter::new(origin);

    let scenario_idx = FaultScenarioId::ALL
        .iter()
        .position(|s| *s == cfg.scenario)
        .expect("every scenario is in ALL") as u8;
    Frame::OriginHello {
        version: PROTO_VERSION,
        seed: cfg.seed,
        scenario: scenario_idx,
        span_start_vms: cfg.span_start_vms,
        span_end_vms: cfg.span_end_vms,
    }
    .write_to(&mut origin_w)
    .and_then(|()| origin_w.flush().map_err(ProtoError::from))
    .map_err(|e| format!("origin hello: {e}"))?;
    match Frame::read_from(&mut origin_r) {
        Ok(Frame::OriginHelloAck { version }) if version == PROTO_VERSION => {}
        Ok(other) => return Err(format!("bad origin handshake reply: {other:?}")),
        Err(e) => return Err(format!("origin handshake: {e}")),
    }

    let policy = cfg.policy.build();
    let sim = SimConfig::default().with_seed(cfg.seed);
    let cache = ShardedCache::new(
        CacheConfig::with_capacity(cfg.capacity),
        policy.as_ref(),
        cfg.shards.max(1),
    );

    let local_addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let (tx, rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || accept_loop(listener, tx, stop));
    }

    let mut core = Core {
        retry: cfg.retry,
        breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms),
        spindles: (0..sim.disk_spindles).map(|_| Pool::new(1)).collect(),
        movers: Pool::new(sim.movers),
        cfg,
        sim,
        cache,
        feedback: LatencyFeedback::new(),
        queue: EventQueue::new(),
        states: Vec::new(),
        djobs: Vec::new(),
        outstanding: Vec::new(),
        file_tape: Vec::new(),
        recall_tbl: HashMap::new(),
        flush_tbl: HashMap::new(),
        next_job: 0,
        next_recall_seq: 0,
        requests: 0,
        recalls: 0,
        delayed_hits: 0,
        flush_jobs: 0,
        flush_bytes: 0,
        abandoned: 0,
        acked_writes: 0,
        acked_write_bytes: 0,
        origin_flushed_bytes: 0,
        origin_r,
        origin_w,
        origin_clock: SimMs::MIN,
        origin_report: None,
        live_recalls: 0,
        draining: false,
        conns: HashMap::new(),
        pending: BTreeMap::new(),
        next_req: 0,
    };

    let result = loop {
        let Ok(msg) = rx.recv() else {
            break Err("all connection threads vanished".to_string());
        };
        match msg {
            CoreMsg::NewConn(id, sender) => {
                core.conns.insert(id, sender);
            }
            CoreMsg::Gone(id) => {
                core.conns.remove(&id);
            }
            CoreMsg::Msg(id, frame) => match core.handle_client(id, frame) {
                Ok(true) => {}
                Ok(false) => break Ok(core.stats()),
                Err(e) => break Err(e),
            },
        }
    };

    // Unblock the acceptor so it drops the listener.
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(local_addr);
    result
}

fn connect_origin(addr: &str) -> Result<TcpStream, String> {
    let mut last = String::new();
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = e.to_string();
                thread::sleep(Duration::from_millis(25));
            }
        }
    }
    Err(format!("origin {addr} unreachable: {last}"))
}

fn accept_loop(listener: TcpListener, tx: Sender<CoreMsg>, stop: Arc<AtomicBool>) {
    let mut next_id = 0u64;
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        stream.set_nodelay(true).ok();
        let id = next_id;
        next_id += 1;
        let (wtx, wrx) = mpsc::channel::<Frame>();
        // NewConn is sent before the reader thread exists, so the core
        // always learns the connection before its first frame.
        if tx.send(CoreMsg::NewConn(id, wtx)).is_err() {
            return;
        }
        let Ok(rstream) = stream.try_clone() else {
            let _ = tx.send(CoreMsg::Gone(id));
            continue;
        };
        let rtx = tx.clone();
        thread::spawn(move || {
            let mut reader = BufReader::new(rstream);
            loop {
                match Frame::read_from(&mut reader) {
                    Ok(frame) => {
                        if rtx.send(CoreMsg::Msg(id, frame)).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        let _ = rtx.send(CoreMsg::Gone(id));
                        return;
                    }
                }
            }
        });
        thread::spawn(move || {
            let mut writer = BufWriter::new(stream);
            let _ = write_replies(&wrx, &mut writer);
            // The core dropped this connection (or the daemon ended, or
            // the peer is gone): end the reader thread with it.
            let _ = writer.get_ref().shutdown(Shutdown::Both);
        });
    }
}

/// A connection's writer loop: each wake-up writes the reply it was
/// woken for and every reply queued behind it, then flushes once.
fn write_replies(
    replies: &Receiver<Frame>,
    writer: &mut BufWriter<TcpStream>,
) -> Result<(), ProtoError> {
    while let Ok(mut frame) = replies.recv() {
        loop {
            frame.write_to(writer)?;
            match replies.try_recv() {
                Ok(next) => frame = next,
                Err(_) => break,
            }
        }
        writer.flush()?;
    }
    Ok(())
}

impl Core<'_> {
    /// Handles one client frame. Returns `Ok(false)` on `Shutdown`.
    /// A frame no well-behaved client sends drops its connection — the
    /// writer thread ends with the sender and shuts the socket down —
    /// and anything still queued from a dropped connection is ignored.
    fn handle_client(&mut self, conn: u64, frame: Frame) -> Result<bool, String> {
        if !self.conns.contains_key(&conn) {
            return Ok(true);
        }
        match frame {
            Frame::Hello { .. } => {
                self.send(
                    conn,
                    Frame::HelloAck {
                        version: PROTO_VERSION,
                    },
                );
            }
            Frame::ReadReq { .. } | Frame::WriteReq { .. } => {
                let Some(request) = Request::checked(frame) else {
                    self.conns.remove(&conn);
                    return Ok(true);
                };
                if self.draining {
                    self.send(
                        conn,
                        Frame::Rejected {
                            req: request.req,
                            reason: RejectReason::Draining,
                        },
                    );
                    return Ok(true);
                }
                self.pending.insert(request.req, (conn, request));
                while let Some((conn, request)) = self.pending.remove(&self.next_req) {
                    self.next_req += 1;
                    self.process_request(conn, request)?;
                }
            }
            Frame::StatsReq => {
                let stats = self.stats();
                self.send(conn, Frame::Stats(stats));
            }
            Frame::Drain => {
                let done = self.drain()?;
                self.send(conn, done);
            }
            Frame::Shutdown => {
                let _ = Frame::Shutdown.write_to(&mut self.origin_w);
                let _ = self.origin_w.flush();
                return Ok(false);
            }
            _ => {
                self.conns.remove(&conn);
            }
        }
        Ok(true)
    }

    fn send(&mut self, conn: u64, frame: Frame) {
        // A vanished client only loses its own replies.
        if let Some(s) = self.conns.get(&conn) {
            let _ = s.send(frame);
        }
    }

    fn process_request(&mut self, conn: u64, request: Request) -> Result<(), String> {
        let Request {
            req,
            id,
            size,
            time_s,
            next_use,
            device,
            write,
        } = request;
        let t_vms = time_s * MS;
        self.advance_to(t_vms)?;
        if !write {
            let resident = self.cache.contains(id);
            if should_shed(
                resident,
                self.breaker.is_open(t_vms),
                self.live_recalls,
                self.cfg.queue_bound,
            ) {
                self.send(
                    conn,
                    Frame::Rejected {
                        req,
                        reason: RejectReason::Shedding,
                    },
                );
                return Ok(());
            }
        }
        self.requests += 1;
        self.arrive(conn, req, id, size, write, time_s, next_use, device, t_vms)
    }

    /// Classifies one reference through the cache and turns its side
    /// effects into device traffic — the daemon's half of the engine's
    /// `arrive`.
    #[allow(clippy::too_many_arguments)]
    fn arrive(
        &mut self,
        conn: u64,
        req: u64,
        id: FileId,
        size: u64,
        write: bool,
        time_s: i64,
        next_use: Option<i64>,
        device: DeviceClass,
        t_vms: SimMs,
    ) -> Result<(), String> {
        let tape = match device {
            DeviceClass::TapeManual => DeviceClass::TapeManual,
            _ => DeviceClass::TapeSilo,
        };
        if id.index() >= self.file_tape.len() {
            self.file_tape.resize(id.index() + 1, None);
            self.outstanding.resize_with(self.file_tape.len(), || None);
        }
        self.file_tape[id.index()] = Some(tape);
        // Publish the current miss-wait estimate before classification,
        // exactly like the closed-loop engine: the touch stamps it onto
        // the entry for latency-aware victim ranking.
        let est = self.feedback.estimate(tape, size);
        let mut ops = Vec::new();
        let coalescing = self.sim.recall_coalescing;
        let served = if write {
            self.cache
                .write_with(id, size, time_s, next_use, est, &mut |op| ops.push(op));
            ServedKind::Write
        } else {
            match self
                .cache
                .read_with(id, size, time_s, next_use, est, &mut |op| ops.push(op))
            {
                ReadResult::Hit => ServedKind::Hit,
                ReadResult::DelayedHit if coalescing => {
                    if self.outstanding[id.index()].is_some() {
                        ServedKind::DelayedHit
                    } else {
                        // Live-mode abandon aftermath: the cache still
                        // thinks a fetch is in flight but the recall was
                        // abandoned. Re-issue it. Never taken in compat
                        // mode, where recalls are never abandoned.
                        ServedKind::Recall
                    }
                }
                // Coalescing off: a delayed hit pays its own fetch.
                ReadResult::DelayedHit => ServedKind::Recall,
                ReadResult::Miss if coalescing && self.outstanding[id.index()].is_some() => {
                    // Evicted while its recall is still in flight: the
                    // bytes are already on the way, the re-miss
                    // coalesces too.
                    ServedKind::DelayedHit
                }
                ReadResult::Miss => ServedKind::Recall,
            }
        };
        let device_served = match served {
            ServedKind::Hit | ServedKind::Write => DeviceClass::Disk,
            _ => tape,
        };
        // Counter-noise identity: recall sequence numbers are assigned
        // in arrival order, which is exactly what the oracle does in
        // counter-noise mode.
        let recall_seq = if served == ServedKind::Recall {
            self.next_recall_seq += 1;
            self.next_recall_seq - 1
        } else {
            0
        };
        let i = self.states.len();
        self.states.push(RefSt {
            arrival_vms: t_vms,
            id,
            size,
            write,
            served,
            device: device_served,
            done: false,
            gate: 0,
            ready: false,
            recall_seq,
            conn,
            req,
        });

        // Cache side effects become tape traffic at the origin.
        for &op in &ops {
            match op {
                CacheOp::Fetch { .. } | CacheOp::Drop { .. } => {}
                CacheOp::Writeback { id, bytes } => {
                    let at = t_vms + (self.sim.writeback_delay_s * MS as f64) as SimMs;
                    self.spawn_flush(id, bytes, None, at)?;
                }
                CacheOp::StallFlush { id, bytes } => {
                    // Only disk-served foregrounds stall on the flush; a
                    // miss's recall is the longer pole and proceeds.
                    let gated = if served == ServedKind::Write || served == ServedKind::Hit {
                        self.states[i].gate += 1;
                        Some(i)
                    } else {
                        None
                    };
                    self.spawn_flush(id, bytes, gated, t_vms)?;
                }
                CacheOp::PurgeFlush { id, bytes } => {
                    self.spawn_flush(id, bytes, None, t_vms)?;
                }
            }
        }

        match served {
            ServedKind::Hit | ServedKind::Write | ServedKind::Recall => {
                let d = noise::lognormal_ms(
                    self.sim.seed,
                    noise::dispatch_key(i as u64),
                    self.sim.mscp_overhead_median_s,
                    self.sim.mscp_overhead_sigma,
                );
                self.queue.push(t_vms + d, LEv::Dispatch(i));
                if served == ServedKind::Recall && coalescing {
                    self.outstanding[id.index()] = Some(Outst::default());
                }
            }
            ServedKind::DelayedHit => {
                self.delayed_hits += 1;
                let o = self.outstanding[id.index()]
                    .as_mut()
                    .expect("delayed hit implies an outstanding recall");
                match o.first_byte_vms {
                    // Data already streaming to disk: served on arrival.
                    Some(fb) => self.resolve_ref(i, fb),
                    None => o.waiters.push(i),
                }
            }
            ServedKind::Failed => unreachable!("arrivals are never pre-failed"),
        }
        Ok(())
    }

    /// Ships a background tape flush to the origin (the engine's
    /// `spawn_flush` + `FlushReady`).
    fn spawn_flush(
        &mut self,
        file: FileId,
        bytes: u64,
        gated: Option<usize>,
        at: SimMs,
    ) -> Result<(), String> {
        let tape = self
            .file_tape
            .get(file.index())
            .copied()
            .flatten()
            .unwrap_or(DeviceClass::TapeSilo);
        let seq = self.flush_jobs;
        self.flush_jobs += 1;
        self.flush_bytes += bytes;
        let job = self.next_job;
        self.next_job += 1;
        self.flush_tbl.insert(job, FlushJob { gated });
        Frame::Flush {
            job,
            file: file.index() as u64,
            seq,
            size: bytes,
            tier: tape,
            ready_vms: at,
        }
        .write_to(&mut self.origin_w)
        .map_err(|e| format!("flush send: {e}"))?;
        self.origin_enqueued(at);
        Ok(())
    }

    /// A job joining the origin's queue at `at` was just sent: whatever
    /// the origin granted, it now has work at `at`.
    fn origin_enqueued(&mut self, at: SimMs) {
        self.origin_clock = self.origin_clock.min(at - 1);
    }

    /// Processes every local event up to `t`, keeping the origin's
    /// clock at or ahead of every local event handled — the watermark
    /// protocol that makes the split engine causally consistent. The
    /// origin is consulted only when its grant has run out.
    fn advance_to(&mut self, t: SimMs) -> Result<(), String> {
        loop {
            let next_local = self.queue.peek_time().filter(|&lt| lt <= t);
            let target = next_local.unwrap_or(t);
            if self.origin_clock < target {
                self.origin_advance(target)?;
                continue;
            }
            match next_local {
                Some(_) => {
                    let (now, ev) = self.queue.pop().expect("peeked event");
                    self.handle_local(now, ev)?;
                }
                None => return Ok(()),
            }
        }
    }

    /// Advances the origin to `until`, applies every tape event it
    /// emits on the way, and holds on to the grant it answers with.
    fn origin_advance(&mut self, until: SimMs) -> Result<(), String> {
        Frame::Advance { until_vms: until }
            .write_to(&mut self.origin_w)
            .and_then(|()| self.origin_w.flush().map_err(ProtoError::from))
            .map_err(|e| format!("advance send: {e}"))?;
        // A job sent by a handler below would reach the origin after it
        // computed the grant, so the grant is taken as a `min` with what
        // `origin_enqueued` records meanwhile. (No handler sends one
        // today; retry verdicts are scheduled before the grant.)
        self.origin_clock = SimMs::MAX;
        let grant = loop {
            let frame =
                Frame::read_from(&mut self.origin_r).map_err(|e| format!("origin read: {e}"))?;
            match frame {
                Frame::AdvanceDone { now_vms } => {
                    if !(until..=DRAIN_HORIZON_VMS).contains(&now_vms) {
                        return Err(format!(
                            "origin granted {now_vms} for an advance to {until} \
                             (horizon {DRAIN_HORIZON_VMS})"
                        ));
                    }
                    break now_vms;
                }
                Frame::RecallFirstByte { job, fb_vms } => self.recall_first_byte(job, fb_vms)?,
                Frame::RecallDone { job, done_vms } => self.recall_done(job, done_vms)?,
                Frame::RecallFailed {
                    job,
                    attempt,
                    failed_vms,
                    drive_free_vms,
                } => self.recall_failed(job, attempt, failed_vms, drive_free_vms)?,
                Frame::FlushDone {
                    job,
                    done_vms,
                    bytes,
                } => self.flush_done(job, done_vms, bytes)?,
                other => return Err(format!("unexpected origin frame: {other:?}")),
            }
        };
        self.origin_clock = self.origin_clock.min(grant);
        Ok(())
    }

    /// The recall's transfer began: serve the requester and every
    /// coalesced waiter at the first byte.
    fn recall_first_byte(&mut self, job: u64, fb_vms: SimMs) -> Result<(), String> {
        let rj = *self
            .recall_tbl
            .get(&job)
            .ok_or_else(|| format!("first byte for unknown recall job {job}"))?;
        self.resolve_ref(rj.r, fb_vms);
        if let Some(o) = self.outstanding[rj.file.index()].as_mut() {
            o.first_byte_vms = Some(fb_vms);
            let waiters = std::mem::take(&mut o.waiters);
            for w in waiters {
                self.resolve_ref(w, fb_vms);
            }
        }
        Ok(())
    }

    /// The file is fully staged: further reads are plain hits.
    fn recall_done(&mut self, job: u64, _done_vms: SimMs) -> Result<(), String> {
        let rj = self
            .recall_tbl
            .remove(&job)
            .ok_or_else(|| format!("completion for unknown recall job {job}"))?;
        self.cache.fetch_complete(rj.file);
        if let Some(o) = self.outstanding[rj.file.index()].take() {
            debug_assert!(o.waiters.is_empty(), "waiters resolve at first byte");
        }
        self.breaker.record_success();
        self.live_recalls = self.live_recalls.saturating_sub(1);
        Ok(())
    }

    /// A recall attempt failed (media error or deadline): re-arm the
    /// cache's outstanding-fetch state and decide retry vs abandon.
    fn recall_failed(
        &mut self,
        job: u64,
        attempt: u32,
        failed_vms: SimMs,
        drive_free_vms: SimMs,
    ) -> Result<(), String> {
        let rj = *self
            .recall_tbl
            .get(&job)
            .ok_or_else(|| format!("failure for unknown recall job {job}"))?;
        self.cache.fetch_failed(rj.file);
        self.breaker.record_failure(failed_vms);
        if self.retry.allows(attempt) {
            let rejoin = drive_free_vms + self.retry.backoff_ms(job, attempt);
            Frame::RecallRetry {
                job,
                rejoin_vms: rejoin,
            }
            .write_to(&mut self.origin_w)
            .and_then(|()| self.origin_w.flush().map_err(ProtoError::from))
            .map_err(|e| format!("retry verdict: {e}"))?;
        } else {
            self.abandoned += 1;
            Frame::RecallAbandon { job }
                .write_to(&mut self.origin_w)
                .and_then(|()| self.origin_w.flush().map_err(ProtoError::from))
                .map_err(|e| format!("abandon verdict: {e}"))?;
            // The requester and every coalesced waiter fail now; the
            // cache entry stays re-missable (see `arrive`'s downgrade).
            self.states[rj.r].served = ServedKind::Failed;
            self.resolve_ref(rj.r, failed_vms);
            if let Some(o) = self.outstanding[rj.file.index()].take() {
                for w in o.waiters {
                    self.states[w].served = ServedKind::Failed;
                    self.resolve_ref(w, failed_vms);
                }
            }
            self.recall_tbl.remove(&job);
            self.live_recalls = self.live_recalls.saturating_sub(1);
        }
        Ok(())
    }

    /// A background flush landed on tape: release its gate (and count
    /// the writeback bytes as durable).
    fn flush_done(&mut self, job: u64, done_vms: SimMs, bytes: u64) -> Result<(), String> {
        let fj = self
            .flush_tbl
            .remove(&job)
            .ok_or_else(|| format!("completion for unknown flush job {job}"))?;
        self.origin_flushed_bytes += bytes;
        if let Some(r) = fj.gated {
            self.states[r].gate -= 1;
            if self.states[r].gate == 0 && self.states[r].ready {
                self.start_disk(r, done_vms);
            }
        }
        Ok(())
    }

    fn handle_local(&mut self, now: SimMs, ev: LEv) -> Result<(), String> {
        match ev {
            LEv::Dispatch(r) => match self.states[r].served {
                ServedKind::Hit | ServedKind::Write => {
                    self.states[r].ready = true;
                    if self.states[r].gate == 0 {
                        self.start_disk(r, now);
                    }
                    Ok(())
                }
                ServedKind::Recall => self.issue_recall(r, now),
                ServedKind::DelayedHit | ServedKind::Failed => {
                    unreachable!("delayed hits and failures are never dispatched")
                }
            },
            LEv::DiskDone(j) => {
                if let Some(n) = self.movers.release(now) {
                    self.disk_mover_granted(n, now);
                }
                let spindle = self.djobs[j].spindle;
                if let Some(n) = self.spindles[spindle].release(now) {
                    self.spindle_granted(n, now);
                }
                Ok(())
            }
        }
    }

    /// Ships a dispatched miss to the origin as a recall job.
    fn issue_recall(&mut self, r: usize, now: SimMs) -> Result<(), String> {
        let st = self.states[r];
        let job = self.next_job;
        self.next_job += 1;
        self.recall_tbl.insert(job, RecallJob { r, file: st.id });
        self.recalls += 1;
        self.live_recalls += 1;
        let deadline_vms = self.cfg.deadline_ms.map_or(NO_DEADLINE, |d| now + d);
        Frame::Recall {
            job,
            file: st.id.index() as u64,
            seq: st.recall_seq,
            size: st.size,
            tier: st.device,
            enter_vms: now,
            deadline_vms,
        }
        .write_to(&mut self.origin_w)
        .map_err(|e| format!("recall send: {e}"))?;
        self.origin_enqueued(now);
        Ok(())
    }

    /// Foreground disk service: queue on the file's spindle.
    fn start_disk(&mut self, r: usize, now: SimMs) {
        let j = self.djobs.len();
        self.djobs.push(DJob {
            r,
            spindle: self.states[r].id.index() % self.spindles.len(),
        });
        let spindle = self.djobs[j].spindle;
        if self.spindles[spindle].acquire(j, now) {
            self.spindle_granted(j, now);
        }
    }

    /// Spindle held: contend for a channel mover.
    fn spindle_granted(&mut self, j: usize, now: SimMs) {
        if self.movers.acquire(j, now) {
            self.disk_mover_granted(j, now);
        }
    }

    /// Disk transfer begins: the reference's first byte follows the
    /// seek, and the transfer's end frees the mover and spindle.
    fn disk_mover_granted(&mut self, j: usize, now: SimMs) {
        let r = self.djobs[j].r;
        let size = self.states[r].size;
        let first_byte = now + (self.sim.disk_seek_s * MS as f64) as SimMs;
        self.resolve_ref(r, first_byte);
        let jitter = 1.0
            + noise::range(
                self.sim.seed,
                noise::disk_key(r as u64, noise::STAGE_RATE),
                -self.sim.rate_jitter,
                self.sim.rate_jitter,
            );
        let xfer_ms = (size as f64 / (self.sim.disk_rate * jitter) * 1000.0) as SimMs;
        self.queue
            .push(first_byte + xfer_ms.max(1), LEv::DiskDone(j));
    }

    /// Finalizes a reference's first byte, records its wait, and sends
    /// the client its `Done`.
    fn resolve_ref(&mut self, i: usize, first_byte_vms: SimMs) {
        let (arrival, served, conn, req) = {
            let st = &self.states[i];
            debug_assert!(!st.done, "reference resolved twice");
            (st.arrival_vms, st.served, st.conn, st.req)
        };
        let fb = first_byte_vms.max(arrival);
        self.states[i].done = true;
        let wait_vms = fb - arrival;
        if served == ServedKind::Recall {
            // The feedback loop closes here, exactly like the engine: a
            // measured recall wait updates the estimate future victim
            // rankings will see.
            let st = self.states[i];
            self.feedback
                .record(st.device, st.size, wait_vms as f64 / MS as f64);
        }
        if self.states[i].write {
            self.acked_writes += 1;
            self.acked_write_bytes += self.states[i].size;
        }
        self.send(
            conn,
            Frame::Done {
                req,
                wait_vms,
                served,
            },
        );
    }

    /// Graceful shutdown: stop admitting, drain every in-flight recall
    /// and flush, and report the writeback accounting.
    fn drain(&mut self) -> Result<Frame, String> {
        self.draining = true;
        self.advance_to(DRAIN_HORIZON_VMS)?;
        debug_assert!(self.recall_tbl.is_empty(), "recalls survived the drain");
        debug_assert!(self.flush_tbl.is_empty(), "flushes survived the drain");
        if self.origin_report.is_none() {
            Frame::Drain
                .write_to(&mut self.origin_w)
                .and_then(|()| self.origin_w.flush().map_err(ProtoError::from))
                .map_err(|e| format!("origin drain: {e}"))?;
            match Frame::read_from(&mut self.origin_r) {
                Ok(Frame::OriginDrainDone {
                    outage_events,
                    outage_wait_vms,
                    slow_transfers,
                    flushed_bytes,
                    recalls_completed: _,
                    read_failures: _,
                }) => {
                    debug_assert_eq!(
                        flushed_bytes, self.origin_flushed_bytes,
                        "flush accounting diverged"
                    );
                    self.origin_report = Some(OriginReport {
                        outage_events,
                        outage_wait_vms,
                        slow_transfers,
                    });
                }
                Ok(other) => return Err(format!("bad origin drain reply: {other:?}")),
                Err(e) => return Err(format!("origin drain read: {e}")),
            }
        }
        Ok(Frame::DrainDone {
            acked_writes: self.acked_writes,
            acked_write_bytes: self.acked_write_bytes,
            flush_jobs: self.flush_jobs,
            flush_bytes: self.flush_bytes,
            origin_flushed_bytes: self.origin_flushed_bytes,
        })
    }

    fn stats(&self) -> ServiceStats {
        let cs = self.cache.stats();
        let rep = self.origin_report.unwrap_or_default();
        ServiceStats {
            requests: self.requests,
            read_hits: cs.read_hits,
            read_misses: cs.read_misses,
            read_hit_bytes: cs.read_hit_bytes,
            read_miss_bytes: cs.read_miss_bytes,
            writes: cs.writes,
            evictions: cs.evictions,
            evicted_bytes: cs.evicted_bytes,
            stall_bytes: cs.stall_bytes,
            purge_flush_bytes: cs.purge_flush_bytes,
            writeback_bytes: cs.writeback_bytes,
            fetch_retries: self.cache.fetch_retries(),
            recalls: self.recalls,
            delayed_hits: self.delayed_hits,
            flush_jobs: self.flush_jobs,
            flush_bytes: self.flush_bytes,
            abandoned: self.abandoned,
            outage_events: rep.outage_events,
            outage_wait_vms: rep.outage_wait_vms,
            slow_transfers: rep.slow_transfers,
        }
    }
}
