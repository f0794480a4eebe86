//! `fmig-served`: the HSM cache daemon.
//!
//! Hosts [`fmig_sim::disk::DiskHalf`] — the single statement of the disk
//! half of the device model: cache classification, recall coalescing,
//! MSCP dispatch, spindles, channel movers, write-behind — over one
//! policy-driven [`DiskCache`], the same code and the same cache the
//! simulators run.
//! This host keeps the half's events in a queue of its own, draws keyed
//! noise, carries every recall and flush to the origin server as a
//! frame (the origin hosts the tape half, [`crate::origin`]) and
//! answers each resolved reference with a `Done`. The two halves
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
//! that only a daemon sends, a file id outside the dense `u32` space, a
//! request time outside `0..=DRAIN_HORIZON_VMS / MS`, or a file id
//! further past the highest named so far than first-appearance order
//! allows (one new file per request still due) drops that connection;
//! the daemon and every other connection carry on. A request the
//! degraded mode sheds still counts as naming its file. Origin frames
//! are outside input too: job ids are checked against the tables of
//! jobs in flight, and an answer the disk half refuses (a first byte
//! twice, a drain report that disagrees with the `FlushDone`s) ends
//! the session with an error.
//!
//! # Threads and hand-offs
//!
//! One core thread owns all of the above; each client connection adds a
//! reader thread and a writer thread, joined to the core by channels.
//! What crosses a channel is a batch, never a single frame, because on
//! one CPU every hand-off is a context switch:
//!
//! - after each blocking read, the reader also decodes every whole
//!   frame already in its buffer and sends them as one message;
//! - the core queues replies in a per-connection outbox and hands each
//!   non-empty outbox to its writer as one message at three points: the
//!   end of every input batch, the moment a connection is dropped
//!   (before its sender is), and before [`serve`] returns (the end of
//!   the batch that carried `Shutdown` or hit an error);
//! - the writer writes a batch and every batch queued behind it, then
//!   flushes once.
//!
//! No reply waits for more input, and each connection's replies keep
//! the order the core produced them in.
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
//! lands every queued writeback byte on tape before acknowledging.
//!
//! In simulator-compat mode (no deadline, compat retry, breaker
//! disabled) a replay of a prepared trace reproduces
//! [`fmig_sim::HierarchySimulator`]'s cache decisions and first-byte
//! waits exactly — that is the oracle contract `repro service-smoke`
//! enforces.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, PolicyId};
use fmig_migrate::cache::{CacheConfig, DiskCache};
use fmig_migrate::eval::PreparedRef;
use fmig_sim::config::SimConfig;
use fmig_sim::disk::{
    DiskEv, DiskHalf, DiskHost, FlushOrder, LinkFault, RecallOrder, Resolved, ServedBy,
};
use fmig_sim::event::{EventQueue, SimMs, MS};
use fmig_sim::noise::Noise;
use fmig_trace::FileId;

use crate::backoff::RetryPolicy;
use crate::breaker::{should_shed, CircuitBreaker};
use crate::protocol::{
    Frame, ProtoError, RejectReason, ServedKind, ServiceStats, DRAIN_HORIZON_VMS, MAX_FRAME,
    NO_DEADLINE, NO_NEXT_USE, PROTO_VERSION,
};

/// Pause before retrying a failed `accept`. A persistent failure
/// (`EMFILE`: out of descriptors) fails every call at once, and retrying
/// without a pause would take the CPU the core runs on.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// Daemon configuration. [`DaemonConfig::compat`] is the
/// simulator-oracle mode the smoke test runs; the public fields let a
/// live deployment turn on deadlines, bounded retry, and the breaker.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// `host:port` of the origin (tape) server.
    pub origin_addr: String,
    /// Staging-disk capacity in bytes.
    pub capacity: u64,
    /// Victim-ranking policy; runs unmodified in the one cache.
    pub policy: PolicyId,
    /// Chaos scenario the origin materializes.
    pub scenario: FaultScenarioId,
    /// Seed shared with the origin and the oracle.
    pub seed: u64,
    /// Fault-schedule span start (first reference), virtual ms.
    pub span_start_vms: SimMs,
    /// Fault-schedule span end (last reference + slack), virtual ms.
    pub span_end_vms: SimMs,
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
    /// plan's fixed unbounded backoff, breaker disabled.
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
    /// New client connection and the sender feeding its writer thread,
    /// one reply batch per message.
    NewConn(u64, Sender<Vec<Frame>>),
    /// One input batch: a frame the reader blocked for, then every whole
    /// frame that was already buffered behind it.
    Msg(u64, Vec<Frame>),
    /// The client connection closed or errored; any good frames read
    /// before that came first.
    Gone(u64),
}

/// A client connection as the core holds it.
struct Conn {
    /// Feeds the connection's writer thread.
    writer: Sender<Vec<Frame>>,
    /// Replies queued since the last hand-off to the writer.
    outbox: Vec<Frame>,
}

impl Conn {
    /// Hands the queued replies to the writer as one batch.
    fn hand_off(&mut self) {
        if !self.outbox.is_empty() {
            // A vanished client only loses its own replies.
            let _ = self.writer.send(std::mem::take(&mut self.outbox));
        }
    }
}

/// True when `buf` starts with a whole length-prefixed frame, so that
/// decoding it cannot block on the socket. A length above [`MAX_FRAME`]
/// is never whole: [`Frame::read_from`] is left to refuse it.
fn holds_whole_frame(buf: &[u8]) -> bool {
    let Some((prefix, body)) = buf.split_first_chunk::<4>() else {
        return false;
    };
    let len = u32::from_le_bytes(*prefix);
    len <= MAX_FRAME && body.len() >= len as usize
}

/// Blocks for one frame, then takes every whole frame already buffered
/// behind it. The flag is set when the stream ended or a frame was bad;
/// the frames read before that are good and still returned.
fn read_batch<R: Read>(reader: &mut BufReader<R>) -> (Vec<Frame>, bool) {
    let mut batch = Vec::new();
    loop {
        match Frame::read_from(reader) {
            Ok(frame) => batch.push(frame),
            Err(_) => return (batch, true),
        }
        if !holds_whole_frame(reader.buffer()) {
            return (batch, false);
        }
    }
}

/// The request id and reference in a `ReadReq`/`WriteReq` frame, or
/// `None` when the frame is anything else, names a file outside the
/// dense id space, or carries a time whose milliseconds the origin
/// would refuse.
fn checked_request(frame: Frame) -> Option<(u64, PreparedRef)> {
    let (req, file, size, time, next_use, device, write) = match frame {
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
    if !(0..=DRAIN_HORIZON_VMS / MS).contains(&time) {
        return None;
    }
    let reference = PreparedRef {
        id: FileId::from(u32::try_from(file).ok()?),
        size,
        write,
        time,
        next_use: (next_use != NO_NEXT_USE).then_some(next_use),
        device,
    };
    Some((req, reference))
}

/// The origin's end-of-run fault accounting.
#[derive(Debug, Clone, Copy, Default)]
struct OriginReport {
    outage_events: u64,
    outage_wait_vms: i64,
    slow_transfers: u64,
}

/// Who asked for each reference in the disk half's window: its
/// `(connection, request id)`, trimmed in step with the window.
#[derive(Debug, Default)]
struct Clients {
    /// The reference at the front of `asked`.
    base: usize,
    asked: VecDeque<(u64, u64)>,
}

impl Clients {
    /// Who asked for reference `r`, which is still in the window: only
    /// its resolution asks, and it resolves before it can retire.
    fn of(&self, r: usize) -> (u64, u64) {
        self.asked[r - self.base]
    }

    /// Retires every reference `disk` can let go of, and forgets who
    /// asked for it. Replies go out as references resolve, in any
    /// order, so no outcome is kept for a reader.
    fn retire(&mut self, disk: &mut DiskHalf) {
        let base = disk.retire(disk.references());
        self.asked.drain(..base - self.base);
        self.base = base;
    }
}

/// One daemon session: the shared disk half and the host it runs on.
struct Daemon<'p> {
    disk: DiskHalf<'p>,
    core: Core,
}

/// What is the daemon's alone — the disk half's host: its event queue
/// and keyed noise, the client connections, and the link to the origin.
struct Core {
    cfg: DaemonConfig,
    queue: EventQueue<DiskEv>,
    noise: Noise,
    /// Who asked for each reference in the disk half's window.
    clients: Clients,
    /// Recalls in flight at the origin: job id → requesting reference.
    /// Origin-supplied job ids are only ever looked up here, and a
    /// reference with a recall in flight stays in the disk half's
    /// window until this table lets go of it.
    recall_tbl: HashMap<u64, usize>,
    /// Flushes in flight at the origin, by job id. No reference waits
    /// on one; the set is there to check the origin's `FlushDone`s.
    flush_tbl: HashSet<u64>,
    next_job: u64,
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
    draining: bool,
    conns: HashMap<u64, Conn>,
    /// Reorder buffer, request id → (connection, reference): requests
    /// process in global `req` order so a multi-connection replay is
    /// trace-order deterministic.
    pending: BTreeMap<u64, (u64, PreparedRef)>,
    next_req: u64,
    /// One past the highest file id a request has named so far, shed
    /// requests included.
    files_seen: usize,
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
    // The service always runs the replayable noise mode: recall
    // identities are assigned in arrival order, as the oracle does.
    let sim = SimConfig::default()
        .with_seed(cfg.seed)
        .with_counter_noise(true);
    let cache = DiskCache::new(CacheConfig::with_capacity(cfg.capacity), policy.as_ref());

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

    let mut daemon = Daemon {
        disk: DiskHalf::new(&sim, cache),
        core: Core {
            retry: cfg.retry,
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms),
            noise: Noise::Keyed(cfg.seed),
            cfg,
            queue: EventQueue::new(),
            clients: Clients::default(),
            recall_tbl: HashMap::new(),
            flush_tbl: HashSet::new(),
            next_job: 0,
            acked_writes: 0,
            acked_write_bytes: 0,
            origin_flushed_bytes: 0,
            origin_r,
            origin_w,
            origin_clock: SimMs::MIN,
            origin_report: None,
            draining: false,
            conns: HashMap::new(),
            pending: BTreeMap::new(),
            next_req: 0,
            files_seen: 0,
        },
    };

    let result = loop {
        let Ok(msg) = rx.recv() else {
            break Err("all connection threads vanished".to_string());
        };
        match msg {
            CoreMsg::NewConn(id, writer) => {
                let outbox = Vec::new();
                daemon.core.conns.insert(id, Conn { writer, outbox });
            }
            CoreMsg::Gone(id) => daemon.core.drop_conn(id),
            CoreMsg::Msg(id, frames) => {
                let outcome = daemon.handle_batch(id, frames);
                daemon.core.clients.retire(&mut daemon.disk);
                // Also the last hand-off when the batch ends the session.
                daemon.core.flush_outboxes();
                match outcome {
                    Ok(true) => {}
                    Ok(false) => break Ok(daemon.stats()),
                    Err(e) => break Err(e),
                }
            }
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
            thread::sleep(ACCEPT_RETRY_PAUSE);
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        stream.set_nodelay(true).ok();
        let id = next_id;
        next_id += 1;
        let (wtx, wrx) = mpsc::channel();
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
                let (batch, ended) = read_batch(&mut reader);
                if !batch.is_empty() && rtx.send(CoreMsg::Msg(id, batch)).is_err() {
                    return;
                }
                if ended {
                    let _ = rtx.send(CoreMsg::Gone(id));
                    return;
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

/// A connection's writer loop: each wake-up writes the reply batch it
/// was woken for and every batch the core queued behind it, then
/// flushes once. The loop ends when the core drops the sender, after
/// the last batch it handed off.
fn write_replies(
    replies: &Receiver<Vec<Frame>>,
    writer: &mut BufWriter<TcpStream>,
) -> Result<(), ProtoError> {
    while let Ok(batch) = replies.recv() {
        for frame in std::iter::once(batch).chain(replies.try_iter()).flatten() {
            frame.write_to(writer)?;
        }
        writer.flush()?;
    }
    Ok(())
}

impl Core {
    /// Queues a reply in the connection's outbox; see the module docs
    /// for when outboxes go to the writers.
    fn send(&mut self, conn: u64, frame: Frame) {
        // A vanished client only loses its own replies.
        if let Some(c) = self.conns.get_mut(&conn) {
            c.outbox.push(frame);
        }
    }

    /// Hands every non-empty outbox to its writer.
    fn flush_outboxes(&mut self) {
        for c in self.conns.values_mut() {
            c.hand_off();
        }
    }

    /// Drops a client connection. The replies it earned first still go
    /// out: the writer writes them, then sees the sender gone and shuts
    /// the socket down.
    fn drop_conn(&mut self, conn: u64) {
        if let Some(mut c) = self.conns.remove(&conn) {
            c.hand_off();
        }
    }

    /// Dense ids arrive in first-appearance order: taken in `req`
    /// order, each request names at most one file never seen before.
    /// True when request `req` names a file further ahead than the
    /// requests still due before it could have introduced — admitted,
    /// one such frame would size the per-file arenas.
    fn skips_ahead(&self, req: u64, file: FileId) -> bool {
        let due_before = usize::try_from(req.saturating_sub(self.next_req)).unwrap_or(usize::MAX);
        file.index() > self.files_seen.saturating_add(due_before)
    }

    /// A job joining the origin's queue at `at` was just sent: whatever
    /// the origin granted, it now has work at `at`.
    fn origin_enqueued(&mut self, at: SimMs) {
        self.origin_clock = self.origin_clock.min(at - 1);
    }

    /// Ships a dispatched miss to the origin as a recall job entering
    /// its drive queue at `now`.
    fn send_recall(&mut self, order: RecallOrder, now: SimMs) -> Result<(), String> {
        let job = self.next_job;
        self.next_job += 1;
        self.recall_tbl.insert(job, order.r);
        Frame::Recall {
            job,
            file: order.file.index() as u64,
            seq: order.seq,
            size: order.size,
            tier: order.tier.device(),
            enter_vms: now,
            deadline_vms: self.cfg.deadline_ms.map_or(NO_DEADLINE, |d| now + d),
        }
        .write_to(&mut self.origin_w)
        .map_err(|e| format!("recall send: {e}"))?;
        self.origin_enqueued(now);
        Ok(())
    }

    /// Ships a background tape flush to the origin, ready at `at`.
    fn send_flush(&mut self, order: FlushOrder, at: SimMs) -> Result<(), String> {
        let job = self.next_job;
        self.next_job += 1;
        self.flush_tbl.insert(job);
        Frame::Flush {
            job,
            file: order.file.index() as u64,
            seq: order.seq,
            size: order.bytes,
            tier: order.tier.device(),
            ready_vms: at,
        }
        .write_to(&mut self.origin_w)
        .map_err(|e| format!("flush send: {e}"))?;
        self.origin_enqueued(at);
        Ok(())
    }

    /// Sends the origin a frame it is blocked on.
    fn send_origin(&mut self, what: &str, frame: Frame) -> Result<(), String> {
        frame
            .write_to(&mut self.origin_w)
            .and_then(|()| self.origin_w.flush().map_err(ProtoError::from))
            .map_err(|e| format!("{what}: {e}"))
    }
}

/// The live host: the half's events wait in the daemon's own queue, and
/// a resolved reference is a `Done` to the client that asked.
impl DiskHost for Core {
    fn schedule(&mut self, at: SimMs, ev: DiskEv) {
        self.queue.push(at, ev);
    }

    fn noise(&mut self) -> &mut Noise {
        &mut self.noise
    }

    fn resolved(&mut self, r: usize, outcome: Resolved) {
        if outcome.write {
            self.acked_writes += 1;
            self.acked_write_bytes += outcome.size;
        }
        let served = match outcome.served {
            // The recall it waited on was abandoned.
            _ if outcome.failed => ServedKind::Failed,
            ServedBy::DiskHit => ServedKind::Hit,
            ServedBy::DelayedHit => ServedKind::DelayedHit,
            ServedBy::Recall => ServedKind::Recall,
            ServedBy::DiskWrite => ServedKind::Write,
        };
        let (conn, req) = self.clients.of(r);
        self.send(
            conn,
            Frame::Done {
                req,
                wait_vms: outcome.wait_ms,
                served,
            },
        );
    }
}

/// An origin answer the disk half refused ends the session.
fn link_err(fault: LinkFault) -> String {
    format!("origin broke the link contract: {fault:?}")
}

impl Daemon<'_> {
    /// Handles one input batch in order. Returns `Ok(false)` on
    /// `Shutdown`; the frames behind it are not looked at.
    fn handle_batch(&mut self, conn: u64, frames: Vec<Frame>) -> Result<bool, String> {
        for frame in frames {
            if !self.handle_client(conn, frame)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Handles one client frame. Returns `Ok(false)` on `Shutdown`.
    /// A frame no well-behaved client sends drops its connection — the
    /// writer thread writes the replies already earned, ends with the
    /// sender and shuts the socket down — and anything still queued
    /// from a dropped connection is ignored.
    fn handle_client(&mut self, conn: u64, frame: Frame) -> Result<bool, String> {
        let core = &mut self.core;
        if !core.conns.contains_key(&conn) {
            return Ok(true);
        }
        match frame {
            Frame::Hello { .. } => {
                core.send(
                    conn,
                    Frame::HelloAck {
                        version: PROTO_VERSION,
                    },
                );
            }
            Frame::ReadReq { .. } | Frame::WriteReq { .. } => {
                let Some((req, reference)) = checked_request(frame) else {
                    core.drop_conn(conn);
                    return Ok(true);
                };
                if core.draining {
                    let reason = RejectReason::Draining;
                    core.send(conn, Frame::Rejected { req, reason });
                    return Ok(true);
                }
                // Judged on entry, whatever slot it asks for, and again
                // when its slot comes up and the bound is exact.
                if core.skips_ahead(req, reference.id) {
                    core.drop_conn(conn);
                    return Ok(true);
                }
                core.pending.insert(req, (conn, reference));
                while let Some((conn, reference)) = self.core.pending.remove(&self.core.next_req) {
                    let core = &mut self.core;
                    let req = core.next_req;
                    if core.skips_ahead(req, reference.id) {
                        // The slot stays open for the request that
                        // belongs in it.
                        core.drop_conn(conn);
                        break;
                    }
                    // Counted before the shed decision: a shed file was
                    // still named, and the next new one follows it.
                    core.files_seen = core.files_seen.max(reference.id.index() + 1);
                    core.next_req += 1;
                    self.process_request(conn, req, reference)?;
                }
            }
            Frame::StatsReq => {
                let stats = Box::new(self.stats());
                self.core.send(conn, Frame::Stats(stats));
            }
            Frame::Drain => {
                let done = self.drain()?;
                self.core.send(conn, done);
            }
            Frame::Shutdown => {
                let _ = core.send_origin("shutdown", Frame::Shutdown);
                return Ok(false);
            }
            _ => {
                core.drop_conn(conn);
            }
        }
        Ok(true)
    }

    fn process_request(
        &mut self,
        conn: u64,
        req: u64,
        reference: PreparedRef,
    ) -> Result<(), String> {
        let t_vms = reference.time * MS;
        self.advance_to(t_vms)?;
        let core = &mut self.core;
        if !reference.write
            && should_shed(
                self.disk.cache().contains(reference.id),
                core.breaker.is_open(t_vms),
                core.recall_tbl.len(),
                core.cfg.queue_bound,
            )
        {
            let reason = RejectReason::Shedding;
            core.send(conn, Frame::Rejected { req, reason });
            return Ok(());
        }
        core.clients.asked.push_back((conn, req));
        self.disk.arrive(&reference, core, Core::send_flush)?;
        Ok(())
    }

    /// Processes every local event up to `t`, keeping the origin's
    /// clock at or ahead of every local event handled — the watermark
    /// protocol that makes the split engine causally consistent. The
    /// origin is consulted only when its grant has run out.
    fn advance_to(&mut self, t: SimMs) -> Result<(), String> {
        loop {
            let next_local = self.core.queue.peek_time().filter(|&lt| lt <= t);
            let target = next_local.unwrap_or(t);
            if self.core.origin_clock < target {
                self.origin_advance(target)?;
                continue;
            }
            if next_local.is_none() {
                return Ok(());
            }
            let (now, ev) = self.core.queue.pop().expect("peeked event");
            if let Some(order) = self.disk.handle(now, ev, &mut self.core) {
                self.core.send_recall(order, now)?;
            }
        }
    }

    /// Advances the origin to `until`, applies every tape event it
    /// emits on the way, and holds on to the grant it answers with.
    fn origin_advance(&mut self, until: SimMs) -> Result<(), String> {
        self.core
            .send_origin("advance send", Frame::Advance { until_vms: until })?;
        // A job sent by a handler below would reach the origin after it
        // computed the grant, so the grant is taken as a `min` with what
        // `origin_enqueued` records meanwhile. (No handler sends one
        // today; retry verdicts are scheduled before the grant.)
        self.core.origin_clock = SimMs::MAX;
        let grant = loop {
            let frame = Frame::read_from(&mut self.core.origin_r)
                .map_err(|e| format!("origin read: {e}"))?;
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
                Frame::RecallFirstByte { job, fb_vms } => {
                    let r = self.recall_in_flight(job)?;
                    self.disk
                        .first_byte(r, fb_vms, &mut self.core)
                        .map_err(link_err)?;
                }
                Frame::RecallDone { job, done_vms: _ } => {
                    let r = self.recall_in_flight(job)?;
                    self.disk.recall_done(r).map_err(link_err)?;
                    self.core.recall_tbl.remove(&job);
                    self.core.breaker.record_success();
                }
                Frame::RecallFailed {
                    job,
                    attempt,
                    failed_vms,
                    drive_free_vms,
                } => self.recall_failed(job, attempt, failed_vms, drive_free_vms)?,
                Frame::FlushDone {
                    job,
                    done_vms: _,
                    bytes,
                } => {
                    if !self.core.flush_tbl.remove(&job) {
                        return Err(format!("completion for unknown flush job {job}"));
                    }
                    // The writeback bytes are durable now.
                    self.core.origin_flushed_bytes += bytes;
                }
                other => return Err(format!("unexpected origin frame: {other:?}")),
            }
        };
        self.core.origin_clock = self.core.origin_clock.min(grant);
        Ok(())
    }

    /// The reference behind an origin-supplied recall job id.
    fn recall_in_flight(&self, job: u64) -> Result<usize, String> {
        self.core
            .recall_tbl
            .get(&job)
            .copied()
            .ok_or_else(|| format!("origin named unknown recall job {job}"))
    }

    /// A recall attempt failed (media error or deadline): decide retry
    /// vs abandon and give the blocked origin its verdict.
    fn recall_failed(
        &mut self,
        job: u64,
        attempt: u32,
        failed_vms: SimMs,
        drive_free_vms: SimMs,
    ) -> Result<(), String> {
        let r = self.recall_in_flight(job)?;
        self.disk.recall_failed(r);
        let core = &mut self.core;
        core.breaker.record_failure(failed_vms);
        if core.retry.allows(attempt) {
            let rejoin_vms = drive_free_vms + core.retry.backoff_ms(job, attempt);
            core.send_origin("retry verdict", Frame::RecallRetry { job, rejoin_vms })
        } else {
            // The requester and every coalesced waiter get `Done(Failed)`.
            self.disk.abandon(r, failed_vms, core).map_err(link_err)?;
            self.core.recall_tbl.remove(&job);
            self.core
                .send_origin("abandon verdict", Frame::RecallAbandon { job })
        }
    }

    /// Graceful shutdown: stop admitting, drain every in-flight recall
    /// and flush, and report the writeback accounting.
    fn drain(&mut self) -> Result<Frame, String> {
        self.core.draining = true;
        self.advance_to(DRAIN_HORIZON_VMS)?;
        let core = &mut self.core;
        if !(core.recall_tbl.is_empty() && core.flush_tbl.is_empty()) {
            return Err(format!(
                "origin granted the drain horizon with {} recalls and {} flushes in flight",
                core.recall_tbl.len(),
                core.flush_tbl.len()
            ));
        }
        if core.origin_report.is_none() {
            core.send_origin("origin drain", Frame::Drain)?;
            match Frame::read_from(&mut core.origin_r) {
                Ok(Frame::OriginDrainDone {
                    outage_events,
                    outage_wait_vms,
                    slow_transfers,
                    flushed_bytes,
                    recalls_completed: _,
                    read_failures: _,
                }) => {
                    if flushed_bytes != core.origin_flushed_bytes {
                        return Err(format!(
                            "flush accounting diverged: origin reports {flushed_bytes} bytes \
                             landed, its FlushDone frames carried {}",
                            core.origin_flushed_bytes
                        ));
                    }
                    core.origin_report = Some(OriginReport {
                        outage_events,
                        outage_wait_vms,
                        slow_transfers,
                    });
                }
                Ok(other) => return Err(format!("bad origin drain reply: {other:?}")),
                Err(e) => return Err(format!("origin drain read: {e}")),
            }
        }
        let traffic = self.disk.counters();
        Ok(Frame::DrainDone {
            acked_writes: core.acked_writes,
            acked_write_bytes: core.acked_write_bytes,
            flush_jobs: traffic.flush_jobs,
            flush_bytes: traffic.flush_bytes,
            origin_flushed_bytes: core.origin_flushed_bytes,
        })
    }

    fn stats(&self) -> ServiceStats {
        let cs = self.disk.cache().stats();
        let traffic = self.disk.counters();
        let rep = self.core.origin_report.unwrap_or_default();
        ServiceStats {
            requests: self.disk.references() as u64,
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
            fetch_retries: self.disk.cache().fetch_retries(),
            recalls: traffic.recalls,
            delayed_hits: traffic.delayed_hits,
            flush_jobs: traffic.flush_jobs,
            flush_bytes: traffic.flush_bytes,
            abandoned: traffic.abandoned,
            outage_events: rep.outage_events,
            outage_wait_vms: rep.outage_wait_vms,
            slow_transfers: rep.slow_transfers,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use fmig_migrate::policy::Lru;
    use fmig_trace::DeviceClass;

    use super::*;

    /// The daemon's disk-half host minus the sockets: resolutions become
    /// replies to whoever asked.
    struct Host {
        queue: EventQueue<DiskEv>,
        noise: Noise,
        clients: Clients,
        replies: Vec<(u64, u64)>,
    }

    impl DiskHost for Host {
        fn schedule(&mut self, at: SimMs, ev: DiskEv) {
            self.queue.push(at, ev);
        }

        fn noise(&mut self) -> &mut Noise {
            &mut self.noise
        }

        fn resolved(&mut self, r: usize, _: Resolved) {
            self.replies.push(self.clients.of(r));
        }
    }

    #[test]
    fn the_window_and_its_clients_retire_in_step_as_replies_go_out_of_order() {
        let lru = Lru;
        let sim = SimConfig::default().with_counter_noise(true);
        let mut disk = DiskHalf::new(
            &sim,
            DiskCache::new(CacheConfig::with_capacity(1 << 40), &lru),
        );
        let mut host = Host {
            queue: EventQueue::new(),
            noise: Noise::Keyed(7),
            clients: Clients::default(),
            replies: Vec::new(),
        };
        let mut req = 0u64;
        for round in 0..2_000u32 {
            let t = i64::from(round) * 600;
            let t_ms = t * MS;
            // Per round: a miss, two writes, and another miss, from
            // four connections; each file is new.
            let mut recalls = Vec::new();
            for (k, write) in [false, true, true, false].into_iter().enumerate() {
                let reference = PreparedRef {
                    id: FileId::from(4 * round + k as u32),
                    size: 1_000_000,
                    write,
                    time: t,
                    next_use: None,
                    device: DeviceClass::TapeSilo,
                };
                host.clients.asked.push_back((k as u64, req));
                req += 1;
                let no_flushes = |_: &mut Host, _, _| Ok::<(), Infallible>(());
                let r = disk.arrive(&reference, &mut host, no_flushes).unwrap();
                if !write {
                    recalls.push(r);
                }
            }
            while let Some((now, ev)) = host.queue.pop_due(t_ms + 300_000) {
                disk.handle(now, ev, &mut host);
            }
            host.clients.retire(&mut disk);
            // The later miss is answered first; the earlier one holds
            // the window's front until its own answer.
            let (early, late) = (recalls[0], recalls[1]);
            let before = host.replies.len();
            for r in [late, early] {
                disk.first_byte(r, t_ms + 400_000, &mut host).unwrap();
                disk.recall_done(r).unwrap();
                host.clients.retire(&mut disk);
                assert_eq!(host.clients.base <= early, r == late);
            }
            let answered = &host.replies[before..];
            let asked = |r: usize| (r as u64 % 4, r as u64);
            assert_eq!(answered, [asked(late), asked(early)]);
            let window = disk.references() - host.clients.base;
            assert_eq!(host.clients.asked.len(), window);
            assert!(window <= 4, "{window} references held after round {round}");
            assert_eq!(disk.outcome(early), None, "retired");
        }
        assert_eq!(host.replies.len(), 8_000);
    }

    fn wire(frames: &[Frame]) -> Vec<u8> {
        let mut buf = Vec::new();
        for f in frames {
            f.write_to(&mut buf).unwrap();
        }
        buf
    }

    #[test]
    fn a_frame_is_whole_only_when_every_byte_is_buffered() {
        let one = wire(&[Frame::Advance { until_vms: 7 }]);
        let two = wire(&[Frame::Advance { until_vms: 7 }, Frame::Drain]);
        assert!(!holds_whole_frame(&[]), "empty buffer");
        assert!(!holds_whole_frame(&one[..3]), "3 bytes");
        assert!(!holds_whole_frame(&one[..4]), "length prefix only");
        assert!(!holds_whole_frame(&one[..one.len() - 1]), "one byte short");
        assert!(holds_whole_frame(&one), "exact");
        assert!(
            holds_whole_frame(&two[..two.len() - 1]),
            "exact plus a partial next frame"
        );
    }

    #[test]
    fn an_oversized_length_is_never_whole_and_still_refused() {
        let mut buf = (MAX_FRAME + 1).to_le_bytes().to_vec();
        buf.resize(4 + MAX_FRAME as usize + 1, 0);
        assert!(!holds_whole_frame(&buf));
        assert_eq!(
            Frame::read_from(&mut &buf[..]),
            Err(ProtoError::Oversized(MAX_FRAME + 1))
        );
    }

    #[test]
    fn a_batch_takes_every_buffered_whole_frame_and_keeps_good_frames_on_error() {
        let frames = [Frame::StatsReq, Frame::Drain, Frame::Shutdown];
        let mut bytes = wire(&frames);
        // The start of a fourth frame, cut short by end of stream.
        bytes.extend_from_slice(&wire(&[Frame::Advance { until_vms: 1 }])[..6]);
        let mut reader = BufReader::new(&bytes[..]);
        assert_eq!(read_batch(&mut reader), (frames.to_vec(), false));
        assert_eq!(read_batch(&mut reader), (Vec::new(), true));

        // A whole frame of an unknown type behind two good ones.
        let mut bad = wire(&frames[..2]);
        bad.extend_from_slice(&[1, 0, 0, 0, 0xEE]);
        let mut reader = BufReader::new(&bad[..]);
        assert_eq!(read_batch(&mut reader), (frames[..2].to_vec(), true));
    }
}
