//! The disk half of the device model, stated once.
//!
//! The front of the paper's data path (§3.2, §5.1) is a fixed pipeline
//! like the tape half's: an `lread`/`lwrite` pays the **MSCP dispatch**
//! overhead on the 3090, queues FCFS on the **spindle** holding its
//! directory, then on a **channel mover**, pays a millisecond **seek**,
//! and streams. Two pieces state it:
//!
//! * [`DiskPath`] is the device chain alone. The caller names each
//!   job's spindle, so the open-loop [`crate::MssSimulator`] keeps one
//!   volume per directory while the closed loop spreads dense file ids.
//! * [`DiskHalf`] wraps the staging-disk logic around it: classify each
//!   reference through its one [`DiskCache`], coalesce re-references
//!   onto an outstanding recall (*delayed hits*), turn write-behind into
//!   tape writes, and feed every measured recall wait back to the victim
//!   ranker. A write never waits on tape: its flush leaves off the
//!   critical path, and an eviction only drops a copy already queued.
//!
//! Neither owns *where an event is queued*, *where noise comes from*,
//! *how a recall or flush reaches the tape half* or *who hears that a
//! reference resolved*: those belong to the host. Three exist — the
//! open-loop simulator ([`DiskPath`] only), the closed-loop
//! [`crate::HierarchySimulator`] (disk and tape events share one queue,
//! the link is a call into [`crate::tape::TapeHalf`]) and the live
//! `fmig-served` daemon (its own queue, the link is frames to
//! `fmig-origin`) — and every decision runs the same code, over the same
//! cache, under all of them, which is why the service reproduces the
//! simulator's waits exactly.
//!
//! The tape half answers through [`DiskHalf::first_byte`],
//! [`DiskHalf::recall_done`], [`DiskHalf::recall_failed`] and
//! [`DiskHalf::abandon`]; a landed flush needs no answer, since no
//! reference waits on it. Over a socket those answers are outside
//! input: the host checks *which* job they name, and one that resolves
//! a reference out of turn comes back as a [`LinkFault`], never a
//! panic.
//!
//! # The reference window
//!
//! [`DiskHalf`] keeps per-reference state for a window of references,
//! not for the whole run, and the host trims it with
//! [`DiskHalf::retire`]. A reference may leave once it is resolved and
//! nothing can name it any more: its disk transfer's end
//! ([`DiskEv::DiskDone`]) has been handled, and its own recall, if it
//! issued one, has been answered by [`DiskHalf::recall_done`] or
//! [`DiskHalf::abandon`]. Every other name a reference has — its
//! dispatch, a place among a recall's waiters or in a disk queue —
//! lapses when it resolves. Retiring only below the caller's `upto`
//! lets a host that reports outcomes in arrival order keep the ones it
//! has not read yet; a host that reports them as they resolve retires
//! everything it can. The window runs from the
//! oldest reference still held to the newest arrival, so its size
//! follows what is in flight, not the length of the run.

use std::collections::VecDeque;
use std::mem;

use fmig_migrate::cache::{CacheOp, DiskCache, ReadResult};
use fmig_migrate::eval::PreparedRef;
use fmig_migrate::feedback::LatencyFeedback;
use fmig_trace::{DeviceClass, FileId};
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::event::{SimMs, MS};
use crate::noise::{self, Noise};
use crate::pool::Pool;
use crate::tape::Tier;

/// The disk device chain: FCFS spindles, then a channel mover (the
/// global transfer-concurrency limit), then seek and transfer. Jobs are
/// named by the index of the reference they serve. [`Self::join`] and
/// [`Self::done`] return the job, if any, that just reached a mover:
/// its caller starts that job's [`Self::transfer`].
#[derive(Debug, Clone)]
pub struct DiskPath {
    spindles: Vec<Pool>,
    movers: Pool,
    seek_ms: SimMs,
    rate: f64,
    rate_jitter: f64,
}

impl DiskPath {
    /// The disk hardware of `cfg` (at least one spindle).
    pub fn new(cfg: &SimConfig) -> Self {
        DiskPath {
            spindles: vec![Pool::new(1); cfg.disk_spindles.max(1)],
            movers: Pool::new(cfg.movers),
            seek_ms: (cfg.disk_seek_s * MS as f64) as SimMs,
            rate: cfg.disk_rate,
            rate_jitter: cfg.rate_jitter,
        }
    }

    /// Number of spindles.
    pub fn spindles(&self) -> usize {
        self.spindles.len()
    }

    /// Disk service for job `r` starts: queue on `spindle`. With the
    /// spindle held there is no mount; the job contends for a channel
    /// mover directly.
    pub fn join(&mut self, r: usize, spindle: usize) -> Option<usize> {
        (self.spindles[spindle].acquire(r) && self.movers.acquire(r)).then_some(r)
    }

    /// A transfer on `spindle` is complete: release the mover, then the
    /// spindle, each to the next job in line. One mover came free, so
    /// one job at most starts: a mover handed straight to a waiter
    /// leaves the pool full, and the spindle's next job queues.
    pub fn done(&mut self, spindle: usize) -> Option<usize> {
        let handed_on = self.movers.release();
        let next = self.spindles[spindle].release();
        let next = next.filter(|&n| self.movers.acquire(n));
        debug_assert!(handed_on.is_none() || next.is_none());
        handed_on.or(next)
    }

    /// Job `r` holds a mover at `now`: its `(first byte, transfer end)`
    /// — the head positions, then `bytes` stream at the jittered rate.
    pub fn transfer(&self, r: usize, bytes: u64, now: SimMs, noise: &mut Noise) -> (SimMs, SimMs) {
        let first_byte = now + self.seek_ms;
        let jitter = 1.0
            + noise.range(
                || noise::disk_key(r as u64, noise::STAGE_RATE),
                -self.rate_jitter,
                self.rate_jitter,
            );
        let xfer_ms = (bytes as f64 / (self.rate * jitter) * 1000.0) as SimMs;
        (first_byte, first_byte + xfer_ms.max(1))
    }
}

/// How one reference reached its first byte in the closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServedBy {
    /// Read hit on fully resident data, served at disk latency.
    DiskHit,
    /// Read coalesced onto an outstanding tape recall (delayed hit).
    DelayedHit,
    /// Read miss served by its own tape recall.
    Recall,
    /// Write absorbed by the staging disk.
    DiskWrite,
}

/// Events of the disk half; payloads are reference indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskEv {
    /// MSCP overhead elapsed for a foreground reference.
    Dispatch(usize),
    /// The reference's disk transfer finished.
    DiskDone(usize),
}

/// A dispatched miss for the host to carry to the tape half; the
/// recall's answers name it by `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecallOrder {
    /// The reference that issued the recall.
    pub r: usize,
    /// Issue-order sequence number: the identity the fault schedule's
    /// read-error decisions and keyed noise use.
    pub seq: u64,
    /// File being recalled.
    pub file: FileId,
    /// Bytes to recall.
    pub size: u64,
    /// Tape tier holding the file.
    pub tier: Tier,
}

/// A background tape write (write-behind) for the host to carry to the
/// tape half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushOrder {
    /// Spawn-order sequence number (keyed-noise identity).
    pub seq: u64,
    /// File being flushed.
    pub file: FileId,
    /// Bytes to flush.
    pub bytes: u64,
    /// Tape tier the file lives on.
    pub tier: Tier,
}

/// One reference as the host hears it resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// Dense file id.
    pub id: FileId,
    /// File size in bytes.
    pub size: u64,
    /// True for writes.
    pub write: bool,
    /// How the reference was classified at arrival.
    pub served: ServedBy,
    /// True when the recall it waited on was abandoned: no data came.
    pub failed: bool,
    /// Device that served it: disk for hits and writes, the recall's
    /// tape tier for misses and delayed hits.
    pub device: DeviceClass,
    /// Milliseconds from arrival to first byte (or to the abandon).
    pub wait_ms: SimMs,
}

/// An answer from the tape half that contradicts the reference table.
/// Only what a peer across a socket can cause is an error: the host
/// names references by the indices [`RecallOrder::r`] gave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The reference already has its first byte (or already failed).
    ResolvedTwice(usize),
    /// A recall was reported fully staged before its first byte.
    DoneBeforeFirstByte(usize),
}

/// What drives a [`DiskHalf`]: the event queue, the noise source, and
/// the listener for resolved references. Recalls and flushes reach the
/// tape half by other routes — [`DiskHalf::handle`] returns a
/// [`RecallOrder`] and [`DiskHalf::arrive`] takes the flush carrier —
/// because an in-process host reaches the tape half through the very
/// borrow the tape half's own callbacks come back on.
pub trait DiskHost {
    /// Queues `ev` to be handed back through [`DiskHalf::handle`] at
    /// `at`. Events at one time must come back in the order scheduled.
    fn schedule(&mut self, at: SimMs, ev: DiskEv);

    /// The source of stage noise.
    fn noise(&mut self) -> &mut Noise;

    /// Reference `r` reached its first byte, or failed.
    fn resolved(&mut self, r: usize, outcome: Resolved);
}

/// Traffic counts of one [`DiskHalf`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounters {
    /// Reads that coalesced onto an outstanding recall instead of
    /// issuing their own fetch.
    pub delayed_hits: u64,
    /// Tape recalls issued.
    pub recalls: u64,
    /// Tape flush jobs issued, one per write (write-behind).
    pub flush_jobs: u64,
    /// Bytes those flush jobs carry to tape.
    pub flush_bytes: u64,
    /// Recalls given up on ([`DiskHalf::abandon`]).
    pub abandoned: u64,
}

/// Per-reference progress state.
#[derive(Debug, Clone, Copy)]
struct RefState {
    /// What the host hears at resolution; `wait_ms` and `failed` are
    /// final once `done`.
    outcome: Resolved,
    arrival_ms: SimMs,
    done: bool,
    /// Its [`DiskEv::DiskDone`] is still queued.
    transferring: bool,
    /// Its own recall is in flight: issued, and neither done nor
    /// abandoned.
    recalling: bool,
    /// Counter-noise mode only: the recall sequence number assigned at
    /// *arrival* for `Recall`-served references, so a distributed
    /// replica that classifies in trace order assigns the same
    /// identities. Legacy mode assigns at dispatch and ignores this.
    recall_seq: u64,
}

/// An in-flight recall that references may coalesce onto.
#[derive(Debug, Default)]
struct OutstandingRecall {
    first_byte_ms: Option<SimMs>,
    waiters: Vec<usize>,
}

/// The staging-disk state machine over one [`DiskCache`]; see the module docs.
#[derive(Debug)]
pub struct DiskHalf<'p> {
    cfg: SimConfig,
    path: DiskPath,
    cache: DiskCache<'p>,
    /// The reference window (see the module docs): references `base..`,
    /// in arrival order.
    refs: VecDeque<RefState>,
    /// Index of the window's front.
    base: usize,
    /// Recalls in flight: a dense arena indexed by [`FileId`], grown on
    /// demand — `Some` exactly while a recall for that file is
    /// outstanding.
    outstanding: Vec<Option<OutstandingRecall>>,
    /// Each file's tape tier, from the references' device annotations,
    /// in the same [`FileId`]-indexed arena layout.
    file_tape: Vec<Option<Tier>>,
    /// Live miss-latency estimator: fed by every resolved recall,
    /// published to the cache before every reference.
    feedback: LatencyFeedback,
    /// Reusable buffer for cache side effects.
    ops: Vec<CacheOp>,
    /// Counter-noise mode: next arrival-order recall sequence number.
    next_recall_seq: u64,
    counters: DiskCounters,
}

impl<'p> DiskHalf<'p> {
    /// A disk half over `cfg`'s hardware with `cache` in its data path.
    pub fn new(cfg: &SimConfig, cache: DiskCache<'p>) -> Self {
        DiskHalf {
            cfg: cfg.clone(),
            path: DiskPath::new(cfg),
            cache,
            refs: VecDeque::new(),
            base: 0,
            outstanding: Vec::new(),
            file_tape: Vec::new(),
            feedback: LatencyFeedback::new(),
            ops: Vec::new(),
            next_recall_seq: 0,
            counters: DiskCounters::default(),
        }
    }

    /// The cache in the data path.
    pub fn cache(&self) -> &DiskCache<'p> {
        &self.cache
    }

    /// Traffic so far.
    pub fn counters(&self) -> DiskCounters {
        self.counters
    }

    /// The miss-latency feedback channel as it stands: an EWMA of
    /// measured recall waits per (tape tier, size class).
    pub fn feedback(&self) -> &LatencyFeedback {
        &self.feedback
    }

    /// References that have arrived; the next one gets this index.
    pub fn references(&self) -> usize {
        self.base + self.refs.len()
    }

    /// Reference `r`'s outcome once it is resolved; `None` before that,
    /// and again once it is retired.
    pub fn outcome(&self, r: usize) -> Option<Resolved> {
        let st = self.refs.get(r.checked_sub(self.base)?)?;
        st.done.then_some(st.outcome)
    }

    /// Drops the state of every reference below `upto` that nothing can
    /// name any more, oldest first, stopping at the first that must
    /// stay (see the module docs). Returns the new front of the window:
    /// every reference below it is retired.
    pub fn retire(&mut self, upto: usize) -> usize {
        while self.base < upto
            && self
                .refs
                .front()
                .is_some_and(|st| st.done && !st.transferring && !st.recalling)
        {
            self.refs.pop_front();
            self.base += 1;
        }
        self.base
    }

    /// References held in the window.
    #[cfg(test)]
    pub(crate) fn window(&self) -> usize {
        self.refs.len()
    }

    /// The state of reference `r`, which must still be in the window.
    /// Nothing retired can reach here: an event names a reference only
    /// while it holds it in the window, and an outside answer reaches
    /// one only through the host's table of recalls in flight, which
    /// names each until its `recall_done` or `abandon`.
    fn st(&mut self, r: usize) -> &mut RefState {
        &mut self.refs[r - self.base]
    }

    /// Classifies one reference through the cache at `pr.time` and
    /// turns its side effects into device traffic; returns its index.
    /// Every tape write the admission causes goes out through `flush`
    /// with the time it joins its drive queue.
    ///
    /// | cache says   | a recall outstanding | otherwise |
    /// |--------------|----------------------|-----------|
    /// | `Hit`        | disk hit             | disk hit  |
    /// | `DelayedHit` | delayed hit          | recall    |
    /// | `Miss`       | delayed hit          | recall    |
    ///
    /// A `Miss` coalesces when the file was evicted (or bypassed the
    /// cache) while its recall is still in flight: the bytes are already
    /// on the way. A `DelayedHit` pays its own fetch when the recall the
    /// cache still counts on was abandoned.
    pub fn arrive<H: DiskHost, E>(
        &mut self,
        pr: &PreparedRef,
        host: &mut H,
        mut flush: impl FnMut(&mut H, FlushOrder, SimMs) -> Result<(), E>,
    ) -> Result<usize, E> {
        let t_ms = pr.time * MS;
        let file = pr.id.index();
        // Shelf files restage from the shelf, everything else
        // (including files the trace saw on disk) lives in the silo.
        let tape = Tier::of(pr.device).unwrap_or(Tier::Silo);
        if file >= self.file_tape.len() {
            self.file_tape.resize(file + 1, None);
            self.outstanding.resize_with(file + 1, || None);
        }
        self.file_tape[file] = Some(tape);
        // Publish the current miss-wait estimate for this file's tier
        // and size before the cache classifies the reference: the touch
        // stamps it onto the entry, where latency-aware policies read
        // it at the next purge. Latency-blind policies ignore the hint,
        // which keeps their closed loop exactly equal to open loop.
        let est = self.feedback.estimate(tape.device(), pr.size);
        self.cache.set_est_miss_wait_s(est);
        let mut ops = mem::take(&mut self.ops);
        ops.clear();
        let joinable = self.outstanding[file].is_some();
        let (id, size, time, next_use) = (pr.id, pr.size, pr.time, pr.next_use);
        let sink = &mut |op| ops.push(op);
        let read = if pr.write {
            self.cache.write_with(id, size, time, next_use, sink);
            None
        } else {
            Some(self.cache.read_with(id, size, time, next_use, sink))
        };
        let (served, device) = match read {
            None => (ServedBy::DiskWrite, DeviceClass::Disk),
            Some(ReadResult::Hit) => (ServedBy::DiskHit, DeviceClass::Disk),
            Some(_) if joinable => (ServedBy::DelayedHit, tape.device()),
            Some(_) => (ServedBy::Recall, tape.device()),
        };
        // Counter-noise mode fixes the recall's identity here, in
        // arrival order — classification order is what a distributed
        // replica can reproduce; legacy dispatch order depends on the
        // lognormal overhead draws.
        let recall_seq = if self.cfg.counter_noise && served == ServedBy::Recall {
            self.next_recall_seq += 1;
            self.next_recall_seq - 1
        } else {
            0
        };
        let i = self.references();
        self.refs.push_back(RefState {
            outcome: Resolved {
                id: pr.id,
                size: pr.size,
                write: pr.write,
                served,
                failed: false,
                device,
                wait_ms: 0,
            },
            arrival_ms: t_ms,
            done: false,
            transferring: false,
            recalling: false,
            recall_seq,
        });

        // Write-behind becomes tape traffic; a fetch is issued at
        // dispatch, and a dropped victim costs the tape nothing.
        for &op in &ops {
            let CacheOp::Writeback { id, bytes } = op else {
                continue;
            };
            let at = t_ms + (self.cfg.writeback_delay_s * MS as f64) as SimMs;
            let tier = self.file_tape.get(id.index()).copied().flatten();
            // Spawn order is classification order, which every host
            // agrees on: it is the flush's keyed-noise identity.
            let order = FlushOrder {
                seq: self.counters.flush_jobs,
                file: id,
                bytes,
                tier: tier.unwrap_or(Tier::Silo),
            };
            self.counters.flush_jobs += 1;
            self.counters.flush_bytes += bytes;
            flush(host, order, at)?;
        }
        self.ops = ops;

        if served == ServedBy::DelayedHit {
            // Delayed hits skip dispatch: they join a recall whose
            // catalog work is done.
            self.counters.delayed_hits += 1;
            let o = self.outstanding[file]
                .as_mut()
                .expect("a delayed hit joins an outstanding recall");
            match o.first_byte_ms {
                // Data already streaming to disk: served on arrival.
                Some(fb) => self.resolve(i, fb, false, host),
                None => o.waiters.push(i),
            }
        } else {
            let d = host.noise().lognormal_ms(
                || noise::dispatch_key(i as u64),
                self.cfg.mscp_overhead_median_s,
                self.cfg.mscp_overhead_sigma,
            );
            host.schedule(t_ms + d, DiskEv::Dispatch(i));
            if served == ServedBy::Recall {
                self.outstanding[file] = Some(OutstandingRecall::default());
            }
        }
        Ok(i)
    }

    /// Runs one event at time `now`. A dispatched miss comes back as
    /// the [`RecallOrder`] to carry to the tape half, entering its
    /// drive queue at `now`.
    pub fn handle<H: DiskHost>(
        &mut self,
        now: SimMs,
        ev: DiskEv,
        host: &mut H,
    ) -> Option<RecallOrder> {
        match ev {
            DiskEv::Dispatch(r) => {
                let st = *self.st(r);
                if st.outcome.served != ServedBy::Recall {
                    // MSCP work done: start disk service.
                    let spindle = self.spindle_of(r);
                    let started = self.path.join(r, spindle);
                    self.start_transfer(started, now, host);
                    return None;
                }
                // Counter-noise mode pinned the sequence number at
                // arrival; legacy issues it here, in dispatch order.
                let seq = if self.cfg.counter_noise {
                    st.recall_seq
                } else {
                    self.counters.recalls
                };
                self.counters.recalls += 1;
                self.st(r).recalling = true;
                Some(RecallOrder {
                    r,
                    seq,
                    file: st.outcome.id,
                    size: st.outcome.size,
                    tier: Tier::of(st.outcome.device).expect("recalls come from tape"),
                })
            }
            DiskEv::DiskDone(r) => {
                self.st(r).transferring = false;
                let spindle = self.spindle_of(r);
                let started = self.path.done(spindle);
                self.start_transfer(started, now, host);
                None
            }
        }
    }

    /// Disk-served references spread over the spindles by file id.
    fn spindle_of(&mut self, r: usize) -> usize {
        self.st(r).outcome.id.index() % self.path.spindles()
    }

    /// The job that reached a mover begins its transfer: the
    /// reference's first byte follows the seek.
    fn start_transfer<H: DiskHost>(&mut self, started: Option<usize>, now: SimMs, host: &mut H) {
        let Some(r) = started else { return };
        let st = self.st(r);
        st.transferring = true;
        let bytes = st.outcome.size;
        let (first_byte, end) = self.path.transfer(r, bytes, now, host.noise());
        self.resolve(r, first_byte, false, host);
        host.schedule(end, DiskEv::DiskDone(r));
    }

    /// Recall `r`'s transfer began at `at`: the requester and every
    /// coalesced waiter are served together.
    pub fn first_byte<H: DiskHost>(
        &mut self,
        r: usize,
        at: SimMs,
        host: &mut H,
    ) -> Result<(), LinkFault> {
        self.unresolved(r)?;
        self.resolve(r, at, false, host);
        let file = self.st(r).outcome.id.index();
        if let Some(o) = self.outstanding[file].as_mut() {
            o.first_byte_ms = Some(at);
            for w in mem::take(&mut o.waiters) {
                self.resolve(w, at, false, host);
            }
        }
        Ok(())
    }

    /// Recall `r`'s file is fully staged: further reads are plain hits.
    pub fn recall_done(&mut self, r: usize) -> Result<(), LinkFault> {
        let st = *self.st(r);
        if !st.done {
            return Err(LinkFault::DoneBeforeFirstByte(r));
        }
        self.st(r).recalling = false;
        self.cache.fetch_complete(st.outcome.id);
        if let Some(o) = self.outstanding[st.outcome.id.index()].take() {
            debug_assert!(o.waiters.is_empty(), "waiters resolve at first byte");
        }
        Ok(())
    }

    /// An attempt of recall `r` failed (media read error, or first byte
    /// past its deadline): the bytes on disk are garbage. Re-arms the
    /// cache's outstanding-fetch state so reads keep coalescing;
    /// waiters parked on the recall ride along to the retry, or to
    /// [`Self::abandon`].
    pub fn recall_failed(&mut self, r: usize) {
        let file = self.st(r).outcome.id;
        self.cache.fetch_failed(file);
    }

    /// Recall `r` is given up on at `at`: the requester and every
    /// coalesced waiter fail, and the cache entry stays re-missable —
    /// the next read finds a fetch the cache still counts on but
    /// nothing outstanding, and issues a new recall.
    pub fn abandon<H: DiskHost>(
        &mut self,
        r: usize,
        at: SimMs,
        host: &mut H,
    ) -> Result<(), LinkFault> {
        self.unresolved(r)?;
        self.resolve(r, at, true, host);
        self.counters.abandoned += 1;
        let st = self.st(r);
        st.recalling = false;
        let file = st.outcome.id.index();
        if let Some(o) = self.outstanding[file].take() {
            for w in o.waiters {
                self.resolve(w, at, true, host);
            }
        }
        Ok(())
    }

    /// A recall's requester waits for its first byte exactly once; an
    /// answer for one that already has it (or already failed) is the
    /// tape half resolving a reference twice.
    fn unresolved(&mut self, r: usize) -> Result<(), LinkFault> {
        if self.st(r).done {
            return Err(LinkFault::ResolvedTwice(r));
        }
        Ok(())
    }

    /// Finalizes a reference's first byte (or its failure) and tells
    /// the host.
    fn resolve<H: DiskHost>(&mut self, r: usize, first_byte_ms: SimMs, failed: bool, host: &mut H) {
        let st = self.st(r);
        debug_assert!(!st.done, "reference {r} resolved twice");
        st.done = true;
        st.outcome.failed = failed;
        st.outcome.wait_ms = (first_byte_ms - st.arrival_ms).max(0);
        let outcome = st.outcome;
        if outcome.served == ServedBy::Recall && !failed {
            // The feedback loop closes here: a measured recall wait
            // (retries, outages, and queueing included) updates the
            // estimate future victim rankings will see. `device` is
            // the recall's tape tier for a `Recall`-served reference.
            let wait_s = outcome.wait_ms as f64 / MS as f64;
            self.feedback.record(outcome.device, outcome.size, wait_s);
        }
        host.resolved(r, outcome);
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use super::*;
    use crate::event::EventQueue;
    use fmig_migrate::cache::CacheConfig;
    use fmig_migrate::policy::Lru;

    /// Drives a [`DiskPath`] over a fixed `(spindle, bytes)` job list
    /// the way every host does, recording each first byte and keeping
    /// transfer ends in a queue of its own.
    struct PathDriver {
        path: DiskPath,
        noise: Noise,
        jobs: Vec<(usize, u64)>,
        first_bytes: Vec<(usize, SimMs)>,
        ends: EventQueue<usize>,
    }

    impl PathDriver {
        /// All `jobs` join at time zero, in order.
        fn new(cfg: &SimConfig, jobs: Vec<(usize, u64)>) -> Self {
            let mut driver = PathDriver {
                path: DiskPath::new(cfg),
                noise: Noise::Keyed(7),
                jobs,
                first_bytes: Vec::new(),
                ends: EventQueue::new(),
            };
            for r in 0..driver.jobs.len() {
                let started = driver.path.join(r, driver.jobs[r].0);
                driver.start(started, 0);
            }
            driver
        }

        fn start(&mut self, started: Option<usize>, now: SimMs) {
            if let Some(r) = started {
                let bytes = self.jobs[r].1;
                let (first_byte, end) = self.path.transfer(r, bytes, now, &mut self.noise);
                self.first_bytes.push((r, first_byte));
                self.ends.push(end, r);
            }
        }

        /// Completes the transfer that ends next; returns when it ended.
        fn finish_next(&mut self) -> SimMs {
            let (now, r) = self.ends.pop().expect("a transfer in flight");
            let started = self.path.done(self.jobs[r].0);
            self.start(started, now);
            now
        }
    }

    #[test]
    fn two_jobs_on_one_spindle_serialise() {
        let job = (3, 24_000_000);
        let mut disk = PathDriver::new(&SimConfig::default(), vec![job, job]);
        // Only the first holds the spindle: 40 ms of seek, ~10 s of data.
        assert_eq!(disk.first_bytes, [(0, 40)]);
        let first_done = disk.finish_next();
        assert!((9_000..12_000).contains(&first_done), "{first_done}");
        assert_eq!(disk.first_bytes[1], (1, first_done + 40));
        disk.finish_next();
        assert!(disk.ends.is_empty());
    }

    #[test]
    fn movers_are_granted_first_come_first_served() {
        let cfg = SimConfig::default();
        let n = cfg.movers as usize;
        // n + 2 jobs, each alone on its spindle, later ones smaller so
        // they would finish first if they could start.
        let jobs = (0..n + 2).map(|r| (r, 10_000_000 - 1_000_000 * r as u64));
        let mut disk = PathDriver::new(&cfg, jobs.collect());
        let started: Vec<usize> = disk.first_bytes.iter().map(|&(r, _)| r).collect();
        assert_eq!(started, (0..n).collect::<Vec<_>>(), "n movers, n transfers");
        // Each mover that frees goes to the job that has waited longest.
        let freed = disk.finish_next();
        assert_eq!(disk.first_bytes[n], (n, freed + 40));
        let freed = disk.finish_next();
        assert_eq!(disk.first_bytes[n + 1], (n + 1, freed + 40));
    }

    /// A host with a queue of its own that records what it hears — the
    /// shape of the live daemon, minus the sockets. The tape half is
    /// whatever the test scripts through the link-facing calls.
    struct Recorder {
        queue: EventQueue<DiskEv>,
        noise: Noise,
        resolved: Vec<(usize, Resolved)>,
        flushes: Vec<(FlushOrder, SimMs)>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                queue: EventQueue::new(),
                noise: Noise::Keyed(7),
                resolved: Vec::new(),
                flushes: Vec::new(),
            }
        }

        fn arrive(&mut self, half: &mut DiskHalf, pr: PreparedRef) -> usize {
            half.arrive(&pr, self, |host, order, at| {
                host.flushes.push((order, at));
                Ok::<(), Infallible>(())
            })
            .unwrap_or_else(|never| match never {})
        }

        /// Runs every event at or before `until`; returns the recalls
        /// dispatched on the way.
        fn advance(&mut self, half: &mut DiskHalf, until: SimMs) -> Vec<RecallOrder> {
            let mut issued = Vec::new();
            while let Some((now, ev)) = self.queue.pop_due(until) {
                issued.extend(half.handle(now, ev, self));
            }
            issued
        }

        fn outcome(&self, r: usize) -> Vec<Resolved> {
            let heard = self.resolved.iter().filter(|&&(i, _)| i == r);
            heard.map(|&(_, o)| o).collect()
        }
    }

    impl DiskHost for Recorder {
        fn schedule(&mut self, at: SimMs, ev: DiskEv) {
            self.queue.push(at, ev);
        }

        fn noise(&mut self) -> &mut Noise {
            &mut self.noise
        }

        fn resolved(&mut self, r: usize, outcome: Resolved) {
            self.resolved.push((r, outcome));
        }
    }

    fn half<'p>(policy: &'p Lru, capacity: u64) -> DiskHalf<'p> {
        let cache = CacheConfig {
            capacity,
            high_watermark: 0.9,
            low_watermark: 0.5,
        };
        let cfg = SimConfig::default().with_counter_noise(true);
        DiskHalf::new(&cfg, DiskCache::new(cache, policy))
    }

    fn reference(id: u32, time: i64, size: u64, write: bool) -> PreparedRef {
        PreparedRef {
            id: FileId::from(id),
            size,
            write,
            time,
            next_use: None,
            device: DeviceClass::TapeSilo,
        }
    }

    fn read(id: u32, time: i64, size: u64) -> PreparedRef {
        reference(id, time, size, false)
    }

    fn write(id: u32, time: i64, size: u64) -> PreparedRef {
        reference(id, time, size, true)
    }

    /// Long after every dispatch overhead and disk transfer.
    const SETTLED: SimMs = 3_600_000;

    #[test]
    fn reads_of_a_missing_file_share_one_recall() {
        let lru = Lru;
        let mut half = half(&lru, 1000);
        let mut host = Recorder::new();
        for t in 0..4 {
            host.arrive(&mut half, read(0, t, 400));
        }
        // A write that pushes usage past the high mark evicts file 0
        // while its recall is in flight; the next read misses again.
        host.arrive(&mut half, write(1, 4, 600));
        assert!(!half.cache().contains(FileId::from(0u32)));
        let re_miss = host.arrive(&mut half, read(0, 5, 400));
        assert_eq!(half.cache().stats().read_misses, 2);

        let issued = host.advance(&mut half, SETTLED);
        assert_eq!(issued.len(), 1, "one recall for five reads: {issued:?}");
        let order = issued[0];
        assert_eq!(
            (order.r, order.file, order.size),
            (0, FileId::from(0u32), 400)
        );
        assert_eq!(order.tier, Tier::Silo);
        assert_eq!(half.counters().recalls, 1);
        assert_eq!(half.counters().delayed_hits, 4);
        let reads = [0, 1, 2, 3, re_miss];
        assert!(reads.iter().all(|&r| half.outcome(r).is_none()));

        // The requester and all four waiters are served at the recall's
        // first byte, each measured from its own arrival.
        half.first_byte(order.r, SETTLED, &mut host).unwrap();
        for (r, arrival_s) in reads.into_iter().zip([0, 1, 2, 3, 5]) {
            let heard = host.outcome(r);
            assert_eq!(heard.len(), 1, "reference {r} heard {heard:?}");
            assert_eq!(heard[0].wait_ms, SETTLED - arrival_s * MS);
            assert_eq!(heard[0].device, DeviceClass::TapeSilo);
            assert!(!heard[0].failed);
            let served = if r == 0 {
                ServedBy::Recall
            } else {
                ServedBy::DelayedHit
            };
            assert_eq!(heard[0].served, served);
            assert_eq!(half.outcome(r), Some(heard[0]));
        }
        // Between first byte and completion the data is already
        // streaming: a late joiner is served on arrival.
        let late = host.arrive(&mut half, read(0, SETTLED / MS + 1, 400));
        assert_eq!(host.outcome(late)[0].wait_ms, 0);
        half.recall_done(order.r).unwrap();
        // Only the requester's wait feeds the ranker.
        assert_eq!(half.feedback().samples(), 1);
    }

    #[test]
    fn an_abandoned_recall_fails_everyone_once_and_stays_re_missable() {
        let lru = Lru;
        let mut half = half(&lru, 1 << 30);
        let mut host = Recorder::new();
        for t in 0..3 {
            host.arrive(&mut half, read(0, t, 1_000_000));
        }
        let order = host.advance(&mut half, SETTLED)[0];
        half.recall_failed(order.r);
        assert_eq!(half.cache().fetch_retries(), 1);
        assert!(
            host.resolved.is_empty(),
            "waiters ride along to the verdict"
        );

        half.abandon(order.r, SETTLED, &mut host).unwrap();
        assert_eq!(half.counters().abandoned, 1);
        for r in 0..3 {
            let heard = host.outcome(r);
            assert_eq!(heard.len(), 1, "reference {r} heard {heard:?}");
            assert!(heard[0].failed);
        }
        assert_eq!(
            half.feedback().samples(),
            0,
            "no data came: no wait to learn"
        );
        assert_eq!(
            half.abandon(order.r, SETTLED, &mut host),
            Err(LinkFault::ResolvedTwice(order.r))
        );
        assert_eq!(half.counters().abandoned, 1);

        // The cache still counts on the fetch (a delayed hit, not a
        // miss), but nothing is outstanding: the read issues a recall.
        let again = host.arrive(&mut half, read(0, SETTLED / MS + 1, 1_000_000));
        assert_eq!(half.cache().stats().read_misses, 1);
        let issued = host.advance(&mut half, 2 * SETTLED);
        assert_eq!(issued.len(), 1);
        assert_eq!((issued[0].r, issued[0].seq), (again, 1));
        assert_eq!(half.counters().recalls, 2);
        assert_eq!(half.counters().delayed_hits, 2);
    }

    #[test]
    fn the_window_stays_bounded_through_retries_abandons_and_purges() {
        let lru = Lru;
        let mut half = half(&lru, 1000);
        let mut host = Recorder::new();
        let (mut emitted, mut high_water) = (0, 0);
        for round in 0..1_000u32 {
            let t = i64::from(round) * 10_000;
            let id = |k: u32| 8 * round + k;
            // Three files, then a write whose admission purges them;
            // then two misses, each with a waiter.
            for (k, size) in [(0, 300), (1, 300), (2, 250), (3, 500)] {
                host.arrive(&mut half, write(id(k), t + i64::from(k), size));
            }
            for (k, dt) in [(4, 4), (4, 5), (5, 6), (5, 7)] {
                host.arrive(&mut half, read(id(k), t + dt, 100));
            }
            high_water = high_water.max(half.window());
            // Every recall fails once; then the first is retried and
            // served, the second abandoned.
            let issued = host.advance(&mut half, (t + 2_000) * MS);
            assert_eq!(issued.len(), 2);
            for (n, order) in issued.into_iter().enumerate() {
                half.recall_failed(order.r);
                let at = (t + 2_000) * MS;
                if n == 0 {
                    half.first_byte(order.r, at, &mut host).unwrap();
                    half.recall_done(order.r).unwrap();
                } else {
                    half.abandon(order.r, at, &mut host).unwrap();
                }
            }
            host.advance(&mut half, (t + 5_000) * MS);
            // The host reads outcomes in arrival order, then retires.
            while half.outcome(emitted).is_some() {
                emitted += 1;
            }
            assert_eq!(half.retire(emitted), emitted, "round {round}");
            assert_eq!(half.outcome(emitted - 1), None, "retired");
            assert_eq!(host.outcome(emitted - 1).len(), 1);
        }
        assert_eq!(emitted, 8_000);
        assert_eq!(half.references(), 8_000);
        // Every byte admitted (1,550 a round) was purged or is resident.
        let evicted = half.cache().stats().evicted_bytes;
        assert_eq!(evicted + half.cache().usage(), 1_550_000);
        assert_eq!(host.flushes.len(), 4_000, "one flush per write");
        assert_eq!(half.cache().fetch_retries(), 2_000);
        assert_eq!(half.counters().abandoned, 1_000);
        assert_eq!(high_water, 8, "a round's references, no more");
    }

    #[test]
    fn answers_that_resolve_a_reference_out_of_turn_are_errors() {
        let lru = Lru;
        let mut half = half(&lru, 1 << 30);
        let mut host = Recorder::new();
        let r = host.arrive(&mut half, read(0, 0, 1_000_000));
        host.advance(&mut half, SETTLED);
        assert_eq!(half.recall_done(r), Err(LinkFault::DoneBeforeFirstByte(r)));
        assert_eq!(half.first_byte(r, SETTLED, &mut host), Ok(()));
        let twice = Err(LinkFault::ResolvedTwice(r));
        assert_eq!(half.first_byte(r, SETTLED, &mut host), twice);
        // A retry that fails after the first byte went out cannot take
        // the answer back.
        half.recall_failed(r);
        assert_eq!(half.abandon(r, SETTLED, &mut host), twice);
        assert_eq!(half.counters().abandoned, 0);
        assert_eq!(
            host.outcome(r).len(),
            1,
            "the client heard exactly one answer"
        );
        assert_eq!(half.feedback().samples(), 1);
    }
}
