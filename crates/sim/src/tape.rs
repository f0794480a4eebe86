//! The tape half of the device model, stated once.
//!
//! The paper's Table 3 / Figure 3 latency decomposition for a tape
//! request is a fixed pipeline:
//!
//! 1. **drive queue** — an FCFS wait for a silo or shelf drive;
//! 2. **mount** — a robot arm (~7 s) or a human operator (~2 min, long
//!    lognormal tail) fetches the cartridge; writes append to the
//!    cartridge already mounted and skip this stage and the next until
//!    it fills;
//! 3. **seek** — a fresh read mount lands at a uniform tape position, a
//!    fresh append cartridge rewinds to start of tape;
//! 4. **mover transfer** — a bounded pool of tape movers streams the
//!    data; the grant is the job's *first byte*;
//! 5. **unload** — the drive stays busy while the cartridge unloads.
//!
//! [`TapeHalf`] is that pipeline plus its degraded modes (a
//! [`FaultSchedule`]'s outage holds, media read errors with retry, and
//! slow-drive windows). It owns the pools, the cartridge fill state and
//! the counters, and nothing else: *where an event is queued*, *where
//! stage noise comes from* and *who hears about a completion* belong to
//! the [`TapeHost`] it is driven by. Three hosts exist — the open-loop
//! [`crate::MssSimulator`] (every job a plain read or append), the
//! closed-loop [`crate::HierarchySimulator`] (tape and disk events share
//! one queue, completions feed the cache synchronously) and the live
//! `fmig-origin` server (its own queue drained by watermarks,
//! completions become frames on a socket) — and every stage runs the
//! same code under all of them.
//!
//! # Job slots
//!
//! The half keeps one slot per job *in flight*, not per job ever made.
//! The index [`TapeHalf::recall`] / [`TapeHalf::flush`] return names a
//! job until its last event, then goes back on a free list for the next
//! job to take: a recall's or flush's last event is the
//! [`TapeEv::DriveFree`] after it completed or was abandoned (a retried
//! recall keeps its slot across attempts), and an outage hold's is its
//! release. No event names a slot after that, so reuse cannot change
//! what a host hears: events pop in `(time, seq)` order, keyed noise
//! names a job by its `seq`, and callbacks name it by the host's own
//! `id` — never by the index.

use fmig_trace::DeviceClass;

use crate::config::SimConfig;
use crate::event::{SimMs, MS};
use crate::fault::{FaultSchedule, FaultTarget};
use crate::noise::{self, Noise};
use crate::pool::Pool;

/// A tape tier. Disk never reaches the tape half, so it has no variant
/// here: hosts convert a [`DeviceClass`] once, at their boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The StorageTek silo: robot-mounted cartridges.
    Silo,
    /// Operator-mounted shelf tape.
    Manual,
}

impl Tier {
    /// The tier of a tape device class; `None` for disk.
    pub fn of(device: DeviceClass) -> Option<Tier> {
        match device {
            DeviceClass::Disk => None,
            DeviceClass::TapeSilo => Some(Tier::Silo),
            DeviceClass::TapeManual => Some(Tier::Manual),
        }
    }

    /// The device class of this tier.
    pub fn device(self) -> DeviceClass {
        match self {
            Tier::Silo => DeviceClass::TapeSilo,
            Tier::Manual => DeviceClass::TapeManual,
        }
    }

    /// Index of this tier in a per-tier `[silo, manual]` array.
    pub(crate) fn slot(self) -> usize {
        match self {
            Tier::Silo => 0,
            Tier::Manual => 1,
        }
    }
}

/// Events of the tape half. Payloads are job indices handed out by
/// [`TapeHalf::recall`] / [`TapeHalf::flush`], except `OutageStart`,
/// which names a fault-schedule window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeEv {
    /// A job (re)enters its drive queue: a recall's entry, a flush
    /// becoming ready, or a failed recall's backoff elapsing.
    Join(usize),
    /// Media mount finished.
    MountDone(usize),
    /// Tape positioned at the data (or at start-of-tape for appends).
    SeekDone(usize),
    /// Data transfer finished.
    TransferDone(usize),
    /// Drive finished unloading.
    DriveFree(usize),
    /// A fault-schedule outage window opens: park one unit of its pool.
    OutageStart(usize),
    /// An outage hold's repair finished: return the parked unit.
    OutageEnd(usize),
}

/// A host's answer to a failed recall attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryVerdict {
    /// Rejoin the drive queue at `rejoin_ms` (never before the drive
    /// has unloaded).
    Retry {
        /// Rejoin time.
        rejoin_ms: SimMs,
    },
    /// Budget or deadline exhausted: drop the job.
    Abandon,
}

/// What drives a [`TapeHalf`]: the event queue, the noise source, and
/// the listener for completions. `job` arguments echo the id the host
/// chose when it created the job.
pub trait TapeHost {
    /// A listener failure (a dead socket); [`std::convert::Infallible`]
    /// for in-process hosts.
    type Error;

    /// Queues `ev` to be handed back through [`TapeHalf::handle`] at
    /// `at`. Events at one time must come back in the order scheduled.
    fn schedule(&mut self, at: SimMs, ev: TapeEv);

    /// The source of stage noise.
    fn noise(&mut self) -> &mut Noise;

    /// A recall's transfer began: its first byte reaches the requester.
    fn first_byte(&mut self, job: u64, at: SimMs) -> Result<(), Self::Error>;

    /// A recall's transfer finished: the file is fully staged.
    fn done(&mut self, job: u64, at: SimMs) -> Result<(), Self::Error>;

    /// A flush's transfer finished: `bytes` landed on tape.
    fn flush_done(&mut self, job: u64, at: SimMs, bytes: u64) -> Result<(), Self::Error>;

    /// A recall attempt failed at `failed_ms` (media read error, or
    /// first byte past its deadline); its drive is free again at
    /// `drive_free_ms`. `attempts` counts failed attempts including
    /// this one. The host owns the backoff policy and the retry budget.
    fn failed(
        &mut self,
        job: u64,
        attempts: u32,
        failed_ms: SimMs,
        drive_free_ms: SimMs,
    ) -> Result<RetryVerdict, Self::Error>;

    /// A flush's transfer began (an append's first byte). Only a host
    /// whose writes are foreground requests cares.
    fn append_started(&mut self, _job: u64, _at: SimMs) {}

    /// A flush waited `waited_ms` for its drive — the write-back
    /// contention recalls feel.
    fn flush_drive_wait(&mut self, _waited_ms: SimMs) {}
}

/// Degraded-mode and completion accounting of one [`TapeHalf`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TapeCounters {
    /// Outage windows that actually parked a unit.
    pub outage_events: u64,
    /// Queue wait that overlapped an outage window of the waiting job's
    /// tier, seconds.
    pub outage_wait_s: f64,
    /// Transfers run inside a slow-drive window.
    pub slow_transfers: u64,
    /// Bytes landed by completed flushes.
    pub flushed_bytes: u64,
    /// Recalls completed successfully.
    pub recalls_completed: u64,
    /// Recall attempts that failed (read error or deadline).
    pub read_failures: u64,
}

#[derive(Debug, Clone, Copy)]
struct TapeJob {
    /// The host's name for the job.
    id: u64,
    kind: Kind,
    tier: Tier,
    size: u64,
    /// When the job entered the queue it is waiting in (drive, then
    /// mounter): outage attribution and the flush contention metric.
    queued_ms: SimMs,
    /// The pending [`TapeEv::DriveFree`] is the job's last event: it
    /// completed, or was abandoned.
    finished: bool,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Recall {
        /// Issue-order sequence number: the identity the fault
        /// schedule's read-error decisions and keyed noise use.
        seq: u64,
        /// Failed attempts so far.
        attempts: u32,
        /// This attempt was chosen to fail at its first byte; surfaces
        /// at transfer end.
        failing: bool,
        /// Latest acceptable first byte.
        deadline_ms: Option<SimMs>,
    },
    Flush {
        /// Spawn-order sequence number (keyed-noise identity).
        seq: u64,
    },
    /// Fault injection: hold one unit of `target`'s pool until `end_ms`
    /// (a failed drive, a robot under repair, an operator off shift).
    Hold { target: FaultTarget, end_ms: SimMs },
}

/// The tape-half state machine; see the module docs.
#[derive(Debug)]
pub struct TapeHalf {
    cfg: SimConfig,
    schedule: FaultSchedule,
    /// Job slots; see the module docs.
    jobs: Vec<TapeJob>,
    /// Slots whose job has had its last event, ready for reuse.
    free: Vec<usize>,
    silo: Pool,
    manual: Pool,
    robot: Pool,
    operators: Pool,
    tape_movers: Pool,
    /// Bytes left on the mounted append cartridge `[silo, manual]`;
    /// starts empty so the first write mounts.
    cart_remaining: [u64; 2],
    counters: TapeCounters,
}

impl TapeHalf {
    /// A tape half over `cfg`'s hardware, degraded by `schedule`
    /// ([`FaultSchedule::none`] for a healthy run).
    pub fn new(cfg: &SimConfig, schedule: FaultSchedule) -> Self {
        TapeHalf {
            jobs: Vec::new(),
            free: Vec::new(),
            silo: Pool::new(cfg.silo_drives),
            manual: Pool::new(cfg.manual_drives),
            robot: Pool::new(cfg.robot_arms),
            operators: Pool::new(cfg.operators),
            tape_movers: Pool::new(cfg.tape_movers),
            cart_remaining: [0, 0],
            counters: TapeCounters::default(),
            cfg: cfg.clone(),
            schedule,
        }
    }

    /// Schedules the fault plan's outage windows; call once, before the
    /// first job. An inert schedule schedules nothing, so a healthy
    /// run's event stream is exactly the fault-free one. The windows go
    /// out in start order, which is what keeps all of them in an
    /// [`crate::event::EventQueue`]'s sorted lane and out of its heap.
    pub fn schedule_outages<H: TapeHost>(&self, host: &mut H) {
        for (w, window) in self.schedule.windows().iter().enumerate() {
            host.schedule(window.start_ms, TapeEv::OutageStart(w));
        }
    }

    /// True when the fault schedule can inject at least one fault.
    pub fn degraded(&self) -> bool {
        self.schedule.is_active()
    }

    /// Accounting so far.
    pub fn counters(&self) -> TapeCounters {
        self.counters
    }

    /// Creates a recall of `size` bytes from `tier` and returns its job
    /// index, valid until the job's last event (see the module docs).
    /// It enters the drive queue when the host hands [`TapeEv::Join`]
    /// of that index to [`Self::handle`] — directly, or through its
    /// queue at a later time.
    pub fn recall(
        &mut self,
        id: u64,
        seq: u64,
        size: u64,
        tier: Tier,
        deadline_ms: Option<SimMs>,
    ) -> usize {
        self.push_job(
            id,
            Kind::Recall {
                seq,
                attempts: 0,
                failing: false,
                deadline_ms,
            },
            tier,
            size,
        )
    }

    /// Creates a flush (an append) of `size` bytes to `tier`; joins the
    /// drive queue like [`Self::recall`].
    pub fn flush(&mut self, id: u64, seq: u64, size: u64, tier: Tier) -> usize {
        self.push_job(id, Kind::Flush { seq }, tier, size)
    }

    fn push_job(&mut self, id: u64, kind: Kind, tier: Tier, size: u64) -> usize {
        let job = TapeJob {
            id,
            kind,
            tier,
            size,
            queued_ms: 0,
            finished: false,
        };
        match self.free.pop() {
            Some(j) => {
                self.jobs[j] = job;
                j
            }
            None => {
                self.jobs.push(job);
                self.jobs.len() - 1
            }
        }
    }

    /// Runs one event at time `now`.
    pub fn handle<H: TapeHost>(
        &mut self,
        now: SimMs,
        ev: TapeEv,
        host: &mut H,
    ) -> Result<(), H::Error> {
        match ev {
            TapeEv::Join(j) => self.join(j, now, host),
            TapeEv::MountDone(j) => self.mount_done(j, now, host),
            TapeEv::SeekDone(j) => self.seek_done(j, now, host),
            TapeEv::TransferDone(j) => self.transfer_done(j, now, host),
            TapeEv::DriveFree(j) => self.drive_free(j, now, host),
            TapeEv::OutageStart(w) => self.outage_start(w, now, host),
            TapeEv::OutageEnd(j) => self.outage_release(j, now, host),
        }
    }

    fn drives(&mut self, tier: Tier) -> &mut Pool {
        match tier {
            Tier::Silo => &mut self.silo,
            Tier::Manual => &mut self.manual,
        }
    }

    fn mounters(&mut self, tier: Tier) -> &mut Pool {
        match tier {
            Tier::Silo => &mut self.robot,
            Tier::Manual => &mut self.operators,
        }
    }

    /// A fault window opens: contend for one unit of the target pool
    /// like any other job. If the pool is saturated the hold queues —
    /// the unit "fails" as it comes free, which is how a busy drive
    /// dies mid-shift.
    fn outage_start<H: TapeHost>(
        &mut self,
        w: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let window = self.schedule.windows()[w];
        let tier = window.target.tape_tier();
        let j = self.push_job(
            0,
            Kind::Hold {
                target: window.target,
                end_ms: window.end_ms,
            },
            tier,
            0,
        );
        let granted = match window.target {
            FaultTarget::SiloDrive | FaultTarget::ManualDrive => self.drives(tier).acquire(j),
            FaultTarget::RobotArm | FaultTarget::Operator => self.mounters(tier).acquire(j),
        };
        if granted {
            self.hold_granted(j, now, host)?;
        }
        Ok(())
    }

    /// A hold owns its unit — at window start, or later after queueing
    /// behind busy units: park it until the window's repair time, or
    /// hand it straight back when the window already elapsed in-queue.
    fn hold_granted<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let Kind::Hold { end_ms, .. } = self.jobs[j].kind else {
            unreachable!("hold grant on a non-hold job");
        };
        if now >= end_ms {
            return self.outage_release(j, now, host);
        }
        self.counters.outage_events += 1;
        host.schedule(end_ms, TapeEv::OutageEnd(j));
        Ok(())
    }

    /// Repair done (or the window expired in-queue): return the unit to
    /// its pool and wake the next waiter through the normal grant path.
    fn outage_release<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let TapeJob {
            kind: Kind::Hold { target, .. },
            tier,
            ..
        } = self.jobs[j]
        else {
            unreachable!("outage release on a non-hold job");
        };
        match target {
            FaultTarget::SiloDrive | FaultTarget::ManualDrive => {
                if let Some(n) = self.drives(tier).release() {
                    self.drive_granted(n, now, host)?;
                }
            }
            FaultTarget::RobotArm | FaultTarget::Operator => {
                if let Some(n) = self.mounters(tier).release() {
                    self.mount_started(n, now, host)?;
                }
            }
        }
        // The hold's last event.
        self.free.push(j);
        Ok(())
    }

    /// Stage 1: queue on a drive of the job's tier.
    fn join<H: TapeHost>(&mut self, j: usize, now: SimMs, host: &mut H) -> Result<(), H::Error> {
        self.jobs[j].queued_ms = now;
        let tier = self.jobs[j].tier;
        if self.drives(tier).acquire(j) {
            self.drive_granted(j, now, host)?;
        }
        Ok(())
    }

    /// Drive held: mount if needed, else go straight to a tape mover.
    fn drive_granted<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let job = self.jobs[j];
        match job.kind {
            // A queued fault window finally got its unit.
            Kind::Hold { .. } => return self.hold_granted(j, now, host),
            Kind::Flush { .. } => host.flush_drive_wait(now - job.queued_ms),
            Kind::Recall { .. } => {}
        }
        self.attribute_outage_wait(job.tier, job.queued_ms, now);
        if let Kind::Flush { .. } = job.kind {
            if self.cart_remaining[job.tier.slot()] >= job.size {
                // Append to the mounted cartridge: no mount, no seek.
                if self.tape_movers.acquire(j) {
                    self.mover_granted(j, now, host)?;
                }
                return Ok(());
            }
        }
        // Reads always mount the file's cartridge; writes mount a fresh
        // append cartridge when the current one is full. Re-stamp the
        // queue-entry time: the mounter queue is a separate
        // outage-attribution interval.
        self.jobs[j].queued_ms = now;
        if self.mounters(job.tier).acquire(j) {
            self.mount_started(j, now, host)?;
        }
        Ok(())
    }

    /// Stage 2: robot arm or operator engaged; schedule the mount
    /// completion.
    fn mount_started<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let job = self.jobs[j];
        if let Kind::Hold { .. } = job.kind {
            // A queued mounter-outage window finally got its unit.
            return self.hold_granted(j, now, host);
        }
        self.attribute_outage_wait(job.tier, job.queued_ms, now);
        let key = || noise_key(job.kind, noise::STAGE_MOUNT);
        let d = match job.tier {
            Tier::Silo => host.noise().jitter_ms(key, self.cfg.robot_mount_s, 0.2),
            Tier::Manual => host.noise().lognormal_ms(
                key,
                self.cfg.operator_mount_median_s,
                self.cfg.operator_mount_sigma,
            ),
        };
        host.schedule(now + d, TapeEv::MountDone(j));
        Ok(())
    }

    /// Adds the slice of a queue wait that overlapped an outage window
    /// of the waiting job's tier to the degraded-mode accounting.
    fn attribute_outage_wait(&mut self, tier: Tier, queued_ms: SimMs, now: SimMs) {
        if self.schedule.is_active() {
            let overlap = self
                .schedule
                .outage_overlap_ms(tier.device(), queued_ms, now);
            if overlap > 0 {
                self.counters.outage_wait_s += overlap as f64 / MS as f64;
            }
        }
    }

    /// Mount finished: hand the mounter over and position the tape
    /// (stage 3).
    fn mount_done<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let job = self.jobs[j];
        if let Some(n) = self.mounters(job.tier).release() {
            self.mount_started(n, now, host)?;
        }
        let key = || noise_key(job.kind, noise::STAGE_SEEK);
        let d = if let Kind::Flush { .. } = job.kind {
            // Fresh append cartridge: position to start of tape.
            self.cart_remaining[job.tier.slot()] = self.cfg.cartridge_bytes;
            host.noise().jitter_ms(key, 3.0, 0.3)
        } else {
            // Fresh mount: land at a uniform tape position.
            let seek_s =
                host.noise()
                    .range(key, self.cfg.tape_seek_min_s, self.cfg.tape_seek_max_s);
            (seek_s * MS as f64) as SimMs
        };
        host.schedule(now + d, TapeEv::SeekDone(j));
        Ok(())
    }

    /// Positioned: wait for a tape mover.
    fn seek_done<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        if self.tape_movers.acquire(j) {
            self.mover_granted(j, now, host)?;
        }
        Ok(())
    }

    /// Stage 4: the transfer begins — the job's first byte, unless this
    /// recall attempt is fated to fail (media read error, or first byte
    /// past its deadline). A failing attempt reads the tape but
    /// delivers garbage: nobody is told, and the failure surfaces at
    /// transfer end.
    fn mover_granted<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let job = self.jobs[j];
        match job.kind {
            Kind::Recall {
                seq,
                attempts,
                deadline_ms,
                ..
            } => {
                if self.schedule.read_fails(seq, attempts) || deadline_ms.is_some_and(|d| now > d) {
                    let Kind::Recall { failing, .. } = &mut self.jobs[j].kind else {
                        unreachable!("job kind cannot change");
                    };
                    *failing = true;
                } else {
                    host.first_byte(job.id, now)?;
                }
            }
            Kind::Flush { .. } => {
                host.append_started(job.id, now);
                let slot = job.tier.slot();
                self.cart_remaining[slot] = self.cart_remaining[slot].saturating_sub(job.size);
            }
            Kind::Hold { .. } => unreachable!("holds never reach a mover"),
        }
        // Slow-drive degradation scales the healthy rate; a factor of
        // exactly 1.0 (no window, or no plan) leaves the arithmetic
        // bit-identical to the fault-free run.
        let factor = self.schedule.rate_factor_at(job.tier.device(), now);
        if factor < 1.0 {
            self.counters.slow_transfers += 1;
        }
        let rate = self.cfg.rate_of(job.tier.device()) * factor;
        let jitter = 1.0
            + host.noise().range(
                || noise_key(job.kind, noise::STAGE_RATE),
                -self.cfg.rate_jitter,
                self.cfg.rate_jitter,
            );
        let xfer_ms = (job.size as f64 / (rate * jitter) * 1000.0) as SimMs;
        host.schedule(now + xfer_ms.max(1), TapeEv::TransferDone(j));
        Ok(())
    }

    /// Transfer complete: release the mover, report, and unload
    /// (stage 5).
    fn transfer_done<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let job = self.jobs[j];
        if let Some(n) = self.tape_movers.release() {
            self.mover_granted(n, now, host)?;
        }
        let drive_free_ms = now + (self.cfg.tape_unload_s * MS as f64) as SimMs;
        match job.kind {
            Kind::Recall { failing: true, .. } => {
                self.counters.read_failures += 1;
                let Kind::Recall {
                    failing, attempts, ..
                } = &mut self.jobs[j].kind
                else {
                    unreachable!("job kind cannot change");
                };
                *failing = false;
                *attempts += 1;
                let attempts = *attempts;
                // The drive unloads whatever the verdict.
                host.schedule(drive_free_ms, TapeEv::DriveFree(j));
                match host.failed(job.id, attempts, now, drive_free_ms)? {
                    RetryVerdict::Retry { rejoin_ms } => {
                        host.schedule(rejoin_ms.max(drive_free_ms), TapeEv::Join(j));
                    }
                    RetryVerdict::Abandon => self.jobs[j].finished = true,
                }
            }
            Kind::Recall { .. } => {
                self.counters.recalls_completed += 1;
                self.jobs[j].finished = true;
                host.done(job.id, now)?;
                host.schedule(drive_free_ms, TapeEv::DriveFree(j));
            }
            Kind::Flush { .. } => {
                self.counters.flushed_bytes = self.counters.flushed_bytes.saturating_add(job.size);
                self.jobs[j].finished = true;
                host.flush_done(job.id, now, job.size)?;
                host.schedule(drive_free_ms, TapeEv::DriveFree(j));
            }
            Kind::Hold { .. } => unreachable!("holds never transfer"),
        }
        Ok(())
    }

    /// Drive unloaded: pass it to the next queued job. A job that is
    /// finished gives up its slot here.
    fn drive_free<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let TapeJob { tier, finished, .. } = self.jobs[j];
        if finished {
            self.free.push(j);
        }
        if let Some(n) = self.drives(tier).release() {
            self.drive_granted(n, now, host)?;
        }
        Ok(())
    }
}

/// The keyed-noise identity of a job's draw at `stage`: recalls by
/// (issue seq, attempt), flushes by spawn seq.
fn noise_key(kind: Kind, stage: u64) -> u64 {
    match kind {
        Kind::Recall { seq, attempts, .. } => noise::recall_key(seq, attempts, stage),
        Kind::Flush { seq } => noise::flush_key(seq, stage),
        Kind::Hold { .. } => unreachable!("holds draw no noise"),
    }
}

/// A host with a queue of its own that records every callback — the
/// shape of the live origin, minus the socket. It also checks the slot
/// contract of the module docs on every event it hands back.
#[cfg(test)]
mod recorder {
    use std::collections::{HashSet, VecDeque};
    use std::convert::Infallible;

    use super::*;
    use crate::event::EventQueue;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Call {
        FirstByte(u64, SimMs),
        Done(u64, SimMs),
        FlushDone(u64, SimMs, u64),
        /// `(job, attempts, failed_ms, drive_free_ms)`
        Failed(u64, u32, SimMs, SimMs),
    }

    /// Who a job is, whatever slot it sits in: the host's id plus its
    /// keyed-noise identity (a hold's is its repair time).
    type Identity = (u64, u64);

    fn identity(job: &TapeJob) -> Identity {
        match job.kind {
            Kind::Recall { seq, .. } | Kind::Flush { seq } => (job.id, seq),
            Kind::Hold { end_ms, .. } => (u64::MAX, end_ms as u64),
        }
    }

    /// The slot an event names; `None` for a fault window.
    fn slot(ev: TapeEv) -> Option<usize> {
        match ev {
            TapeEv::Join(j)
            | TapeEv::MountDone(j)
            | TapeEv::SeekDone(j)
            | TapeEv::TransferDone(j)
            | TapeEv::DriveFree(j)
            | TapeEv::OutageEnd(j) => Some(j),
            TapeEv::OutageStart(_) => None,
        }
    }

    pub(super) struct Recorder {
        /// Each event with its push number.
        pub queue: EventQueue<(TapeEv, usize)>,
        noise: Noise,
        pub calls: Vec<Call>,
        /// Answers to `failed`, in order; `Abandon` once exhausted.
        pub verdicts: VecDeque<RetryVerdict>,
        /// Every event scheduled, by push number.
        scheduled: Vec<TapeEv>,
        /// The job each scheduled event was meant for, read from its
        /// slot right after the call that scheduled it.
        addressee: Vec<Option<Identity>>,
        /// Host ids whose next `DriveFree` is their last event.
        finished: HashSet<u64>,
        /// Jobs made and not yet past their last event, counting a hold
        /// until its `OutageEnd` (one released in its queue counts on).
        pub live: usize,
        /// The most `live` ever was.
        pub peak_live: usize,
    }

    impl Recorder {
        pub fn new(seed: u64, verdicts: impl IntoIterator<Item = RetryVerdict>) -> Self {
            Recorder {
                queue: EventQueue::new(),
                noise: Noise::Keyed(seed),
                calls: Vec::new(),
                verdicts: verdicts.into_iter().collect(),
                scheduled: Vec::new(),
                addressee: Vec::new(),
                finished: HashSet::new(),
                live: 0,
                peak_live: 0,
            }
        }

        /// The test made a job.
        pub fn made(&mut self) {
            self.live += 1;
            self.peak_live = self.peak_live.max(self.live);
        }

        /// Notes who every event scheduled since the last call is for.
        fn address(&mut self, half: &TapeHalf) {
            for &ev in &self.scheduled[self.addressee.len()..] {
                self.addressee
                    .push(slot(ev).map(|j| identity(&half.jobs[j])));
            }
        }

        /// Runs every event at or before `until` — the origin's
        /// `Advance` watermark.
        ///
        /// # Panics
        ///
        /// Panics if an event reaches a slot that was freed, or that now
        /// holds a job other than the one the event was meant for.
        pub fn advance(&mut self, half: &mut TapeHalf, until: SimMs) {
            self.address(half);
            while let Some((now, (ev, n))) = self.queue.pop_due(until) {
                if let Some(j) = slot(ev) {
                    assert!(!half.free.contains(&j), "{ev:?} reached a free slot");
                    let meant_for = self.addressee[n];
                    assert_eq!(Some(identity(&half.jobs[j])), meant_for, "{ev:?}");
                }
                half.handle(now, ev, self)
                    .unwrap_or_else(|never| match never {});
                self.address(half);
                // A test that does not count the jobs it makes leaves
                // `live` at zero.
                match ev {
                    TapeEv::OutageStart(_) => self.made(),
                    TapeEv::OutageEnd(_) => self.live = self.live.saturating_sub(1),
                    TapeEv::DriveFree(_) => {
                        let (id, _) = self.addressee[n].expect("a job event");
                        if self.finished.remove(&id) {
                            self.live = self.live.saturating_sub(1);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    impl TapeHost for Recorder {
        type Error = Infallible;

        fn schedule(&mut self, at: SimMs, ev: TapeEv) {
            self.queue.push(at, (ev, self.scheduled.len()));
            self.scheduled.push(ev);
        }

        fn noise(&mut self) -> &mut Noise {
            &mut self.noise
        }

        fn first_byte(&mut self, job: u64, at: SimMs) -> Result<(), Infallible> {
            self.calls.push(Call::FirstByte(job, at));
            Ok(())
        }

        fn done(&mut self, job: u64, at: SimMs) -> Result<(), Infallible> {
            self.calls.push(Call::Done(job, at));
            self.finished.insert(job);
            Ok(())
        }

        fn flush_done(&mut self, job: u64, at: SimMs, bytes: u64) -> Result<(), Infallible> {
            self.calls.push(Call::FlushDone(job, at, bytes));
            self.finished.insert(job);
            Ok(())
        }

        fn failed(
            &mut self,
            job: u64,
            attempts: u32,
            failed_ms: SimMs,
            drive_free_ms: SimMs,
        ) -> Result<RetryVerdict, Infallible> {
            self.calls
                .push(Call::Failed(job, attempts, failed_ms, drive_free_ms));
            let verdict = self.verdicts.pop_front().unwrap_or(RetryVerdict::Abandon);
            if verdict == RetryVerdict::Abandon {
                self.finished.insert(job);
            }
            Ok(verdict)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::recorder::{Call, Recorder};
    use super::*;
    use crate::fault::FaultPlan;

    const FOREVER: SimMs = SimMs::MAX / 4;

    fn half(schedule: FaultSchedule) -> TapeHalf {
        TapeHalf::new(&SimConfig::default().with_seed(7), schedule)
    }

    #[test]
    fn a_silo_recall_reaches_first_byte_then_completes() {
        let mut half = half(FaultSchedule::none());
        let mut host = Recorder::new(7, []);
        let j = half.recall(10, 0, 50_000_000, Tier::Silo, None);
        host.schedule(1_000, TapeEv::Join(j));
        host.advance(&mut half, FOREVER);
        let (fb, done) = match host.calls[..] {
            [Call::FirstByte(10, fb), Call::Done(10, done)] => (fb, done),
            ref other => panic!("unexpected callback sequence: {other:?}"),
        };
        // Mount (~7 s) plus seek (10–90 s) precede the first byte; the
        // ~20 s transfer at ~2.4 MB/s precedes completion.
        assert!(fb >= 1_000 + 7_000, "first byte too early: {fb}");
        assert!(done > fb + 10_000);
        assert_eq!(half.counters().recalls_completed, 1);
        assert!(host.queue.is_empty(), "drive-free must drain");
    }

    #[test]
    fn appends_to_a_mounted_cartridge_skip_the_mount() {
        let mut half = half(FaultSchedule::none());
        let mut host = Recorder::new(7, []);
        let j = half.flush(1, 0, 1_000_000, Tier::Silo);
        host.schedule(0, TapeEv::Join(j));
        host.advance(&mut half, FOREVER);
        let Call::FlushDone(1, first, 1_000_000) = host.calls[0] else {
            panic!("expected the first flush to land: {:?}", host.calls);
        };
        // Second flush starts after the first fully unloaded, on a
        // cartridge that is already mounted: no mount, no seek.
        let start = first + 10_000;
        let j = half.flush(2, 1, 1_000_000, Tier::Silo);
        host.schedule(start, TapeEv::Join(j));
        host.advance(&mut half, FOREVER);
        let Call::FlushDone(2, second, _) = host.calls[1] else {
            panic!("expected the second flush to land: {:?}", host.calls);
        };
        let (first_latency, second_latency) = (first, second - start);
        assert!(
            second_latency < first_latency / 2,
            "append should skip mount+seek: first {first_latency} ms, second {second_latency} ms"
        );
        assert_eq!(half.counters().flushed_bytes, 2_000_000);
    }

    #[test]
    fn failed_attempts_ask_the_host_and_honor_the_verdict() {
        // read_error_prob 1.0 with one allowed retry: attempt 0 always
        // fails, attempt 1 always succeeds.
        let plan = FaultPlan {
            read_error_prob: 1.0,
            max_read_retries: 1,
            retry_backoff_s: 45.0,
            ..FaultPlan::none()
        };
        let schedule = FaultSchedule::materialize(&plan, 7, 0, 1 << 40);

        // Verdict: retry → the recall eventually completes.
        let mut tape = half(schedule.clone());
        let mut host = Recorder::new(7, [RetryVerdict::Retry { rejoin_ms: 0 }]);
        let j = tape.recall(5, 0, 1_000_000, Tier::Silo, None);
        host.schedule(0, TapeEv::Join(j));
        host.advance(&mut tape, FOREVER);
        let Call::Failed(5, 1, failed_ms, drive_free_ms) = host.calls[0] else {
            panic!("expected the first attempt to fail: {:?}", host.calls);
        };
        assert_eq!(drive_free_ms - failed_ms, 5_000, "unload precedes rejoin");
        assert_eq!(tape.counters().read_failures, 1);
        assert_eq!(tape.counters().recalls_completed, 1);
        assert!(matches!(host.calls.last(), Some(Call::Done(5, _))));

        // Verdict: abandon → nobody is served, the drive is still freed.
        let mut tape = half(schedule);
        let mut host = Recorder::new(7, [RetryVerdict::Abandon]);
        let j = tape.recall(6, 0, 1_000_000, Tier::Silo, None);
        host.schedule(0, TapeEv::Join(j));
        host.advance(&mut tape, FOREVER);
        assert_eq!(tape.counters().recalls_completed, 0);
        assert!(matches!(host.calls[..], [Call::Failed(6, 1, ..)]));
        assert!(host.queue.is_empty());
        assert_eq!(tape.silo.in_use(), 0, "abandon must still free the drive");
    }

    #[test]
    fn a_slot_is_reused_once_its_job_has_had_its_last_event() {
        let mut half = half(FaultSchedule::none());
        let mut host = Recorder::new(7, []);
        let mut first = [
            half.recall(1, 0, 1_000_000, Tier::Silo, None),
            half.flush(2, 0, 1_000_000, Tier::Silo),
        ];
        for j in first {
            host.schedule(0, TapeEv::Join(j));
        }
        host.advance(&mut half, FOREVER);
        let mut second = [
            half.recall(3, 1, 1_000_000, Tier::Silo, None),
            half.flush(4, 1, 1_000_000, Tier::Silo),
        ];
        first.sort_unstable();
        second.sort_unstable();
        assert_eq!(first, second, "finished jobs hand their slots on");
        assert_eq!(half.jobs.len(), 2);
    }

    #[test]
    fn a_deadline_in_the_past_fails_the_attempt() {
        let mut half = half(FaultSchedule::none());
        // Deadline 1 ms after entry: mount+seek always overshoot it.
        let mut host = Recorder::new(7, [RetryVerdict::Abandon]);
        let j = half.recall(9, 0, 1_000_000, Tier::Silo, Some(1));
        host.schedule(0, TapeEv::Join(j));
        host.advance(&mut half, FOREVER);
        assert!(matches!(host.calls[..], [Call::Failed(9, 1, ..)]));
        assert_eq!(half.counters().read_failures, 1);
        assert_eq!(half.counters().recalls_completed, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::recorder::{Call, Recorder};
    use super::*;
    use crate::fault::{FaultPlan, OutageClause};
    use proptest::prelude::*;

    /// Runs `jobs` (`(flush?, manual?, size, enter time)`) on a
    /// contended half under a silo-drive outage process plus flaky
    /// reads, stepping through `watermarks` and then to the horizon, and
    /// returns everything the host heard. Each job is enqueued the way
    /// the daemon sends it: just before the first watermark at or past
    /// its enter time, so against a partly drained queue. With
    /// `skip_idle`, a step whose watermark falls short of the next
    /// queued event is not taken at all — the steps a lookahead grant
    /// saves. `retries` answers the failed attempts in order (`true`
    /// retries at once, `false` abandons), and abandons once it runs
    /// out.
    ///
    /// The recorder checks every event against the slot it reaches, and
    /// the run checks that the slots never outnumber the jobs that were
    /// live at once.
    fn replay(
        seed: u64,
        jobs: &[(bool, bool, u64, SimMs)],
        watermarks: &[SimMs],
        skip_idle: bool,
        retries: &[bool],
    ) -> Vec<Call> {
        const HORIZON: SimMs = 100_000_000;
        let plan = FaultPlan {
            outages: vec![OutageClause {
                target: FaultTarget::SiloDrive,
                mean_up_s: 400.0,
                down_s: 300.0,
                jitter: 0.2,
            }],
            read_error_prob: 0.3,
            max_read_retries: 2,
            ..FaultPlan::none()
        };
        let cfg = SimConfig {
            silo_drives: 2,
            robot_arms: 1,
            tape_movers: 2,
            ..SimConfig::default().with_seed(seed)
        };
        let mut half = TapeHalf::new(&cfg, FaultSchedule::materialize(&plan, seed, 0, HORIZON));
        let verdicts = retries.iter().map(|&retry| match retry {
            true => RetryVerdict::Retry { rejoin_ms: 0 },
            false => RetryVerdict::Abandon,
        });
        let mut host = Recorder::new(seed, verdicts);
        half.schedule_outages(&mut host);
        let mut sent = vec![false; jobs.len()];
        for &t in watermarks.iter().chain([&HORIZON]) {
            for (i, &(flush, manual, size, at)) in jobs.iter().enumerate() {
                if sent[i] || at > t {
                    continue;
                }
                sent[i] = true;
                let tier = if manual { Tier::Manual } else { Tier::Silo };
                let j = if flush {
                    half.flush(i as u64, i as u64, size, tier)
                } else {
                    half.recall(i as u64, i as u64, size, tier, None)
                };
                host.made();
                host.schedule(at, TapeEv::Join(j));
            }
            if skip_idle && host.queue.peek_time().is_none_or(|next| next > t) {
                continue;
            }
            host.advance(&mut half, t);
        }
        assert!(host.queue.is_empty(), "the horizon must drain everything");
        assert!(
            half.jobs.len() <= host.peak_live,
            "{} slots for at most {} live jobs",
            half.jobs.len(),
            host.peak_live
        );
        host.calls
    }

    proptest! {
        /// The invariant the daemon↔origin watermark protocol rests on:
        /// how the horizon is cut into `advance` steps — one step, many
        /// steps with jobs arriving in between, or only the steps that
        /// have something due — never changes what the host hears:
        /// same callbacks, same jobs, same times, same order. Slots are
        /// reused as jobs finish, retried or abandoned alike, and no
        /// event ever reaches a job it was not meant for.
        #[test]
        fn watermark_slicing_never_changes_the_callback_sequence(
            seed in 0u64..1000,
            jobs in proptest::collection::vec(
                (any::<bool>(), any::<bool>(), 1_000_000u64..150_000_000, 0i64..2_000_000),
                1..24,
            ),
            steps in proptest::collection::vec(1i64..600_000, 0..20),
            retries in proptest::collection::vec(any::<bool>(), 0..24),
        ) {
            let watermarks: Vec<SimMs> = steps
                .iter()
                .scan(0, |t, &d| {
                    *t += d;
                    Some(*t)
                })
                .collect();
            let whole = replay(seed, &jobs, &[], false, &retries);
            let sliced = replay(seed, &jobs, &watermarks, false, &retries);
            let granted = replay(seed, &jobs, &watermarks, true, &retries);
            prop_assert!(whole.len() >= jobs.len(), "every job must be heard from");
            prop_assert_eq!(&whole, &sliced);
            prop_assert_eq!(sliced, granted);
        }
    }
}
