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
//! The half keeps one slot per recall or flush *in flight*, not per job
//! ever made. The index [`TapeHalf::recall`] / [`TapeHalf::flush`]
//! return names a job until its last event — the [`TapeEv::DriveFree`]
//! after it completed or was abandoned (a retried recall keeps its slot
//! across attempts) — then goes back on a free list for the next job to
//! take. No event names a slot after that, so reuse cannot change what
//! a host hears: events pop in `(time, seq)` order, keyed noise names a
//! job by its `seq`, and callbacks name it by the host's own `id` —
//! never by the index.
//!
//! An outage hold takes no slot: [`TapeEv::OutageStart`] and
//! [`TapeEv::OutageEnd`] name its fault-schedule window (target and
//! repair time), which a drive or mounter pool queues like a job.
//!
//! # Answer floor
//!
//! Each slot also records where its job stands — the event of its own
//! it has due, or the pool it waits in — and the half lists the holds
//! parked on a unit now; that is all [`TapeHalf::answer_floor`] reads:
//! the earliest time a recall in flight can next be answered, the live
//! origin's lookahead grant. The mount and seek it adds are drawn by
//! the same two helpers the stage handlers draw them with
//! ([`recall_floor`] for one recall on its own), so the bound and the
//! physics cannot drift apart.

#![cfg_attr(not(test), deny(clippy::unreachable, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used))]

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

/// Events of the tape half. The payload of the five job events is a job
/// index handed out by [`TapeHalf::recall`] / [`TapeHalf::flush`]; that
/// of the two outage events is a fault-schedule window's index.
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
    /// An outage window's repair finished: return the parked unit.
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

/// Who waits in a tier's drive or mounter pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiter {
    /// A job, by slot.
    Job(usize),
    /// An outage window, by index: its hold takes the unit out of
    /// service until the window's repair time.
    Hold(usize),
}

#[derive(Debug, Clone, Copy)]
struct TapeJob {
    /// The host's name for the job.
    id: u64,
    kind: Kind,
    tier: Tier,
    size: u64,
    /// Where the job stands in its pipeline; see [`Step`].
    step: Step,
}

/// Where a job stands: the event of its own it has due, or the pool it
/// waits in, with what the stage it is in needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// [`TapeEv::Join`] due: a new job, or a retried recall whose drive
    /// has unloaded.
    Join(SimMs),
    /// Waiting for a drive or a mounter since `since` (each queue is its
    /// own outage-attribution interval): a recall still has its mount
    /// and its seek ahead.
    Queued { since: SimMs },
    /// [`TapeEv::MountDone`] due.
    MountDone(SimMs),
    /// [`TapeEv::SeekDone`] due.
    SeekDone(SimMs),
    /// Positioned (or appending), waiting for a tape mover.
    AwaitMover,
    /// [`TapeEv::TransferDone`] due at `at`; `failing` if the mover
    /// grant fated this recall attempt to fail (media read error, or
    /// first byte past its deadline), which surfaces then.
    TransferDone { at: SimMs, failing: bool },
    /// [`TapeEv::DriveFree`] due, at `free`. A retried recall rejoins
    /// its queue at `rejoin` afterwards; without one, the unload is the
    /// job's last event.
    DriveFree { free: SimMs, rejoin: Option<SimMs> },
    /// The slot is on the free list.
    Vacant,
}

impl Step {
    /// When the job's next event of its own is due, if it has one.
    fn due(self) -> Option<SimMs> {
        match self {
            Step::Join(t)
            | Step::MountDone(t)
            | Step::SeekDone(t)
            | Step::TransferDone { at: t, .. }
            | Step::DriveFree { free: t, .. } => Some(t),
            Step::Queued { .. } | Step::AwaitMover | Step::Vacant => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Recall {
        /// Issue-order sequence number: the identity the fault
        /// schedule's read-error decisions and keyed noise use.
        seq: u64,
        /// Failed attempts so far.
        attempts: u32,
        /// Latest acceptable first byte.
        deadline_ms: Option<SimMs>,
    },
    Flush {
        /// Spawn-order sequence number (keyed-noise identity).
        seq: u64,
    },
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
    silo: Pool<Waiter>,
    manual: Pool<Waiter>,
    robot: Pool<Waiter>,
    operators: Pool<Waiter>,
    tape_movers: Pool,
    /// The outage windows whose hold has its unit now, by index: at
    /// most one per drive and mounter.
    parked: Vec<usize>,
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
            parked: Vec::new(),
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

    /// Creates a recall of `size` bytes from `tier` that joins its drive
    /// queue at `join_ms`, and returns its job index, valid until the
    /// job's last event (see the module docs). The host hands
    /// [`TapeEv::Join`] of that index to [`Self::handle`] at `join_ms` —
    /// directly, or through its queue.
    pub fn recall(
        &mut self,
        id: u64,
        seq: u64,
        size: u64,
        tier: Tier,
        deadline_ms: Option<SimMs>,
        join_ms: SimMs,
    ) -> usize {
        let kind = Kind::Recall {
            seq,
            attempts: 0,
            deadline_ms,
        };
        self.push_job(id, kind, tier, size, join_ms)
    }

    /// Creates a flush (an append) of `size` bytes to `tier`, ready at
    /// `join_ms`; joins the drive queue like [`Self::recall`].
    pub fn flush(&mut self, id: u64, seq: u64, size: u64, tier: Tier, join_ms: SimMs) -> usize {
        self.push_job(id, Kind::Flush { seq }, tier, size, join_ms)
    }

    fn push_job(&mut self, id: u64, kind: Kind, tier: Tier, size: u64, join_ms: SimMs) -> usize {
        let job = TapeJob {
            id,
            kind,
            tier,
            size,
            step: Step::Join(join_ms),
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
            TapeEv::OutageEnd(w) => self.outage_release(w, now, host),
        }
    }

    fn drives(&mut self, tier: Tier) -> &mut Pool<Waiter> {
        match tier {
            Tier::Silo => &mut self.silo,
            Tier::Manual => &mut self.manual,
        }
    }

    fn mounters(&mut self, tier: Tier) -> &mut Pool<Waiter> {
        match tier {
            Tier::Silo => &mut self.robot,
            Tier::Manual => &mut self.operators,
        }
    }

    /// The pool an outage of `target` takes a unit of.
    fn held_pool(&mut self, target: FaultTarget) -> &mut Pool<Waiter> {
        let tier = target.tape_tier();
        match target {
            FaultTarget::SiloDrive | FaultTarget::ManualDrive => self.drives(tier),
            FaultTarget::RobotArm | FaultTarget::Operator => self.mounters(tier),
        }
    }

    /// Outage window `w` opens: contend for one unit of the target pool
    /// like any job. If the pool is saturated the hold queues — the
    /// unit "fails" as it comes free, which is how a busy drive dies
    /// mid-shift.
    fn outage_start<H: TapeHost>(
        &mut self,
        w: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let target = self.schedule.windows()[w].target;
        if self.held_pool(target).acquire(Waiter::Hold(w)) {
            self.hold_granted(w, now, host)?;
        }
        Ok(())
    }

    /// Window `w`'s hold owns its unit — at window start, or later after
    /// queueing behind busy units: park it until the window's repair
    /// time, or hand it straight back when the window already elapsed
    /// in the queue.
    fn hold_granted<H: TapeHost>(
        &mut self,
        w: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let end_ms = self.schedule.windows()[w].end_ms;
        if now >= end_ms {
            return self.outage_release(w, now, host);
        }
        self.counters.outage_events += 1;
        self.parked.push(w);
        host.schedule(end_ms, TapeEv::OutageEnd(w));
        Ok(())
    }

    /// Repair done (or the window expired in the queue): unpark window
    /// `w`'s unit, return it to its pool and wake the next waiter
    /// through the normal grant path.
    fn outage_release<H: TapeHost>(
        &mut self,
        w: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        self.parked.retain(|&p| p != w);
        let target = self.schedule.windows()[w].target;
        match (self.held_pool(target).release(), target) {
            (None, _) => Ok(()),
            (Some(next), FaultTarget::SiloDrive | FaultTarget::ManualDrive) => {
                self.drive_granted(next, now, host)
            }
            (Some(next), FaultTarget::RobotArm | FaultTarget::Operator) => {
                self.mount_started(next, now, host)
            }
        }
    }

    /// Stage 1: queue on a drive of the job's tier.
    fn join<H: TapeHost>(&mut self, j: usize, now: SimMs, host: &mut H) -> Result<(), H::Error> {
        debug_assert_eq!(self.jobs[j].step, Step::Join(now), "joined off its time");
        self.jobs[j].step = Step::Queued { since: now };
        let tier = self.jobs[j].tier;
        if self.drives(tier).acquire(Waiter::Job(j)) {
            self.drive_granted(Waiter::Job(j), now, host)?;
        }
        Ok(())
    }

    /// Job `j` got the drive or mounter it queued for: adds the slice of
    /// its wait that overlapped an outage window of its tier to the
    /// degraded-mode accounting, and returns when the wait began.
    fn leave_queue(&mut self, j: usize, now: SimMs) -> SimMs {
        let TapeJob { tier, step, .. } = self.jobs[j];
        debug_assert!(matches!(step, Step::Queued { .. }), "granted at {step:?}");
        let since = match step {
            Step::Queued { since } => since,
            _ => now,
        };
        if self.schedule.is_active() {
            let overlap = self.schedule.outage_overlap_ms(tier.device(), since, now);
            if overlap > 0 {
                self.counters.outage_wait_s += overlap as f64 / MS as f64;
            }
        }
        since
    }

    /// Drive held: mount if needed, else go straight to a tape mover. A
    /// drive outage's hold parks the unit instead.
    fn drive_granted<H: TapeHost>(
        &mut self,
        waiter: Waiter,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let j = match waiter {
            Waiter::Job(j) => j,
            Waiter::Hold(w) => return self.hold_granted(w, now, host),
        };
        let since = self.leave_queue(j, now);
        let job = self.jobs[j];
        if let Kind::Flush { .. } = job.kind {
            host.flush_drive_wait(now - since);
            if self.cart_remaining[job.tier.slot()] >= job.size {
                // Append to the mounted cartridge: no mount, no seek.
                self.jobs[j].step = Step::AwaitMover;
                if self.tape_movers.acquire(j) {
                    self.mover_granted(j, now, host)?;
                }
                return Ok(());
            }
        }
        // Reads always mount the file's cartridge; writes mount a fresh
        // append cartridge when the current one is full.
        self.jobs[j].step = Step::Queued { since: now };
        if self.mounters(job.tier).acquire(Waiter::Job(j)) {
            self.mount_started(Waiter::Job(j), now, host)?;
        }
        Ok(())
    }

    /// Stage 2: robot arm or operator engaged; schedule the mount
    /// completion. A mounter outage's hold parks the unit instead.
    fn mount_started<H: TapeHost>(
        &mut self,
        waiter: Waiter,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let j = match waiter {
            Waiter::Job(j) => j,
            Waiter::Hold(w) => return self.hold_granted(w, now, host),
        };
        self.leave_queue(j, now);
        let job = self.jobs[j];
        let d = mount_ms(&self.cfg, host.noise(), job.tier, job.kind);
        self.jobs[j].step = Step::MountDone(now + d);
        host.schedule(now + d, TapeEv::MountDone(j));
        Ok(())
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
        if let Some(next) = self.mounters(job.tier).release() {
            self.mount_started(next, now, host)?;
        }
        if let Kind::Flush { .. } = job.kind {
            // Fresh append cartridge.
            self.cart_remaining[job.tier.slot()] = self.cfg.cartridge_bytes;
        }
        let d = seek_ms(&self.cfg, host.noise(), job.kind);
        self.jobs[j].step = Step::SeekDone(now + d);
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
        self.jobs[j].step = Step::AwaitMover;
        if self.tape_movers.acquire(j) {
            self.mover_granted(j, now, host)?;
        }
        Ok(())
    }

    /// Stage 4: the transfer begins — the job's first byte, unless this
    /// recall attempt is fated to fail (media read error, or first byte
    /// past its deadline). A failing attempt reads the tape but
    /// delivers garbage: nobody is told, and its transfer step carries
    /// the failure to transfer end.
    fn mover_granted<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let job = self.jobs[j];
        let failing = match job.kind {
            Kind::Recall {
                seq,
                attempts,
                deadline_ms,
            } => {
                let failing =
                    self.schedule.read_fails(seq, attempts) || deadline_ms.is_some_and(|d| now > d);
                if !failing {
                    host.first_byte(job.id, now)?;
                }
                failing
            }
            Kind::Flush { .. } => {
                host.append_started(job.id, now);
                let slot = job.tier.slot();
                self.cart_remaining[slot] = self.cart_remaining[slot].saturating_sub(job.size);
                false
            }
        };
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
        let at = now + ((job.size as f64 / (rate * jitter) * 1000.0) as SimMs).max(1);
        self.jobs[j].step = Step::TransferDone { at, failing };
        host.schedule(at, TapeEv::TransferDone(j));
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
        let failing = matches!(job.step, Step::TransferDone { failing: true, .. });
        if let Some(n) = self.tape_movers.release() {
            self.mover_granted(n, now, host)?;
        }
        let drive_free_ms = now + (self.cfg.tape_unload_s * MS as f64) as SimMs;
        // The drive unloads whatever happens next; only a retry follows.
        self.jobs[j].step = Step::DriveFree {
            free: drive_free_ms,
            rejoin: None,
        };
        match job.kind {
            Kind::Recall {
                seq,
                attempts,
                deadline_ms,
            } if failing => {
                self.counters.read_failures += 1;
                let attempts = attempts + 1;
                self.jobs[j].kind = Kind::Recall {
                    seq,
                    attempts,
                    deadline_ms,
                };
                // The drive unloads whatever the verdict.
                host.schedule(drive_free_ms, TapeEv::DriveFree(j));
                if let RetryVerdict::Retry { rejoin_ms } =
                    host.failed(job.id, attempts, now, drive_free_ms)?
                {
                    let rejoin_ms = rejoin_ms.max(drive_free_ms);
                    self.jobs[j].step = Step::DriveFree {
                        free: drive_free_ms,
                        rejoin: Some(rejoin_ms),
                    };
                    host.schedule(rejoin_ms, TapeEv::Join(j));
                }
            }
            Kind::Recall { .. } => {
                self.counters.recalls_completed += 1;
                host.done(job.id, now)?;
                host.schedule(drive_free_ms, TapeEv::DriveFree(j));
            }
            Kind::Flush { .. } => {
                self.counters.flushed_bytes = self.counters.flushed_bytes.saturating_add(job.size);
                host.flush_done(job.id, now, job.size)?;
                host.schedule(drive_free_ms, TapeEv::DriveFree(j));
            }
        }
        Ok(())
    }

    /// Drive unloaded: pass it to the next waiter. A job with no retry
    /// ahead gives up its slot here.
    fn drive_free<H: TapeHost>(
        &mut self,
        j: usize,
        now: SimMs,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let TapeJob { tier, step, .. } = self.jobs[j];
        match step {
            Step::DriveFree {
                rejoin: Some(at), ..
            } => self.jobs[j].step = Step::Join(at),
            _ => {
                self.jobs[j].step = Step::Vacant;
                self.free.push(j);
            }
        }
        match self.drives(tier).release() {
            Some(next) => self.drive_granted(next, now, host),
            None => Ok(()),
        }
    }

    /// The earliest virtual time any recall in flight can next be
    /// answered (`RecallFirstByte`, `RecallDone` or `RecallFailed`), for
    /// a host whose stage noise is [`Noise::Keyed`]`(seed)`;
    /// [`SimMs::MAX`] when no recall is in flight. Jobs made later never
    /// lower it: pools are FIFO, so a later job cannot overtake one that
    /// waits. A recall whose event is due at `t` bounds it by
    ///
    /// - `Join`: `t` plus that attempt's mount and seek
    ///   ([`recall_floor`]);
    /// - `MountDone`: `t` plus the seek;
    /// - `SeekDone` or `TransferDone`: `t`;
    ///
    /// and one waiting in a pool by the earliest event any job or parked
    /// outage hold has due — nothing else can free a unit — plus its
    /// mount and seek if it waits for a drive or a mounter. The cost is
    /// one pass over the jobs in flight and the parked holds: a window
    /// not yet open holds no unit, and opening one frees none.
    pub fn answer_floor(&self, seed: u64) -> SimMs {
        let noise = &mut Noise::Keyed(seed);
        let mut floor = SimMs::MAX;
        // The earliest event any job or parked hold has due, and what a
        // recall waiting in a pool still needs once it gets its unit.
        let windows = self.schedule.windows();
        let mut next_due = self
            .parked
            .iter()
            .fold(SimMs::MAX, |due, &w| due.min(windows[w].end_ms));
        let mut after_release: Option<SimMs> = None;
        for job in &self.jobs {
            if let Some(t) = job.step.due() {
                next_due = next_due.min(t);
            }
            if let Kind::Flush { .. } = job.kind {
                continue;
            }
            let own = match job.step {
                Step::Join(t)
                | Step::DriveFree {
                    rejoin: Some(t), ..
                } => {
                    t + mount_ms(&self.cfg, noise, job.tier, job.kind)
                        + seek_ms(&self.cfg, noise, job.kind)
                }
                Step::MountDone(t) => t + seek_ms(&self.cfg, noise, job.kind),
                Step::SeekDone(t) | Step::TransferDone { at: t, .. } => t,
                Step::Queued { .. } => {
                    let ahead = mount_ms(&self.cfg, noise, job.tier, job.kind)
                        + seek_ms(&self.cfg, noise, job.kind);
                    after_release = Some(after_release.map_or(ahead, |a| a.min(ahead)));
                    continue;
                }
                Step::AwaitMover => {
                    after_release = Some(0);
                    continue;
                }
                Step::DriveFree { rejoin: None, .. } | Step::Vacant => continue,
            };
            floor = floor.min(own);
        }
        match after_release {
            Some(ahead) => floor.min(next_due.saturating_add(ahead)),
            None => floor,
        }
    }
}

/// The mount stage's draw for a job on `tier`: a robot arm's jittered
/// swap, or an operator's lognormal fetch.
fn mount_ms(cfg: &SimConfig, noise: &mut Noise, tier: Tier, kind: Kind) -> SimMs {
    let key = || noise_key(kind, noise::STAGE_MOUNT);
    match tier {
        Tier::Silo => noise.jitter_ms(key, cfg.robot_mount_s, 0.2),
        Tier::Manual => {
            noise.lognormal_ms(key, cfg.operator_mount_median_s, cfg.operator_mount_sigma)
        }
    }
}

/// The seek stage's draw: a fresh read mount lands at a uniform tape
/// position, a fresh append cartridge rewinds to start of tape.
fn seek_ms(cfg: &SimConfig, noise: &mut Noise, kind: Kind) -> SimMs {
    let key = || noise_key(kind, noise::STAGE_SEEK);
    match kind {
        Kind::Flush { .. } => noise.jitter_ms(key, 3.0, 0.3),
        Kind::Recall { .. } => {
            let seek_s = noise.range(key, cfg.tape_seek_min_s, cfg.tape_seek_max_s);
            (seek_s * MS as f64) as SimMs
        }
    }
}

/// The earliest a recall attempt that joins its drive queue at
/// `join_ms` can be answered: the join plus that attempt's own mount
/// and seek, drawn as [`TapeHalf`] draws them under
/// [`Noise::Keyed`]`(seed)`. A host that sends recalls to a remote
/// tape half bounds each new one's first answer with it.
pub fn recall_floor(
    cfg: &SimConfig,
    seed: u64,
    seq: u64,
    attempts: u32,
    tier: Tier,
    join_ms: SimMs,
) -> SimMs {
    let kind = Kind::Recall {
        seq,
        attempts,
        deadline_ms: None,
    };
    let noise = &mut Noise::Keyed(seed);
    join_ms + mount_ms(cfg, noise, tier, kind) + seek_ms(cfg, noise, kind)
}

/// The keyed-noise identity of a job's draw at `stage`: recalls by
/// (issue seq, attempt), flushes by spawn seq.
fn noise_key(kind: Kind, stage: u64) -> u64 {
    match kind {
        Kind::Recall { seq, attempts, .. } => noise::recall_key(seq, attempts, stage),
        Kind::Flush { seq } => noise::flush_key(seq, stage),
    }
}

/// A host with a queue of its own that records every callback — the
/// shape of the live origin, minus the socket. It also checks the slot
/// contract of the module docs on every job event it hands back, and
/// that every outage end returns a parked unit.
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
    /// keyed-noise identity.
    type Identity = (u64, u64);

    fn identity(job: &TapeJob) -> Identity {
        let (Kind::Recall { seq, .. } | Kind::Flush { seq }) = job.kind;
        (job.id, seq)
    }

    /// The slot an event names; `None` for a fault window.
    fn slot(ev: TapeEv) -> Option<usize> {
        match ev {
            TapeEv::Join(j)
            | TapeEv::MountDone(j)
            | TapeEv::SeekDone(j)
            | TapeEv::TransferDone(j)
            | TapeEv::DriveFree(j) => Some(j),
            TapeEv::OutageStart(_) | TapeEv::OutageEnd(_) => None,
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
        /// Jobs made and not yet past their last event.
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
        /// holds a job other than the one the event was meant for, or if
        /// an outage ends whose hold is not parked.
        pub fn advance(&mut self, half: &mut TapeHalf, until: SimMs) {
            self.address(half);
            while let Some((now, (ev, n))) = self.queue.pop_due(until) {
                if let Some(j) = slot(ev) {
                    assert!(!half.free.contains(&j), "{ev:?} reached a free slot");
                    let meant_for = self.addressee[n];
                    assert_eq!(Some(identity(&half.jobs[j])), meant_for, "{ev:?}");
                }
                if let TapeEv::OutageEnd(w) = ev {
                    assert!(half.parked.contains(&w), "{ev:?} of a hold not parked");
                }
                half.handle(now, ev, self)
                    .unwrap_or_else(|never| match never {});
                self.address(half);
                // A test that does not count the jobs it makes leaves
                // `live` at zero.
                if let TapeEv::DriveFree(_) = ev {
                    let (id, _) = self.addressee[n].expect("a job event");
                    if self.finished.remove(&id) {
                        self.live = self.live.saturating_sub(1);
                    }
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
    use crate::fault::{FaultPlan, OutageWindow};

    const FOREVER: SimMs = SimMs::MAX / 4;

    fn half(schedule: FaultSchedule) -> TapeHalf {
        TapeHalf::new(&SimConfig::default().with_seed(7), schedule)
    }

    #[test]
    fn a_silo_recall_reaches_first_byte_then_completes() {
        let mut half = half(FaultSchedule::none());
        let mut host = Recorder::new(7, []);
        let j = half.recall(10, 0, 50_000_000, Tier::Silo, None, 1_000);
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
        let j = half.flush(1, 0, 1_000_000, Tier::Silo, 0);
        host.schedule(0, TapeEv::Join(j));
        host.advance(&mut half, FOREVER);
        let Call::FlushDone(1, first, 1_000_000) = host.calls[0] else {
            panic!("expected the first flush to land: {:?}", host.calls);
        };
        // Second flush starts after the first fully unloaded, on a
        // cartridge that is already mounted: no mount, no seek.
        let start = first + 10_000;
        let j = half.flush(2, 1, 1_000_000, Tier::Silo, start);
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
        let j = tape.recall(5, 0, 1_000_000, Tier::Silo, None, 0);
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
        let j = tape.recall(6, 0, 1_000_000, Tier::Silo, None, 0);
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
            half.recall(1, 0, 1_000_000, Tier::Silo, None, 0),
            half.flush(2, 0, 1_000_000, Tier::Silo, 0),
        ];
        for j in first {
            host.schedule(0, TapeEv::Join(j));
        }
        host.advance(&mut half, FOREVER);
        let mut second = [
            half.recall(3, 1, 1_000_000, Tier::Silo, None, 0),
            half.flush(4, 1, 1_000_000, Tier::Silo, 0),
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
        let j = half.recall(9, 0, 1_000_000, Tier::Silo, Some(1), 0);
        host.schedule(0, TapeEv::Join(j));
        host.advance(&mut half, FOREVER);
        assert!(matches!(host.calls[..], [Call::Failed(9, 1, ..)]));
        assert_eq!(half.counters().read_failures, 1);
        assert_eq!(half.counters().recalls_completed, 0);
    }

    #[test]
    fn an_uncontended_recall_is_answered_exactly_at_its_floor() {
        for (seq, tier) in [(0, Tier::Silo), (1, Tier::Manual), (2, Tier::Silo)] {
            let mut half = half(FaultSchedule::none());
            let mut host = Recorder::new(7, []);
            let floor = recall_floor(&half.cfg, 7, seq, 0, tier, 5_000);
            let j = half.recall(3, seq, 1_000_000, tier, None, 5_000);
            assert_eq!(half.answer_floor(7), floor, "pending join");
            host.schedule(5_000, TapeEv::Join(j));
            host.advance(&mut half, 5_000);
            let Step::MountDone(mounted) = half.jobs[j].step else {
                panic!("free drive and mounter: {:?}", half.jobs[j].step);
            };
            assert_eq!(half.answer_floor(7), floor, "pending mount");
            host.advance(&mut half, mounted);
            assert_eq!(half.answer_floor(7), floor, "pending seek");
            host.advance(&mut half, FOREVER);
            assert_eq!(host.calls[0], Call::FirstByte(3, floor), "{tier:?}");
            assert_eq!(half.answer_floor(7), SimMs::MAX, "nothing in flight");
        }
    }

    #[test]
    fn a_recall_waiting_on_a_mover_is_bounded_by_the_next_release() {
        let cfg = SimConfig {
            tape_movers: 1,
            ..SimConfig::default().with_seed(7)
        };
        let mut half = TapeHalf::new(&cfg, FaultSchedule::none());
        let mut host = Recorder::new(7, []);
        // A long flush holds the only mover while a recall finishes its
        // seek behind it; no recall has an event of its own due.
        let flush = half.flush(1, 0, 2_000_000_000, Tier::Silo, 0);
        host.schedule(0, TapeEv::Join(flush));
        host.advance(&mut half, 200_000);
        let Step::TransferDone { at: release, .. } = half.jobs[flush].step else {
            panic!("the flush holds the mover: {:?}", half.jobs[flush].step);
        };
        let recall = half.recall(2, 0, 1_000_000, Tier::Silo, None, 200_000);
        host.schedule(200_000, TapeEv::Join(recall));
        host.advance(&mut half, 300_000);
        assert_eq!(half.jobs[recall].step, Step::AwaitMover);
        assert!(release > 300_000);
        assert_eq!(half.answer_floor(7), release);
        host.advance(&mut half, FOREVER);
        assert_eq!(host.calls[0], Call::FirstByte(2, release));
    }

    /// A half with one silo drive and one robot arm whose only fault is
    /// `target` losing a unit over `[1 s, 50 s)`, and a host that has
    /// its window scheduled.
    fn held(target: FaultTarget) -> (TapeHalf, Recorder) {
        let cfg = SimConfig {
            silo_drives: 1,
            robot_arms: 1,
            ..SimConfig::default().with_seed(7)
        };
        let window = OutageWindow {
            target,
            start_ms: 1_000,
            end_ms: 50_000,
        };
        let half = TapeHalf::new(&cfg, FaultSchedule::with_windows(vec![window]));
        let mut host = Recorder::new(7, []);
        half.schedule_outages(&mut host);
        (half, host)
    }

    #[test]
    fn a_drive_outage_parks_the_drive_until_the_window_ends() {
        let (mut half, mut host) = held(FaultTarget::SiloDrive);
        host.advance(&mut half, 1_000);
        assert_eq!(half.parked, [0], "the window's hold has the drive");
        let j = half.recall(4, 0, 1_000_000, Tier::Silo, None, 2_000);
        host.schedule(2_000, TapeEv::Join(j));
        host.advance(&mut half, 49_999);
        assert_eq!(half.jobs[j].step, Step::Queued { since: 2_000 });
        host.advance(&mut half, FOREVER);
        // The drive comes back at 50 s and goes straight to the recall.
        let floor = recall_floor(&half.cfg, 7, 0, 0, Tier::Silo, 50_000);
        assert_eq!(host.calls[0], Call::FirstByte(4, floor));
        assert_eq!(half.counters().outage_events, 1);
        assert_eq!(half.counters().outage_wait_s, 48.0);
        assert!(half.parked.is_empty());
        assert_eq!(half.jobs.len(), 1, "the hold took no slot");
    }

    #[test]
    fn a_mounter_outage_delays_the_mount_until_the_window_ends() {
        let (mut half, mut host) = held(FaultTarget::RobotArm);
        let j = half.recall(4, 0, 1_000_000, Tier::Silo, None, 2_000);
        host.schedule(2_000, TapeEv::Join(j));
        host.advance(&mut half, 2_000);
        // The drive is free; the arm is not.
        assert_eq!(half.silo.in_use(), 1);
        assert_eq!(half.jobs[j].step, Step::Queued { since: 2_000 });
        host.advance(&mut half, FOREVER);
        let floor = recall_floor(&half.cfg, 7, 0, 0, Tier::Silo, 50_000);
        assert_eq!(host.calls[0], Call::FirstByte(4, floor));
        assert_eq!(half.counters().outage_events, 1);
        assert_eq!(half.counters().outage_wait_s, 48.0);
    }

    #[test]
    fn a_hold_granted_after_its_window_is_handed_straight_back() {
        let (mut half, mut host) = held(FaultTarget::SiloDrive);
        // The first recall has the only drive from 0 until well past the
        // window's end; the hold queues behind it, the second recall
        // behind the hold.
        let first = half.recall(1, 0, 1_000_000, Tier::Silo, None, 0);
        host.schedule(0, TapeEv::Join(first));
        host.advance(&mut half, 1_999);
        let second = half.recall(2, 1, 1_000_000, Tier::Silo, None, 2_000);
        host.schedule(2_000, TapeEv::Join(second));
        host.advance(&mut half, FOREVER);
        let Call::Done(1, done) = host.calls[1] else {
            panic!("the first recall completes: {:?}", host.calls);
        };
        let drive_free = done + 5_000;
        assert!(drive_free > 50_000, "the window ends while the hold queues");
        // The hold passes the drive on at once, to the second recall.
        let floor = recall_floor(&half.cfg, 7, 1, 0, Tier::Silo, drive_free);
        assert_eq!(host.calls[2], Call::FirstByte(2, floor));
        assert_eq!(half.counters().outage_events, 0);
        // The second recall's wait overlapped the window from 2 s to 50 s.
        assert_eq!(half.counters().outage_wait_s, 48.0);
        assert!(half.parked.is_empty());
    }

    #[test]
    fn a_parked_hold_bounds_the_floor_of_a_recall_behind_it() {
        let (mut half, mut host) = held(FaultTarget::SiloDrive);
        let j = half.recall(4, 0, 1_000_000, Tier::Silo, None, 2_000);
        host.schedule(2_000, TapeEv::Join(j));
        host.advance(&mut half, 2_000);
        // Nothing but the hold's end can free the drive the recall waits
        // for, and the recall still has its mount and seek ahead then.
        let floor = recall_floor(&half.cfg, 7, 0, 0, Tier::Silo, 50_000);
        assert_eq!(half.answer_floor(7), floor);
        host.advance(&mut half, FOREVER);
        assert_eq!(host.calls[0], Call::FirstByte(4, floor));
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
                    half.flush(i as u64, i as u64, size, tier, at)
                } else {
                    half.recall(i as u64, i as u64, size, tier, None, at)
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

    /// Drives `jobs` (`(flush?, manual?, size, arrival)`) through a half
    /// with one tape mover, under drive and robot-arm outages and flaky
    /// reads, the way the live origin is driven. Before each step, every
    /// job that has arrived joins, never before the clock the half has
    /// run through, and each new recall lowers the held floor to its own
    /// [`recall_floor`], as the daemon's grant does; after each step the
    /// floor is [`TapeHalf::answer_floor`] afresh. Returns every recall
    /// callback with the floor held when its step began.
    fn floors(
        seed: u64,
        jobs: &[(bool, bool, u64, SimMs)],
        steps: &[SimMs],
        retries: &[bool],
    ) -> Vec<(Call, SimMs)> {
        const HORIZON: SimMs = 100_000_000;
        let outage = |target| OutageClause {
            target,
            mean_up_s: 400.0,
            down_s: 300.0,
            jitter: 0.2,
        };
        let plan = FaultPlan {
            outages: vec![
                outage(FaultTarget::SiloDrive),
                outage(FaultTarget::RobotArm),
            ],
            read_error_prob: 0.3,
            max_read_retries: 2,
            ..FaultPlan::none()
        };
        let cfg = SimConfig {
            silo_drives: 2,
            robot_arms: 1,
            tape_movers: 1,
            ..SimConfig::default().with_seed(seed)
        };
        let mut half = TapeHalf::new(&cfg, FaultSchedule::materialize(&plan, seed, 0, HORIZON));
        let verdicts = retries.iter().map(|&retry| match retry {
            true => RetryVerdict::Retry { rejoin_ms: 0 },
            false => RetryVerdict::Abandon,
        });
        let mut host = Recorder::new(seed, verdicts);
        half.schedule_outages(&mut host);
        let (mut clock, mut held, mut next) = (0, SimMs::MAX, 0);
        let mut heard = Vec::new();
        for &until in steps.iter().chain([&HORIZON]) {
            while let Some(&(flush, manual, size, arrival)) =
                jobs.get(next).filter(|j| j.3 <= until)
            {
                let tier = if manual { Tier::Manual } else { Tier::Silo };
                let (id, join) = (next as u64, arrival.max(clock));
                // Flushes run long, so a recall often waits on a mover
                // that only a flush's transfer end can free.
                let j = if flush {
                    half.flush(id, id, 4 * size, tier, join)
                } else {
                    held = held.min(recall_floor(&cfg, seed, id, 0, tier, join));
                    half.recall(id, id, size, tier, None, join)
                };
                host.schedule(join, TapeEv::Join(j));
                next += 1;
            }
            let before = host.calls.len();
            host.advance(&mut half, until);
            heard.extend(
                host.calls[before..]
                    .iter()
                    .filter(|call| !matches!(call, Call::FlushDone(..)))
                    .map(|&call| (call, held)),
            );
            clock = until;
            held = half.answer_floor(seed);
            assert!(held > clock, "a floor of {held} after running to {clock}");
        }
        heard
    }

    fn at(call: Call) -> SimMs {
        match call {
            Call::FirstByte(_, t) | Call::Done(_, t) | Call::FlushDone(_, t, _) => t,
            Call::Failed(_, _, t, _) => t,
        }
    }

    proptest! {
        /// The bound the daemon's grant rests on: whatever joins later,
        /// no recall is answered before a floor computed earlier.
        #[test]
        fn no_recall_is_answered_before_an_earlier_floor(
            seed in 0u64..1000,
            jobs in proptest::collection::vec(
                (any::<bool>(), any::<bool>(), 1_000_000u64..150_000_000, 0i64..600_000),
                1..24,
            ),
            steps in proptest::collection::vec(1i64..300_000, 0..24),
            retries in proptest::collection::vec(any::<bool>(), 0..24),
        ) {
            let jobs: Vec<_> = jobs
                .iter()
                .scan(0, |t, &(flush, manual, size, gap)| {
                    *t += gap;
                    Some((flush, manual, size, *t))
                })
                .collect();
            let steps: Vec<SimMs> = steps
                .iter()
                .scan(0, |t, &d| {
                    *t += d;
                    Some(*t)
                })
                .collect();
            let heard = floors(seed, &jobs, &steps, &retries);
            let recalls = jobs.iter().filter(|job| !job.0).count();
            prop_assert!(heard.len() >= recalls, "every recall must be heard from");
            for (call, floor) in heard {
                prop_assert!(at(call) >= floor, "{:?} before the floor {}", call, floor);
            }
        }
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
