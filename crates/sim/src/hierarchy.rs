//! Closed-loop hierarchy engine: a policy-driven disk cache in the data
//! path of the device model.
//!
//! The open-loop halves of this workspace each tell half the story:
//! [`crate::MssSimulator`] models MSCP dispatch, mounts, seeks, and
//! mover contention but never consults the disk cache, while
//! `fmig_migrate::eval` scores migration policies by miss ratio plus a
//! constant per-miss charge. This module closes the loop — the paper's
//! Figure 3 / Table 3 claim is that policy choice shows up as
//! *user-visible latency*, so the cost of a miss must emerge from the
//! same device queues the recall traffic loads:
//!
//! * a [`DiskCache`] driven by any [`MigrationPolicy`] classifies every
//!   reference inside [`crate::disk`] — the single statement of the
//!   staging-disk logic and the MSCP / spindle / channel-mover path
//!   hits and writes are served through;
//! * misses enqueue a **tape recall** into [`crate::tape`] — the single
//!   statement of the drive / robot-or-operator / seek / tape-mover
//!   physics — and the requester's first byte is the recall's first
//!   byte (cut-through staging); this engine hosts both halves, their
//!   events merged into one queue;
//! * references to a file whose recall is still outstanding **coalesce**
//!   onto it (*delayed hits*, after the Atre et al. "Caching with
//!   Delayed Hits" observation): exactly one recall is issued and no
//!   coalesced request waits longer than the fetch it joined;
//! * write-behind flushes become **tape writes** that compete with
//!   recalls for the same drives, mounters, and movers — write-back
//!   contention is measured, not assumed. No reference waits on one:
//!   a write is served at disk latency, and an eviction only drops a
//!   copy whose flush is already queued.
//!
//! Cache decisions are made at reference arrival, in trace order, with
//! the same [`DiskCache`] calls open-loop replay makes — so a
//! closed-loop run reproduces open-loop miss ratios *exactly* while
//! additionally reporting device-model-derived wait distributions per
//! policy.
//!
//! # Timing model
//!
//! [`crate::disk`] states it: foreground references pay the MSCP
//! dispatch overhead, delayed hits skip it and reach their first byte
//! at `max(arrival, recall first byte)` — which bounds their wait by
//! the wait of the miss that issued the fetch.
//!
//! # Determinism
//!
//! One thread, one seeded [`Noise`] sampler both halves draw through,
//! one insertion-stable event queue both halves push into, and the
//! cache's total eviction order: equal seeds replay identically, which
//! is what lets sweep reports stay byte-identical at any worker count.

use std::convert::Infallible;

use fmig_migrate::cache::{CacheConfig, CacheStats, DiskCache};
use fmig_migrate::eval::{DegradedOutcome, EvalConfig, LatencyOutcome, PolicyOutcome, PreparedRef};
use fmig_migrate::feedback::LatencyFeedback;
use fmig_migrate::policy::MigrationPolicy;
use fmig_trace::{DeviceClass, FileId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::disk::{DiskEv, DiskHalf, DiskHost, LinkFault, Resolved};
use crate::event::{EventQueue, SimMs, MS};
use crate::fault::{fault_horizon, FaultPlan, FaultSchedule};
use crate::metrics::LatencyHistogram;
use crate::noise::Noise;
use crate::tape::{RetryVerdict, TapeEv, TapeHalf, TapeHost};

pub use crate::disk::ServedBy;

/// One reference's closed-loop outcome, handed to the streaming sink in
/// arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefOutcome {
    /// Position of the reference in the input stream.
    pub index: usize,
    /// Dense file id (see [`fmig_trace::FileTable`]).
    pub id: FileId,
    /// True for writes.
    pub write: bool,
    /// How the reference was served.
    pub served: ServedBy,
    /// Device that served it: disk for hits and writes, the recall's
    /// tape tier for misses and delayed hits.
    pub device: DeviceClass,
    /// Seconds from arrival to first byte.
    pub wait_s: f64,
}

/// Aggregate metrics of one closed-loop run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HierarchyMetrics {
    /// References simulated.
    pub requests: u64,
    /// Reads that coalesced onto an outstanding recall instead of
    /// issuing their own fetch (cache-level delayed hits plus re-misses
    /// of a file already being recalled).
    pub delayed_hits: u64,
    /// Tape recalls actually issued.
    pub recalls: u64,
    /// Tape flush jobs issued: one per write, by write-behind.
    pub flush_jobs: u64,
    /// Bytes those flush jobs carried to tape.
    pub flush_bytes: u64,
    /// First-byte waits of disk-served read hits, seconds.
    pub hit_wait: LatencyHistogram,
    /// First-byte waits of coalesced (delayed-hit) reads, seconds.
    pub delayed_hit_wait: LatencyHistogram,
    /// First-byte waits of read misses (tape recalls), seconds.
    pub miss_wait: LatencyHistogram,
    /// First-byte waits of writes, seconds.
    pub write_wait: LatencyHistogram,
    /// Time flush jobs spent queued for a tape drive, seconds — the
    /// write-back contention reads feel.
    pub flush_queue_wait: LatencyHistogram,
    /// The cache's own counters. For latency-blind policies these are
    /// identical to what open-loop replay of the same trace under the
    /// same policy produces — with or without a fault plan, since
    /// faults only move time, never cache decisions. Latency-aware
    /// policies ([`MigrationPolicy::latency_aware`]) rank victims off
    /// the live feedback below instead of the open-loop constant, so
    /// their decisions (and counters) may deliberately diverge.
    pub cache: CacheStats,
    /// The miss-latency feedback channel as it stood at the end of the
    /// run: an EWMA of measured recall waits per (tape tier,
    /// size-class), fed by every resolved recall and published into the
    /// cache before each reference (see `fmig_migrate::feedback`).
    pub latency_feedback: LatencyFeedback,
    /// Degraded-mode attribution when the run carried an active
    /// [`FaultPlan`]; `None` on fault-free runs, keeping them
    /// bit-identical to the pre-fault engine.
    pub fault: Option<DegradedOutcome>,
    /// The cache's own count of failed recall attempts
    /// (`DiskCache::fetch_retries`). Equal to
    /// [`DegradedOutcome::read_retries`] here — the engine fails a
    /// fetch exactly when a tape read errors — but surfaced separately
    /// because the live daemon shares this counter: its retries show up
    /// through the identical cache-level channel, not a simulator-only
    /// field.
    pub cache_fetch_retries: u64,
}

impl HierarchyMetrics {
    /// All read waits combined (hits, delayed hits, and misses).
    pub fn read_wait(&self) -> LatencyHistogram {
        let mut h = self.hit_wait.clone();
        h.merge(&self.delayed_hit_wait);
        h.merge(&self.miss_wait);
        h
    }

    /// The latency-true summary a [`PolicyOutcome`] carries.
    pub fn latency_outcome(&self) -> LatencyOutcome {
        let read = self.read_wait();
        LatencyOutcome {
            mean_read_wait_s: read.mean(),
            p99_read_wait_s: read.quantile(0.99),
            mean_miss_wait_s: self.miss_wait.mean(),
            mean_delayed_wait_s: self.delayed_hit_wait.mean(),
            delayed_hits: self.delayed_hits,
            recalls: self.recalls,
            flush_bytes: self.flush_bytes,
            mean_flush_queue_s: self.flush_queue_wait.mean(),
            degraded: self.fault,
        }
    }
}

/// The closed-loop hierarchy simulator: device model from a
/// [`SimConfig`], cache geometry and policy supplied per run.
///
/// Three entry points share one engine loop:
/// [`run_streaming_with_faults`](Self::run_streaming_with_faults) over
/// any reference stream and its fault horizon,
/// [`run_with_faults`](Self::run_with_faults) over a slice, and
/// [`evaluate_with_faults`](Self::evaluate_with_faults), the sweep
/// cell's latency-true [`PolicyOutcome`]. A healthy run passes
/// [`FaultPlan::none`].
#[derive(Debug, Clone)]
pub struct HierarchySimulator {
    config: SimConfig,
}

impl HierarchySimulator {
    /// Creates a simulator over the given hardware configuration.
    pub fn new(config: SimConfig) -> Self {
        HierarchySimulator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the closed loop over a reference stream under a
    /// degraded-mode [`FaultPlan`], handing every reference's
    /// [`RefOutcome`] to `sink` in arrival order as soon as its first
    /// byte is reached. A slice, a generated sweep shard and an imported
    /// replay store all arrive here as a stream of [`PreparedRef`]s,
    /// walked once, in order.
    ///
    /// Drive and mounter outages park pool units, recalls suffer
    /// bounded-retry media read errors (waiters stay coalesced across
    /// retries), and slow-drive windows stretch tape transfers. The
    /// plan's concrete schedule is materialized over `horizon` (virtual
    /// ms, `[start, end)`; see [`crate::fault::fault_horizon`]) from
    /// [`SimConfig::seed`], so equal seeds replay byte-identically; an
    /// empty plan ([`FaultPlan::none`]) is the healthy system.
    ///
    /// # Panics
    ///
    /// Panics if references are not sorted by time, or if one starts
    /// outside `horizon`.
    pub fn run_streaming_with_faults(
        &self,
        cache: CacheConfig,
        policy: &dyn MigrationPolicy,
        refs: impl IntoIterator<Item = PreparedRef>,
        horizon: (SimMs, SimMs),
        plan: &FaultPlan,
        sink: impl FnMut(RefOutcome),
    ) -> HierarchyMetrics {
        let schedule = FaultSchedule::materialize(plan, self.config.seed, horizon.0, horizon.1);
        Engine::new(&self.config, cache, policy, schedule).run(refs, horizon, sink)
    }

    /// [`Self::run_streaming_with_faults`] over a slice, with the
    /// horizon taken from its first and last reference.
    ///
    /// # Panics
    ///
    /// Panics if references are not sorted by time.
    pub fn run_with_faults(
        &self,
        cache: CacheConfig,
        policy: &dyn MigrationPolicy,
        refs: &[PreparedRef],
        plan: &FaultPlan,
    ) -> HierarchyMetrics {
        let horizon = fault_horizon(
            refs.first().map_or(0, |r| r.time),
            refs.last().map_or(0, |r| r.time),
        );
        self.run_streaming_with_faults(cache, policy, refs.iter().copied(), horizon, plan, |_| {})
    }

    /// Evaluates one policy latency-true over a reference stream: the
    /// closed-loop run supplies both the cache counters (identical to
    /// open-loop replay, with or without faults — faults move time, not
    /// decisions) and the wait distributions measured in the possibly
    /// degraded world. The person-minutes cost derives from the measured
    /// mean miss wait instead of [`EvalConfig::wait_s_per_miss`], and
    /// [`LatencyOutcome::degraded`] attributes the damage.
    ///
    /// # Panics
    ///
    /// As [`Self::run_streaming_with_faults`].
    pub fn evaluate_with_faults(
        &self,
        refs: impl IntoIterator<Item = PreparedRef>,
        horizon: (SimMs, SimMs),
        policy: &dyn MigrationPolicy,
        eval: &EvalConfig,
        plan: &FaultPlan,
    ) -> PolicyOutcome {
        let metrics =
            self.run_streaming_with_faults(eval.cache, policy, refs, horizon, plan, |_| {});
        let stats = metrics.cache;
        let mut outcome = PolicyOutcome {
            name: policy.name(),
            stats,
            miss_ratio: stats.miss_ratio(),
            byte_miss_ratio: stats.byte_miss_ratio(),
            person_minutes_per_day: stats
                .person_minutes_per_day(eval.wait_s_per_miss, eval.trace_days),
            latency: None,
        };
        outcome.attach_latency(metrics.latency_outcome(), eval);
        outcome
    }
}

/// Events of the closed-loop engine: both halves' events ride one
/// queue, so they keep one push sequence.
#[derive(Debug, Clone, Copy)]
enum HEv {
    /// A disk-half event.
    Disk(DiskEv),
    /// A tape-half event.
    Tape(TapeEv),
}

struct Engine<'p> {
    front: Front<'p>,
    tape: TapeHalf,
}

/// Everything but the tape half — the disk half and what both halves
/// are hosted on — and so the listener the tape half reports to.
struct Front<'p> {
    host: Host,
    disk: DiskHalf<'p>,
}

/// The merged event queue, the one noise sampler, and the wait
/// histograms every resolved reference lands in.
struct Host {
    noise: Noise,
    queue: EventQueue<HEv>,
    /// Backoff before a failed recall re-queues (the fault plan's).
    retry_backoff_ms: SimMs,
    next_emit: usize,
    metrics: HierarchyMetrics,
}

impl<'p> Engine<'p> {
    fn new(
        cfg: &SimConfig,
        cache_cfg: CacheConfig,
        policy: &'p dyn MigrationPolicy,
        schedule: FaultSchedule,
    ) -> Self {
        let host = Host {
            noise: if cfg.counter_noise {
                Noise::Keyed(cfg.seed)
            } else {
                Noise::Sequential(SmallRng::seed_from_u64(cfg.seed))
            },
            queue: EventQueue::new(),
            retry_backoff_ms: schedule.retry_backoff_ms(),
            next_emit: 0,
            metrics: HierarchyMetrics::default(),
        };
        let disk = DiskHalf::new(cfg, DiskCache::new(cache_cfg, policy));
        Engine {
            front: Front { host, disk },
            tape: TapeHalf::new(cfg, schedule),
        }
    }

    fn run(
        mut self,
        refs: impl IntoIterator<Item = PreparedRef>,
        (start_ms, end_ms): (SimMs, SimMs),
        mut sink: impl FnMut(RefOutcome),
    ) -> HierarchyMetrics {
        // Fault windows become ordinary events in the same queue.
        self.tape.schedule_outages(&mut self.front);
        let mut prev_ms = SimMs::MIN;
        for pr in refs {
            let t_ms = pr.time * MS;
            assert!(t_ms >= prev_ms, "references must be sorted by time");
            assert!(
                (start_ms..end_ms).contains(&t_ms),
                "reference at {t_ms} ms lies outside the fault horizon [{start_ms}, {end_ms})"
            );
            prev_ms = t_ms;
            self.feed(&pr, &mut sink);
        }
        self.finish(&mut sink)
    }

    /// Catches the simulation up to `pr`'s arrival, classifies it, and
    /// emits every outcome that is now final.
    fn feed(&mut self, pr: &PreparedRef, sink: &mut impl FnMut(RefOutcome)) {
        let t_ms = pr.time * MS;
        while let Some((now, ev)) = self.front.host.queue.pop_due(t_ms) {
            self.handle(now, ev);
        }
        // A flush is a tape write that joins its drive queue at `at`;
        // its spawn order names it, since nothing waits on its answer.
        let Front { host, disk } = &mut self.front;
        let tape = &mut self.tape;
        let carried = disk.arrive(pr, host, |host, order, at| {
            let j = tape.flush(order.seq, order.seq, order.bytes, order.tier);
            host.queue.push(at, HEv::Tape(TapeEv::Join(j)));
            Ok::<(), Infallible>(())
        });
        carried.unwrap_or_else(|never| match never {});
        self.front.emit_finished(sink);
    }

    /// Runs the simulation dry, emits the rest, and totals the run.
    fn finish(mut self, sink: &mut impl FnMut(RefOutcome)) -> HierarchyMetrics {
        while let Some((now, ev)) = self.front.host.queue.pop() {
            self.handle(now, ev);
        }
        self.front.emit_finished(sink);
        let Front { host, disk } = self.front;
        debug_assert_eq!(host.next_emit, disk.references());

        let mut metrics = host.metrics;
        metrics.requests = disk.references() as u64;
        let traffic = disk.counters();
        metrics.delayed_hits = traffic.delayed_hits;
        metrics.recalls = traffic.recalls;
        metrics.flush_jobs = traffic.flush_jobs;
        metrics.flush_bytes = traffic.flush_bytes;
        metrics.cache = *disk.cache().stats();
        metrics.cache_fetch_retries = disk.cache().fetch_retries();
        metrics.latency_feedback = disk.feedback().clone();
        let counters = self.tape.counters();
        metrics.fault = self.tape.degraded().then_some(DegradedOutcome {
            read_retries: counters.read_failures,
            outage_events: counters.outage_events,
            outage_wait_s: counters.outage_wait_s,
            slow_transfers: counters.slow_transfers,
        });
        metrics
    }

    fn handle(&mut self, now: SimMs, ev: HEv) {
        let Front { host, disk } = &mut self.front;
        match ev {
            HEv::Disk(ev) => {
                // A dispatched miss enters its drive queue at once.
                if let Some(order) = disk.handle(now, ev, host) {
                    let j =
                        self.tape
                            .recall(order.r as u64, order.seq, order.size, order.tier, None);
                    self.tape_event(now, TapeEv::Join(j));
                }
            }
            HEv::Tape(ev) => self.tape_event(now, ev),
        }
    }

    fn tape_event(&mut self, now: SimMs, ev: TapeEv) {
        self.tape
            .handle(now, ev, &mut self.front)
            .unwrap_or_else(|never| match never {});
    }
}

/// The tape half lives in this process: an answer of its that
/// contradicts the reference table is a bug here, not bad input.
fn linked(answer: Result<(), LinkFault>) {
    answer.unwrap_or_else(|fault| panic!("the tape half broke the link contract: {fault:?}"))
}

impl Front<'_> {
    /// Emits every resolved reference, in arrival order, and retires
    /// what has been emitted from the disk half's window.
    fn emit_finished(&mut self, sink: &mut impl FnMut(RefOutcome)) {
        while let Some(o) = self.disk.outcome(self.host.next_emit) {
            sink(RefOutcome {
                index: self.host.next_emit,
                id: o.id,
                write: o.write,
                served: o.served,
                device: o.device,
                wait_s: o.wait_ms as f64 / MS as f64,
            });
            self.host.next_emit += 1;
        }
        self.disk.retire(self.host.next_emit);
    }
}

impl DiskHost for Host {
    fn schedule(&mut self, at: SimMs, ev: DiskEv) {
        self.queue.push(at, HEv::Disk(ev));
    }

    fn noise(&mut self) -> &mut Noise {
        &mut self.noise
    }

    fn resolved(&mut self, _r: usize, o: Resolved) {
        let wait_s = o.wait_ms as f64 / MS as f64;
        let m = &mut self.metrics;
        match o.served {
            ServedBy::DiskHit => m.hit_wait.record(wait_s),
            ServedBy::DelayedHit => m.delayed_hit_wait.record(wait_s),
            ServedBy::Recall => m.miss_wait.record(wait_s),
            ServedBy::DiskWrite => m.write_wait.record(wait_s),
        }
    }
}

/// The closed-loop link back from the tape half: its events join the
/// merged queue, and its answers feed the disk half synchronously,
/// inside the event that caused them.
impl TapeHost for Front<'_> {
    type Error = Infallible;

    fn schedule(&mut self, at: SimMs, ev: TapeEv) {
        self.host.queue.push(at, HEv::Tape(ev));
    }

    fn noise(&mut self) -> &mut Noise {
        &mut self.host.noise
    }

    fn first_byte(&mut self, job: u64, at: SimMs) -> Result<(), Infallible> {
        linked(self.disk.first_byte(job as usize, at, &mut self.host));
        Ok(())
    }

    fn done(&mut self, job: u64, _at: SimMs) -> Result<(), Infallible> {
        linked(self.disk.recall_done(job as usize));
        Ok(())
    }

    /// No reference waits on a flush: nothing to hand back.
    fn flush_done(&mut self, _job: u64, _at: SimMs, _bytes: u64) -> Result<(), Infallible> {
        Ok(())
    }

    /// Media read error: rejoin the queue after the plan's backoff —
    /// the simulated operator never gives up.
    fn failed(
        &mut self,
        job: u64,
        _attempts: u32,
        _failed_ms: SimMs,
        drive_free_ms: SimMs,
    ) -> Result<RetryVerdict, Infallible> {
        self.disk.recall_failed(job as usize);
        Ok(RetryVerdict::Retry {
            rejoin_ms: drive_free_ms + self.host.retry_backoff_ms,
        })
    }

    fn flush_drive_wait(&mut self, waited_ms: SimMs) {
        let wait_s = waited_ms.max(0) as f64 / MS as f64;
        self.host.metrics.flush_queue_wait.record(wait_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultTarget;
    use fmig_migrate::eval::{PreparedTrace, TracePrep};
    use fmig_migrate::policy::{Lru, Stp};
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::{Endpoint, TraceRecord};

    /// The horizon [`HierarchySimulator::run_with_faults`] derives from
    /// a non-empty slice.
    fn horizon(refs: &[PreparedRef]) -> (SimMs, SimMs) {
        fault_horizon(refs[0].time, refs[refs.len() - 1].time)
    }

    /// The healthy closed loop over a slice under LRU.
    pub(super) fn healthy_run(
        sim: &HierarchySimulator,
        cache: CacheConfig,
        refs: &[PreparedRef],
    ) -> HierarchyMetrics {
        sim.run_with_faults(cache, &Lru, refs, &FaultPlan::none())
    }

    /// The stream form over a slice under LRU and `plan`, with every
    /// reference's outcome collected.
    pub(super) fn streamed(
        sim: &HierarchySimulator,
        cache: CacheConfig,
        refs: &[PreparedRef],
        plan: &FaultPlan,
    ) -> (HierarchyMetrics, Vec<RefOutcome>) {
        let mut outcomes = Vec::new();
        let sink = |o| outcomes.push(o);
        let m =
            sim.run_streaming_with_faults(cache, &Lru, refs.to_vec(), horizon(refs), plan, sink);
        (m, outcomes)
    }

    fn silo_read(id: u32, t: i64, size: u64) -> PreparedRef {
        PreparedRef {
            id: id.into(),
            size,
            write: false,
            time: t,
            next_use: None,
            device: DeviceClass::TapeSilo,
        }
    }

    fn disk_write(id: u32, t: i64, size: u64) -> PreparedRef {
        PreparedRef {
            id: id.into(),
            size,
            write: true,
            time: t,
            next_use: None,
            device: DeviceClass::Disk,
        }
    }

    fn cache_cfg(capacity: u64) -> CacheConfig {
        CacheConfig {
            capacity,
            high_watermark: 0.9,
            low_watermark: 0.5,
        }
    }

    /// A skewed trace through the full TracePrep pipeline: hot small
    /// files re-read constantly plus a stream of cold large ones.
    fn skewed_prepared() -> PreparedTrace {
        let mut prep = TracePrep::new();
        let mut t = 0i64;
        for round in 0..40 {
            for hot in 0..5 {
                t += 25;
                prep.observe(&TraceRecord::read(
                    Endpoint::MssDisk,
                    TRACE_EPOCH.add_secs(t),
                    400_000,
                    format!("/hot/f{hot}"),
                    1,
                ));
            }
            t += 25;
            prep.observe(&TraceRecord::read(
                Endpoint::MssTapeSilo,
                TRACE_EPOCH.add_secs(t),
                3_000_000,
                format!("/cold/f{round}"),
                1,
            ));
            t += 25;
            prep.observe(&TraceRecord::write(
                Endpoint::MssTapeSilo,
                TRACE_EPOCH.add_secs(t),
                1_500_000,
                format!("/out/f{round}"),
                1,
            ));
        }
        prep.finish()
    }

    #[test]
    fn closed_loop_reproduces_open_loop_decisions_exactly() {
        let prepared = skewed_prepared();
        let eval = EvalConfig::with_capacity(5_000_000);
        for policy in [&Stp::classic() as &dyn MigrationPolicy, &Lru] {
            let open = prepared.replay(policy, &eval);
            let sim = HierarchySimulator::new(SimConfig::default());
            let closed = sim.evaluate_with_faults(
                prepared.refs().iter().copied(),
                horizon(prepared.refs()),
                policy,
                &eval,
                &FaultPlan::none(),
            );
            assert_eq!(open.stats, closed.stats, "{} diverged", policy.name());
            assert_eq!(open.miss_ratio, closed.miss_ratio);
            assert_eq!(open.byte_miss_ratio, closed.byte_miss_ratio);
            // ... but the closed loop measured real waits.
            let lat = closed.latency.expect("latency-true outcome");
            assert!(lat.mean_read_wait_s > 0.0);
            assert!(lat.mean_miss_wait_s > 0.0);
            assert!(lat.p99_read_wait_s >= lat.mean_read_wait_s);
        }
    }

    #[test]
    fn person_minutes_come_from_measured_waits() {
        let prepared = skewed_prepared();
        let eval = EvalConfig {
            wait_s_per_miss: 60.0,
            ..EvalConfig::with_capacity(5_000_000)
        };
        let sim = HierarchySimulator::new(SimConfig::default());
        let closed = sim.evaluate_with_faults(
            prepared.refs().iter().copied(),
            horizon(prepared.refs()),
            &Lru,
            &eval,
            &FaultPlan::none(),
        );
        let lat = closed.latency.unwrap();
        let expected = closed
            .stats
            .person_minutes_per_day(lat.mean_miss_wait_s, eval.trace_days);
        assert!((closed.person_minutes_per_day - expected).abs() < 1e-12);
        assert_eq!(closed.wait_s_per_miss(&eval), lat.mean_miss_wait_s);
        // The open-loop outcome still charges the constant.
        let open = prepared.replay(&Lru, &eval);
        assert_eq!(open.wait_s_per_miss(&eval), 60.0);
    }

    #[test]
    fn concurrent_misses_coalesce_onto_one_recall() {
        let refs: Vec<PreparedRef> = (0..5).map(|k| silo_read(7, k, 40_000_000)).collect();
        let sim = HierarchySimulator::new(SimConfig::uncontended());
        let (m, outcomes) = streamed(&sim, cache_cfg(1 << 30), &refs, &FaultPlan::none());
        assert_eq!(m.recalls, 1, "all references share one recall");
        assert_eq!(m.delayed_hits, 4);
        assert_eq!(m.cache.read_misses, 1);
        assert_eq!(m.cache.read_hits, 4);
        // No coalesced request waits longer than the fetch it joined.
        let miss_wait = outcomes
            .iter()
            .find(|o| o.served == ServedBy::Recall)
            .expect("the miss")
            .wait_s;
        for o in outcomes.iter().filter(|o| o.served == ServedBy::DelayedHit) {
            assert!(
                o.wait_s <= miss_wait,
                "coalesced wait {} exceeds the recall's {miss_wait}",
                o.wait_s
            );
        }
    }

    #[test]
    fn late_references_during_the_stream_wait_less() {
        // A reference arriving after the recall's first byte but (for a
        // large file) before its transfer completes is served on the
        // spot: the data is already streaming to disk.
        let size = 150_000_000; // ~68 s of transfer at silo rate
        let sim = HierarchySimulator::new(SimConfig::uncontended());
        // Learn this seed's recall first byte, then join mid-stream (the
        // delayed hit consumes no RNG draws, so the recall replays
        // identically in the second run).
        let probe = healthy_run(&sim, cache_cfg(1 << 30), &[silo_read(1, 0, size)]);
        let first_byte_s = probe.miss_wait.mean().ceil() as i64;
        let refs = vec![silo_read(1, 0, size), silo_read(1, first_byte_s + 5, size)];
        let m = healthy_run(&sim, cache_cfg(1 << 30), &refs);
        assert_eq!(m.recalls, 1);
        assert_eq!(m.delayed_hits, 1);
        assert!(
            m.delayed_hit_wait.mean() < 2.0,
            "mid-stream joiner should barely wait: {}",
            m.delayed_hit_wait.mean()
        );
    }

    #[test]
    fn writebacks_generate_real_tape_traffic() {
        let refs: Vec<PreparedRef> = (0..30)
            .map(|k| disk_write(k as u32, k * 40, 10_000_000))
            .collect();
        let m = healthy_run(
            &HierarchySimulator::new(SimConfig::default()),
            cache_cfg(1 << 30),
            &refs,
        );
        assert_eq!(m.flush_jobs, 30, "every write flushes");
        assert_eq!(m.flush_bytes, 300_000_000);
        assert!(m.flush_queue_wait.count() == 30);
    }

    #[test]
    fn flush_traffic_slows_recalls_down() {
        // Reads of cold files against a heavy write-behind stream on a
        // one-drive silo: the same reads without the writes reach their
        // first byte sooner.
        let mut with_writes = Vec::new();
        let mut reads_only = Vec::new();
        for k in 0..25i64 {
            with_writes.push(disk_write(1000 + k as u32, k * 20, 60_000_000));
            let rd = silo_read(k as u32, k * 20 + 10, 1_000_000);
            with_writes.push(rd);
            reads_only.push(rd);
        }
        let cfg = SimConfig {
            silo_drives: 1,
            writeback_delay_s: 0.0,
            ..SimConfig::default()
        };
        let sim = HierarchySimulator::new(cfg);
        let loaded = healthy_run(&sim, cache_cfg(1 << 40), &with_writes);
        let idle = healthy_run(&sim, cache_cfg(1 << 40), &reads_only);
        assert!(
            loaded.miss_wait.mean() > idle.miss_wait.mean(),
            "contended {} vs idle {}",
            loaded.miss_wait.mean(),
            idle.miss_wait.mean()
        );
        assert!(loaded.flush_queue_wait.mean() > 0.0);
    }

    #[test]
    fn a_write_that_forces_an_eviction_waits_on_no_tape() {
        // A cache small enough that the last write evicts above the high
        // watermark: write-behind already queued the victim's data, so
        // that write's disk service starts at dispatch like any other.
        let refs: Vec<PreparedRef> = (0..10).map(|k| disk_write(k as u32, k, 100)).collect();
        let m = healthy_run(
            &HierarchySimulator::new(SimConfig::uncontended()),
            cache_cfg(1000),
            &refs,
        );
        assert!(m.cache.evictions > 0, "trace must evict");
        // A tape mount alone takes longer than this; every write
        // finishes in a few seconds.
        assert!(
            m.write_wait.quantile(1.0) < 8.0,
            "a write waited on tape: p100 {}",
            m.write_wait.quantile(1.0)
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let prepared = skewed_prepared();
        let sim = HierarchySimulator::new(SimConfig::default().with_seed(99));
        let a = healthy_run(&sim, cache_cfg(5_000_000), prepared.refs());
        let b = healthy_run(&sim, cache_cfg(5_000_000), prepared.refs());
        assert_eq!(a, b);
        let other = HierarchySimulator::new(SimConfig::default().with_seed(100));
        let c = healthy_run(&other, cache_cfg(5_000_000), prepared.refs());
        assert_ne!(
            a.miss_wait, c.miss_wait,
            "distinct seeds must decorrelate the noise"
        );
    }

    #[test]
    fn outcomes_stream_in_arrival_order() {
        let prepared = skewed_prepared();
        let sim = HierarchySimulator::new(SimConfig::default());
        let (m, outcomes) = streamed(
            &sim,
            cache_cfg(5_000_000),
            prepared.refs(),
            &FaultPlan::none(),
        );
        assert_eq!(outcomes.len(), prepared.len());
        assert!(outcomes.iter().enumerate().all(|(i, o)| o.index == i));
        assert_eq!(m.requests, prepared.len() as u64);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_references_are_rejected() {
        let refs = vec![silo_read(1, 100, 1), silo_read(2, 0, 1)];
        let _ = healthy_run(
            &HierarchySimulator::new(SimConfig::default()),
            cache_cfg(1000),
            &refs,
        );
    }

    #[test]
    #[should_panic(expected = "outside the fault horizon")]
    fn references_past_the_declared_horizon_are_rejected() {
        // The schedule covers [0 s, 50 s); the second reference is past it.
        let refs = [silo_read(1, 0, 1), silo_read(2, 100, 1)];
        let _ = HierarchySimulator::new(SimConfig::default()).run_streaming_with_faults(
            cache_cfg(1000),
            &Lru,
            refs,
            (0, 50 * MS),
            &FaultPlan::none(),
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "outside the fault horizon")]
    fn references_before_the_declared_horizon_are_rejected() {
        let refs = [silo_read(1, 10, 1)];
        let _ = HierarchySimulator::new(SimConfig::default()).run_streaming_with_faults(
            cache_cfg(1000),
            &Lru,
            refs,
            fault_horizon(20, 20),
            &FaultPlan::none(),
            |_| {},
        );
    }

    fn flaky_reads(prob: f64, retries: u32, backoff_s: f64) -> FaultPlan {
        FaultPlan {
            read_error_prob: prob,
            max_read_retries: retries,
            retry_backoff_s: backoff_s,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn slice_and_owned_stream_replay_bit_identically() {
        // The slice form is the stream form over a borrowed iterator: an
        // owned stream of the same references under the same horizon
        // replays to equal metrics, and an empty plan records no faults.
        let prepared = skewed_prepared();
        let sim = HierarchySimulator::new(SimConfig::default().with_seed(7));
        let plain = healthy_run(&sim, cache_cfg(5_000_000), prepared.refs());
        let (owned, _) = streamed(
            &sim,
            cache_cfg(5_000_000),
            prepared.refs(),
            &FaultPlan::none(),
        );
        assert_eq!(plain, owned);
        assert!(plain.fault.is_none());
    }

    /// Counter-noise mode replaces every timing draw but must never
    /// move a cache decision: for a latency-blind policy the cache
    /// counters match the legacy stream bit for bit (timing shifts,
    /// decisions do not), runs replay deterministically, and the
    /// faults-move-time-not-decisions invariant carries over.
    #[test]
    fn counter_noise_mode_preserves_cache_decisions() {
        let prepared = skewed_prepared();
        let cfg = SimConfig::default().with_seed(21);
        let legacy = healthy_run(
            &HierarchySimulator::new(cfg.clone()),
            cache_cfg(5_000_000),
            prepared.refs(),
        );
        let keyed_sim = HierarchySimulator::new(cfg.with_counter_noise(true));
        let keyed = healthy_run(&keyed_sim, cache_cfg(5_000_000), prepared.refs());
        let replay = healthy_run(&keyed_sim, cache_cfg(5_000_000), prepared.refs());
        assert_eq!(keyed, replay, "counter-noise runs replay identically");
        assert_eq!(legacy.cache, keyed.cache, "decisions must not move");
        assert_eq!(legacy.requests, keyed.requests);
        assert!(keyed.read_wait().count() > 0);

        let plan = flaky_reads(0.4, 2, 30.0);
        let degraded =
            keyed_sim.run_with_faults(cache_cfg(5_000_000), &Lru, prepared.refs(), &plan);
        assert_eq!(
            degraded.cache, keyed.cache,
            "faults move time, never decisions — in keyed mode too"
        );
        assert!(degraded.fault.expect("active plan").read_retries > 0);
    }

    #[test]
    fn read_errors_retry_with_backoff_and_eventually_serve() {
        let prepared = skewed_prepared();
        let sim = HierarchySimulator::new(SimConfig::uncontended().with_seed(11));
        let healthy = healthy_run(&sim, cache_cfg(5_000_000), prepared.refs());
        let plan = flaky_reads(0.5, 3, 60.0);
        let (degraded, outcomes) = streamed(&sim, cache_cfg(5_000_000), prepared.refs(), &plan);
        // Every reference still reaches its first byte, in order.
        assert_eq!(outcomes.len(), prepared.len());
        let fault = degraded.fault.expect("fault metrics recorded");
        assert!(fault.read_retries > 0, "a 50% error rate must retry");
        // The cache-level retry counter is the same number: the engine
        // fails a fetch exactly when a tape read errors, so the live
        // daemon's `fetch_retries` channel agrees with the simulated
        // attribution.
        assert_eq!(degraded.cache_fetch_retries, fault.read_retries);
        assert_eq!(healthy.cache_fetch_retries, 0);
        // Faults move time, never cache decisions: counters identical.
        assert_eq!(healthy.cache, degraded.cache);
        // Longer-lived recalls absorb more re-misses by coalescing, so
        // the degraded run can only issue *fewer* recalls, never more.
        assert!(degraded.recalls > 0 && degraded.recalls <= healthy.recalls);
        // Retries make misses slower on average (each failed attempt
        // pays a full mount + seek + transfer + backoff again).
        assert!(
            degraded.miss_wait.mean() > healthy.miss_wait.mean(),
            "degraded {} vs healthy {}",
            degraded.miss_wait.mean(),
            healthy.miss_wait.mean()
        );
    }

    #[test]
    fn failed_recalls_keep_waiters_coalesced_across_retries() {
        // Every recall fails twice before succeeding (prob 1, budget 2):
        // concurrent readers of the file must still share one recall and
        // resolve together at the successful attempt's first byte.
        let refs: Vec<PreparedRef> = (0..5).map(|k| silo_read(7, k, 10_000_000)).collect();
        let sim = HierarchySimulator::new(SimConfig::uncontended().with_seed(3));
        let plan = flaky_reads(1.0, 2, 30.0);
        let (m, outcomes) = streamed(&sim, cache_cfg(1 << 30), &refs, &plan);
        assert_eq!(m.recalls, 1, "retries must not issue extra recalls");
        assert_eq!(m.delayed_hits, 4);
        assert_eq!(m.fault.expect("fault metrics").read_retries, 2);
        let miss = outcomes
            .iter()
            .find(|o| o.served == ServedBy::Recall)
            .expect("the miss");
        // Two failed attempts: at least two extra mount+transfer+backoff
        // rounds before anyone is served.
        assert!(miss.wait_s > 120.0, "retries invisible: {}", miss.wait_s);
        for o in outcomes.iter().filter(|o| o.served == ServedBy::DelayedHit) {
            assert!(o.wait_s <= miss.wait_s, "waiter outlived the fetch");
        }
    }

    #[test]
    fn drive_outages_park_the_pool_and_attribute_wait() {
        // One silo drive, an outage process that is practically always
        // down: recalls queue behind the parked drive.
        let refs: Vec<PreparedRef> = (0..6)
            .map(|k| silo_read(k as u32, k * 30, 2_000_000))
            .collect();
        let cfg = SimConfig {
            silo_drives: 2,
            ..SimConfig::uncontended()
        };
        let sim = HierarchySimulator::new(cfg.with_seed(5));
        let healthy = healthy_run(&sim, cache_cfg(1 << 30), &refs);
        let plan = FaultPlan {
            outages: vec![crate::fault::OutageClause {
                target: FaultTarget::SiloDrive,
                mean_up_s: 40.0,
                down_s: 600.0,
                jitter: 0.2,
            }],
            ..FaultPlan::none()
        };
        let degraded = sim.run_with_faults(cache_cfg(1 << 30), &Lru, &refs, &plan);
        let fault = degraded.fault.expect("fault metrics");
        assert!(fault.outage_events > 0, "outage windows must park a unit");
        assert!(
            fault.outage_wait_s > 0.0,
            "queue wait overlapping an outage must be attributed"
        );
        assert!(
            degraded.miss_wait.mean() > healthy.miss_wait.mean(),
            "parked drives must slow recalls: degraded {} vs healthy {}",
            degraded.miss_wait.mean(),
            healthy.miss_wait.mean()
        );
        assert_eq!(healthy.cache, degraded.cache);
    }

    #[test]
    fn slow_drive_windows_stretch_transfers() {
        // Back-to-back large recalls on one drive: with an always-on
        // slow window, the first transfer occupies the drive ~4x longer,
        // so the second recall's first byte arrives later.
        let refs = vec![silo_read(1, 0, 60_000_000), silo_read(2, 1, 60_000_000)];
        let cfg = SimConfig {
            silo_drives: 1,
            ..SimConfig::uncontended()
        };
        let sim = HierarchySimulator::new(cfg.with_seed(9));
        let healthy = healthy_run(&sim, cache_cfg(1 << 30), &refs);
        let plan = FaultPlan {
            slow_drive: Some(crate::fault::SlowDriveClause {
                rate_factor: 0.25,
                mean_up_s: 0.001,
                down_s: 1e9,
            }),
            ..FaultPlan::none()
        };
        let degraded = sim.run_with_faults(cache_cfg(1 << 30), &Lru, &refs, &plan);
        let fault = degraded.fault.expect("fault metrics");
        assert!(fault.slow_transfers > 0, "transfers must hit the window");
        assert!(
            degraded.miss_wait.quantile(1.0) > healthy.miss_wait.quantile(1.0),
            "a slow drive must delay the queued recall"
        );
    }

    #[test]
    fn the_disk_window_stays_bounded_on_a_long_degraded_stream() {
        // A week of references, one every 30 s over 500 silo files with
        // every fifth a write: a cache of 25 files evicts all along, its
        // writes queue tape flushes, and flaky reads plus drive outages
        // retry recalls. What is in flight stays in the tens.
        const REFS: usize = 20_000;
        let refs = (0..REFS).map(|k| PreparedRef {
            id: FileId::new((k * 7 % 500) as u32),
            size: 2_000_000,
            write: k % 5 == 0,
            time: k as i64 * 30,
            next_use: None,
            device: DeviceClass::TapeSilo,
        });
        let cache = cache_cfg(50_000_000);
        let plan = FaultPlan {
            outages: vec![crate::fault::OutageClause {
                target: FaultTarget::SiloDrive,
                mean_up_s: 3_600.0,
                down_s: 600.0,
                jitter: 0.2,
            }],
            ..flaky_reads(0.3, 3, 30.0)
        };
        let cfg = SimConfig::default().with_seed(3);
        let (start, end) = fault_horizon(0, REFS as i64 * 30);
        let schedule = FaultSchedule::materialize(&plan, cfg.seed, start, end);
        let mut engine = Engine::new(&cfg, cache, &Lru, schedule);
        engine.tape.schedule_outages(&mut engine.front);
        let (mut emitted, mut high_water) = (0, 0);
        let mut sink = |_: RefOutcome| emitted += 1;
        for pr in refs {
            engine.feed(&pr, &mut sink);
            high_water = high_water.max(engine.front.disk.window());
        }
        let m = engine.finish(&mut sink);
        assert_eq!(emitted, REFS);
        assert!(m.cache.evictions > 0, "nothing evicted");
        assert!(m.fault.expect("an active plan").read_retries > 0);
        assert!(high_water < 64, "{high_water} references held at once");
    }

    #[test]
    fn manual_tier_files_restage_from_the_shelf() {
        let refs = vec![PreparedRef {
            id: FileId::new(1),
            size: 50_000_000,
            write: false,
            time: 0,
            next_use: None,
            device: DeviceClass::TapeManual,
        }];
        let m = healthy_run(
            &HierarchySimulator::new(SimConfig::uncontended()),
            cache_cfg(1 << 30),
            &refs,
        );
        assert_eq!(m.recalls, 1);
        assert!(
            m.miss_wait.mean() >= 30.0,
            "operator mount missing: {}",
            m.miss_wait.mean()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{healthy_run, streamed};
    use super::*;
    use crate::fault::{FaultTarget, OutageClause, SlowDriveClause};
    use fmig_migrate::policy::Lru;
    use proptest::prelude::*;

    proptest! {
        /// Fault determinism at the engine level: one (plan, seed) pair
        /// replays to equal metrics; a different seed moves the noise;
        /// and the cache counters always equal the fault-free run's —
        /// faults move time, never decisions.
        #[test]
        fn fault_runs_are_deterministic_and_decision_preserving(
            seed in 0u64..500,
            prob in 0.0f64..0.9,
            retries in 0u32..4,
            n in 2usize..10,
        ) {
            let refs: Vec<PreparedRef> = (0..n)
                .map(|k| PreparedRef {
                    id: FileId::new((k % 3) as u32),
                    size: 1_000_000 + k as u64 * 700_000,
                    write: k % 4 == 0,
                    time: k as i64 * 20,
                    next_use: None,
                    device: DeviceClass::TapeSilo,
                })
                .collect();
            let plan = FaultPlan {
                outages: vec![OutageClause {
                    target: FaultTarget::SiloDrive,
                    mean_up_s: 300.0,
                    down_s: 120.0,
                    jitter: 0.3,
                }],
                read_error_prob: prob,
                max_read_retries: retries,
                retry_backoff_s: 20.0,
                slow_drive: Some(SlowDriveClause {
                    rate_factor: 0.5,
                    mean_up_s: 200.0,
                    down_s: 90.0,
                }),
            };
                let sim = HierarchySimulator::new(SimConfig::uncontended().with_seed(seed));
            let a = sim.run_with_faults(CacheConfig::with_capacity(1 << 24), &Lru, &refs, &plan);
            let b = sim.run_with_faults(CacheConfig::with_capacity(1 << 24), &Lru, &refs, &plan);
            prop_assert_eq!(&a, &b);
            prop_assert!(a.fault.is_some());
            let healthy = healthy_run(&sim, CacheConfig::with_capacity(1 << 24), &refs);
            prop_assert_eq!(a.cache, healthy.cache);
            // Slower recalls can only absorb more re-misses, not fewer.
            prop_assert!(a.recalls <= healthy.recalls);
        }
    }

    proptest! {
        /// Delayed-hit coalescing semantics: N concurrent references to
        /// one missing file issue exactly one recall, and no coalesced
        /// request ever waits longer than the fetch it joined — the
        /// bound an independent fetch issued at the miss would set.
        #[test]
        fn coalesced_references_share_one_recall_and_never_wait_longer(
            offsets in proptest::collection::vec(0i64..6, 1..12),
            size in 1_000_000u64..120_000_000,
            seed in 0u64..1000,
        ) {
            let mut times: Vec<i64> = offsets.iter().scan(0i64, |acc, &d| {
                *acc += d;
                Some(*acc)
            }).collect();
            times.sort_unstable();
            let refs: Vec<PreparedRef> = times
                .iter()
                .map(|&t| PreparedRef {
                    id: FileId::new(42),
                    size,
                    write: false,
                    time: t,
                    next_use: None,
                    device: DeviceClass::TapeSilo,
                })
                .collect();
            let sim = HierarchySimulator::new(SimConfig::uncontended().with_seed(seed));
            let cache = CacheConfig::with_capacity(1 << 34);
            let (m, outcomes) = streamed(&sim, cache, &refs, &FaultPlan::none());
            prop_assert_eq!(m.recalls, 1);
            prop_assert_eq!(m.cache.read_misses, 1);
            prop_assert_eq!(m.delayed_hits, refs.len() as u64 - 1);
            let miss = outcomes.iter().find(|o| o.served == ServedBy::Recall).unwrap();
            for o in &outcomes {
                if o.served == ServedBy::DelayedHit {
                    prop_assert!(
                        o.wait_s <= miss.wait_s,
                        "waiter {} > recall {}", o.wait_s, miss.wait_s
                    );
                }
            }
        }
    }
}
