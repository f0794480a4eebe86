//! Policy-comparison harness (the Smith/Lawrie experiment rerun on
//! NCAR-like traces, §2.3 / §6-a).
//!
//! Each candidate policy drives a [`DiskCache`] over the same trace; the
//! harness reports miss ratios, byte miss ratios, and the §2.3
//! person-minutes cost. A reversed pre-pass computes every reference's
//! next-use time so Belady's clairvoyant bound runs as an ordinary
//! policy. Policies are evaluated on the bounded worker pool
//! ([`crate::pool`]), at most one worker per policy.
//!
//! No shipped policy sorts its residents at a purge. LRU and FIFO rank
//! through the monotone deque; every other policy through the
//! purge-time scan, keyed by exact affine intercepts (Belady, the size
//! pair), power-age roots (STP, SAAC) or, for the rest (RandomEvict and
//! the latency-aware pair), by `priority` itself — the rescan. The scan
//! keys every resident once per purge and heapifies only the keys at or
//! above a sampled cut: O(n) plus O(log n) per victim, a fair price
//! when a purge (0.95 → 0.80 of capacity) evicts about one resident in
//! forty.

use fmig_trace::ingest::store::StoreRow;
use fmig_trace::time::TRACE_DAYS;
use fmig_trace::{DeviceClass, Direction, FileId, FileTable, Request, TraceRecord};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheConfig, CacheStats, DiskCache};
use crate::policy::MigrationPolicy;
use crate::pool::parallel_indexed;

/// Configuration of one comparison run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// The disk-cache geometry shared by all policies.
    pub cache: CacheConfig,
    /// Mean tape wait charged per read miss (seconds) for the
    /// person-minutes metric; the paper's MSS averages ~60 s.
    ///
    /// This constant is the *open-loop fallback*: a latency-true
    /// (closed-loop) run measures each policy's actual mean read-miss
    /// wait from the device model and
    /// [`PolicyOutcome::attach_latency`] replaces the charge with that
    /// measurement. Only open-loop evaluations — where no device model
    /// runs — fall back to this number.
    pub wait_s_per_miss: f64,
    /// Trace length in days for per-day normalisation.
    pub trace_days: f64,
}

impl EvalConfig {
    /// A run with the given cache capacity and paper-like defaults.
    pub fn with_capacity(capacity: u64) -> Self {
        EvalConfig {
            cache: CacheConfig::with_capacity(capacity),
            wait_s_per_miss: 60.0,
            trace_days: TRACE_DAYS as f64,
        }
    }
}

/// Latency-true summary of one policy's closed-loop run: first-byte
/// waits measured by the device model instead of charged as constants.
///
/// Produced by the closed-loop hierarchy engine (`fmig-sim`); kept here
/// so [`PolicyOutcome`] can carry it without this crate depending on the
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyOutcome {
    /// Mean first-byte wait over all reads (hits, delayed hits, and
    /// misses), seconds.
    pub mean_read_wait_s: f64,
    /// 99th-percentile first-byte read wait, seconds.
    pub p99_read_wait_s: f64,
    /// Mean wait of read misses (tape recalls), seconds.
    pub mean_miss_wait_s: f64,
    /// Mean wait of reads that coalesced onto an outstanding recall,
    /// seconds.
    pub mean_delayed_wait_s: f64,
    /// Reads that coalesced onto an outstanding recall (delayed hits).
    pub delayed_hits: u64,
    /// Tape recalls actually issued (misses minus coalesced refetches).
    pub recalls: u64,
    /// Bytes of write-behind and eviction flushes sent to tape.
    pub flush_bytes: u64,
    /// Mean time a tape flush waited for a drive, seconds — the
    /// write-back contention the closed loop exposes.
    pub mean_flush_queue_s: f64,
    /// Degraded-mode counters from a fault-injected closed-loop run;
    /// `None` when the run carried no fault plan. The wait fields above
    /// already reflect the faults (retries lengthen miss waits, outages
    /// lengthen queues) — this object attributes the damage.
    pub degraded: Option<DegradedOutcome>,
}

/// What a fault plan did to one closed-loop run (see
/// `fmig_sim::fault`): the attribution half of a degraded-mode
/// measurement, carried next to the wait distributions it explains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradedOutcome {
    /// Tape recall attempts that failed (media read errors) and were
    /// re-queued with backoff.
    pub read_retries: u64,
    /// Outage windows that actually parked a unit (drive, robot arm, or
    /// operator) for part of the run.
    pub outage_events: u64,
    /// Total queue wait that overlapped an outage window of the
    /// waiting job's resource, seconds — wait attributable to parked
    /// hardware rather than ordinary contention.
    pub outage_wait_s: f64,
    /// Tape transfers that ran at a degraded (slow-drive) rate.
    pub slow_transfers: u64,
}

/// The result of one policy's run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Policy display name.
    pub name: String,
    /// Raw cache counters.
    pub stats: CacheStats,
    /// Read miss ratio by references.
    pub miss_ratio: f64,
    /// Read miss ratio by bytes.
    pub byte_miss_ratio: f64,
    /// §2.3 person-minutes lost per day. Charged at
    /// [`EvalConfig::wait_s_per_miss`] in open-loop mode; derived from
    /// the measured mean miss wait once a latency-true run is attached.
    pub person_minutes_per_day: f64,
    /// Measured first-byte latency distributions, when this outcome came
    /// from (or was augmented by) a closed-loop run; `None` in open-loop
    /// mode.
    pub latency: Option<LatencyOutcome>,
}

impl PolicyOutcome {
    /// Attaches a latency-true measurement and re-derives the
    /// person-minutes cost from the measured mean read-miss wait,
    /// superseding the open-loop `wait_s_per_miss` constant.
    pub fn attach_latency(&mut self, latency: LatencyOutcome, config: &EvalConfig) {
        self.person_minutes_per_day = self
            .stats
            .person_minutes_per_day(latency.mean_miss_wait_s, config.trace_days);
        self.latency = Some(latency);
    }

    /// The per-miss wait in effect: measured when latency-true, the
    /// configured constant otherwise.
    pub fn wait_s_per_miss(&self, config: &EvalConfig) -> f64 {
        self.latency
            .map_or(config.wait_s_per_miss, |l| l.mean_miss_wait_s)
    }
}

/// One reference prepared for replay, in trace order.
///
/// Public so the closed-loop hierarchy engine (`fmig-sim`) can replay
/// the exact reference sequence open-loop evaluation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedRef {
    /// Dense file id interned from the MSS path (see
    /// [`fmig_trace::FileTable`]); also the arena index for every
    /// per-file slot downstream.
    pub id: FileId,
    /// File size in bytes (at least 1).
    pub size: u64,
    /// True for writes.
    pub write: bool,
    /// Reference time, seconds since the Unix epoch.
    pub time: i64,
    /// Next reference to the same file, for Belady's oracle.
    pub next_use: Option<i64>,
    /// Storage class the original record was served from; closed-loop
    /// replay recalls misses from the matching tape tier.
    pub device: DeviceClass,
}

/// A columnar replay-store row is already a prepared reference: import
/// interned its path and filled its next-use time.
impl From<StoreRow> for PreparedRef {
    fn from(row: StoreRow) -> Self {
        PreparedRef {
            id: row.file,
            size: row.size,
            write: row.write,
            time: row.start,
            next_use: row.next_use,
            device: row.device,
        }
    }
}

/// Incremental trace preparation for rendered [`TraceRecord`]s (a
/// decoded trace file): feed records one at a time, then
/// [`TracePrep::finish`] into a [`PreparedTrace`].
///
/// This is the path-keyed front: it interns each reference's MSS path
/// through its own [`FileTable`] and hands the slot to the
/// [`IdTracePrep`] it fills, which does the rest. The per-record state
/// kept is a compact `Copy` struct plus one owned path string per
/// *unique* file — far lighter than the records themselves.
#[derive(Debug, Default)]
pub struct TracePrep {
    paths: FileTable,
    prep: IdTracePrep,
}

impl TracePrep {
    /// Creates an empty preparation pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one record; errored references are skipped, as in §6.
    pub fn observe(&mut self, rec: &TraceRecord) {
        if rec.is_ok() {
            let slot = self.paths.intern(&rec.mss_path);
            self.prep.observe(slot.raw(), rec);
        }
    }

    /// Runs the reverse next-use sweep and seals the trace for replay.
    pub fn finish(self) -> PreparedTrace {
        self.prep.finish()
    }
}

/// [`TracePrep`]'s engine, for sources that already name each file by a
/// slot of their own (a generated shard's [`fmig_trace::IdRecord`]s):
/// no path is read, and there is no path method to mix the two key
/// spaces through.
///
/// Whatever the slot numbering, the trace gets dense [`FileId`]s in
/// **first-appearance order among non-errored references** — the order
/// [`FileTable`] interns paths in, which replay tie-breaks depend on
/// (see [`fmig_trace::ident`]).
#[derive(Debug, Default)]
pub struct IdTracePrep {
    /// Slot → dense id; [`UNASSIGNED`] until the slot's first
    /// non-errored reference.
    dense: Vec<u32>,
    /// Dense ids handed out so far.
    file_count: u32,
    refs: Vec<PreparedRef>,
}

const UNASSIGNED: u32 = u32::MAX;

impl IdTracePrep {
    /// Creates an empty preparation pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pass sized for `slots` file slots and up to
    /// `refs` references, so neither table grows while it is fed.
    pub fn with_capacity(slots: usize, refs: usize) -> Self {
        IdTracePrep {
            dense: vec![UNASSIGNED; slots],
            file_count: 0,
            refs: Vec::with_capacity(refs),
        }
    }

    /// Feeds one reference to the file in slot `file`; errored
    /// references are skipped, as in §6.
    pub fn observe(&mut self, file: u32, rec: &impl Request) {
        if rec.error().is_some() {
            return;
        }
        if file as usize >= self.dense.len() {
            self.dense.resize(file as usize + 1, UNASSIGNED);
        }
        let id = &mut self.dense[file as usize];
        if *id == UNASSIGNED {
            *id = self.file_count;
            self.file_count += 1;
        }
        self.refs.push(PreparedRef {
            id: FileId::new(*id),
            size: rec.file_size().max(1),
            write: rec.direction() == Direction::Write,
            time: rec.start().as_unix(),
            next_use: None,
            device: rec.mss_device().unwrap_or(DeviceClass::Disk),
        });
    }

    /// Runs the reverse next-use sweep and seals the trace for replay.
    ///
    /// Because ids are dense, the sweep's "latest time seen per file"
    /// state is a flat `Vec<i64>` indexed by [`FileId`], not a hash map.
    pub fn finish(self) -> PreparedTrace {
        let mut refs = self.refs;
        // Trace times are non-negative Unix seconds, so MIN is free as
        // the "not seen yet" sentinel.
        let mut next_seen = vec![i64::MIN; self.file_count as usize];
        for r in refs.iter_mut().rev() {
            let slot = &mut next_seen[r.id.index()];
            r.next_use = (*slot != i64::MIN).then_some(*slot);
            *slot = r.time;
        }
        PreparedTrace {
            refs,
            file_count: self.file_count as usize,
        }
    }
}

/// A trace ready for policy replay; see [`TracePrep`].
#[derive(Debug, Clone)]
pub struct PreparedTrace {
    refs: Vec<PreparedRef>,
    file_count: usize,
}

impl PreparedTrace {
    /// Number of successful references prepared.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True if no successful reference was observed.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The prepared references, in trace order — the exact sequence both
    /// open-loop replay and the closed-loop hierarchy engine consume.
    pub fn refs(&self) -> &[PreparedRef] {
        &self.refs
    }

    /// Number of distinct files the trace references — the arena extent
    /// every [`FileId`] in [`PreparedTrace::refs`] indexes into.
    pub fn file_count(&self) -> usize {
        self.file_count
    }

    /// Replays one policy over the trace.
    pub fn replay(&self, policy: &dyn MigrationPolicy, config: &EvalConfig) -> PolicyOutcome {
        let stats = replay(&self.refs, self.file_count, policy, config);
        PolicyOutcome {
            name: policy.name(),
            stats,
            miss_ratio: stats.miss_ratio(),
            byte_miss_ratio: stats.byte_miss_ratio(),
            person_minutes_per_day: stats
                .person_minutes_per_day(config.wait_s_per_miss, config.trace_days),
            latency: None,
        }
    }

    /// Replays every policy on the bounded pool ([`parallel_indexed`]):
    /// one worker per available CPU, never more than one per policy.
    /// Outcomes come back in the input policy order.
    ///
    /// Policies are dispatched last first: [`crate::standard_suite`]
    /// lists the latency-aware pair last, and STP-lat's rescan makes it
    /// by far the longest replay, so starting it first keeps the wall
    /// time near that one replay instead of adding it after the rest.
    pub fn evaluate(
        &self,
        policies: &[Box<dyn MigrationPolicy>],
        config: &EvalConfig,
    ) -> Vec<PolicyOutcome> {
        let n = policies.len();
        let mut outcomes =
            parallel_indexed(n, 0, |i| self.replay(policies[n - 1 - i].as_ref(), config));
        outcomes.reverse();
        outcomes
    }

    /// Wraps already-prepared references for replay. The caller vouches
    /// for the invariants [`TracePrep`] normally establishes: times in
    /// trace order and `next_use` from a consistent reverse sweep.
    pub fn from_refs(refs: Vec<PreparedRef>) -> Self {
        let file_count = refs
            .iter()
            .map(|r| r.id.index() + 1)
            .max()
            .unwrap_or_default();
        PreparedTrace { refs, file_count }
    }
}

fn replay(
    prepared: &[PreparedRef],
    file_count: usize,
    policy: &dyn MigrationPolicy,
    config: &EvalConfig,
) -> CacheStats {
    let mut session = ReplaySession::new(file_count, policy, config);
    for r in prepared {
        session.feed(r);
    }
    session.finish()
}

/// Incremental open-loop replay: feed prepared references in time
/// order — from any source, chunk by chunk — and collect the cache
/// statistics at the end.
///
/// This is the streaming counterpart of [`PreparedTrace::replay`] for
/// traces that never materialize as a slice: the imported-trace replay
/// store hands chunks straight from disk into a session, so peak
/// memory is O(`file_count`) + one chunk regardless of trace length.
/// Feeding the same references produces bit-identical statistics to
/// the slice path (which is itself implemented on top of this).
#[derive(Debug)]
pub struct ReplaySession<'p> {
    cache: DiskCache<'p>,
}

impl<'p> ReplaySession<'p> {
    /// Opens a session over an empty cache sized for `file_count`
    /// distinct files.
    pub fn new(file_count: usize, policy: &'p dyn MigrationPolicy, config: &EvalConfig) -> Self {
        let mut cache = DiskCache::new(config.cache, policy);
        // The trace's file universe is known up front, so the per-file
        // arenas are sized once here instead of growing through doubling
        // reallocations mid-replay.
        cache.reserve_files(file_count);
        // Open-loop fallback for the miss-latency feedback channel: no
        // device model runs, so every entry carries the flat per-miss
        // wait constant (see `crate::feedback` for the closed-loop
        // counterpart).
        cache.set_est_miss_wait_s(config.wait_s_per_miss);
        ReplaySession { cache }
    }

    /// Replays one reference.
    pub fn feed(&mut self, r: &PreparedRef) {
        if r.write {
            self.cache.write(r.id, r.size, r.time, r.next_use);
        } else {
            self.cache.read(r.id, r.size, r.time, r.next_use);
        }
    }

    /// Finishes the session, returning the accumulated statistics.
    pub fn finish(self) -> CacheStats {
        *self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{standard_suite, Belady, Lru, Stp};
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::Endpoint;

    /// A skewed workload: a hot set of small files re-read constantly and
    /// a stream of cold large files.
    fn skewed_trace() -> Vec<TraceRecord> {
        let mut records = Vec::new();
        let mut t = 0i64;
        for round in 0..60 {
            for hot in 0..6 {
                t += 20;
                records.push(TraceRecord::read(
                    Endpoint::MssDisk,
                    TRACE_EPOCH.add_secs(t),
                    400_000,
                    format!("/hot/f{hot}"),
                    1,
                ));
            }
            t += 20;
            records.push(TraceRecord::read(
                Endpoint::MssTapeSilo,
                TRACE_EPOCH.add_secs(t),
                3_000_000,
                format!("/cold/f{round}"),
                1,
            ));
        }
        records
    }

    fn prepare(records: &[TraceRecord]) -> PreparedTrace {
        let mut prep = TracePrep::new();
        records.iter().for_each(|rec| prep.observe(rec));
        prep.finish()
    }

    #[test]
    fn belady_is_a_lower_bound() {
        let trace = skewed_trace();
        let policies: Vec<Box<dyn MigrationPolicy>> =
            vec![Box::new(Belady), Box::new(Lru), Box::new(Stp::classic())];
        let config = EvalConfig::with_capacity(6_000_000);
        let out = prepare(&trace).evaluate(&policies, &config);
        let belady = out[0].miss_ratio;
        for o in &out[1..] {
            assert!(
                belady <= o.miss_ratio + 1e-9,
                "Belady {belady} beaten by {} at {}",
                o.name,
                o.miss_ratio
            );
        }
    }

    #[test]
    fn outcomes_follow_input_order_and_equal_sequential_replay() {
        let trace = prepare(&skewed_trace());
        let suite = standard_suite();
        let config = EvalConfig::with_capacity(5_000_000);
        let out = trace.evaluate(&suite, &config);
        assert_eq!(out.len(), suite.len());
        for (o, p) in out.iter().zip(suite.iter()) {
            assert_eq!(o.name, p.name());
            assert!(o.miss_ratio >= 0.0 && o.miss_ratio <= 1.0);
            let alone = trace.replay(p.as_ref(), &config);
            assert_eq!(format!("{o:?}"), format!("{alone:?}"), "{}", o.name);
        }
    }

    #[test]
    fn bigger_caches_miss_less() {
        let trace = skewed_trace();
        let sweep = crate::mrc::sweep_capacities(
            prepare(&trace).refs(),
            &Stp::classic(),
            &[1_000_000, 4_000_000, 16_000_000, 64_000_000],
            &EvalConfig::with_capacity(0),
        )
        .miss_ratios();
        for w in sweep.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "miss ratio rose with capacity: {sweep:?}"
            );
        }
        // A cache big enough for everything only cold-misses.
        let full = sweep.last().unwrap().1;
        let cold = 6.0 / (6.0 * 60.0) + 60.0 / (60.0 * 7.0) * 0.0; // loose sanity bound
        assert!(full <= 0.2, "full-cache miss ratio {full} (cold ~{cold})");
    }

    #[test]
    fn path_front_and_id_core_agree_record_for_record() {
        // Revisits, a re-write at a new size, an errored first reference
        // to a file that succeeds later, and slots numbered against
        // first-appearance order: dense ids must not follow them.
        let at = |t: i64| TRACE_EPOCH.add_secs(t);
        let mut early = TraceRecord::read(Endpoint::MssDisk, at(1), 4, "/c", 1);
        early.error = Some(fmig_trace::ErrorKind::MediaError);
        let trace = [
            (9, TraceRecord::write(Endpoint::MssDisk, at(0), 10, "/a", 1)),
            (0, early),
            (
                5,
                TraceRecord::read(Endpoint::MssTapeSilo, at(2), 7, "/b", 1),
            ),
            (9, TraceRecord::read(Endpoint::MssDisk, at(3), 10, "/a", 1)),
            (0, TraceRecord::read(Endpoint::MssDisk, at(4), 4, "/c", 1)),
            (9, TraceRecord::write(Endpoint::MssDisk, at(5), 30, "/a", 1)),
            (
                5,
                TraceRecord::read(Endpoint::MssTapeSilo, at(6), 0, "/b", 1),
            ),
        ];
        let mut by_path = TracePrep::new();
        let mut by_id = IdTracePrep::new();
        for (slot, rec) in &trace {
            by_path.observe(rec);
            by_id.observe(*slot, rec);
        }
        let (by_path, by_id) = (by_path.finish(), by_id.finish());
        assert_eq!(by_path.refs(), by_id.refs());
        assert_eq!(by_path.file_count(), by_id.file_count());
        let seen: Vec<_> = by_id
            .refs()
            .iter()
            .map(|r| (r.id.raw(), r.size, r.next_use.map(|t| t - at(0).as_unix())))
            .collect();
        assert_eq!(
            seen,
            [
                (0, 10, Some(3)),
                (1, 7, Some(6)),
                (0, 10, Some(5)),
                (2, 4, None),
                (0, 30, None),
                (1, 1, None),
            ]
        );
    }

    #[test]
    fn errors_are_skipped_in_replay() {
        let mut trace = skewed_trace();
        let mut bad = trace[0].clone();
        bad.error = Some(fmig_trace::ErrorKind::FileNotFound);
        trace.insert(0, bad);
        let out = prepare(&trace).evaluate(
            &[Box::new(Lru) as Box<dyn MigrationPolicy>],
            &EvalConfig::with_capacity(5_000_000),
        );
        let total = out[0].stats.read_hits + out[0].stats.read_misses + out[0].stats.writes;
        assert_eq!(total as usize, trace.len() - 1);
    }

    #[test]
    fn person_minutes_scale_with_misses() {
        let trace = skewed_trace();
        let out = prepare(&trace).evaluate(
            &[Box::new(Lru) as Box<dyn MigrationPolicy>],
            &EvalConfig {
                wait_s_per_miss: 60.0,
                trace_days: 1.0,
                cache: CacheConfig::with_capacity(2_000_000),
            },
        );
        let expected = out[0].stats.read_misses as f64;
        assert!((out[0].person_minutes_per_day - expected).abs() < 1e-9);
    }
}
