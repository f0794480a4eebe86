//! Disk-cache simulation under a migration policy.
//!
//! Models the fast tier (MSS staging disk or Cray local disk) in front of
//! tape: references hit or miss; when usage crosses the high watermark the
//! policy picks victims until the low watermark is reached — the
//! "migrate off disk" decision every §2.3 study evaluates by miss ratio.
//!
//! Also models §6's write-behind: files are dirty until flushed to tape.
//! With `eager_writeback`, dirty data is flushed as resources allow and
//! marked "deleteable", so space reclamation never stalls on a tape
//! write; without it, evicting a dirty file pays the flush at eviction
//! time (`stall_bytes`).
//!
//! # Open loop vs closed loop
//!
//! The original API ([`DiskCache::read`] / [`DiskCache::write`]) is
//! *open-loop*: a miss is charged a fixed cost and the fetched file is
//! resident instantly. The event-driven API ([`DiskCache::read_with`] /
//! [`DiskCache::write_with`] / [`DiskCache::fetch_complete`]) reports
//! every side effect as a [`CacheOp`] so a device simulator can turn it
//! into real traffic: misses become tape recalls that stay *outstanding*
//! until the engine delivers them (references meanwhile coalesce as
//! [`ReadResult::DelayedHit`]), and write-behind and purge flushes become
//! tape writes that compete with those recalls. Both APIs make identical
//! hit/miss/eviction decisions on the same reference sequence, which is
//! what lets the closed loop reproduce open-loop miss ratios exactly.
//!
//! # Dense identity and the entry arena
//!
//! Files are named by [`FileId`] — the dense index handed out by
//! [`fmig_trace::FileTable`] at trace preparation. Per-file state lives
//! in a flat arena (`Vec<Option<Entry>>` addressed by `id.index()`), so
//! the replay hot path never hashes: a hit is one bounds check and one
//! array load. A slot is vacated on eviction and *reused* when the same
//! file re-enters, as a fresh entry. The ranking's row for the file goes
//! with the eviction and comes back with the re-entry, marked for the
//! next purge to key afresh, so no key of a previous incarnation
//! survives (no ABA).
//!
//! What a reference and a purge *do* is stated once, naively, in
//! `tests/spec/mod.rs`; `tests/cache_spec.rs` holds this cache to it,
//! bit for bit, in every [`EvictionMode`].
//!
//! # Victim ranking
//!
//! A watermark purge evicts in `(priority desc, id asc)` order. Which
//! file that is — and how cheaply it is found: the scan keyed by exact
//! intercepts or power-age roots, or the exact rescan, chosen per
//! [`EvictionMode`] from what the policy promises — is the `rank`
//! module's one lifecycle (`crate::rank::Ranking`; its module docs in
//! `rank.rs` are the reference). This cache is one of its two hosts:
//! the ranking keeps a row per resident, the arena shows it each
//! entry's view, the cache reports every insert, write and read hit,
//! steps it down to the rescan when the clock runs backwards, and keeps
//! the eviction bookkeeping (stall vs background flush, [`CacheOp`]s) to
//! itself.

use fmig_trace::FileId;
use serde::{Deserialize, Serialize};

use crate::policy::{FileView, MigrationPolicy};
pub use crate::rank::RankingRegime;
use crate::rank::{Ranking, Residents};

/// Configuration of the simulated disk cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Purge trigger as a fraction of capacity (e.g. 0.95).
    pub high_watermark: f64,
    /// Purge target as a fraction of capacity (e.g. 0.80).
    pub low_watermark: f64,
    /// Flush dirty files promptly (the §6 recommendation) instead of at
    /// eviction time.
    pub eager_writeback: bool,
}

impl CacheConfig {
    /// A cache of `capacity` bytes with the conventional 95/80 marks.
    pub fn with_capacity(capacity: u64) -> Self {
        CacheConfig {
            capacity,
            high_watermark: 0.95,
            low_watermark: 0.80,
            eager_writeback: true,
        }
    }

    /// The `(high, low)` watermarks in bytes: a purge triggers when
    /// usage exceeds `high` and evicts until it is at most `low`.
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are not `0 < low <= high <= 1`.
    pub fn watermarks(&self) -> (u64, u64) {
        assert!(
            self.low_watermark > 0.0
                && self.low_watermark <= self.high_watermark
                && self.high_watermark <= 1.0,
            "bad watermarks {} / {}",
            self.low_watermark,
            self.high_watermark
        );
        let bytes = |mark: f64| (self.capacity as f64 * mark) as u64;
        (bytes(self.high_watermark), bytes(self.low_watermark))
    }
}

/// Outcome counters for a cache run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read references that hit.
    pub read_hits: u64,
    /// Read references that missed (fetched from tape).
    pub read_misses: u64,
    /// Bytes of read hits.
    pub read_hit_bytes: u64,
    /// Bytes fetched on read misses.
    pub read_miss_bytes: u64,
    /// Write references (always land in the cache).
    pub writes: u64,
    /// Files evicted by the policy.
    pub evictions: u64,
    /// Bytes evicted.
    pub evicted_bytes: u64,
    /// Dirty bytes flushed while usage still exceeded the high watermark
    /// — demand evictions whose flush the triggering reference waits on
    /// (zero with eager write-behind).
    pub stall_bytes: u64,
    /// Dirty bytes flushed by the background part of a watermark purge,
    /// after usage dropped back under the high watermark on the way to
    /// the low one (zero with eager write-behind).
    pub purge_flush_bytes: u64,
    /// Bytes flushed to tape in the background (eager write-behind plus
    /// every dirty eviction, stall or purge).
    pub writeback_bytes: u64,
}

impl CacheStats {
    /// Read miss ratio by references.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_misses as f64 / total as f64
        }
    }

    /// Read miss ratio by bytes.
    pub fn byte_miss_ratio(&self) -> f64 {
        let total = self.read_hit_bytes + self.read_miss_bytes;
        if total == 0 {
            0.0
        } else {
            self.read_miss_bytes as f64 / total as f64
        }
    }

    /// §2.3's cost translation: person-minutes lost per day to misses,
    /// given the mean tape wait per miss and the trace length.
    pub fn person_minutes_per_day(&self, wait_s_per_miss: f64, trace_days: f64) -> f64 {
        if trace_days <= 0.0 {
            return 0.0;
        }
        self.read_misses as f64 * wait_s_per_miss / 60.0 / trace_days
    }
}

/// A side effect of one cache reference, reported through the
/// event-driven API so a closed-loop engine can turn it into device
/// traffic. The open-loop API discards these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// A read miss: `bytes` must be recalled from tape. The file was
    /// inserted with an outstanding fetch unless it bypassed the cache
    /// (larger than the whole cache).
    Fetch {
        /// File being recalled.
        id: FileId,
        /// Bytes to recall.
        bytes: u64,
    },
    /// Eager write-behind scheduled `bytes` of freshly written data for
    /// a background tape flush.
    Writeback {
        /// File whose dirty data is queued for tape.
        id: FileId,
        /// Bytes to flush.
        bytes: u64,
    },
    /// A dirty victim flushed while usage still exceeded the high
    /// watermark — a demand eviction the triggering reference stalls on.
    StallFlush {
        /// Victim file.
        id: FileId,
        /// Bytes flushed.
        bytes: u64,
    },
    /// A dirty victim flushed by the background part of a watermark
    /// purge, below the high watermark on the way to the low one.
    PurgeFlush {
        /// Victim file.
        id: FileId,
        /// Bytes flushed.
        bytes: u64,
    },
    /// A clean victim dropped; no tape traffic results.
    Drop {
        /// Victim file.
        id: FileId,
        /// Bytes freed.
        bytes: u64,
    },
}

/// What a read reference found, as reported by [`DiskCache::read_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadResult {
    /// Resident and fully fetched: servable at disk latency.
    Hit,
    /// Resident but its tape recall is still outstanding: the reference
    /// coalesces onto the in-flight fetch instead of issuing another
    /// (a *delayed hit*).
    DelayedHit,
    /// Not resident: a recall must be issued.
    Miss,
}

impl ReadResult {
    /// True unless the reference missed (both hit flavours count as
    /// hits for miss-ratio purposes).
    pub fn is_resident(self) -> bool {
        !matches!(self, ReadResult::Miss)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    last_ref: i64,
    created: i64,
    ref_count: u32,
    dirty: bool,
    /// The tape recall that populated this entry is still in flight;
    /// cleared by [`DiskCache::fetch_complete`].
    fetching: bool,
    next_use: Option<i64>,
    /// Estimated recall wait stamped from the cache's hint at the last
    /// touch; see [`DiskCache::set_est_miss_wait_s`].
    est_miss_wait_s: f64,
}

/// How [`DiskCache`] ranks purge victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionMode {
    /// Probe the policy at the first purge: a shared-slope affine
    /// priority ([`MigrationPolicy::affine`]) ranks through the scan on
    /// intercept keys, a power-age one
    /// ([`MigrationPolicy::power_age_form`]) through the scan on
    /// power-age keys. Policies with neither form fall back to the exact
    /// rescan automatically.
    #[default]
    Auto,
    /// Always rank victims by the rescan (every resident's priority at
    /// the purge instant) — the cost model with no closed form, kept
    /// selectable for benchmarks; `tests/cache_spec.rs` holds it to the
    /// spec like `Auto`. The victim sequence is identical to `Auto`'s by
    /// construction.
    Rescan,
}

/// A policy-driven disk cache with arena-backed per-file state.
pub struct DiskCache<'p> {
    config: CacheConfig,
    /// `config`'s `(high, low)` watermarks in bytes.
    marks: (u64, u64),
    policy: &'p dyn MigrationPolicy,
    arena: Arena,
    usage: u64,
    stats: CacheStats,
    /// Victim ranking over `arena`: one row per resident.
    rank: Ranking<'p>,
    /// Latest reference time seen; the affine forms assume a monotone
    /// clock, so a step backwards degrades the ranking (see `note_time`).
    max_now: i64,
    /// The miss-latency hint stamped onto entries at every touch; see
    /// [`DiskCache::set_est_miss_wait_s`]. Defaults to `0.0` (no
    /// feedback), under which latency-aware policies degrade to their
    /// latency-blind counterparts exactly.
    est_miss_wait_s: f64,
    /// Failed recall attempts ([`DiskCache::fetch_failed`] calls); kept
    /// outside [`CacheStats`] so degraded runs keep decision counters
    /// byte-identical to healthy ones. See [`DiskCache::fetch_retries`].
    fetch_retries: u64,
}

fn view(id: FileId, e: &Entry) -> FileView {
    FileView {
        id,
        size: e.size,
        last_ref: e.last_ref,
        created: e.created,
        ref_count: e.ref_count,
        next_use: e.next_use,
        est_miss_wait_s: e.est_miss_wait_s,
    }
}

/// The entry arena, which is also what the ranking sees of the cache:
/// each resident's view.
struct Arena {
    /// Per-file entries indexed by [`FileId`]; `None` = not resident.
    /// Slots are reused across an evict/re-create cycle.
    slots: Vec<Option<Entry>>,
}

impl Arena {
    fn get(&self, id: FileId) -> Option<&Entry> {
        self.slots.get(id.index())?.as_ref()
    }

    fn get_mut(&mut self, id: FileId) -> Option<&mut Entry> {
        self.slots.get_mut(id.index())?.as_mut()
    }
}

impl Residents for Arena {
    fn view(&self, file: u32) -> Option<FileView> {
        let id = FileId::new(file);
        self.get(id).map(|e| view(id, e))
    }
}

impl<'p> DiskCache<'p> {
    /// Creates an empty cache under the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are not `0 < low <= high <= 1`.
    pub fn new(config: CacheConfig, policy: &'p dyn MigrationPolicy) -> Self {
        Self::with_eviction_mode(config, policy, EvictionMode::Auto)
    }

    /// Creates an empty cache with an explicit victim-ranking mode; see
    /// [`EvictionMode`]. [`DiskCache::new`] is `Auto`.
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are not `0 < low <= high <= 1`.
    pub fn with_eviction_mode(
        config: CacheConfig,
        policy: &'p dyn MigrationPolicy,
        mode: EvictionMode,
    ) -> Self {
        DiskCache {
            marks: config.watermarks(),
            config,
            policy,
            arena: Arena { slots: Vec::new() },
            usage: 0,
            stats: CacheStats::default(),
            rank: Ranking::new(policy, mode),
            max_now: i64::MIN,
            est_miss_wait_s: 0.0,
            fetch_retries: 0,
        }
    }

    /// Pre-sizes the entry arena for a trace known to reference `files`
    /// distinct files (e.g. [`crate::eval::PreparedTrace::file_count`]),
    /// avoiding growth reallocations during replay. Purely an
    /// optimization — the arena grows on demand either way.
    pub fn reserve_files(&mut self, files: usize) {
        if files > self.arena.slots.len() {
            self.arena.slots.resize(files, None);
        }
    }

    /// Sets the miss-latency hint: the estimated tape-recall wait
    /// (seconds) a miss on the file being referenced *next* would pay.
    /// Every subsequent touch (read hit, write, insert) stamps the
    /// current hint onto the touched entry, where it surfaces to the
    /// policy as [`FileView::est_miss_wait_s`].
    ///
    /// Callers own the estimate because they know the file's tier: the
    /// closed-loop hierarchy engine publishes a live per-(tier,
    /// size-class) EWMA of measured recall waits
    /// ([`crate::feedback::LatencyFeedback`]) before each reference,
    /// while open-loop replay sets the flat
    /// [`crate::eval::EvalConfig::wait_s_per_miss`] fallback once. The
    /// default is `0.0` — zero feedback, under which latency-aware
    /// policies ([`MigrationPolicy::latency_aware`]) rank exactly like
    /// their latency-blind counterparts.
    pub fn set_est_miss_wait_s(&mut self, est: f64) {
        self.est_miss_wait_s = est;
    }

    /// The current miss-latency hint; see
    /// [`DiskCache::set_est_miss_wait_s`].
    pub fn est_miss_wait_s(&self) -> f64 {
        self.est_miss_wait_s
    }

    /// The victim-ranking regime in force: [`RankingRegime::Unprobed`]
    /// until the first purge, then the scan if the policy has a form,
    /// or the rescan if it has none or once it degrades.
    pub fn ranking_regime(&self) -> RankingRegime {
        self.rank.regime()
    }

    /// Current bytes resident.
    pub fn usage(&self) -> u64 {
        self.usage
    }

    /// Files resident.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// True if the file is resident.
    pub fn contains(&self, id: impl Into<FileId>) -> bool {
        self.arena.get(id.into()).is_some()
    }

    /// Processes a read reference; returns `true` on a hit.
    ///
    /// `next_use` is the oracle's answer for Belady-style policies (the
    /// next time this same file will be referenced, if ever).
    ///
    /// This is the open-loop entry point: a miss's fetch completes
    /// instantly, so the cache never holds outstanding-fetch state and
    /// delayed hits cannot occur.
    pub fn read(
        &mut self,
        id: impl Into<FileId>,
        size: u64,
        now: i64,
        next_use: Option<i64>,
    ) -> bool {
        let id = id.into();
        let result = self.read_with(id, size, now, next_use, &mut |_| {});
        if result == ReadResult::Miss {
            self.fetch_complete(id);
        }
        result.is_resident()
    }

    /// Processes a read reference, reporting side effects to `ops`.
    ///
    /// On a miss the file is inserted with an outstanding fetch (see
    /// [`DiskCache::fetch_complete`]) and a [`CacheOp::Fetch`] is
    /// emitted; purges triggered by the insert report their victims.
    /// Makes exactly the hit/miss/eviction decisions [`DiskCache::read`]
    /// would.
    pub fn read_with(
        &mut self,
        id: impl Into<FileId>,
        size: u64,
        now: i64,
        next_use: Option<i64>,
        ops: &mut impl FnMut(CacheOp),
    ) -> ReadResult {
        let id = id.into();
        self.note_time(now);
        let est = self.est_miss_wait_s;
        if let Some(e) = self.arena.get_mut(id) {
            e.last_ref = now;
            e.ref_count += 1;
            e.next_use = next_use;
            e.est_miss_wait_s = est;
            self.stats.read_hits += 1;
            self.stats.read_hit_bytes += e.size;
            let fetching = e.fetching;
            self.rank.touched(id.raw());
            return if fetching {
                ReadResult::DelayedHit
            } else {
                ReadResult::Hit
            };
        }
        self.stats.read_misses += 1;
        self.stats.read_miss_bytes += size;
        ops(CacheOp::Fetch { id, bytes: size });
        // Fetch from tape into the cache (clean copy, recall in flight).
        self.insert(id, size, now, false, true, next_use, ops);
        ReadResult::Miss
    }

    /// Processes a write reference; the file lands in the cache dirty.
    ///
    /// Open-loop counterpart of [`DiskCache::write_with`].
    pub fn write(&mut self, id: impl Into<FileId>, size: u64, now: i64, next_use: Option<i64>) {
        self.write_with(id, size, now, next_use, &mut |_| {});
    }

    /// Processes a write reference, reporting side effects to `ops`:
    /// eager write-behind emits [`CacheOp::Writeback`], and any purge
    /// the write triggers reports its victims.
    pub fn write_with(
        &mut self,
        id: impl Into<FileId>,
        size: u64,
        now: i64,
        next_use: Option<i64>,
        ops: &mut impl FnMut(CacheOp),
    ) {
        let id = id.into();
        self.note_time(now);
        self.stats.writes += 1;
        if self.config.eager_writeback {
            self.stats.writeback_bytes += size;
            ops(CacheOp::Writeback { id, bytes: size });
        }
        let est = self.est_miss_wait_s;
        if let Some(e) = self.arena.get_mut(id) {
            let old_size = e.size;
            e.size = size;
            e.last_ref = now;
            e.ref_count += 1;
            e.next_use = next_use;
            e.est_miss_wait_s = est;
            e.dirty = !self.config.eager_writeback;
            self.usage = self.usage - old_size + size;
            self.rank.touched(id.raw());
            self.maybe_purge(now, ops);
            return;
        }
        let dirty = !self.config.eager_writeback;
        self.insert(id, size, now, dirty, false, next_use, ops);
    }

    /// Marks `id`'s outstanding tape recall as delivered: subsequent
    /// reads are plain hits again. Returns `true` if a fetch was
    /// actually outstanding; no-op (false) when the file is not resident
    /// — it may have been evicted while the recall was in flight, or
    /// bypassed the cache entirely.
    pub fn fetch_complete(&mut self, id: impl Into<FileId>) -> bool {
        match self.arena.get_mut(id.into()) {
            Some(e) => {
                let was = e.fetching;
                e.fetching = false;
                was
            }
            None => false,
        }
    }

    /// Marks `id`'s tape recall attempt as **failed**: the entry's
    /// outstanding-fetch state is re-armed so reads keep coalescing as
    /// [`ReadResult::DelayedHit`] until a retry finally delivers
    /// ([`DiskCache::fetch_complete`]). Residency, usage, and every
    /// [`CacheStats`] counter are untouched — the space reserved at the
    /// original miss stays reserved across retries, so a fault-injected
    /// replay makes exactly the hit/miss/eviction decisions a
    /// fault-free one does. The failure *is* observable, though: it
    /// bumps the separate [`DiskCache::fetch_retries`] counter, which
    /// lives outside `CacheStats` precisely so degraded and healthy
    /// runs keep byte-identical decision counters while the retry toll
    /// still surfaces (in the sweep's degraded cells and the live
    /// service's degraded accounting).
    ///
    /// Returns `true` if the file is resident (fetch re-armed); `false`
    /// when it was evicted mid-recall or bypassed the cache, where a
    /// retry's delivery will be a no-op too.
    pub fn fetch_failed(&mut self, id: impl Into<FileId>) -> bool {
        self.fetch_retries += 1;
        match self.arena.get_mut(id.into()) {
            Some(e) => {
                e.fetching = true;
                true
            }
            None => false,
        }
    }

    /// Failed recall attempts reported via [`DiskCache::fetch_failed`]
    /// — one per media read error, whether or not the entry was still
    /// resident. Deliberately **not** part of [`CacheStats`]: the
    /// faults-move-time-never-decisions invariant pins degraded and
    /// healthy `CacheStats` equal, and this counter is exactly the part
    /// of a degraded run that must still be visible. The closed-loop
    /// engine's `DegradedOutcome::read_retries` and this counter agree
    /// by construction; the live daemon (`fmig-serve`) reports it next
    /// to the same counter simulated runs fill.
    pub fn fetch_retries(&self) -> u64 {
        self.fetch_retries
    }

    #[expect(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        id: FileId,
        size: u64,
        now: i64,
        dirty: bool,
        fetching: bool,
        next_use: Option<i64>,
        ops: &mut impl FnMut(CacheOp),
    ) {
        if size > self.config.capacity {
            // Larger than the whole cache: bypass (tape-direct).
            return;
        }
        let entry = Entry {
            size,
            last_ref: now,
            created: now,
            ref_count: 1,
            dirty,
            fetching,
            next_use,
            est_miss_wait_s: self.est_miss_wait_s,
        };
        if id.index() >= self.arena.slots.len() {
            self.arena.slots.resize(id.index() + 1, None);
        }
        debug_assert!(
            self.arena.slots[id.index()].is_none(),
            "insert over a resident"
        );
        self.arena.slots[id.index()] = Some(entry);
        self.usage += size;
        self.rank.touched(id.raw());
        self.maybe_purge(now, ops);
    }

    /// Tracks clock monotonicity. The affine and power-age forms the
    /// scan relies on are only guaranteed for non-decreasing
    /// reference times (see [`MigrationPolicy::affine`] and
    /// [`MigrationPolicy::power_age_form`]); a step backwards permanently
    /// degrades this cache to the exact rescan, which is always correct.
    fn note_time(&mut self, now: i64) {
        if now < self.max_now {
            self.rank.degrade();
        } else {
            self.max_now = now;
        }
    }

    fn maybe_purge(&mut self, now: i64, ops: &mut impl FnMut(CacheOp)) {
        let (high, low) = self.marks;
        if self.usage <= high {
            return;
        }
        self.rank.begin_purge(&self.arena, now);
        while self.usage > low {
            let Some(victim) = self.rank.next_victim(&self.arena, now) else {
                break;
            };
            self.evict(FileId::new(victim), high, ops);
        }
    }

    /// Removes a victim the ranking named and books the eviction.
    fn evict(&mut self, id: FileId, high: u64, ops: &mut impl FnMut(CacheOp)) {
        self.rank.evicted(id.raw());
        // Victims chosen while still above the high watermark free
        // space the triggering reference needs *now*: a dirty flush
        // there is a stall. Once back under the high mark the rest
        // of the purge (down to the low mark) is background cleanup.
        let stall = self.usage > high;
        let e = self.arena.slots[id.index()]
            .take()
            .expect("victim is resident");
        self.usage -= e.size;
        self.stats.evictions += 1;
        self.stats.evicted_bytes += e.size;
        if e.dirty {
            self.stats.writeback_bytes += e.size;
            if stall {
                self.stats.stall_bytes += e.size;
                ops(CacheOp::StallFlush { id, bytes: e.size });
            } else {
                self.stats.purge_flush_bytes += e.size;
                ops(CacheOp::PurgeFlush { id, bytes: e.size });
            }
        } else {
            ops(CacheOp::Drop { id, bytes: e.size });
        }
    }
}

impl core::fmt::Debug for DiskCache<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DiskCache")
            .field("policy", &self.policy.name())
            .field("usage", &self.usage)
            .field("files", &self.len())
            .field("ranking", &self.ranking_regime())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Lru, PowerAgeForm, Saac, SmallestFirst, Stp};
    use RankingRegime::{Rescan, Scan, Unprobed};

    fn cfg(capacity: u64) -> CacheConfig {
        CacheConfig {
            capacity,
            high_watermark: 0.9,
            low_watermark: 0.5,
            eager_writeback: true,
        }
    }

    #[test]
    fn hits_and_misses() {
        let lru = Lru;
        let mut c = DiskCache::new(cfg(1000), &lru);
        assert!(!c.read(1, 100, 0, None)); // cold miss
        assert!(c.read(1, 100, 10, None)); // hit
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 1);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.usage(), 100);
        assert!(c.contains(1));
    }

    #[test]
    fn purge_respects_watermarks() {
        let lru = Lru;
        let mut c = DiskCache::new(cfg(1000), &lru);
        for i in 0..10 {
            c.write(i, 100, i as i64, None);
        }
        // Usage crossed 900 (the high watermark); purge to <= 500.
        assert!(c.usage() <= 500, "usage {}", c.usage());
        assert!(c.stats().evictions >= 5);
    }

    #[test]
    fn lru_evicts_oldest() {
        let lru = Lru;
        let mut c = DiskCache::new(cfg(1000), &lru);
        for i in 0..8 {
            c.write(i, 100, i as i64, None);
        }
        // Touch file 0 so it is the most recent.
        assert!(c.read(0, 100, 100, None));
        c.write(99, 200, 101, None); // triggers purge
        assert!(c.contains(0), "recently-touched file evicted");
        assert!(!c.contains(1), "oldest file survived");
    }

    #[test]
    fn smallest_first_keeps_large_files() {
        let p = SmallestFirst;
        let mut c = DiskCache::new(cfg(1000), &p);
        c.write(1, 500, 0, None);
        for i in 2..=5 {
            c.write(i, 100, i as i64, None);
        }
        assert!(c.contains(1), "large file should survive smallest-first");
    }

    #[test]
    fn oversized_files_bypass_the_cache() {
        let lru = Lru;
        let mut c = DiskCache::new(cfg(1000), &lru);
        assert!(!c.read(7, 5000, 0, None));
        assert!(!c.contains(7));
        assert_eq!(c.usage(), 0);
        // A retry is still a miss — the file never becomes resident.
        assert!(!c.read(7, 5000, 1, None));
        assert_eq!(c.stats().read_misses, 2);
    }

    #[test]
    fn lazy_writeback_pays_at_eviction() {
        let lru = Lru;
        let lazy = CacheConfig {
            eager_writeback: false,
            ..cfg(1000)
        };
        let mut c = DiskCache::new(lazy, &lru);
        for i in 0..10 {
            c.write(i, 100, i as i64, None);
        }
        assert!(c.stats().stall_bytes > 0, "dirty evictions must stall");
        // Eager mode never stalls.
        let mut e = DiskCache::new(cfg(1000), &lru);
        for i in 0..10 {
            e.write(i, 100, i as i64, None);
        }
        assert_eq!(e.stats().stall_bytes, 0);
        assert!(e.stats().writeback_bytes >= 1000);
    }

    #[test]
    fn person_minutes_translation() {
        let s = CacheStats {
            read_misses: 100,
            read_hits: 9_900,
            ..CacheStats::default()
        };
        // 100 misses at 60 s over 10 days = 10 person-minutes/day.
        assert!((s.person_minutes_per_day(60.0, 10.0) - 10.0).abs() < 1e-9);
        assert_eq!(s.person_minutes_per_day(60.0, 0.0), 0.0);
    }

    #[test]
    fn stp_beats_smallest_first_on_a_skewed_workload() {
        // A workload with a hot small working set and cold large files:
        // STP should produce fewer misses than smallest-first (which
        // throws away exactly the hot small files).
        let run = |policy: &dyn MigrationPolicy| {
            let mut c = DiskCache::new(cfg(10_000), policy);
            let mut t = 0;
            for round in 0..50 {
                for hot in 0..5 {
                    t += 10;
                    c.read(hot, 500, t, None);
                }
                // A cold large file streams through each round.
                t += 10;
                c.read(1000 + round, 4000, t, None);
            }
            c.stats().miss_ratio()
        };
        let stp = run(&Stp::classic());
        let sf = run(&SmallestFirst);
        assert!(stp < sf, "STP {stp} should beat smallest-first {sf}");
    }

    #[test]
    fn tied_priorities_evict_deterministically() {
        // All files written at the same instant: LRU priorities all tie,
        // so eviction must fall back to the id order, not storage order.
        let run = || {
            let lru = Lru;
            let mut c = DiskCache::new(cfg(1000), &lru);
            for i in 0..10 {
                c.write(i, 100, 42, None);
            }
            let mut survivors: Vec<u32> = (0..10).filter(|&i| c.contains(i)).collect();
            survivors.sort_unstable();
            survivors
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty());
    }

    #[test]
    fn stall_and_purge_flush_bytes_are_pinned_on_a_hand_built_trace() {
        // Ten 100-byte dirty files in a 1000-byte cache (high 900, low
        // 500). The tenth write pushes usage to 1000: evicting file 0
        // happens above the high watermark (stall), files 1..=4 are the
        // background leg of the purge down to 500.
        let lru = Lru;
        let lazy = CacheConfig {
            eager_writeback: false,
            ..cfg(1000)
        };
        let mut c = DiskCache::new(lazy, &lru);
        let mut ops = Vec::new();
        for i in 0..10 {
            c.write_with(i, 100, i as i64, None, &mut |op| ops.push(op));
        }
        assert_eq!(c.stats().stall_bytes, 100);
        assert_eq!(c.stats().purge_flush_bytes, 400);
        assert_eq!(c.stats().writeback_bytes, 500);
        assert_eq!(c.stats().evictions, 5);
        let stalls: Vec<_> = ops
            .iter()
            .filter(|o| matches!(o, CacheOp::StallFlush { .. }))
            .collect();
        let purges: Vec<_> = ops
            .iter()
            .filter(|o| matches!(o, CacheOp::PurgeFlush { .. }))
            .collect();
        assert_eq!(
            stalls,
            [&CacheOp::StallFlush {
                id: FileId::new(0),
                bytes: 100
            }]
        );
        assert_eq!(purges.len(), 4);
        // Eager mode: same trace, everything goes out as writebacks and
        // both eviction-flush counters stay zero.
        let mut e = DiskCache::new(cfg(1000), &lru);
        let mut eops = Vec::new();
        for i in 0..10 {
            e.write_with(i, 100, i as i64, None, &mut |op| eops.push(op));
        }
        assert_eq!(e.stats().stall_bytes, 0);
        assert_eq!(e.stats().purge_flush_bytes, 0);
        assert_eq!(
            eops.iter()
                .filter(|o| matches!(o, CacheOp::Writeback { .. }))
                .count(),
            10
        );
        assert!(eops.iter().any(|o| matches!(o, CacheOp::Drop { .. })));
    }

    #[test]
    fn outstanding_fetches_classify_as_delayed_hits() {
        let lru = Lru;
        let mut c = DiskCache::new(cfg(1000), &lru);
        let mut fetches = Vec::new();
        let r = c.read_with(1, 100, 0, None, &mut |op| fetches.push(op));
        assert_eq!(r, ReadResult::Miss);
        assert_eq!(
            fetches,
            [CacheOp::Fetch {
                id: FileId::new(1),
                bytes: 100
            }]
        );
        // While the recall is in flight, further reads coalesce.
        let r = c.read_with(1, 100, 5, None, &mut |_| {});
        assert_eq!(r, ReadResult::DelayedHit);
        assert!(r.is_resident());
        // Delivery turns them back into plain hits.
        assert!(c.fetch_complete(1));
        assert!(!c.fetch_complete(1), "second completion is a no-op");
        let r = c.read_with(1, 100, 9, None, &mut |_| {});
        assert_eq!(r, ReadResult::Hit);
        // Both hit flavours count as hits: one miss, two hits.
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 2);
        // Unknown / bypassed files complete as no-ops.
        assert!(!c.fetch_complete(999));
    }

    #[test]
    fn fetch_failed_rearms_without_corrupting_residency() {
        let lru = Lru;
        let mut c = DiskCache::new(cfg(1000), &lru);
        assert_eq!(c.read_with(1, 100, 0, None, &mut |_| {}), ReadResult::Miss);
        let before = *c.stats();
        let usage = c.usage();
        // The first attempt fails: the reference keeps coalescing.
        assert!(c.fetch_failed(1));
        assert_eq!(
            c.read_with(1, 100, 2, None, &mut |_| {}),
            ReadResult::DelayedHit
        );
        // A retry fails again after a spurious completion: re-armed.
        assert!(c.fetch_complete(1));
        assert!(c.fetch_failed(1));
        assert_eq!(
            c.read_with(1, 100, 4, None, &mut |_| {}),
            ReadResult::DelayedHit
        );
        // The successful retry finally delivers.
        assert!(c.fetch_complete(1));
        assert_eq!(c.read_with(1, 100, 6, None, &mut |_| {}), ReadResult::Hit);
        // Failure never touched residency or the miss counters.
        assert_eq!(c.usage(), usage);
        assert_eq!(c.stats().read_misses, before.read_misses);
        assert_eq!(c.stats().read_miss_bytes, before.read_miss_bytes);
        assert_eq!(c.stats().evictions, before.evictions);
        // Evicted or bypassed files fail as no-ops, like completion.
        assert!(!c.fetch_failed(999));
    }

    #[test]
    fn open_loop_read_never_leaves_fetches_outstanding() {
        let lru = Lru;
        let mut c = DiskCache::new(cfg(1000), &lru);
        assert!(!c.read(1, 100, 0, None));
        // If read() left the fetch outstanding this would be DelayedHit.
        assert_eq!(c.read_with(1, 100, 5, None, &mut |_| {}), ReadResult::Hit);
    }

    #[test]
    fn event_api_matches_open_loop_decisions() {
        // The same interleaved reference sequence through both APIs must
        // produce identical counters (the closed loop's correctness
        // anchor).
        let lru = Lru;
        let seq: Vec<(bool, u32, u64)> = (0..60u32)
            .map(|i| ((i % 3) == 0, i % 7, 100 + u64::from(i % 5) * 60))
            .collect();
        let mut open = DiskCache::new(cfg(1000), &lru);
        let mut event = DiskCache::new(cfg(1000), &lru);
        for (t, &(write, id, size)) in seq.iter().enumerate() {
            let now = t as i64;
            if write {
                open.write(id, size, now, None);
                event.write_with(id, size, now, None, &mut |_| {});
            } else {
                open.read(id, size, now, None);
                let r = event.read_with(id, size, now, None, &mut |_| {});
                if r == ReadResult::Miss {
                    event.fetch_complete(id);
                }
            }
        }
        assert_eq!(open.stats(), event.stats());
    }

    /// Replays one op sequence through an `Auto` and a rescan cache and
    /// asserts identical side-effect streams, counters, and survivors.
    fn assert_modes_agree(policy: &dyn MigrationPolicy, seq: &[(bool, u32, u64, i64)]) {
        let mut auto = DiskCache::new(cfg(1000), policy);
        let mut rescan = DiskCache::with_eviction_mode(cfg(1000), policy, EvictionMode::Rescan);
        let mut auto_ops = Vec::new();
        let mut rescan_ops = Vec::new();
        for &(write, id, size, now) in seq {
            if write {
                auto.write_with(id, size, now, None, &mut |op| auto_ops.push(op));
                rescan.write_with(id, size, now, None, &mut |op| rescan_ops.push(op));
            } else {
                auto.read_with(id, size, now, None, &mut |op| auto_ops.push(op));
                rescan.read_with(id, size, now, None, &mut |op| rescan_ops.push(op));
            }
        }
        assert_eq!(auto_ops, rescan_ops, "victim sequences diverged");
        assert_eq!(auto.stats(), rescan.stats());
        let mut survivors: Vec<u32> = (0..200).filter(|&i| auto.contains(i)).collect();
        let rescan_survivors: Vec<u32> = (0..200).filter(|&i| rescan.contains(i)).collect();
        survivors.sort_unstable();
        assert_eq!(survivors, rescan_survivors);
    }

    fn churny_sequence() -> Vec<(bool, u32, u64, i64)> {
        (0..160u32)
            .map(|i| {
                let id = (i * 7 + i / 11) % 23;
                let size = 60 + u64::from(i % 9) * 45;
                ((i % 3) == 0, id, size, i64::from(i * 5))
            })
            .collect()
    }

    #[test]
    fn the_first_purge_probes_and_lru_ranks_through_the_scan() {
        let lru = Lru;
        assert_modes_agree(&lru, &churny_sequence());
        let mut c = DiskCache::new(cfg(1000), &lru);
        assert_eq!(c.ranking_regime(), Unprobed, "probed at the first purge");
        for i in 0..10 {
            c.write(i, 100, i as i64, None);
        }
        assert_eq!(c.ranking_regime(), Scan, "LRU ranks on intercept keys");
    }

    /// A purge builds the regime the policy's forms call for, and the
    /// victims equal the rescan's.
    fn engages(policy: &dyn MigrationPolicy, regime: RankingRegime) {
        assert_modes_agree(policy, &churny_sequence());
        let mut c = DiskCache::new(cfg(1000), policy);
        for i in 0..10 {
            c.write(i, 100, i as i64, None);
        }
        assert!(c.stats().evictions > 0);
        assert_eq!(c.ranking_regime(), regime, "{}", policy.name());
    }

    #[test]
    fn power_age_policies_rank_through_the_scan() {
        engages(&Stp::classic(), Scan);
        engages(&Saac, Scan);
    }

    #[test]
    fn power_age_policies_match_the_rescan_oracle() {
        // Crossing-heavy churn with day-scale gaps: a jump every 13 ops
        // lets small old files overtake large fresh ones mid-run. The
        // offset is non-decreasing in `i`, so the clock stays monotone.
        let mut seq = churny_sequence();
        for (i, op) in seq.iter_mut().enumerate() {
            op.3 += 86_400 * (i as i64 / 13);
        }
        assert_modes_agree(&Stp::classic(), &seq);
        assert_modes_agree(&Stp { exponent: 1.0 }, &seq);
        assert_modes_agree(&Stp { exponent: 2.0 }, &seq);
        assert_modes_agree(&Saac, &seq);
    }

    /// Purge → re-create cycles (arena slot reuse) keep the regime and
    /// the rescan's victims.
    fn survives_eviction_and_reinsertion(policy: &dyn MigrationPolicy, regime: RankingRegime) {
        let seq: Vec<(bool, u32, u64, i64)> = (0..240u32)
            .map(|i| {
                let id = (i * 11 + i / 7) % 9; // small universe: heavy reuse
                let size = 150 + u64::from(i % 5) * 80;
                ((i % 2) == 0, id, size, i64::from(i * 37))
            })
            .collect();
        assert_modes_agree(policy, &seq);
        let mut c = DiskCache::new(cfg(1000), policy);
        for &(write, id, size, now) in &seq {
            if write {
                c.write(id, size, now, None);
            } else {
                c.read(id, size, now, None);
            }
        }
        assert_eq!(c.ranking_regime(), regime, "index survives churn");
    }

    #[test]
    fn power_scan_survives_eviction_and_reinsertion() {
        survives_eviction_and_reinsertion(&Stp::classic(), Scan);
        survives_eviction_and_reinsertion(&Saac, Scan);
    }

    #[test]
    fn create_after_purge_reuses_the_slot_cleanly() {
        // File 0 leaves in the first purge and is re-created, larger
        // and later, before the next one: its arena slot holds a fresh
        // entry, and the scan ranks it from a fresh row.
        let stp = Stp::classic();
        for eager_writeback in [true, false] {
            let config = CacheConfig {
                eager_writeback,
                ..cfg(1000)
            };
            let mut next_purge = Vec::new();
            for mode in [EvictionMode::Auto, EvictionMode::Rescan] {
                let mut c = DiskCache::with_eviction_mode(config, &stp, mode);
                for i in 0..10u32 {
                    c.write(i, 100, i64::from(i), None);
                }
                assert!(!c.contains(0u32), "the first purge took file 0");
                c.write(0u32, 150, 50, None);
                let e = c.arena.get(FileId::new(0)).expect("re-created");
                let fresh = (e.size, e.created, e.last_ref, e.ref_count, e.dirty);
                assert_eq!(fresh, (150, 50, 50, 1, !eager_writeback));
                c.read(0u32, 150, 52, None); // marked again before the purge
                let mut ops = Vec::new();
                for i in 20..26u32 {
                    c.write_with(i, 100, 50 + i64::from(i), None, &mut |op| ops.push(op));
                }
                assert!(c.stats().evictions > 5, "no second purge");
                if mode == EvictionMode::Auto {
                    assert_eq!(c.ranking_regime(), Scan);
                }
                next_purge.push(ops);
            }
            assert_eq!(next_purge[0], next_purge[1], "eager {eager_writeback}");
        }
    }

    /// A power-age policy that stops shipping its form for a file on
    /// its third reference — a refusal only a *touched* file can hit.
    struct Withdrawing<P>(P);

    impl<P: MigrationPolicy> MigrationPolicy for Withdrawing<P> {
        fn name(&self) -> String {
            "withdrawing".into()
        }
        fn priority(&self, file: &FileView, now: i64) -> f64 {
            self.0.priority(file, now)
        }
        fn power_age_form(&self, file: &FileView) -> Option<PowerAgeForm> {
            if file.ref_count < 3 {
                self.0.power_age_form(file)
            } else {
                None
            }
        }
    }

    fn withdrawn_form_degrades_at_the_next_purge(p: &dyn MigrationPolicy, regime: RankingRegime) {
        let mut c = DiskCache::new(cfg(1000), p);
        for i in 0..10 {
            c.write(i, 100, i as i64, None);
        }
        assert_eq!(c.ranking_regime(), regime);
        assert!(c.contains(9));
        // The touches that withdraw the form only mark the file ...
        c.read(9, 100, 20, None);
        c.read(9, 100, 21, None);
        assert_eq!(c.ranking_regime(), regime, "a touch evaluates nothing");
        // ... and the refusal surfaces when the next purge settles it.
        let evictions = c.stats().evictions;
        for i in 10..20 {
            c.write(i, 100, 30 + i as i64, None);
        }
        assert!(c.stats().evictions > evictions);
        assert_eq!(c.ranking_regime(), Rescan, "degraded to the rescan");
        // Same victims, counters and survivors as the rescan throughout
        // (the churn references most files three times and more).
        assert_modes_agree(p, &churny_sequence());
    }

    #[test]
    fn a_form_withdrawn_on_a_touched_file_degrades_the_scan_at_the_next_purge() {
        withdrawn_form_degrades_at_the_next_purge(&Withdrawing(Stp::classic()), Scan);
        withdrawn_form_degrades_at_the_next_purge(&Withdrawing(Saac), Scan);
    }

    /// A step backwards drops a power-age index for good; a replay with
    /// such a step still equals the rescan.
    fn backwards_clock_degrades(policy: &dyn MigrationPolicy, regime: RankingRegime) {
        let mut c = DiskCache::new(cfg(1000), policy);
        for i in 0..10 {
            c.write(i, 100, 100 + i as i64, None);
        }
        assert_eq!(c.ranking_regime(), regime);
        // The power-age contract assumes a monotone clock.
        c.write(50, 100, 5, None);
        assert_eq!(c.ranking_regime(), Rescan);
        for i in 60..70 {
            c.write(i, 100, 200 + i as i64, None);
        }
        assert_eq!(c.ranking_regime(), Rescan, "degradation is terminal");
        let mut seq = churny_sequence();
        seq[80].3 = 0;
        assert_modes_agree(policy, &seq);
    }

    #[test]
    fn backwards_clock_degrades_the_power_scan() {
        backwards_clock_degrades(&Stp::classic(), Scan);
        backwards_clock_degrades(&Saac, Scan);
    }

    #[test]
    fn backwards_clock_degrades_to_rescan() {
        let lru = Lru;
        let mut c = DiskCache::new(cfg(1000), &lru);
        for i in 0..10 {
            c.write(i, 100, 100 + i as i64, None);
        }
        assert_eq!(c.ranking_regime(), Scan);
        // Time steps backwards: the affine contract is void, so the
        // cache must drop the index for good...
        c.write(50, 100, 5, None);
        assert_eq!(c.ranking_regime(), Rescan);
        for i in 60..70 {
            c.write(i, 100, 200 + i as i64, None);
        }
        assert_eq!(c.ranking_regime(), Rescan, "degradation is terminal");
        // ...and a full replay with such a step still matches the rescan
        // oracle, because both run the same fallback.
        let mut seq = churny_sequence();
        seq[80].3 = 0;
        assert_modes_agree(&lru, &seq);
    }

    #[test]
    fn nan_priorities_no_longer_panic_the_purge() {
        // Signed NaNs and infinities, signed zeros, negative finite
        // values and exact ties (3.0 twice, −2.0 twice), by file id.
        const PRIORITY: [f64; 12] = [
            3.0,
            -0.0,
            f64::NAN,
            -2.0,
            f64::NEG_INFINITY,
            3.0,
            -f64::NAN,
            0.0,
            -2.0,
            f64::INFINITY,
            -1.5,
            -7.25,
        ];
        struct Table;
        impl MigrationPolicy for Table {
            fn name(&self) -> String {
                "table".into()
            }
            fn priority(&self, file: &FileView, _now: i64) -> f64 {
                PRIORITY[file.id.index()]
            }
        }
        // The rescan's order: `total_cmp` descending (so +NaN above +∞
        // and −NaN below −∞), ties by ascending id.
        let mut want: Vec<u32> = (0..PRIORITY.len() as u32).collect();
        want.sort_by(|&a, &b| {
            PRIORITY[b as usize]
                .total_cmp(&PRIORITY[a as usize])
                .then(a.cmp(&b))
        });
        // 12 × 80 bytes crosses the high mark at the last write; the
        // one-byte low mark makes that purge evict every file.
        let config = CacheConfig {
            low_watermark: 0.001,
            ..cfg(1000)
        };
        for mode in [EvictionMode::Auto, EvictionMode::Rescan] {
            let mut c = DiskCache::with_eviction_mode(config, &Table, mode);
            let mut victims = Vec::new();
            for i in 0..PRIORITY.len() as u32 {
                c.write_with(i, 80, i64::from(i), None, &mut |op| match op {
                    CacheOp::Drop { id, .. }
                    | CacheOp::StallFlush { id, .. }
                    | CacheOp::PurgeFlush { id, .. } => victims.push(id.raw()),
                    _ => {}
                });
            }
            assert_eq!(victims, want, "{mode:?}");
            assert_eq!(c.usage(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "bad watermarks")]
    fn bad_watermarks_rejected() {
        let lru = Lru;
        let bad = CacheConfig {
            high_watermark: 0.5,
            low_watermark: 0.9,
            ..cfg(100)
        };
        let _ = DiskCache::new(bad, &lru);
    }
}
