//! The frozen *hashed-identity* cache baseline.
//!
//! This module is a deliberate copy of the disk-cache implementation as
//! it stood **before** the dense-identity redesign: per-file state lives
//! in a `HashMap<u64, Entry>`, every reference pays a hash + probe, and
//! the rescan purge path allocates a fresh ranking `Vec` per purge. The
//! live implementation ([`crate::cache::DiskCache`]) replaced all of
//! that with [`fmig_trace::FileId`]-indexed arenas; this copy is kept
//! as the **equivalence oracle**. Identity assignment here is the same
//! first-appearance interning order [`fmig_trace::FileTable`] uses, and
//! every tie-break keys on the raw id value, so the two implementations
//! must produce bit-identical hit/miss/eviction sequences on any trace.
//! `tests/dense_identity.rs` property-tests that equivalence across
//! every shipped policy.
//!
//! Because the two implementations share the public vocabulary types
//! ([`CacheConfig`], [`CacheStats`], [`CacheOp`], [`ReadResult`],
//! [`EvictionMode`]), op streams and stats compare directly. The only
//! concession to the new world is at the edges: emitted ops and policy
//! [`FileView`]s carry [`FileId`] (the values are identical — dense ids
//! *are* the old interned u64s, narrowed).
//!
//! Nothing else in the workspace should depend on this module; it is a
//! test reference, not an API.

use std::collections::HashMap;

use fmig_trace::{Direction, FileId, TraceRecord};

use crate::cache::{
    CacheConfig, CacheOp, CacheStats, EvictionMode, ReadResult, INDEX_MIN_RESIDENTS,
};
use crate::eval::EvalConfig;
use crate::policy::{FileView, MigrationPolicy};
use crate::rank::{Candidate, Popped, RankKey, VictimRank};

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    last_ref: i64,
    created: i64,
    ref_count: u32,
    dirty: bool,
    fetching: bool,
    next_use: Option<i64>,
    est_miss_wait_s: f64,
}

/// Incremental victim ranking for affine-priority policies — the
/// hashed twin of the live cache's index (see [`crate::cache`] for the
/// full contract discussion).
#[derive(Debug)]
struct EvictionIndex {
    slope_bits: u64,
    rank: VictimRank,
}

#[derive(Debug)]
enum IndexState {
    Unprobed,
    Active(EvictionIndex),
    Rescan,
}

/// The pre-redesign policy-driven disk cache: `HashMap<u64, Entry>`
/// keyed by interned id, hash + probe on every reference.
///
/// Decision-for-decision identical to [`crate::cache::DiskCache`]; see
/// the module docs for why it is kept.
pub struct HashedDiskCache<'p> {
    config: CacheConfig,
    policy: &'p dyn MigrationPolicy,
    entries: HashMap<u64, Entry>,
    usage: u64,
    stats: CacheStats,
    index: IndexState,
    eager_index: bool,
    skip_read_touch: bool,
    max_now: i64,
    est_miss_wait_s: f64,
}

/// Dense ids are the old interned u64s narrowed to u32, so widening the
/// hashed id back into a [`FileId`] for op emission and policy views is
/// value-preserving by construction.
fn fid(id: u64) -> FileId {
    FileId::from(id)
}

fn view(id: u64, e: &Entry) -> FileView {
    FileView {
        id: fid(id),
        size: e.size,
        last_ref: e.last_ref,
        created: e.created,
        ref_count: e.ref_count,
        next_use: e.next_use,
        est_miss_wait_s: e.est_miss_wait_s,
    }
}

impl<'p> HashedDiskCache<'p> {
    /// Creates an empty cache under the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are not `0 < low <= high <= 1`.
    pub fn new(config: CacheConfig, policy: &'p dyn MigrationPolicy) -> Self {
        Self::with_eviction_mode(config, policy, EvictionMode::Auto)
    }

    /// Creates an empty cache with an explicit victim-ranking mode; see
    /// [`EvictionMode`].
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are not `0 < low <= high <= 1`.
    pub fn with_eviction_mode(
        config: CacheConfig,
        policy: &'p dyn MigrationPolicy,
        mode: EvictionMode,
    ) -> Self {
        assert!(
            config.low_watermark > 0.0
                && config.low_watermark <= config.high_watermark
                && config.high_watermark <= 1.0,
            "bad watermarks {} / {}",
            config.low_watermark,
            config.high_watermark
        );
        HashedDiskCache {
            config,
            policy,
            entries: HashMap::new(),
            usage: 0,
            stats: CacheStats::default(),
            index: match mode {
                EvictionMode::Auto | EvictionMode::Indexed => IndexState::Unprobed,
                EvictionMode::Rescan => IndexState::Rescan,
            },
            eager_index: mode == EvictionMode::Indexed,
            skip_read_touch: policy.read_touch_monotone(),
            max_now: i64::MIN,
            est_miss_wait_s: 0.0,
        }
    }

    /// Sets the miss-latency hint stamped onto entries at every touch;
    /// see [`crate::cache::DiskCache::set_est_miss_wait_s`].
    pub fn set_est_miss_wait_s(&mut self, est: f64) {
        self.est_miss_wait_s = est;
    }

    /// True while the incremental eviction index is ranking victims.
    pub fn uses_eviction_index(&self) -> bool {
        matches!(self.index, IndexState::Active(_))
    }

    /// Current bytes resident.
    pub fn usage(&self) -> u64 {
        self.usage
    }

    /// Files resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// True if the file is resident.
    pub fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// Processes a read reference (open loop); returns `true` on a hit.
    pub fn read(&mut self, id: u64, size: u64, now: i64, next_use: Option<i64>) -> bool {
        let result = self.read_with(id, size, now, next_use, &mut |_| {});
        if result == ReadResult::Miss {
            self.fetch_complete(id);
        }
        result.is_resident()
    }

    /// Processes a read reference, reporting side effects to `ops`.
    pub fn read_with(
        &mut self,
        id: u64,
        size: u64,
        now: i64,
        next_use: Option<i64>,
        ops: &mut impl FnMut(CacheOp),
    ) -> ReadResult {
        self.note_time(now);
        let est = self.est_miss_wait_s;
        if let Some(e) = self.entries.get_mut(&id) {
            e.last_ref = now;
            e.ref_count += 1;
            e.next_use = next_use;
            e.est_miss_wait_s = est;
            self.stats.read_hits += 1;
            self.stats.read_hit_bytes += e.size;
            let snapshot = *e;
            if !self.skip_read_touch {
                self.index_upsert(id, snapshot);
            }
            return if snapshot.fetching {
                ReadResult::DelayedHit
            } else {
                ReadResult::Hit
            };
        }
        self.stats.read_misses += 1;
        self.stats.read_miss_bytes += size;
        ops(CacheOp::Fetch {
            id: fid(id),
            bytes: size,
        });
        self.insert(id, size, now, false, true, next_use, ops);
        ReadResult::Miss
    }

    /// Processes a write reference (open loop); the file lands dirty.
    pub fn write(&mut self, id: u64, size: u64, now: i64, next_use: Option<i64>) {
        self.write_with(id, size, now, next_use, &mut |_| {});
    }

    /// Processes a write reference, reporting side effects to `ops`.
    pub fn write_with(
        &mut self,
        id: u64,
        size: u64,
        now: i64,
        next_use: Option<i64>,
        ops: &mut impl FnMut(CacheOp),
    ) {
        self.note_time(now);
        self.stats.writes += 1;
        if self.config.eager_writeback {
            self.stats.writeback_bytes += size;
            ops(CacheOp::Writeback {
                id: fid(id),
                bytes: size,
            });
        }
        let est = self.est_miss_wait_s;
        if let Some(e) = self.entries.get_mut(&id) {
            self.usage = self.usage - e.size + size;
            e.size = size;
            e.last_ref = now;
            e.ref_count += 1;
            e.next_use = next_use;
            e.est_miss_wait_s = est;
            e.dirty = !self.config.eager_writeback;
            let snapshot = *e;
            self.index_upsert(id, snapshot);
            self.maybe_purge(now, ops);
            return;
        }
        let dirty = !self.config.eager_writeback;
        self.insert(id, size, now, dirty, false, next_use, ops);
    }

    /// Marks `id`'s outstanding tape recall as delivered; see
    /// [`crate::cache::DiskCache::fetch_complete`].
    pub fn fetch_complete(&mut self, id: u64) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                let was = e.fetching;
                e.fetching = false;
                was
            }
            None => false,
        }
    }

    /// Re-arms `id`'s outstanding-fetch state after a failed recall
    /// attempt; see [`crate::cache::DiskCache::fetch_failed`].
    pub fn fetch_failed(&mut self, id: u64) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.fetching = true;
                true
            }
            None => false,
        }
    }

    #[expect(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        id: u64,
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
        self.entries.insert(id, entry);
        self.usage += size;
        self.index_upsert(id, entry);
        self.maybe_purge(now, ops);
    }

    fn note_time(&mut self, now: i64) {
        if now < self.max_now {
            self.index = IndexState::Rescan;
        } else {
            self.max_now = now;
        }
    }

    fn index_upsert(&mut self, id: u64, e: Entry) {
        let IndexState::Active(idx) = &mut self.index else {
            return;
        };
        match self.policy.affine(&view(id, &e)) {
            Some(a) if a.slope.to_bits() == idx.slope_bits => {
                idx.rank.push(RankKey {
                    intercept: a.intercept,
                    id,
                });
                if idx.rank.len() > self.entries.len() * 2 + 64 {
                    self.index = self.build_index();
                }
            }
            _ => self.index = IndexState::Rescan,
        }
    }

    fn maybe_purge(&mut self, now: i64, ops: &mut impl FnMut(CacheOp)) {
        let high = (self.config.capacity as f64 * self.config.high_watermark) as u64;
        if self.usage <= high {
            return;
        }
        let low = (self.config.capacity as f64 * self.config.low_watermark) as u64;
        if matches!(self.index, IndexState::Unprobed)
            && (self.eager_index || self.entries.len() >= INDEX_MIN_RESIDENTS)
        {
            self.index = self.build_index();
        }
        if matches!(self.index, IndexState::Active(_)) {
            self.purge_indexed(now, high, low, ops);
        } else {
            self.purge_rescan(now, high, low, ops);
        }
    }

    fn build_index(&self) -> IndexState {
        let mut slope_bits = None;
        let mut keys = Vec::with_capacity(self.entries.len());
        for (&id, e) in &self.entries {
            match self.policy.affine(&view(id, e)) {
                Some(a) => {
                    if *slope_bits.get_or_insert(a.slope.to_bits()) != a.slope.to_bits() {
                        return IndexState::Rescan;
                    }
                    keys.push(RankKey {
                        intercept: a.intercept,
                        id,
                    });
                }
                None => return IndexState::Rescan,
            }
        }
        match slope_bits {
            Some(slope_bits) => IndexState::Active(EvictionIndex {
                slope_bits,
                rank: VictimRank::from_keys(keys),
            }),
            None => IndexState::Rescan,
        }
    }

    fn purge_indexed(&mut self, now: i64, high: u64, low: u64, ops: &mut impl FnMut(CacheOp)) {
        while self.usage > low {
            let IndexState::Active(idx) = &mut self.index else {
                unreachable!("purge_indexed runs only in Active state");
            };
            let slope_bits = idx.slope_bits;
            let entries = &self.entries;
            let policy = self.policy;
            let popped = idx.rank.pop_best(|key| match entries.get(&key.id) {
                None => Candidate::Gone,
                Some(e) => match policy.affine(&view(key.id, e)) {
                    Some(a)
                        if a.slope.to_bits() == slope_bits
                            && a.intercept.to_bits() == key.intercept.to_bits() =>
                    {
                        Candidate::Live
                    }
                    Some(a) if a.slope.to_bits() == slope_bits => Candidate::Moved(a.intercept),
                    _ => Candidate::Abort,
                },
            });
            match popped {
                Popped::Victim(key) => self.evict(key.id, high, ops),
                Popped::Dry | Popped::Aborted => {
                    self.index = IndexState::Rescan;
                    self.purge_rescan(now, high, low, ops);
                    return;
                }
            }
        }
    }

    /// The exact fallback, with the historical cost model intact: a
    /// fresh ranking `Vec` is allocated on **every** purge (the live
    /// cache reuses a scratch buffer — that delta is part of what the
    /// scaling gate measures).
    fn purge_rescan(&mut self, now: i64, high: u64, low: u64, ops: &mut impl FnMut(CacheOp)) {
        let mut ranked: Vec<(f64, u64)> = self
            .entries
            .iter()
            .map(|(&id, e)| (self.policy.priority(&view(id, e), now), id))
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, id) in ranked {
            if self.usage <= low {
                break;
            }
            self.evict(id, high, ops);
        }
    }

    fn evict(&mut self, id: u64, high: u64, ops: &mut impl FnMut(CacheOp)) {
        let stall = self.usage > high;
        let e = self.entries.remove(&id).expect("victim is resident");
        self.usage -= e.size;
        self.stats.evictions += 1;
        self.stats.evicted_bytes += e.size;
        if e.dirty {
            self.stats.writeback_bytes += e.size;
            if stall {
                self.stats.stall_bytes += e.size;
                ops(CacheOp::StallFlush {
                    id: fid(id),
                    bytes: e.size,
                });
            } else {
                self.stats.purge_flush_bytes += e.size;
                ops(CacheOp::PurgeFlush {
                    id: fid(id),
                    bytes: e.size,
                });
            }
        } else {
            ops(CacheOp::Drop {
                id: fid(id),
                bytes: e.size,
            });
        }
    }
}

impl core::fmt::Debug for HashedDiskCache<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HashedDiskCache")
            .field("policy", &self.policy.name())
            .field("usage", &self.usage)
            .field("files", &self.entries.len())
            .field("indexed", &self.uses_eviction_index())
            .finish()
    }
}

/// The pre-redesign string interner: a bare `HashMap<String, u64>`
/// handing out ids in first-appearance order — exactly the order
/// [`fmig_trace::FileTable`] assigns, which is what makes the two
/// implementations' id-keyed tie-breaks agree.
#[derive(Debug, Default)]
pub struct HashedInterner {
    index: HashMap<String, u64>,
}

impl HashedInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a path, assigning the next id on first sight.
    pub fn intern(&mut self, path: &str) -> u64 {
        let next = self.index.len() as u64;
        *self.index.entry(path.to_owned()).or_insert(next)
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// String-keyed oracle replay: intern each record's MSS path through a
/// [`HashedInterner`] *as it streams by* and replay open-loop through a
/// [`HashedDiskCache`], capturing the full [`CacheOp`] stream.
///
/// This is the historical end-to-end path, mirroring
/// [`crate::eval::TracePrep`]'s record handling with hashed plumbing
/// throughout: errored records are skipped, sizes clamp to at least one
/// byte, and Belady's `next_use` oracle comes from a reverse sweep over
/// a `HashMap` keyed by the interned u64 (where the dense path indexes
/// an arena). `tests/dense_identity.rs` holds its stats, victim
/// sequence, and op stream bit-identical to the dense-id replay.
pub fn replay_records(
    records: &[TraceRecord],
    policy: &dyn MigrationPolicy,
    config: &EvalConfig,
) -> (CacheStats, Vec<CacheOp>) {
    let mut interner = HashedInterner::new();
    let mut refs: Vec<(u64, u64, bool, i64, Option<i64>)> = Vec::new();
    for rec in records {
        if rec.error.is_some() {
            continue;
        }
        let id = interner.intern(rec.mss_path.as_str());
        refs.push((
            id,
            rec.file_size.max(1),
            rec.direction() == Direction::Write,
            rec.start.as_unix(),
            None,
        ));
    }
    let mut next_seen: HashMap<u64, i64> = HashMap::new();
    for r in refs.iter_mut().rev() {
        r.4 = next_seen.get(&r.0).copied();
        next_seen.insert(r.0, r.3);
    }
    let mut cache = HashedDiskCache::new(config.cache, policy);
    cache.set_est_miss_wait_s(config.wait_s_per_miss);
    let mut ops = Vec::new();
    for &(id, size, write, t, next_use) in &refs {
        if write {
            cache.write_with(id, size, t, next_use, &mut |op| ops.push(op));
        } else if cache.read_with(id, size, t, next_use, &mut |op| ops.push(op)) == ReadResult::Miss
        {
            cache.fetch_complete(id);
        }
    }
    (*cache.stats(), ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Lru;

    #[test]
    fn interner_matches_file_table_order() {
        let mut hashed = HashedInterner::new();
        let mut dense = fmig_trace::FileTable::new();
        for p in ["/a", "/b", "/a", "/c", "/b", "/d"] {
            assert_eq!(hashed.intern(p), u64::from(dense.intern(p)));
        }
        assert_eq!(hashed.len(), dense.len());
    }

    #[test]
    fn hashed_cache_matches_dense_cache_on_a_small_trace() {
        let config = CacheConfig::with_capacity(100);
        let lru = Lru;
        let mut hashed = HashedDiskCache::new(config, &lru);
        let mut dense = crate::cache::DiskCache::new(config, &lru);
        // Enough writes to force purges, then re-reads to count hits.
        for i in 0..50u64 {
            hashed.write(i % 7, 30, i as i64, None);
            dense.write(FileId::from(i % 7), 30, i as i64, None);
            hashed.read(i % 5, 30, i as i64, None);
            dense.read(FileId::from(i % 5), 30, i as i64, None);
        }
        assert_eq!(hashed.stats(), dense.stats());
        assert_eq!(hashed.usage(), dense.usage());
        assert_eq!(hashed.len(), dense.len());
    }
}
