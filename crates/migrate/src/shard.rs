//! A sharded, lock-per-shard front for [`DiskCache`]: the concurrent
//! cache core the live HSM daemon (`fmig-serve`) owns.
//!
//! The plain [`DiskCache`] is a `&mut self` structure — exactly right
//! for replay and simulation, where one engine owns it, and exactly
//! wrong for a daemon serving many connections. [`ShardedCache`] maps
//! each [`FileId`] to one of `N` independent [`parking_lot::Mutex`]ed
//! shards, so classification of files in different shards proceeds
//! concurrently while each shard keeps every `DiskCache` invariant
//! (watermark purges, eviction index, outstanding-fetch state) intact.
//!
//! # Identity mapping and the arena invariant
//!
//! Shard choice is `id.index() % N`; inside shard `s` the file is known
//! by the **dense local id** `id.index() / N`. This keeps each shard's
//! entry arena as dense as the global arena was — the strided global
//! ids of one residue class collapse onto consecutive local indices —
//! so the arena-backed replay state (permanent ids, recycled slots)
//! carries over per shard unchanged. Side-effect ops are translated
//! back to global ids before the caller sees them.
//!
//! # Exactness contract
//!
//! With `N = 1` the mapping is the identity and a `ShardedCache` is
//! **byte-identical** to a plain `DiskCache` fed the same sequence —
//! which is what lets the live service run at `shards = 1` and be
//! validated against the single-cache simulator oracle exactly. With
//! `N > 1` each shard purges against its own `capacity / N` slice, so
//! global eviction order (and therefore miss counts) may deviate from
//! the single-cache baseline; that trade is the standard one for
//! shard-level concurrency and is documented, not hidden. Policies run
//! unmodified behind the adapter either way — they see per-shard
//! [`FileView`]s and never notice the mapping.
//!
//! [`FileView`]: crate::policy::FileView

use fmig_trace::FileId;
use parking_lot::Mutex;

use crate::cache::{CacheConfig, CacheOp, CacheStats, DiskCache, ReadResult};
use crate::policy::MigrationPolicy;

/// A fixed-width array of [`DiskCache`] shards behind per-shard locks;
/// see the [module docs](self).
pub struct ShardedCache<'p> {
    shards: Vec<Mutex<DiskCache<'p>>>,
}

impl<'p> ShardedCache<'p> {
    /// Splits `config.capacity` evenly across `shards` caches, all
    /// ranked by the same (stateless, `Sync`) policy.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, or on the watermark conditions
    /// [`DiskCache::new`] panics on.
    pub fn new(config: CacheConfig, policy: &'p dyn MigrationPolicy, shards: usize) -> Self {
        assert!(shards > 0, "a sharded cache needs at least one shard");
        let per = config.capacity / shards as u64;
        let rem = config.capacity % shards as u64;
        let shards = (0..shards)
            .map(|s| {
                let cfg = CacheConfig {
                    // Spread the remainder over the first shards so the
                    // slices sum exactly to the configured capacity.
                    capacity: per + u64::from((s as u64) < rem),
                    ..config
                };
                Mutex::new(DiskCache::new(cfg, policy))
            })
            .collect();
        ShardedCache { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: FileId) -> usize {
        id.index() % self.shards.len()
    }

    fn local(&self, id: FileId) -> FileId {
        // A quotient of a u32 id: the narrowing cannot lose bits.
        FileId::new((id.index() / self.shards.len()) as u32)
    }

    /// Inverse of [`Self::local`]: rebuilds the (u32) global id.
    fn global(&self, local: FileId, shard: usize) -> FileId {
        FileId::new((local.index() * self.shards.len() + shard) as u32)
    }

    /// Classifies a read against the owning shard, publishing the
    /// caller's miss-wait estimate to that shard first (the sharded
    /// equivalent of [`DiskCache::set_est_miss_wait_s`] followed by
    /// [`DiskCache::read_with`]). Side-effect ops reach `ops` with
    /// **global** file ids.
    pub fn read_with(
        &self,
        id: impl Into<FileId>,
        size: u64,
        now: i64,
        next_use: Option<i64>,
        est_miss_wait_s: f64,
        ops: &mut impl FnMut(CacheOp),
    ) -> ReadResult {
        let id = id.into();
        let s = self.shard_of(id);
        let mut shard = self.shards[s].lock();
        shard.set_est_miss_wait_s(est_miss_wait_s);
        shard.read_with(self.local(id), size, now, next_use, &mut |op| {
            ops(self.globalize(op, s))
        })
    }

    /// Classifies a write against the owning shard; the sharded
    /// equivalent of [`DiskCache::write_with`]. Side-effect ops reach
    /// `ops` with **global** file ids.
    pub fn write_with(
        &self,
        id: impl Into<FileId>,
        size: u64,
        now: i64,
        next_use: Option<i64>,
        est_miss_wait_s: f64,
        ops: &mut impl FnMut(CacheOp),
    ) {
        let id = id.into();
        let s = self.shard_of(id);
        let mut shard = self.shards[s].lock();
        shard.set_est_miss_wait_s(est_miss_wait_s);
        shard.write_with(self.local(id), size, now, next_use, &mut |op| {
            ops(self.globalize(op, s))
        });
    }

    /// Forwards [`DiskCache::fetch_complete`] to the owning shard.
    pub fn fetch_complete(&self, id: impl Into<FileId>) -> bool {
        let id = id.into();
        self.shards[self.shard_of(id)]
            .lock()
            .fetch_complete(self.local(id))
    }

    /// Forwards [`DiskCache::fetch_failed`] to the owning shard.
    pub fn fetch_failed(&self, id: impl Into<FileId>) -> bool {
        let id = id.into();
        self.shards[self.shard_of(id)]
            .lock()
            .fetch_failed(self.local(id))
    }

    /// True if the file is resident in its shard.
    pub fn contains(&self, id: impl Into<FileId>) -> bool {
        let id = id.into();
        self.shards[self.shard_of(id)]
            .lock()
            .contains(self.local(id))
    }

    /// Aggregated statistics across all shards (field-wise sum).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = *shard.lock().stats();
            total.read_hits += s.read_hits;
            total.read_misses += s.read_misses;
            total.read_hit_bytes += s.read_hit_bytes;
            total.read_miss_bytes += s.read_miss_bytes;
            total.writes += s.writes;
            total.evictions += s.evictions;
            total.evicted_bytes += s.evicted_bytes;
            total.stall_bytes += s.stall_bytes;
            total.purge_flush_bytes += s.purge_flush_bytes;
            total.writeback_bytes += s.writeback_bytes;
        }
        total
    }

    /// Total failed recall attempts across shards; see
    /// [`DiskCache::fetch_retries`].
    pub fn fetch_retries(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().fetch_retries()).sum()
    }

    /// Total bytes resident across shards.
    pub fn usage(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().usage()).sum()
    }

    /// Total files resident across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if nothing is cached in any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn globalize(&self, op: CacheOp, shard: usize) -> CacheOp {
        match op {
            CacheOp::Fetch { id, bytes } => CacheOp::Fetch {
                id: self.global(id, shard),
                bytes,
            },
            CacheOp::Writeback { id, bytes } => CacheOp::Writeback {
                id: self.global(id, shard),
                bytes,
            },
            CacheOp::StallFlush { id, bytes } => CacheOp::StallFlush {
                id: self.global(id, shard),
                bytes,
            },
            CacheOp::PurgeFlush { id, bytes } => CacheOp::PurgeFlush {
                id: self.global(id, shard),
                bytes,
            },
            CacheOp::Drop { id, bytes } => CacheOp::Drop {
                id: self.global(id, shard),
                bytes,
            },
        }
    }
}

impl std::fmt::Debug for ShardedCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("resident", &self.len())
            .field("usage", &self.usage())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Lru, Stp};

    /// A deterministic mixed read/write sequence over a strided id
    /// space (so multi-shard runs spread files across shards).
    fn drive(n_files: usize, rounds: usize) -> Vec<(u32, u64, bool, i64)> {
        let mut seq = Vec::new();
        let mut t = 0i64;
        for round in 0..rounds {
            for f in 0..n_files {
                t += 30;
                let id = f as u32;
                let size = 100_000 + 50_000 * ((f as u64 + round as u64) % 7);
                let write = (f + round) % 5 == 0;
                seq.push((id, size, write, t));
            }
        }
        seq
    }

    #[test]
    fn one_shard_is_byte_identical_to_a_plain_disk_cache() {
        let policy = Stp::classic();
        let cfg = CacheConfig::with_capacity(1_500_000);
        let mut plain = DiskCache::new(cfg, &policy);
        let sharded = ShardedCache::new(cfg, &policy, 1);
        let mut plain_ops = Vec::new();
        let mut sharded_ops = Vec::new();
        for (id, size, write, t) in drive(40, 12) {
            if write {
                plain.write_with(id, size, t, None, &mut |op| plain_ops.push(op));
                sharded.write_with(id, size, t, None, 0.0, &mut |op| sharded_ops.push(op));
            } else {
                let a = plain.read_with(id, size, t, None, &mut |op| plain_ops.push(op));
                let b = sharded.read_with(id, size, t, None, 0.0, &mut |op| sharded_ops.push(op));
                assert_eq!(a, b, "classification diverged at id {id} t {t}");
                if a == ReadResult::Miss {
                    plain.fetch_complete(id);
                    sharded.fetch_complete(id);
                }
            }
        }
        assert_eq!(*plain.stats(), sharded.stats());
        assert_eq!(plain.usage(), sharded.usage());
        assert_eq!(plain.len(), sharded.len());
        assert_eq!(format!("{plain_ops:?}"), format!("{sharded_ops:?}"));
    }

    #[test]
    fn shards_partition_files_and_capacity_sums_exactly() {
        let policy = Lru;
        let cfg = CacheConfig::with_capacity(1_000_003);
        let sharded = ShardedCache::new(cfg, &policy, 4);
        assert_eq!(sharded.shard_count(), 4);
        // Insert a handful of small files; all stay resident.
        for id in 0u32..16 {
            sharded.write_with(id, 1_000, 10 + i64::from(id), None, 0.0, &mut |_| {});
        }
        assert_eq!(sharded.len(), 16);
        assert_eq!(sharded.usage(), 16_000);
        let stats = sharded.stats();
        assert_eq!(stats.writes, 16);
        // Per-shard capacities sum exactly to the configured total.
        let per: u64 = sharded.shards.iter().map(|s| s.lock().stats().writes).sum();
        assert_eq!(per, 16);
    }

    #[test]
    fn fetch_state_and_retries_route_to_the_owning_shard() {
        let policy = Lru;
        let sharded = ShardedCache::new(CacheConfig::with_capacity(10_000_000), &policy, 3);
        let miss = sharded.read_with(7, 5_000, 100, None, 0.0, &mut |_| {});
        assert_eq!(miss, ReadResult::Miss);
        // Outstanding fetch: a re-read is a delayed hit on the shard.
        let again = sharded.read_with(7, 5_000, 130, None, 0.0, &mut |_| {});
        assert_eq!(again, ReadResult::DelayedHit);
        assert!(sharded.fetch_failed(7));
        assert_eq!(sharded.fetch_retries(), 1);
        assert!(sharded.fetch_complete(7));
        let hit = sharded.read_with(7, 5_000, 160, None, 0.0, &mut |_| {});
        assert_eq!(hit, ReadResult::Hit);
        assert!(sharded.contains(7));
        assert!(!sharded.contains(8));
    }
}
