//! The staging-disk cache, specified: what a reference does, and what a
//! purge does, written once and deliberately naively. This module is the
//! reference statement of the purge semantics; `DiskCache` (in each
//! `EvictionMode`, i.e. `rank::Ranking` in each regime, and under the
//! per-reference estimate every `DiskHalf` host publishes), the MRC
//! stacks and the store's row stream are each held to it, bit for bit, by `tests/cache_spec.rs`, `tests/dense_identity.rs` and
//! `tests/ingest_fixtures.rs`. Shared by `mod spec;`, linked into no
//! binary, and built from plain data and `&dyn MigrationPolicy` alone:
//! residents are a `Vec` found by linear search, usage is a sum over it,
//! a purge re-scores and sorts the whole list.
//!
//! # Semantics
//!
//! A resident file carries what the policy may see ([`FileView`]: size,
//! `created`, `last_ref`, `ref_count`, `next_use`, `est_miss_wait_s`)
//! plus one flag, `fetching`.
//!
//! * **Read of a resident**: a hit. `last_ref = now`, `ref_count += 1`,
//!   `next_use` and the estimate are re-stamped; size is left alone. The
//!   hit is a [`ReadResult::DelayedHit`] while `fetching` is set.
//! * **Read of a non-resident**: a miss. A [`CacheOp::Fetch`] goes out
//!   and the file is admitted with `fetching` set, until
//!   [`Cache::landed`] clears it (a no-op for a file that left
//!   meanwhile).
//! * **Write**: a [`CacheOp::Writeback`] of the written bytes goes out
//!   first (write-behind). A resident is touched as by a read and takes
//!   the new size; a non-resident is admitted. Either way a purge check
//!   follows.
//! * **Admission**: a file larger than the whole capacity bypasses the
//!   cache — no entry, no purge. Otherwise it enters as a fresh entry
//!   (`created = last_ref = now`, `ref_count = 1`) whatever happened to
//!   an earlier incarnation, then a purge check follows.
//! * **Purge**: with `high = ⌊capacity · high_watermark⌋` and `low`
//!   likewise, a purge fires when usage is *strictly above* `high`.
//!   Every resident — the file just touched included — is scored
//!   `policy.priority(view, now)` once, the list is sorted by priority
//!   descending under `f64::total_cmp` (NaN leaves first) then id
//!   ascending, and victims leave in that order until usage is *at or
//!   below* `low`. Each victim is a [`CacheOp::Drop`]: its written
//!   bytes went out at the write.
//!
//! The clock is whatever the references say: nothing here assumes it
//! is monotone, so a backwards step needs no rule of its own.

// Each test target that says `mod spec;` uses its own part of this.
#![allow(dead_code)]

use fmig_migrate::cache::{CacheConfig, CacheOp, CacheStats, ReadResult};
use fmig_migrate::eval::EvalConfig;
use fmig_migrate::policy::{FileView, MigrationPolicy};
use fmig_trace::{Direction, FileId, TraceRecord};

/// One reference of a replayable stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecRef {
    pub id: FileId,
    pub size: u64,
    pub write: bool,
    pub time: i64,
    /// Time of the same file's next reference, if any.
    pub next_use: Option<i64>,
}

struct Resident {
    view: FileView,
    fetching: bool,
}

/// What a cache is to whoever drives it: [`SpecCache`] below, and —
/// through the adapters in `tests/cache_spec.rs` — every engine.
pub trait Cache {
    /// One reference, under the miss-wait estimate in force for it;
    /// `None` for a write, what the read found otherwise.
    fn reference(&mut self, r: &SpecRef, est: f64, ops: &mut Vec<CacheOp>) -> Option<ReadResult>;
    /// The recall that admitted `id` landed; true if one was outstanding.
    fn landed(&mut self, id: FileId) -> bool;
    /// Counters, bytes resident, files resident.
    fn snapshot(&self) -> (CacheStats, u64, usize);
}

/// The naive cache; see the module docs.
pub struct SpecCache<'p> {
    config: CacheConfig,
    policy: &'p dyn MigrationPolicy,
    /// In admission order — deliberately not id order.
    residents: Vec<Resident>,
    stats: CacheStats,
}

impl Cache for SpecCache<'_> {
    fn reference(&mut self, r: &SpecRef, est: f64, ops: &mut Vec<CacheOp>) -> Option<ReadResult> {
        if r.write {
            self.write(r, est, ops);
            return None;
        }
        Some(self.read(r, est, ops))
    }

    fn landed(&mut self, id: FileId) -> bool {
        let found = self.residents.iter_mut().find(|f| f.view.id == id);
        found.is_some_and(|f| std::mem::replace(&mut f.fetching, false))
    }

    fn snapshot(&self) -> (CacheStats, u64, usize) {
        (self.stats, self.usage(), self.residents.len())
    }
}

impl<'p> SpecCache<'p> {
    pub fn new(config: CacheConfig, policy: &'p dyn MigrationPolicy) -> Self {
        SpecCache {
            config,
            policy,
            residents: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// True if `id` is resident.
    pub fn contains(&self, id: FileId) -> bool {
        self.residents.iter().any(|f| f.view.id == id)
    }

    fn usage(&self) -> u64 {
        self.residents.iter().map(|f| f.view.size).sum()
    }

    /// Finds `r`'s file and stamps the reference onto it.
    fn touch(&mut self, r: &SpecRef, est: f64) -> Option<&mut Resident> {
        let found = self.residents.iter_mut().find(|f| f.view.id == r.id)?;
        found.view.last_ref = r.time;
        found.view.ref_count += 1;
        found.view.next_use = r.next_use;
        found.view.est_miss_wait_s = est;
        Some(found)
    }

    fn read(&mut self, r: &SpecRef, est: f64, ops: &mut Vec<CacheOp>) -> ReadResult {
        if let Some(found) = self.touch(r, est) {
            let (bytes, fetching) = (found.view.size, found.fetching);
            self.stats.read_hits += 1;
            self.stats.read_hit_bytes += bytes;
            return if fetching {
                ReadResult::DelayedHit
            } else {
                ReadResult::Hit
            };
        }
        self.stats.read_misses += 1;
        self.stats.read_miss_bytes += r.size;
        let (id, bytes) = (r.id, r.size);
        ops.push(CacheOp::Fetch { id, bytes });
        self.admit(r, est, true, ops);
        ReadResult::Miss
    }

    fn write(&mut self, r: &SpecRef, est: f64, ops: &mut Vec<CacheOp>) {
        self.stats.writes += 1;
        self.stats.writeback_bytes += r.size;
        let (id, bytes) = (r.id, r.size);
        ops.push(CacheOp::Writeback { id, bytes });
        match self.touch(r, est) {
            Some(found) => {
                found.view.size = r.size;
                self.purge(r.time, ops);
            }
            None => self.admit(r, est, false, ops),
        }
    }

    fn admit(&mut self, r: &SpecRef, est: f64, fetching: bool, ops: &mut Vec<CacheOp>) {
        if r.size > self.config.capacity {
            return;
        }
        let view = FileView {
            id: r.id,
            size: r.size,
            last_ref: r.time,
            created: r.time,
            ref_count: 1,
            next_use: r.next_use,
            est_miss_wait_s: est,
        };
        self.residents.push(Resident { view, fetching });
        self.purge(r.time, ops);
    }

    fn purge(&mut self, now: i64, ops: &mut Vec<CacheOp>) {
        let mark = |fraction: f64| (self.config.capacity as f64 * fraction) as u64;
        let high = mark(self.config.high_watermark);
        let low = mark(self.config.low_watermark);
        if self.usage() <= high {
            return;
        }
        let score = |f: &Resident| (self.policy.priority(&f.view, now), f.view.id);
        let mut ranked: Vec<(f64, FileId)> = self.residents.iter().map(score).collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, id) in ranked {
            if self.usage() <= low {
                break;
            }
            let at = self.residents.iter().position(|f| f.view.id == id);
            let victim = self.residents.remove(at.expect("ranked, so resident"));
            let bytes = victim.view.size;
            self.stats.evictions += 1;
            self.stats.evicted_bytes += bytes;
            ops.push(CacheOp::Drop { id, bytes });
        }
    }
}

/// What trace preparation owes a replay: errored records are skipped,
/// sizes are at least one byte, a file's id is the position of its
/// path's first appearance among the records kept, and `next_use` is
/// the time of the next kept reference to the same file.
pub fn spec_refs(records: &[TraceRecord]) -> Vec<SpecRef> {
    let kept: Vec<&TraceRecord> = records.iter().filter(|r| r.error.is_none()).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut refs = Vec::new();
    for (i, rec) in kept.iter().enumerate() {
        let path = rec.mss_path.as_str();
        if !paths.contains(&path) {
            paths.push(path);
        }
        let id = paths.iter().position(|&p| p == path).expect("just seen");
        let next = kept[i + 1..].iter().find(|later| later.mss_path == path);
        refs.push(SpecRef {
            id: FileId::new(id as u32),
            size: rec.file_size.max(1),
            write: rec.direction() == Direction::Write,
            time: rec.start.as_unix(),
            next_use: next.map(|later| later.start.as_unix()),
        });
    }
    refs
}

/// Open-loop replay: a recall lands before the next reference, and the
/// estimate is the configured flat wait. Returns the counters and every
/// side effect in order.
pub fn spec_replay(
    refs: &[SpecRef],
    policy: &dyn MigrationPolicy,
    config: &EvalConfig,
) -> (CacheStats, Vec<CacheOp>) {
    let mut cache = SpecCache::new(config.cache, policy);
    let mut ops = Vec::new();
    for r in refs {
        if cache.reference(r, config.wait_s_per_miss, &mut ops) == Some(ReadResult::Miss) {
            cache.landed(r.id);
        }
    }
    (cache.stats, ops)
}
