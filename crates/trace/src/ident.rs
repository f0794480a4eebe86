//! Dense file identity: intern every MSS path exactly once, hand out a
//! [`FileId`] — a `u32` index — and key all downstream per-file state by
//! that index instead of a hashed string or a hashed `u64`.
//!
//! The paper replays months of MSS reference traffic; at the `large` and
//! `huge` preset scales (~10^6 distinct files, ~10^6..10^7 references)
//! per-reference hashing is the dominant constant factor in the replay
//! hot path. A dense id turns every per-file lookup in the cache, the
//! MRC engine and the hierarchy engine into an array index. The
//! single-pass MRC engine proved this locally with its
//! private `IdMap`; this module is the workspace-wide generalization,
//! and the per-module copies are gone.
//!
//! Identity assignment is *first appearance in trace order*: the first
//! path [`FileTable::intern`] sees gets id 0, the next new path id 1,
//! and so on. Replay tie-breaks (equal-priority eviction picks the
//! smallest id) therefore reproduce the historical string-keyed
//! behaviour bit-for-bit, because the old path interned ids in exactly
//! this order too.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Dense per-file identity: an index into the [`FileTable`] that
/// interned the file's path, and into every arena keyed by file.
///
/// `u32` bounds the universe at ~4.3 billion distinct files — three
/// orders of magnitude above the paper's 900 k-file store and enough
/// for any trace import on the roadmap — while keeping arena indices,
/// rank keys, and prepared references compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(u32);

impl FileId {
    /// Wraps a raw dense index.
    pub const fn new(raw: u32) -> Self {
        FileId(raw)
    }

    /// The raw dense index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id as an arena index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl From<u32> for FileId {
    fn from(raw: u32) -> Self {
        FileId(raw)
    }
}

impl From<FileId> for u64 {
    fn from(id: FileId) -> u64 {
        u64::from(id.0)
    }
}

/// Path → [`FileId`] interner: every distinct path is stored once and
/// mapped to the next dense id, in first-appearance order.
///
/// This is the single id-assignment authority for the workspace.
/// Trace preparation interns each reference's MSS path through one of
/// these; the workload generator interns its directory paths. Ids are
/// never reused for a different path, so an id is a stable name for the
/// file for the lifetime of the table — arenas indexed by it may reuse
/// *slots* when a file leaves and re-enters a cache, but the identity
/// itself never aliases.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileTable {
    names: Vec<String>,
    index: HashMap<String, FileId>,
}

impl FileTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with room for `cap` files.
    pub fn with_capacity(cap: usize) -> Self {
        FileTable {
            names: Vec::with_capacity(cap),
            index: HashMap::with_capacity(cap),
        }
    }

    /// Interns a path, assigning the next dense id on first sight.
    pub fn intern(&mut self, path: &str) -> FileId {
        if let Some(&id) = self.index.get(path) {
            return id;
        }
        // Dense u32 by design (see `FileId`): no more paths than names.
        let id = FileId(u32::try_from(self.names.len()).expect("more files than dense ids"));
        self.names.push(path.to_owned());
        self.index.insert(path.to_owned(), id);
        id
    }

    /// Looks up an already-interned path without assigning an id.
    pub fn get(&self, path: &str) -> Option<FileId> {
        self.index.get(path).copied()
    }

    /// The path a dense id was assigned to, if the id came from this
    /// table.
    pub fn name(&self, id: FileId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of distinct files interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, path)` in dense-id order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &str)> {
        (0u32..)
            .zip(&self.names)
            .map(|(i, s)| (FileId(i), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_first_appearance_order() {
        let mut t = FileTable::new();
        assert_eq!(t.intern("/a"), FileId::new(0));
        assert_eq!(t.intern("/b"), FileId::new(1));
        assert_eq!(t.intern("/a"), FileId::new(0));
        assert_eq!(t.intern("/c"), FileId::new(2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.name(FileId::new(1)), Some("/b"));
        assert_eq!(t.get("/c"), Some(FileId::new(2)));
        assert_eq!(t.get("/missing"), None);
    }

    #[test]
    fn ids_convert_and_order_like_their_raw_index() {
        let a = FileId::new(7);
        let b = FileId::from(9u32);
        assert!(a < b);
        assert_eq!(a.index(), 7);
        assert_eq!(u64::from(b), 9);
        assert_eq!(format!("{a}"), "7");
    }

    #[test]
    fn iter_walks_dense_order() {
        let mut t = FileTable::with_capacity(2);
        t.intern("/x");
        t.intern("/y");
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(FileId::new(0), "/x"), (FileId::new(1), "/y")]);
    }
}
