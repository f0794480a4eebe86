//! Directory statistics (Figure 12 and the Table 4 namespace rows).
//!
//! Directories are reconstructed from the MSS paths of the referenced
//! files: every proper prefix of a file's path is a directory. The
//! census takes each file once, with its size when first referenced
//! (see [`crate::Analyzer`]). The paper
//! finds 75% of directories hold zero or one file (intermediate nodes
//! with only subdirectories count as zero), 90% hold ten or fewer, yet
//! 5% of directories hold about half of all files and data — and the
//! largest holds 24,926 files.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Per-directory accumulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct DirEntry {
    files: u32,
    bytes: u64,
}

/// Directory census over a trace.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DirStats {
    dirs: HashMap<Box<str>, DirEntry>,
    files: usize,
    max_depth: u32,
}

impl DirStats {
    /// Creates an empty census.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one file of `size` bytes at `path`. Figure 12 counts each
    /// file once, so the caller adds a file only on its first reference.
    pub(crate) fn add_file(&mut self, path: &str, size: u64) {
        self.files += 1;
        let Some((dir, _file)) = path.rsplit_once('/') else {
            return;
        };
        let dir = if dir.is_empty() { "/" } else { dir };
        // Credit the containing directory with the file...
        let entry = self.dirs.entry(dir.into()).or_default();
        entry.files += 1;
        entry.bytes += size;
        // ...and make sure every ancestor exists as a (possibly empty)
        // directory.
        let mut depth = 0u32;
        let bytes = dir.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'/' && i > 0 {
                depth += 1;
                let ancestor = &dir[..i];
                self.dirs.entry(ancestor.into()).or_default();
            }
        }
        // The containing dir itself adds one level; files one more.
        self.max_depth = self.max_depth.max(depth + 1);
    }

    /// Number of directories (including empty intermediates).
    pub fn dir_count(&self) -> usize {
        self.dirs.len()
    }

    /// Number of files added.
    pub fn file_count(&self) -> usize {
        self.files
    }

    /// Files in the fullest directory (Table 4: 24,926 at full scale).
    pub fn largest_dir(&self) -> u32 {
        self.dirs.values().map(|d| d.files).max().unwrap_or(0)
    }

    /// Maximum directory depth observed (Table 4: 12).
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Fraction of directories with at most `n` files directly inside.
    pub fn fraction_with_at_most(&self, n: u32) -> f64 {
        if self.dirs.is_empty() {
            return 0.0;
        }
        let hits = self.dirs.values().filter(|d| d.files <= n).count();
        hits as f64 / self.dirs.len() as f64
    }

    /// Fraction of files living in directories with more than `n` files
    /// (the paper: "over half of all files and data were in large
    /// directories that contained more than 100 files").
    pub fn files_in_dirs_larger_than(&self, n: u32) -> f64 {
        let total: u64 = self.dirs.values().map(|d| d.files as u64).sum();
        if total == 0 {
            return 0.0;
        }
        let in_large: u64 = self
            .dirs
            .values()
            .filter(|d| d.files > n)
            .map(|d| d.files as u64)
            .sum();
        in_large as f64 / total as f64
    }

    /// Fraction of bytes living in directories with more than `n` files.
    pub fn data_in_dirs_larger_than(&self, n: u32) -> f64 {
        let total: u64 = self.dirs.values().map(|d| d.bytes).sum();
        if total == 0 {
            return 0.0;
        }
        let in_large: u64 = self
            .dirs
            .values()
            .filter(|d| d.files > n)
            .map(|d| d.bytes)
            .sum();
        in_large as f64 / total as f64
    }

    /// Share of files held by the fullest `top` fraction of directories.
    pub fn files_in_top_dirs(&self, top: f64) -> f64 {
        if self.dirs.is_empty() {
            return 0.0;
        }
        let mut counts: Vec<u32> = self.dirs.values().map(|d| d.files).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        if total == 0 {
            return 0.0;
        }
        let k = ((counts.len() as f64 * top).ceil() as usize).clamp(1, counts.len());
        let sum: u64 = counts[..k].iter().map(|&c| c as u64).sum();
        sum as f64 / total as f64
    }

    /// Figure 12 curves: cumulative fraction of directories, files, and
    /// data over directory size, as `(dir_size, dirs_le, files_le,
    /// data_le)`.
    pub fn curves(&self) -> Vec<(u32, f64, f64, f64)> {
        let mut entries: Vec<(u32, u64)> = self.dirs.values().map(|d| (d.files, d.bytes)).collect();
        entries.sort_unstable_by_key(|&(f, _)| f);
        let n_dirs = entries.len() as f64;
        let total_files: u64 = entries.iter().map(|&(f, _)| f as u64).sum();
        let total_bytes: u64 = entries.iter().map(|&(_, b)| b).sum();
        let mut out = Vec::new();
        let mut acc_dirs = 0usize;
        let mut acc_files = 0u64;
        let mut acc_bytes = 0u64;
        let mut i = 0;
        while i < entries.len() {
            let size = entries[i].0;
            while i < entries.len() && entries[i].0 == size {
                acc_dirs += 1;
                acc_files += entries[i].0 as u64;
                acc_bytes += entries[i].1;
                i += 1;
            }
            out.push((
                size,
                acc_dirs as f64 / n_dirs,
                if total_files > 0 {
                    acc_files as f64 / total_files as f64
                } else {
                    0.0
                },
                if total_bytes > 0 {
                    acc_bytes as f64 / total_bytes as f64
                } else {
                    0.0
                },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_files_and_finds_ancestors() {
        let mut d = DirStats::new();
        d.add_file("/u1/ccm/run1/day001", 100);
        d.add_file("/u1/ccm/run1/day002", 100);
        d.add_file("/u1/notes", 50);
        // Dirs: /u1, /u1/ccm, /u1/ccm/run1.
        assert_eq!(d.dir_count(), 3);
        assert_eq!(d.file_count(), 3);
        assert_eq!(d.largest_dir(), 2);
        // /u1/ccm holds no files directly.
        assert!((d.fraction_with_at_most(0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.max_depth(), 3);
    }

    #[test]
    fn large_dir_share() {
        let mut d = DirStats::new();
        for i in 0..150 {
            d.add_file(&format!("/u1/big/f{i}"), 10);
        }
        d.add_file("/u2/small/x", 1000);
        assert!((d.files_in_dirs_larger_than(100) - 150.0 / 151.0).abs() < 1e-9);
        // Data share counts bytes: 1500 vs 1000.
        assert!((d.data_in_dirs_larger_than(100) - 0.6).abs() < 1e-9);
        let top = d.files_in_top_dirs(0.25); // top 1 of 4 dirs
        assert!(top > 0.9, "top share {top}");
    }

    #[test]
    fn curves_monotone_complete() {
        let mut d = DirStats::new();
        for i in 0..20 {
            d.add_file(&format!("/u/d{}/f{}", i % 4, i), 5);
        }
        let c = d.curves();
        let last = c.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-12);
        assert!((last.2 - 1.0).abs() < 1e-12);
        assert!((last.3 - 1.0).abs() < 1e-12);
        for w in c.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn rootless_paths_are_tolerated() {
        let mut d = DirStats::new();
        d.add_file("bare-name", 1);
        assert_eq!(d.dir_count(), 0);
        assert_eq!(d.file_count(), 1);
        d.add_file("/top", 1);
        // "/top" lives in the root directory "/".
        assert_eq!(d.dir_count(), 1);
    }

    #[test]
    fn empty_census_is_zero() {
        let d = DirStats::new();
        assert_eq!(d.dir_count(), 0);
        assert_eq!(d.largest_dir(), 0);
        assert_eq!(d.fraction_with_at_most(1), 0.0);
        assert_eq!(d.files_in_top_dirs(0.05), 0.0);
        assert!(d.curves().is_empty());
    }
}
