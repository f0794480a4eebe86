//! Synthetic MSS namespace: the directory tree of Table 4 / Figure 12.
//!
//! Targets from the paper:
//!
//! * 143,245 directories holding ~900,000 referenced files (≈6.3
//!   files/dir) at scale 1.0;
//! * 75% of directories hold zero or one file, 90% hold ten or fewer,
//!   yet the largest holds 24,926 and the top ~5% of directories hold
//!   about half of all files and data (Figure 12);
//! * maximum depth 12 (Table 4).
//!
//! Directory file counts come from a point-mass + bounded-Pareto mixture
//! whose tail weight adapts to the configured scale so the mean stays
//! near 6.3 files/dir even when the largest-directory cap shrinks.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dist::{BoundedPareto, Discrete, Sample};
use crate::preset::WorkloadConfig;

/// Hard ceiling on directory depth (Table 4 reports max depth 12).
pub const MAX_DEPTH: u32 = 12;

/// One directory in the synthetic namespace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirNode {
    /// Index of the parent directory, or `None` for user roots.
    pub parent: Option<u32>,
    /// Depth below the MSS root (user homes are depth 1).
    pub depth: u32,
    /// Owning user id.
    pub owner_uid: u32,
    /// Number of files placed directly in this directory.
    pub file_count: u32,
    /// Path component for this directory.
    pub name: String,
}

/// The generated directory tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Namespace {
    dirs: Vec<DirNode>,
    total_files: u64,
}

impl Namespace {
    /// Generates a namespace for the given configuration.
    pub fn generate<R: Rng + ?Sized>(cfg: &WorkloadConfig, rng: &mut R) -> Self {
        let n_dirs = cfg.target_dirs();
        let n_users = cfg.target_users();
        let mut dirs: Vec<DirNode> = Vec::with_capacity(n_dirs);

        // Every user gets a home directory; the rest of the tree hangs
        // under them. `last_dir_of_user` lets us extend deep chains.
        let n_homes = (n_users as usize).min(n_dirs);
        for uid in 0..n_homes {
            dirs.push(DirNode {
                parent: None,
                depth: 1,
                owner_uid: uid as u32,
                file_count: 0,
                name: format!("u{uid:05}"),
            });
        }

        let themes = [
            "ccm", "mm4", "run", "exp", "data", "hist", "anal", "plots", "t42", "t106", "obs",
            "restart",
        ];
        while dirs.len() < n_dirs {
            let id = dirs.len();
            // Pick a parent: usually a random existing directory, but with
            // some probability the most recent one (this grows the deep
            // chains that give the tree its depth-12 tail).
            let parent_idx = if rng.gen::<f64>() < 0.15 {
                dirs.len() - 1
            } else {
                rng.gen_range(0..dirs.len())
            };
            let (parent, depth, owner) = {
                let p = &dirs[parent_idx];
                if p.depth >= MAX_DEPTH {
                    // Chain capped: attach to the owner's home instead.
                    let home = p.owner_uid as usize % n_homes;
                    (home as u32, 2, p.owner_uid)
                } else {
                    (parent_idx as u32, p.depth + 1, p.owner_uid)
                }
            };
            let theme = themes[rng.gen_range(0..themes.len())];
            dirs.push(DirNode {
                parent: Some(parent),
                depth,
                owner_uid: owner,
                file_count: 0,
                name: format!("{theme}{:03}", id % 1000),
            });
        }

        // File-count mixture: 0 / 1 / uniform 2..=10 / bounded-Pareto tail.
        let largest = (25_000.0 * cfg.scale).clamp(60.0, 25_000.0);
        let tail = BoundedPareto::new(1.25, 11.0, largest);
        // Solve the tail weight so the overall mean hits the target:
        // r·1.30 + wp·E_tail = mean, with r = (1 - wp)/0.90 spread over
        // the paper's 0.35/0.40/0.15 split for the light components.
        let light_mean = (0.35 * 0.0 + 0.40 * 1.0 + 0.15 * 6.0) / 0.90;
        let e_tail = tail.mean();
        let wp = ((cfg.mean_files_per_dir - light_mean) / (e_tail - light_mean)).clamp(0.02, 0.35);
        let r = (1.0 - wp) / 0.90;
        let mix = Discrete::new(&[0.35 * r, 0.40 * r, 0.15 * r, wp]);

        let mut total_files = 0u64;
        for dir in &mut dirs {
            let count = match mix.index(rng) {
                0 => 0,
                1 => 1,
                2 => rng.gen_range(2..=10),
                _ => tail.sample(rng).round() as u32,
            };
            dir.file_count = count;
            total_files += count as u64;
        }

        Namespace { dirs, total_files }
    }

    /// All directories, index = directory id.
    pub fn dirs(&self) -> &[DirNode] {
        &self.dirs
    }

    /// Number of directories.
    pub fn len(&self) -> usize {
        self.dirs.len()
    }

    /// True if the namespace has no directories.
    pub fn is_empty(&self) -> bool {
        self.dirs.is_empty()
    }

    /// Total files across all directories.
    pub fn total_files(&self) -> u64 {
        self.total_files
    }

    /// File count of the fullest directory.
    pub fn largest_dir(&self) -> u32 {
        self.dirs.iter().map(|d| d.file_count).max().unwrap_or(0)
    }

    /// Deepest directory level in the tree.
    pub fn max_depth(&self) -> u32 {
        self.dirs.iter().map(|d| d.depth).max().unwrap_or(0)
    }

    /// Reconstructs the absolute MSS path of a directory.
    ///
    /// # Panics
    ///
    /// Panics if `dir` is out of range.
    pub fn path(&self, dir: u32) -> String {
        let mut parts: Vec<&str> = Vec::new();
        let mut cur = Some(dir);
        while let Some(idx) = cur {
            let node = &self.dirs[idx as usize];
            parts.push(&node.name);
            cur = node.parent;
        }
        let mut out = String::new();
        for part in parts.iter().rev() {
            out.push('/');
            out.push_str(part);
        }
        out
    }

    /// Every directory's path, index = directory id: [`Namespace::path`]
    /// for all of them at once, each built from its parent's.
    pub(crate) fn paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = Vec::with_capacity(self.dirs.len());
        for node in &self.dirs {
            // `generate` only ever attaches a directory to an earlier one.
            let parent = node.parent.map_or("", |p| paths[p as usize].as_str());
            paths.push(format!("{parent}/{}", node.name));
        }
        paths
    }

    /// Fraction of directories with at most `n` files.
    pub fn fraction_with_at_most(&self, n: u32) -> f64 {
        if self.dirs.is_empty() {
            return 0.0;
        }
        let hits = self.dirs.iter().filter(|d| d.file_count <= n).count();
        hits as f64 / self.dirs.len() as f64
    }

    /// Fraction of files held by the fullest `top_fraction` of directories
    /// (Figure 12's "5% of the directories held 50% of the files").
    pub fn files_in_top_dirs(&self, top_fraction: f64) -> f64 {
        if self.total_files == 0 || self.dirs.is_empty() {
            return 0.0;
        }
        let mut counts: Vec<u32> = self.dirs.iter().map(|d| d.file_count).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let k = ((self.dirs.len() as f64 * top_fraction).ceil() as usize).max(1);
        let top: u64 = counts[..k.min(counts.len())]
            .iter()
            .map(|&c| c as u64)
            .sum();
        top as f64 / self.total_files as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn namespace(scale: f64, seed: u64) -> Namespace {
        let cfg = WorkloadConfig::at_scale(scale);
        let mut rng = SmallRng::seed_from_u64(seed);
        Namespace::generate(&cfg, &mut rng)
    }

    #[test]
    fn respects_scale_and_depth_cap() {
        let ns = namespace(0.02, 1);
        assert_eq!(ns.len(), 2865); // 143,245 * 0.02 rounded
        assert!(ns.max_depth() <= MAX_DEPTH);
        assert!(ns.max_depth() >= 5, "tree too shallow: {}", ns.max_depth());
    }

    #[test]
    fn mean_files_per_dir_near_target() {
        let ns = namespace(0.05, 2);
        let mean = ns.total_files() as f64 / ns.len() as f64;
        assert!((4.0..9.0).contains(&mean), "mean files/dir {mean}");
    }

    #[test]
    fn most_dirs_are_tiny_but_tail_is_heavy() {
        let ns = namespace(0.05, 3);
        let le1 = ns.fraction_with_at_most(1);
        let le10 = ns.fraction_with_at_most(10);
        assert!((0.60..0.85).contains(&le1), "≤1 file fraction {le1}");
        assert!((0.82..0.97).contains(&le10), "≤10 files fraction {le10}");
        // The biggest directory dwarfs the mean.
        assert!(ns.largest_dir() > 100, "largest {}", ns.largest_dir());
    }

    #[test]
    fn top_five_percent_hold_about_half_the_files() {
        let ns = namespace(0.1, 4);
        let share = ns.files_in_top5();
        assert!((0.35..0.75).contains(&share), "top-5% share {share}");
    }

    #[test]
    fn paths_are_rooted_and_unique_per_dir() {
        let ns = namespace(0.005, 5);
        let p0 = ns.path(0);
        assert!(p0.starts_with("/u"));
        for id in 0..ns.len() as u32 {
            let p = ns.path(id);
            assert!(p.starts_with('/'), "unrooted path {p}");
            let depth = p.matches('/').count() as u32;
            assert_eq!(depth, ns.dirs()[id as usize].depth, "path {p}");
        }
    }

    #[test]
    fn all_paths_at_once_equal_each_path() {
        let ns = namespace(0.03, 6);
        let paths = ns.paths();
        assert_eq!(paths.len(), ns.len());
        for (id, p) in (0u32..).zip(&paths) {
            assert_eq!(*p, ns.path(id));
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = namespace(0.01, 42);
        let b = namespace(0.01, 42);
        assert_eq!(a, b);
        let c = namespace(0.01, 43);
        assert_ne!(a, c);
    }

    impl Namespace {
        fn files_in_top5(&self) -> f64 {
            self.files_in_top_dirs(0.05)
        }
    }
}
