//! Per-file size and reference-behaviour models (Figures 8, 10, 11).
//!
//! # Reference classes
//!
//! §5.3 pins down the joint distribution of per-file read and write
//! counts (after the paper's 8-hour dedup rule):
//!
//! * 50% of files never read, 21% never written;
//! * 57% accessed exactly once, 19% exactly twice;
//! * 44% written once and never read; 65% written exactly once;
//! * ~5% referenced more than ten times (Figure 8 runs to 250).
//!
//! Solving those marginals gives the class table in [`ClassModel`]:
//!
//! | writes | reads | probability |
//! |---|---|---|
//! | 1 | 0 | 0.44 |
//! | 0 | 1 | 0.13 |
//! | 1 | 1 | 0.11 |
//! | 2 | 0 | 0.04 |
//! | 3+ | 0 | 0.02 |
//! | 0 | 2 | 0.04 |
//! | 0 | 3+ | 0.04 |
//! | 2+ | 1 | 0.01 |
//! | 1 | 2+ | 0.10 |
//! | 2+ | 2+ | 0.07 |
//!
//! Files that are never written existed before the trace window opened,
//! so classes are sampled **conditioned on the dataset's era**: pre-trace
//! datasets draw from the `writes = 0` rows, in-trace datasets from the
//! rest. The marginal table is recovered when ~21% of files live in
//! pre-trace datasets.
//!
//! # Sizes
//!
//! Figure 11 wants ~half the files under 3 MB holding ~2% of the data
//! with a 25 MB overall mean; Figure 10 adds a write-side bump near 8 MB.
//! Sizes come from a three-component lognormal mixture (small files,
//! large model output, and an 8 MB "history tape" component biased
//! toward write-once files), floored at 2 KB and capped at the MSS's
//! 200 MB file limit.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dist::{BoundedPareto, Discrete, Geometric, LogNormal, Sample};

/// A sampled per-file behaviour: dedup-rule reference counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassSample {
    /// Target number of dedup-distinct writes in the trace window.
    pub writes: u32,
    /// Target number of dedup-distinct reads in the trace window.
    pub reads: u32,
}

/// The reference-class table as samplers, built once per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassModel {
    /// Conditional on w = 0 (marginal mass 0.21): rows (0,1), (0,2), (0,3+).
    pre_trace: Discrete,
    /// Conditional on w >= 1 (marginal mass 0.79).
    in_trace: Discrete,
    /// Extra writes beyond a class's floor.
    extra_writes: Geometric,
    /// Read/write count tail: bounded Pareto on `[1, 250]` with shape
    /// 0.85, giving Figure 8's few-percent of files referenced more
    /// than ten times.
    count_tail: BoundedPareto,
}

impl ClassModel {
    /// The calibrated NCAR class table.
    pub fn ncar() -> Self {
        ClassModel {
            pre_trace: Discrete::new(&[0.13, 0.04, 0.04]),
            in_trace: Discrete::new(&[0.44, 0.11, 0.04, 0.02, 0.01, 0.10, 0.07]),
            extra_writes: Geometric::new(0.5),
            count_tail: BoundedPareto::new(0.85, 1.0, 250.0),
        }
    }

    fn count_tail<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.count_tail.sample(rng).floor() as u32
    }

    /// Draws a reference class, conditioned on whether the file
    /// pre-dates the trace window (pre-trace files can only show
    /// `writes = 0`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, pre_existing: bool) -> ClassSample {
        let (writes, reads) = if pre_existing {
            match self.pre_trace.index(rng) {
                0 => (0, 1),
                1 => (0, 2),
                _ => (0, 2 + self.count_tail(rng)),
            }
        } else {
            match self.in_trace.index(rng) {
                0 => (1, 0),
                1 => (1, 1),
                2 => (2, 0),
                3 => (3 + self.extra_writes.sample_count(rng), 0),
                4 => (2 + self.extra_writes.sample_count(rng), 1),
                5 => (1, 1 + self.count_tail(rng)),
                _ => (
                    2 + self.extra_writes.sample_count(rng),
                    1 + self.count_tail(rng),
                ),
            }
        };
        ClassSample { writes, reads }
    }
}

/// The three-component file-size mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeModel {
    /// Component weights per [`SizeBias`], in declaration order.
    mixes: [Discrete; 3],
    small: LogNormal,
    large: LogNormal,
    bump: LogNormal,
    floor: u64,
    cap: u64,
}

impl SizeModel {
    /// The calibrated NCAR size model with the given MSS file-size cap.
    pub fn ncar(cap: u64) -> Self {
        SizeModel {
            mixes: [
                Discrete::new(&[0.40, 0.30, 0.30]),
                Discrete::new(&[0.58, 0.37, 0.05]),
                Discrete::new(&[0.45, 0.46, 0.09]),
            ],
            small: LogNormal::from_median(0.5e6, 1.6),
            large: LogNormal::from_median(40.0e6, 1.0),
            bump: LogNormal::from_median(8.0e6, 0.35),
            floor: 2_048,
            cap,
        }
    }

    /// Samples a file size in bytes.
    ///
    /// The bias selects component weights: write-once archive files carry
    /// most of the 8 MB bump (Figure 10's write bump); hot re-read files
    /// skew large (Table 3: average read 27 MB > average write 20 MB).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, bias: SizeBias) -> u64 {
        let raw = match self.mixes[bias as usize].index(rng) {
            0 => self.small.sample(rng),
            1 => self.large.sample(rng),
            _ => self.bump.sample(rng),
        };
        (raw as u64).clamp(self.floor, self.cap)
    }
}

/// Which size-mixture weights to use for a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SizeBias {
    /// Write-once-never-read output: heavy 8 MB bump mass.
    Archive,
    /// Ordinary files.
    Normal,
    /// Frequently re-read files: skewed large.
    HotRead,
}

/// The full specification of one synthetic file, before scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileSpec {
    /// File size in bytes.
    pub size: u64,
    /// Dedup-distinct write target.
    pub writes: u32,
    /// Dedup-distinct read target.
    pub reads: u32,
    /// Index of the first dataset read-session this file participates in;
    /// the file joins `reads` consecutive sessions from here.
    pub first_session: u32,
}

/// Builds the file specs for one dataset (directory).
///
/// Files join consecutive dataset sessions starting at a geometrically
/// distributed offset, which makes a session read a contiguous run of the
/// dataset — the paper's researcher stepping through day-1, day-2 files
/// of a climate run.
pub fn build_dataset_files<R: Rng + ?Sized>(
    rng: &mut R,
    count: u32,
    pre_existing: bool,
    read_scale: f64,
    classes: &ClassModel,
    sizes: &SizeModel,
) -> Vec<FileSpec> {
    let start_offset = Geometric::new(0.55);
    // Entry sessions are drawn geometrically, then sorted so that files
    // enter in index order: the researcher reaches day-5 files only
    // after day-4 files, which is what makes sequential prefetching
    // profitable (§6). Sorting preserves the marginal distribution.
    let mut entries: Vec<u32> = (0..count).map(|_| start_offset.sample_count(rng)).collect();
    entries.sort_unstable();
    entries
        .into_iter()
        .map(|first_session| {
            let class = classes.sample(rng, pre_existing);
            let bias = if class.writes >= 1 && class.reads == 0 {
                SizeBias::Archive
            } else if class.reads >= 2 {
                SizeBias::HotRead
            } else {
                SizeBias::Normal
            };
            // Figure 6's read growth: later datasets are re-read more as
            // the user community grows, so multi-read tails scale with
            // the dataset's position in the trace. Single reads stay
            // single so Figure 8's masses hold.
            let reads = if class.reads >= 2 {
                ((class.reads as f64 * read_scale).round() as u32).max(2)
            } else {
                class.reads
            };
            FileSpec {
                size: sizes.sample(rng, bias),
                writes: class.writes,
                reads,
                first_session,
            }
        })
        .collect()
}

/// Number of read sessions a dataset needs so every file can complete its
/// span: `max(first_session + reads)`.
pub fn sessions_needed(files: &[FileSpec]) -> u32 {
    files
        .iter()
        .filter(|f| f.reads > 0)
        .map(|f| f.first_session + f.reads)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x5EED)
    }

    /// Draws the marginal class distribution by mixing eras at the
    /// calibrated 21% pre-trace file share.
    fn marginal_samples(n: usize) -> Vec<ClassSample> {
        let mut r = rng();
        let classes = ClassModel::ncar();
        (0..n)
            .map(|_| {
                let pre = r.gen::<f64>() < 0.21;
                classes.sample(&mut r, pre)
            })
            .collect()
    }

    #[test]
    fn class_marginals_match_paper() {
        let n = 200_000;
        let samples = marginal_samples(n);
        let frac = |pred: &dyn Fn(&ClassSample) -> bool| {
            samples.iter().filter(|c| pred(c)).count() as f64 / n as f64
        };
        let never_read = frac(&|c| c.reads == 0);
        let never_written = frac(&|c| c.writes == 0);
        let once = frac(&|c| c.reads + c.writes == 1);
        let twice = frac(&|c| c.reads + c.writes == 2);
        let write_once_never_read = frac(&|c| c.writes == 1 && c.reads == 0);
        let written_once = frac(&|c| c.writes == 1);
        let over_ten = frac(&|c| c.reads + c.writes > 10);
        assert!((never_read - 0.50).abs() < 0.02, "never read {never_read}");
        assert!(
            (never_written - 0.21).abs() < 0.02,
            "never written {never_written}"
        );
        assert!((once - 0.57).abs() < 0.02, "once {once}");
        assert!((twice - 0.19).abs() < 0.02, "twice {twice}");
        assert!(
            (write_once_never_read - 0.44).abs() < 0.02,
            "w1r0 {write_once_never_read}"
        );
        assert!((written_once - 0.65).abs() < 0.02, "w=1 {written_once}");
        assert!((0.015..0.09).contains(&over_ten), ">10 refs {over_ten}");
    }

    #[test]
    fn mean_reference_counts_support_trace_volume() {
        let n = 100_000;
        let samples = marginal_samples(n);
        let mean_reads: f64 = samples.iter().map(|c| c.reads as f64).sum::<f64>() / n as f64;
        let mean_writes: f64 = samples.iter().map(|c| c.writes as f64).sum::<f64>() / n as f64;
        // ~2.3 dedup reads and ~1.0 dedup writes per file reproduce the
        // paper's 3.5M raw references over ~900k files after echoes.
        assert!((1.6..3.2).contains(&mean_reads), "mean reads {mean_reads}");
        assert!(
            (0.8..1.3).contains(&mean_writes),
            "mean writes {mean_writes}"
        );
        let share = mean_reads / (mean_reads + mean_writes);
        assert!((0.60..0.75).contains(&share), "read share {share}");
    }

    #[test]
    fn pre_existing_files_are_never_written() {
        let mut r = rng();
        for _ in 0..5_000 {
            let c = ClassModel::ncar().sample(&mut r, true);
            assert_eq!(c.writes, 0);
            assert!(c.reads >= 1);
        }
    }

    #[test]
    fn in_trace_files_are_always_written() {
        let mut r = rng();
        for _ in 0..5_000 {
            let c = ClassModel::ncar().sample(&mut r, false);
            assert!(c.writes >= 1);
        }
    }

    #[test]
    fn size_model_matches_figure_11() {
        let m = SizeModel::ncar(200_000_000);
        let mut r = rng();
        let n = 120_000;
        let sizes: Vec<u64> = (0..n)
            .map(|_| {
                let u = r.gen::<f64>();
                let bias = if u < 0.44 {
                    SizeBias::Archive
                } else if u < 0.65 {
                    SizeBias::HotRead
                } else {
                    SizeBias::Normal
                };
                m.sample(&mut r, bias)
            })
            .collect();
        let total: f64 = sizes.iter().map(|&s| s as f64).sum();
        let mean_mb = total / n as f64 / 1e6;
        let under3 = sizes.iter().filter(|&&s| s < 3_000_000).count() as f64 / n as f64;
        let under3_data: f64 = sizes
            .iter()
            .filter(|&&s| s < 3_000_000)
            .map(|&s| s as f64)
            .sum::<f64>()
            / total;
        assert!((18.0..32.0).contains(&mean_mb), "mean size {mean_mb} MB");
        assert!((0.33..0.58).contains(&under3), "files <3MB {under3}");
        assert!(under3_data < 0.05, "data in <3MB files {under3_data}");
        assert!(sizes.iter().all(|&s| (2_048..=200_000_000).contains(&s)));
    }

    #[test]
    fn archive_bias_shifts_mass_to_the_bump() {
        let m = SizeModel::ncar(200_000_000);
        let mut r = rng();
        let n = 50_000;
        let in_bump = |s: u64| (6_000_000..11_000_000).contains(&s);
        let archive = (0..n)
            .filter(|_| in_bump(m.sample(&mut r, SizeBias::Archive)))
            .count();
        let normal = (0..n)
            .filter(|_| in_bump(m.sample(&mut r, SizeBias::Normal)))
            .count();
        assert!(
            archive > 2 * normal,
            "bump mass archive {archive} vs normal {normal}"
        );
    }

    #[test]
    fn dataset_files_and_sessions() {
        let m = SizeModel::ncar(200_000_000);
        let mut r = rng();
        let files = build_dataset_files(&mut r, 200, false, 1.0, &ClassModel::ncar(), &m);
        assert_eq!(files.len(), 200);
        let s = sessions_needed(&files);
        // Every reading file's span fits within the session count.
        for f in &files {
            if f.reads > 0 {
                assert!(f.first_session + f.reads <= s);
            }
        }
        // A write-only dataset needs no sessions.
        let cold: Vec<FileSpec> = files.iter().map(|f| FileSpec { reads: 0, ..*f }).collect();
        assert_eq!(sessions_needed(&cold), 0);
        assert_eq!(sessions_needed(&[]), 0);
    }

    /// The class draw as written before its samplers were hoisted into
    /// [`ClassModel`]: every mix, geometric and tail built per call.
    fn per_call_class(rng: &mut SmallRng, pre_existing: bool) -> ClassSample {
        let tail =
            |rng: &mut SmallRng| BoundedPareto::new(0.85, 1.0, 250.0).sample(rng).floor() as u32;
        let (writes, reads) = if pre_existing {
            match Discrete::new(&[0.13, 0.04, 0.04]).index(rng) {
                0 => (0, 1),
                1 => (0, 2),
                _ => (0, 2 + tail(rng)),
            }
        } else {
            let mix = Discrete::new(&[0.44, 0.11, 0.04, 0.02, 0.01, 0.10, 0.07]);
            let extra_w = Geometric::new(0.5);
            match mix.index(rng) {
                0 => (1, 0),
                1 => (1, 1),
                2 => (2, 0),
                3 => (3 + extra_w.sample_count(rng), 0),
                4 => (2 + extra_w.sample_count(rng), 1),
                5 => (1, 1 + tail(rng)),
                _ => (2 + extra_w.sample_count(rng), 1 + tail(rng)),
            }
        };
        ClassSample { writes, reads }
    }

    /// The size draw with its mix built per call, as before hoisting.
    fn per_call_size(m: &SizeModel, rng: &mut SmallRng, bias: SizeBias) -> u64 {
        let weights: [f64; 3] = match bias {
            SizeBias::Archive => [0.40, 0.30, 0.30],
            SizeBias::Normal => [0.58, 0.37, 0.05],
            SizeBias::HotRead => [0.45, 0.46, 0.09],
        };
        let raw = match Discrete::new(&weights).index(rng) {
            0 => m.small.sample(rng),
            1 => m.large.sample(rng),
            _ => m.bump.sample(rng),
        };
        (raw as u64).clamp(m.floor, m.cap)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Hoisted samplers draw what per-call construction draws, from
        /// the same stream, leaving it in the same state.
        #[test]
        fn hoisted_samplers_equal_per_call_construction(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let classes = ClassModel::ncar();
            let sizes = SizeModel::ncar(200_000_000);
            let mut hoisted = SmallRng::seed_from_u64(seed);
            let mut per_call = hoisted.clone();
            for i in 0..256 {
                let pre = i % 3 == 0;
                proptest::prop_assert_eq!(
                    classes.sample(&mut hoisted, pre),
                    per_call_class(&mut per_call, pre)
                );
                let bias = [SizeBias::Archive, SizeBias::Normal, SizeBias::HotRead][i % 3];
                proptest::prop_assert_eq!(
                    sizes.sample(&mut hoisted, bias),
                    per_call_size(&sizes, &mut per_call, bias)
                );
            }
            proptest::prop_assert_eq!(hoisted.gen::<u64>(), per_call.gen::<u64>());
        }
    }
}
