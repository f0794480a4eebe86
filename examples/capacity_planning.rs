//! Capacity planning with the §6 studies: where should the disk/tape
//! dividing point sit, and how many requests would an integrated cache
//! absorb?
//!
//! This is the question an MSS operator would ask this library: "I have
//! N GB of staging disk and a tape library — what placement threshold
//! and what front-end cache do the reference patterns justify?"
//!
//! The first study is the paper's central artifact: the miss-ratio-vs-
//! capacity curve, drawn by the single-pass MRC engine
//! (`fmig_migrate::mrc`) and cross-checked against the naive
//! one-replay-per-capacity sweep it replaced.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use fmig_analysis::{Analyzer, REPEAT_WINDOWS_H};
use fmig_migrate::dividing::{DeviceModel, DividingPointStudy};
use fmig_migrate::eval::{prepare, EvalConfig};
use fmig_migrate::mrc::{sweep_capacities, sweep_capacities_naive};
use fmig_migrate::policy::Lru;
use fmig_workload::{Workload, WorkloadConfig};

fn main() {
    let workload = Workload::generate(&WorkloadConfig {
        scale: 0.02,
        seed: 7,
        ..WorkloadConfig::default()
    });
    let records: Vec<_> = workload.records().collect();
    let static_sizes: Vec<u64> = workload.files().iter().map(|f| f.size).collect();
    let access_sizes: Vec<u64> = records
        .iter()
        .filter(|r| r.is_ok())
        .map(|r| r.file_size)
        .collect();
    let store_gb: f64 = static_sizes.iter().map(|&s| s as f64).sum::<f64>() / 1e9;
    println!(
        "store: {} files, {:.1} GB; {} requests",
        static_sizes.len(),
        store_gb,
        access_sizes.len()
    );

    // --- §2.3: how much staging disk is a miss ratio worth? ---
    // One single-pass MRC walk answers for the whole capacity grid;
    // the naive sweep replays the trace once per grid point with the
    // sort-based purge rescan (the pre-index cost model).
    let prepared = prepare(records.iter());
    let store_bytes: u64 = static_sizes.iter().sum();
    let fractions = [0.005, 0.01, 0.02, 0.04, 0.06, 0.08];
    let capacities: Vec<u64> = fractions
        .iter()
        .map(|f| ((store_bytes as f64 * f) as u64).max(1))
        .collect();
    let base = EvalConfig::with_capacity(0);
    let curve = sweep_capacities(prepared.refs(), &Lru, &capacities, &base);
    let naive = sweep_capacities_naive(prepared.refs(), &Lru, &capacities, &base);

    println!(
        "\nmiss ratio vs staging-disk capacity (LRU, {} refs):",
        prepared.len()
    );
    println!(
        "  {:>8} {:>12} {:>10} {:>12}",
        "cache", "capacity", "miss", "byte-miss"
    );
    for (point, &frac) in curve.points.iter().zip(&fractions) {
        println!(
            "  {:>7.1}% {:>9.2} GB {:>9.2}% {:>11.2}%",
            frac * 100.0,
            point.capacity as f64 / 1e9,
            point.miss_ratio() * 100.0,
            point.byte_miss_ratio() * 100.0
        );
    }
    assert_eq!(curve, naive, "MRC must equal naive replay");

    // --- §6-c: the dividing point, for three tape technologies ---
    let thresholds: Vec<u64> = [1u64, 3, 10, 30, 100, 200]
        .iter()
        .map(|mb| mb * 1_000_000)
        .collect();
    // Scale NCAR's 100 GB staging disk with the workload.
    let budget = (100.0e9 * 0.02) as u64;
    for (label, overhead_s, rate) in [
        ("3480-class silo (60s to first byte)", 60.0, 2.2e6),
        ("faster robot (20s to first byte)", 20.0, 2.2e6),
        ("helical-scan (90s, 15 MB/s)", 90.0, 15.0e6),
    ] {
        let study = DividingPointStudy {
            disk: DeviceModel {
                overhead_s: 0.5,
                rate_bps: 2.4e6,
            },
            tape: DeviceModel {
                overhead_s,
                rate_bps: rate,
            },
            disk_budget: budget,
        };
        println!("\ntape = {label}:");
        println!(
            "  {:>10} {:>16} {:>12} {:>10}",
            "threshold", "mean response", "disk bytes", "feasible"
        );
        let rows = study.sweep(&static_sizes, &access_sizes, &thresholds);
        for row in &rows {
            println!(
                "  {:>7} MB {:>14.1} s {:>9.2} GB {:>10}",
                row.threshold / 1_000_000,
                row.mean_response_s,
                row.disk_resident_bytes as f64 / 1e9,
                if row.feasible { "yes" } else { "no" }
            );
        }
        match DividingPointStudy::best_feasible(&rows) {
            Some(b) => println!(
                "  -> best feasible threshold: {} MB (NCAR ran 30 MB); tape hides its\n\
                 \x20    mount beyond {:.0} MB transfers",
                b.threshold / 1_000_000,
                study.indifference_size() / 1e6
            ),
            None => println!("  -> no feasible threshold under this budget"),
        }
    }

    // --- §6-b: how much would an integrated Cray-MSS cache absorb? ---
    // The file census counts each request's gap to the previous
    // request for the same file.
    println!("\nrequest deduplication (an integrated cache would absorb):");
    let files = Analyzer::analyze(&records).files;
    for (hours, &n) in REPEAT_WINDOWS_H.iter().zip(&files.repeats_within()) {
        println!(
            "  window {hours:>2} h: {n:>6} duplicate requests = {:.1}% of traffic",
            files.repeat_fraction(n) * 100.0
        );
    }
    println!(
        "\nThe paper: \"about one third of all requests came within eight hours\n\
         of another request for the same file\" — better Cray/MSS integration\n\
         eliminates them (§6)."
    );
}
