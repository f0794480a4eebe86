//! Rerun the Smith/Lawrie migration-policy comparison on an NCAR-like
//! trace (§2.3 / §6-a of the paper).
//!
//! Generates a synthetic two-year trace, then drives a staging-disk
//! cache with each classic policy — STP (several exponents), LRU, FIFO,
//! size-ordered, SAAC, random, and Belady's clairvoyant bound — and
//! prints miss ratios plus the paper's person-minutes cost metric.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use fmig_migrate::eval::{evaluate_policies, prepare, EvalConfig};
use fmig_migrate::mrc::sweep_capacities;
use fmig_migrate::policy::{standard_suite, Belady, Stp};
use fmig_workload::{Workload, WorkloadConfig};

fn main() {
    let workload = Workload::generate(&WorkloadConfig {
        scale: 0.02,
        seed: 1993,
        ..WorkloadConfig::default()
    });
    let records: Vec<_> = workload.records().collect();
    let total_bytes: u64 = workload.files().iter().map(|f| f.size).sum();
    println!(
        "trace: {} requests, {} files, {:.1} GB referenced",
        records.len(),
        workload.files().len(),
        total_bytes as f64 / 1e9
    );

    // Smith's operating point: a disk holding ~1.5% of the store.
    let capacity = (total_bytes as f64 * 0.015) as u64;
    println!(
        "staging disk: {:.2} GB (1.5% of the store)\n",
        capacity as f64 / 1e9
    );

    let mut suite = standard_suite();
    suite.push(Box::new(Belady));
    let config = EvalConfig::with_capacity(capacity);
    let outcomes = evaluate_policies(&records, &suite, &config);

    println!(
        "{:<18} {:>10} {:>10} {:>14}",
        "policy", "miss%", "byte-miss%", "person-min/day"
    );
    let mut ranked = outcomes.clone();
    ranked.sort_by(|a, b| a.miss_ratio.partial_cmp(&b.miss_ratio).expect("finite"));
    for o in &ranked {
        println!(
            "{:<18} {:>9.2}% {:>9.2}% {:>14.1}",
            o.name,
            o.miss_ratio * 100.0,
            o.byte_miss_ratio * 100.0,
            o.person_minutes_per_day
        );
    }

    // The paper's predecessors found STP best "though only by a slim
    // margin" — show the margin explicitly.
    let stp = outcomes
        .iter()
        .find(|o| o.name == "STP(1.4)")
        .expect("STP in suite");
    let best_online = ranked
        .iter()
        .find(|o| o.name != "Belady (offline)")
        .expect("online policies exist");
    println!(
        "\nSTP(1.4) vs best online ({}): {:.2}% vs {:.2}% misses",
        best_online.name,
        stp.miss_ratio * 100.0,
        best_online.miss_ratio * 100.0
    );

    // Miss ratio versus staging-disk size for the classic STP.
    println!("\nSTP(1.4) capacity sweep:");
    let caps: Vec<u64> = [0.005, 0.015, 0.05, 0.15]
        .iter()
        .map(|f| (total_bytes as f64 * f) as u64)
        .collect();
    let sweep = sweep_capacities(prepare(&records).refs(), &Stp::classic(), &caps, &config);
    for (cap, miss) in sweep.miss_ratios() {
        println!(
            "  {:6.2} GB ({:4.1}% of store)  miss {:5.2}%",
            cap as f64 / 1e9,
            cap as f64 / total_bytes as f64 * 100.0,
            miss * 100.0
        );
    }
}
