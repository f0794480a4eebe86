//! Compare migration policies by *simulated first-byte latency* instead
//! of miss ratio: the closed-loop hierarchy engine puts a policy-driven
//! disk cache in the device model's data path, so every miss pays a real
//! tape recall (drive queue, robot mount, seek, mover) and write-behind
//! flushes compete with those recalls for the same hardware.
//!
//! The paper's point (Figure 3, Table 3) is that policy choice is a
//! latency problem, not just a hit-rate problem — STP and LRU can sit
//! within a point of miss ratio yet feel very different at the p99.
//!
//! ```text
//! cargo run --release --example latency_policy
//! ```

use fmig::migrate::eval::{EvalConfig, TracePrep};
use fmig::migrate::policy::{Lru, LruMad, MigrationPolicy, Stp, StpLat};
use fmig::sim::fault::FaultPlan;
use fmig::sim::{HierarchySimulator, SimConfig};
use fmig_workload::{Workload, WorkloadConfig};

fn main() {
    // An NCAR-calibrated trace, prepared once and shared by both
    // policies (they must be judged on the same request stream).
    let workload = Workload::generate(&WorkloadConfig {
        scale: 0.004,
        seed: 1993,
        ..WorkloadConfig::default()
    });
    let referenced: u64 = workload.files().iter().map(|f| f.size).sum();
    let mut prep = TracePrep::new();
    for rec in workload.records() {
        prep.observe(&rec);
    }
    let prepared = prep.finish();
    let eval = EvalConfig::with_capacity(((referenced as f64) * 0.015) as u64);
    println!(
        "closed-loop: {} references, staging disk {:.2} GB (1.5% of referenced bytes)\n",
        prepared.len(),
        eval.cache.capacity as f64 / 1e9
    );

    // The two latency-aware entrants join their blind twins: inside the
    // engine they see live recall-wait EWMAs (closed loop), so their
    // rows measure what the feedback channel actually buys.
    let lru_mad = LruMad::classic();
    let stp_lat = StpLat::classic();
    let policies: [&dyn MigrationPolicy; 4] = [&Stp::classic(), &Lru, &lru_mad, &stp_lat];
    let sim = HierarchySimulator::new(SimConfig::default());
    let healthy = FaultPlan::none();
    let mut p99 = Vec::new();
    for policy in policies {
        // One closed-loop pass per policy; its metrics carry the exact
        // waits.
        let metrics = sim.run_with_faults(eval.cache, policy, prepared.refs(), &healthy);
        let lat = metrics.latency_outcome();
        p99.push((policy.name(), lat.p99_read_wait_s));
        println!(
            "{:<9} miss ratio {:>5.2}%  mean read wait {:>6.1}s  p99 {:>6.1}s  \
             coalesced {:>4}  recalls {:>4}  flushed {:>6.1} MB (drive queue {:>5.1}s mean)",
            policy.name(),
            metrics.cache.miss_ratio() * 100.0,
            lat.mean_read_wait_s,
            lat.p99_read_wait_s,
            lat.delayed_hits,
            lat.recalls,
            lat.flush_bytes as f64 / 1e6,
            lat.mean_flush_queue_s,
        );
    }

    let best = p99.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let worst = p99.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    println!(
        "\np99 first-byte spread across the suite: {:.1}s ({:.0}% of the slowest policy)",
        worst - best,
        if worst > 0.0 {
            (worst - best) / worst * 100.0
        } else {
            0.0
        }
    );
    // Ties keep the earlier policy.
    if let Some((name, wait)) = p99.iter().reduce(|a, b| if b.1 < a.1 { b } else { a }) {
        println!("tail-latency winner: {name} at p99 {wait:.1}s");
    }
}
