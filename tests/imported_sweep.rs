//! Workspace-level guarantees of imported-trace sweep cells:
//!
//! * a sweep over a columnar replay store is a pure function of the
//!   matrix — `workers = 1` and `workers = 8` produce byte-identical
//!   JSON reports;
//! * the streaming store replay in phase 2 is observationally equal to
//!   materializing the store and replaying it in memory — open-loop
//!   curves and closed-loop (latency, fault) cells alike;
//! * generated matrices keep the pre-ingestion JSON schema: the
//!   `"trace"` config key exists exactly when a store was imported.

use std::io::Cursor;
use std::path::{Path, PathBuf};

use fmig::{run_sweep, FaultScenarioId, PolicyId, PresetId, SweepConfig};
use fmig_migrate::cache::CacheConfig;
use fmig_migrate::eval::{EvalConfig, PreparedRef, PreparedTrace};
use fmig_migrate::policy::standard_suite;
use fmig_sim::{HierarchySimulator, SimConfig};
use fmig_trace::ingest::store::{import, StoreReader};
use fmig_trace::{FormatId, IngestConfig};

fn store_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fmig-imported-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic synthetic IBM-KV trace: a few thousand requests over
/// a skewed key population, with sizes spread enough that cache
/// fractions actually discriminate.
fn synthetic_kv_trace() -> String {
    let mut out = String::new();
    let mut state = 0x1993_u64;
    let mut step = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for i in 0..4000u64 {
        // From 1993-01-01: a fault horizon anchored at 0 would be wrong.
        let ms = 725_846_400_000 + i * 750;
        let r = step();
        // Zipf-ish: a hot set of 16 keys takes half the traffic.
        let key = if r % 2 == 0 { r % 16 } else { 16 + r % 800 };
        let size = 1024 + (step() % 64) * 37_000;
        let verb = if step() % 10 < 7 { "GET" } else { "PUT" };
        out.push_str(&format!("{ms} REST.{verb}.OBJECT k{key:03} {size}\n"));
    }
    out
}

fn import_synthetic(tag: &str) -> PathBuf {
    let dir = store_dir(tag);
    let report = import(
        FormatId::IbmKv,
        Cursor::new(synthetic_kv_trace()),
        IngestConfig::default(),
        &dir,
        |e| panic!("synthetic trace must be clean: {e}"),
    )
    .expect("import");
    assert!(report.manifest.records > 0 && report.manifest.files > 0);
    dir
}

#[test]
fn imported_sweep_is_byte_identical_across_worker_counts() {
    let dir = import_synthetic("workers");
    let serial = SweepConfig {
        workers: 1,
        ..SweepConfig::imported(dir.to_str().expect("utf-8 temp path"))
    };
    let mut pooled = serial.clone();
    pooled.workers = 8;
    let a = run_sweep(&serial).to_json();
    let b = run_sweep(&pooled).to_json();
    assert_eq!(a, b, "worker count leaked into the imported report");
    // The imported schema is present...
    assert!(a.contains("\"trace\": "));
    assert!(a.contains("\"preset\": \"imported\""));
    assert!(a.contains("\"winners\""));
    // ...and the cells measured something real.
    assert!(a.contains("\"miss_ratio\": 0."));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn streaming_store_replay_matches_in_memory_replay() {
    // Phase 2 streams the store in chunks through the fused single-pass
    // curve engine; materializing the same rows and replaying them
    // per-capacity through DiskCache must agree bit for bit.
    let dir = import_synthetic("oracle");
    let config = SweepConfig::imported(dir.to_str().expect("utf-8 temp path"));
    let report = run_sweep(&config);
    assert_eq!(report.shards.len(), 1);
    let shard = &report.shards[0];

    let trace = PreparedTrace::from_refs(materialized(&dir));

    let mut checked = 0;
    for cell in &shard.cells {
        let policy = suite_policy(cell.policy);
        let outcome = trace.replay(
            policy.as_ref(),
            &EvalConfig::with_capacity(cell.capacity_bytes),
        );
        assert_eq!(
            outcome.miss_ratio,
            cell.miss_ratio,
            "{} at {} bytes",
            cell.policy.name(),
            cell.capacity_bytes
        );
        assert_eq!(outcome.byte_miss_ratio, cell.byte_miss_ratio);
        checked += 1;
    }
    assert_eq!(
        checked,
        config.policies.len() * config.cache_fractions.len()
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Every row of the store, read at once and converted in memory.
fn materialized(dir: &Path) -> Vec<PreparedRef> {
    let store = StoreReader::open(dir).expect("open store");
    let rows = store.read_all().expect("read store");
    assert_eq!(rows.len() as u64, store.manifest().records);
    rows.into_iter().map(PreparedRef::from).collect()
}

#[test]
fn closed_loop_store_cells_equal_the_materialized_oracle() {
    // Latency and fault cells stream the store through the hierarchy
    // engine; each must equal `run_with_faults` over the materialized
    // rows under the cell's own fault seed, exactly.
    let dir = import_synthetic("closed");
    let serial = SweepConfig {
        latency: true,
        faults: vec![FaultScenarioId::None, FaultScenarioId::DegradedPeak],
        workers: 1,
        ..SweepConfig::imported(dir.to_str().expect("utf-8 temp path"))
    };
    let report = run_sweep(&serial);
    let pooled = SweepConfig {
        workers: 8,
        ..serial.clone()
    };
    assert_eq!(
        report.to_json(),
        run_sweep(&pooled).to_json(),
        "worker count leaked into the closed-loop imported report"
    );

    let refs = materialized(&dir);
    let cells = &report.shards[0].cells;
    let mut coords = Vec::new();
    for (f, &scenario) in serial.faults.iter().enumerate() {
        for c in 0..serial.cache_fractions.len() {
            for p in 0..serial.policies.len() {
                coords.push((f, scenario, c, p));
            }
        }
    }
    assert_eq!(cells.len(), coords.len());
    let (mut recalls, mut delayed_hits) = (0, 0);
    for (cell, &(f, scenario, c, p)) in cells.iter().zip(&coords) {
        assert_eq!((cell.fault, cell.policy), (scenario, serial.policies[p]));
        let seed = serial.cell_fault_seed(0, 0, c, p, f, scenario);
        let oracle = HierarchySimulator::new(SimConfig::default().with_seed(seed)).run_with_faults(
            CacheConfig::with_capacity(cell.capacity_bytes),
            cell.policy.build().as_ref(),
            &refs,
            &scenario.plan(),
        );
        let what = format!(
            "{} {} at {} bytes",
            scenario.name(),
            cell.policy.name(),
            cell.capacity_bytes
        );
        let lat = cell.latency.expect("closed-loop cell");
        assert_eq!(cell.miss_ratio, oracle.cache.miss_ratio(), "{what}");
        assert_eq!(
            cell.byte_miss_ratio,
            oracle.cache.byte_miss_ratio(),
            "{what}"
        );
        assert_eq!(
            lat.p99_read_wait_s,
            oracle.read_wait().quantile(0.99),
            "{what}"
        );
        assert_eq!(lat.recalls, oracle.recalls, "{what}");
        assert_eq!(lat.delayed_hits, oracle.delayed_hits, "{what}");
        assert_eq!(lat.degraded, oracle.fault, "{what}");
        recalls += lat.recalls;
        delayed_hits += lat.delayed_hits;
        if scenario != FaultScenarioId::None {
            let d = lat.degraded.expect("fault cells carry attribution");
            assert!(
                d.read_retries + d.outage_events > 0,
                "{what}: faults never bit"
            );
        }
    }
    // Preconditions: the trace exercises recalls and coalescing.
    assert!(
        recalls > 0 && delayed_hits > 0,
        "{recalls} recalls, {delayed_hits} delayed hits"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Instantiates one policy through the same suite the sweep uses.
fn suite_policy(id: PolicyId) -> Box<dyn fmig_migrate::MigrationPolicy> {
    let _ = standard_suite(); // keep the import honest if names drift
    id.build()
}

#[test]
fn generated_matrices_keep_the_pre_ingestion_schema() {
    let mut cfg = SweepConfig::tiny();
    cfg.simulate_devices = false;
    cfg.faults = vec![fmig::FaultScenarioId::None];
    let json = run_sweep(&cfg).to_json();
    assert!(
        !json.contains("\"trace\""),
        "generated sweeps must not grow a trace key"
    );
    assert_eq!(PresetId::parse("imported"), Some(PresetId::Imported));
    assert!(
        !PresetId::ALL.contains(&PresetId::Imported),
        "ALL stays generator-only"
    );
}
