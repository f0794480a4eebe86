//! In-process oracle contract: the daemon/origin split replaying a
//! sweep cell must reproduce the counter-noise hierarchy engine's
//! cache decisions and its p99 read wait exactly — healthy and under
//! degraded-peak chaos, over one connection and two, on the tiny-preset
//! cell and on a cell imported from a real-format trace. This is the
//! same contract `make service-smoke` enforces through the real
//! binaries, kept in tier-1 so `cargo test` covers it without process
//! spawning.

use std::fs::File;
use std::io::BufReader;
use std::net::TcpListener;
use std::path::Path;
use std::thread;

use fmig_core::{FaultScenarioId, PolicyId, SweepConfig};
use fmig_migrate::cache::CacheConfig;
use fmig_migrate::eval::PreparedRef;
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::loadgen::{self, CellSetup, LoadgenConfig};
use fmig_serve::origin::{self, SessionSummary};
use fmig_serve::protocol::ServiceStats;
use fmig_sim::config::SimConfig;
use fmig_sim::fault::fault_horizon;
use fmig_sim::HierarchySimulator;
use fmig_trace::ingest::store::{import, StoreReader};
use fmig_trace::{FormatId, IngestConfig};

/// Replays the tiny cell live and holds it to the oracle; a degraded
/// scenario must also bite. Returns the origin's link counts with the
/// number of references replayed.
fn replay_tiny(scenario: FaultScenarioId, connections: usize) -> (SessionSummary, u64) {
    let setup = loadgen::tiny_cell(scenario);
    let (link, sent, stats) = replay(&setup, SweepConfig::tiny().policies[0], connections);
    // Degraded mode actually degraded: the chaos run exercises the
    // retry path.
    if scenario != FaultScenarioId::None {
        assert!(stats.fetch_retries > 0, "chaos produced no read retries");
        let budget = scenario.plan().max_read_retries as u64 * stats.recalls;
        assert!(stats.fetch_retries <= budget, "retries exceed budget");
        assert!(stats.outage_events > 0, "chaos produced no outages");
    }
    (link, sent)
}

/// Replays `setup` live under `policy`, holds it to the oracle, and
/// returns the origin's link counts, the number of references replayed
/// and the daemon's final counters.
fn replay(
    setup: &CellSetup,
    policy_id: PolicyId,
    connections: usize,
) -> (SessionSummary, u64, ServiceStats) {
    let scenario = setup.scenario;
    let policy = policy_id.build();
    let oracle = HierarchySimulator::new(
        SimConfig::default()
            .with_seed(setup.seed)
            .with_counter_noise(true),
    )
    .run_with_faults(
        CacheConfig::with_capacity(setup.capacity),
        policy.as_ref(),
        &setup.refs,
        &scenario.plan(),
    );

    let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = origin_listener.local_addr().expect("origin addr");
    let origin_thread = thread::spawn(move || origin::serve(origin_listener));

    let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_listener.local_addr().expect("daemon addr");
    let cfg = DaemonConfig::compat(
        origin_addr.to_string(),
        setup.capacity,
        policy_id,
        scenario,
        setup.seed,
        setup.span_start_vms,
        setup.span_end_vms,
    );
    let daemon_thread = thread::spawn(move || daemon::serve(daemon_listener, cfg));

    let report = loadgen::run(
        &LoadgenConfig {
            addr: daemon_addr.to_string(),
            connections,
            limit: None,
            drain: true,
            stats: true,
            shutdown: true,
        },
        setup,
    )
    .expect("loadgen run");

    let stats = daemon_thread
        .join()
        .expect("daemon thread")
        .expect("daemon serve");
    let link = origin_thread
        .join()
        .expect("origin thread")
        .expect("origin serve");

    // Exact cache-decision equality: the measured miss ratio IS the
    // oracle's.
    let c = oracle.cache;
    assert_eq!(stats.read_hits, c.read_hits, "read_hits");
    assert_eq!(stats.read_misses, c.read_misses, "read_misses");
    assert_eq!(stats.read_hit_bytes, c.read_hit_bytes, "read_hit_bytes");
    assert_eq!(stats.read_miss_bytes, c.read_miss_bytes, "read_miss_bytes");
    assert_eq!(stats.writes, c.writes, "writes");
    assert_eq!(stats.evictions, c.evictions, "evictions");
    assert_eq!(stats.evicted_bytes, c.evicted_bytes, "evicted_bytes");
    assert_eq!(stats.stall_bytes, c.stall_bytes, "stall_bytes");
    assert_eq!(
        stats.purge_flush_bytes, c.purge_flush_bytes,
        "purge_flush_bytes"
    );
    assert_eq!(stats.writeback_bytes, c.writeback_bytes, "writeback_bytes");
    assert_eq!(
        stats.fetch_retries, oracle.cache_fetch_retries,
        "fetch_retries"
    );
    assert_eq!(stats.recalls, oracle.recalls, "recalls");
    assert_eq!(stats.delayed_hits, oracle.delayed_hits, "delayed_hits");
    assert_eq!(stats.flush_jobs, oracle.flush_jobs, "flush_jobs");
    assert_eq!(stats.flush_bytes, oracle.flush_bytes, "flush_bytes");
    assert_eq!(stats.abandoned, 0, "compat mode never abandons");

    // The loadgen saw every reference answered.
    assert_eq!(report.sent, setup.refs.len() as u64);
    assert_eq!(
        report.hits + report.delayed_hits + report.recalls + report.writes,
        report.sent,
        "every request served (no failures, no rejections)"
    );

    // Durability: all flushed bytes landed at the origin.
    let drain = report.drain.expect("drain report");
    assert_eq!(
        drain.flush_bytes, drain.origin_flushed_bytes,
        "no writeback lost"
    );
    assert_eq!(drain.acked_writes, c.writes, "every write acked");

    // Wait distribution vs the oracle. Daemon and engine host the same
    // disk half and the virtual-time split preserves event causality,
    // so the p99 bucket is the oracle's — this is the guard that the
    // shared half reordered no tie.
    assert_eq!(
        report.read_waits.quantile(0.99),
        oracle.read_wait().quantile(0.99),
        "p99 read wait"
    );
    assert_eq!(
        report.read_waits.count(),
        oracle.read_wait().count(),
        "read wait sample counts"
    );
    (link, report.sent, stats)
}

/// The first cell (cache 0, policy 0) of the `imported` sweep matrix
/// with fault axis `[scenario]`, over a store imported from the pinned
/// MSR fixture: its rows, cache capacity, fault seed, horizon and
/// policy, exactly as the sweep runner derives them.
fn fixture_cell(scenario: FaultScenarioId) -> (CellSetup, PolicyId) {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/ingest/msr_sample.csv");
    let dir = std::env::temp_dir().join(format!(
        "fmig-service-oracle-{}-{}",
        scenario.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let input = BufReader::new(File::open(fixture).expect("fixture exists"));
    // The fixture's two malformed lines are diagnostics, not failures.
    import(FormatId::Msr, input, IngestConfig::default(), &dir, |_| {}).expect("import");
    let store = StoreReader::open(&dir).expect("open store");
    let refs: Vec<PreparedRef> = store
        .read_all()
        .expect("read store")
        .into_iter()
        .map(PreparedRef::from)
        .collect();
    let manifest = store.manifest().clone();
    let config = SweepConfig {
        faults: vec![scenario],
        ..SweepConfig::imported(dir.to_str().expect("utf-8 temp path"))
    };
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let capacity = ((manifest.referenced_bytes as f64 * config.cache_fractions[0]) as u64).max(1);
    let (span_start_vms, span_end_vms) = fault_horizon(manifest.epoch, manifest.last);
    let setup = CellSetup {
        scenario,
        refs,
        capacity,
        seed: config.cell_fault_seed(0, 0, 0, 0, 0, scenario),
        span_start_vms,
        span_end_vms,
    };
    (setup, config.policies[0])
}

#[test]
fn healthy_replay_matches_the_simulator_oracle() {
    replay_tiny(FaultScenarioId::None, 2);
}

#[test]
fn degraded_peak_replay_matches_the_simulator_oracle() {
    replay_tiny(FaultScenarioId::DegradedPeak, 2);
}

#[test]
fn single_connection_replay_matches_too() {
    replay_tiny(FaultScenarioId::None, 1);
}

/// A cell of a real-format trace, imported into the columnar store and
/// served live, is held to the same exact oracle as the tiny cell.
#[test]
fn imported_trace_replay_matches_the_simulator_oracle() {
    for scenario in [FaultScenarioId::None, FaultScenarioId::DegradedPeak] {
        let (setup, policy) = fixture_cell(scenario);
        let (_, sent, stats) = replay(&setup, policy, 2);
        assert_eq!(sent, 16, "the fixture imports 16 replayable records");
        // The cell is not trivial: it recalls, and coalesces onto a recall.
        assert!(stats.recalls > 0 && stats.delayed_hits > 0, "{stats:?}");
    }
}

/// The lookahead grant and the watermarks, as exact counts: the daemon
/// waits on the origin far less than once per reference — only when a
/// recall answer can be due, at the lag bound and at the drain — and how
/// the requests are dealt over connections does not change how often.
/// Only the advances the daemon makes whatever its grant may come back
/// without a recall answer.
#[test]
fn advance_round_trips_stay_below_one_per_reference() {
    // (scenario, blocking advances, empty ones, watermarks; advances and
    // watermarks when a grant covered everything queued, advances when
    // every grant was waited on, and when every step asked)
    let pinned = [
        (
            FaultScenarioId::None,
            536,
            4,
            2_350,
            (703, 1_843),
            2_202,
            15_739,
        ),
        (
            FaultScenarioId::DegradedPeak,
            540,
            4,
            2_351,
            (710, 2_013),
            2_958,
            15_733,
        ),
    ];
    for (scenario, advances, empty, watermarks, queued, every_grant, every_step) in pinned {
        let (one, refs) = replay_tiny(scenario, 1);
        let (two, _) = replay_tiny(scenario, 2);
        assert_eq!(one, two, "{scenario:?}: link counts moved with connections");
        assert!(
            one.advances < refs,
            "{scenario:?}: {} advances for {refs} references",
            one.advances
        );
        assert!(
            one.empty_advances <= one.forced_advances,
            "{scenario:?}: {} advances brought no recall answer, only {} were forced",
            one.empty_advances,
            one.forced_advances
        );
        assert_eq!(
            (one.advances, one.empty_advances, one.watermarks),
            (advances, empty, watermarks),
            "{scenario:?}: pinned at {advances} advances ({empty} empty) and {watermarks} \
             watermarks for 5,490 references ({} advances and {} watermarks when a grant \
             covered everything queued, {every_grant} advances when every grant was waited \
             on, {every_step} when every step asked); re-pin if the tape model moved",
            queued.0,
            queued.1
        );
    }
}
