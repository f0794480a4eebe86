//! Graceful shutdown and restart: draining the daemon mid-replay loses
//! no acked write's writeback, rejects late arrivals cleanly, and a
//! restarted (cold-cache) daemon replaying the same deterministic
//! single-connection prefix produces byte-identical loadgen accounting.
//! A write-only replay, which never has a recall in flight, still drains
//! in bounded time: the lag bound makes the daemon read the origin.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_migrate::eval::PreparedRef;
use fmig_serve::daemon::{self, DaemonConfig, WATERMARK_LAG};
use fmig_serve::loadgen::{self, CellSetup, LoadgenConfig};
use fmig_serve::origin;
use fmig_serve::protocol::{Frame, RejectReason, NO_NEXT_USE};
use fmig_trace::{DeviceClass, FileId};

/// Boots a fresh origin + daemon pair, replays the first `limit`
/// references on one connection, drains, then verifies a late request
/// is rejected and shuts everything down. Returns the deterministic
/// accounting JSON.
fn drained_run(setup: &CellSetup, limit: usize) -> String {
    let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = origin_listener.local_addr().expect("origin addr");
    let origin_thread = thread::spawn(move || origin::serve(origin_listener));

    let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_listener.local_addr().expect("daemon addr");
    let cfg = DaemonConfig::compat(
        origin_addr.to_string(),
        setup.capacity,
        SweepConfig::tiny().policies[0],
        setup.scenario,
        setup.seed,
        setup.span_start_vms,
        setup.span_end_vms,
    );
    let daemon_thread = thread::spawn(move || daemon::serve(daemon_listener, cfg));

    // Replay a prefix and drain — but do not shut down yet.
    let report = loadgen::run(
        &LoadgenConfig {
            addr: daemon_addr.to_string(),
            connections: 1,
            limit: Some(limit),
            drain: true,
            stats: true,
            shutdown: false,
        },
        setup,
    )
    .expect("loadgen run");

    // No acked write lost its writeback: every flushed byte the daemon
    // accounted was confirmed landed by the origin before DrainDone.
    let drain = report.drain.expect("drain report");
    assert_eq!(
        drain.flush_bytes, drain.origin_flushed_bytes,
        "writeback bytes lost in the drain"
    );
    assert_eq!(
        drain.acked_writes, report.writes,
        "daemon acked more writes than the client saw acknowledged"
    );

    // A request arriving after the drain is refused, not dropped.
    let stream = TcpStream::connect(daemon_addr).expect("late connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let hello = Frame::Hello {
        version: fmig_serve::PROTO_VERSION,
        conn: 99,
    };
    hello.write_to(&mut writer).expect("hello");
    writer.flush().expect("flush");
    match Frame::read_from(&mut reader).expect("hello ack") {
        Frame::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    let late = &setup.refs[limit];
    Frame::ReadReq {
        req: limit as u64,
        file: late.id.index() as u64,
        size: late.size,
        time_s: late.time,
        next_use: late.next_use.unwrap_or(NO_NEXT_USE),
        device: late.device,
    }
    .write_to(&mut writer)
    .expect("late request");
    writer.flush().expect("flush");
    match Frame::read_from(&mut reader).expect("late reply") {
        Frame::Rejected {
            req,
            reason: RejectReason::Draining,
        } => assert_eq!(req, limit as u64),
        other => panic!("expected Rejected(Draining), got {other:?}"),
    }

    Frame::Shutdown.write_to(&mut writer).expect("shutdown");
    writer.flush().expect("flush");

    daemon_thread
        .join()
        .expect("daemon thread")
        .expect("daemon serve");
    origin_thread
        .join()
        .expect("origin thread")
        .expect("origin serve");
    report.accounting_json()
}

#[test]
fn drain_then_cold_restart_replays_byte_identical() {
    let setup = loadgen::tiny_cell(FaultScenarioId::None);
    let limit = 400.min(setup.refs.len() - 1);
    let first = drained_run(&setup, limit);
    // "Restart": a brand-new daemon+origin pair, cold cache, same
    // deterministic single-connection prefix.
    let second = drained_run(&setup, limit);
    assert_eq!(
        first, second,
        "cold restart accounting diverged from the first run"
    );
    // The accounting is non-trivial: it saw writes and recalls.
    assert!(first.contains("\"svc_recalls\":"), "{first}");
}

#[test]
fn degraded_drain_loses_nothing_either() {
    let setup = loadgen::tiny_cell(FaultScenarioId::DegradedPeak);
    let limit = 300.min(setup.refs.len() - 1);
    let first = drained_run(&setup, limit);
    let second = drained_run(&setup, limit);
    assert_eq!(first, second);
}

#[test]
fn a_write_only_replay_reads_the_origin_at_the_lag_bound_and_drains() {
    let writes = 10 * WATERMARK_LAG + 7;
    // Writes only, over 97 files named in first-appearance order: no
    // read, so no recall is ever in flight.
    let refs: Vec<PreparedRef> = (0..writes)
        .map(|i| PreparedRef {
            id: FileId::from(i % 97),
            size: 1_000_000 + u64::from(i),
            write: true,
            time: 5 * i64::from(i),
            next_use: None,
            device: DeviceClass::TapeSilo,
        })
        .collect();
    let setup = CellSetup {
        scenario: FaultScenarioId::None,
        refs,
        capacity: 40_000_000,
        seed: 11,
        span_start_vms: 0,
        span_end_vms: 10_000_000,
    };
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
        let origin_addr = origin_listener.local_addr().expect("origin addr");
        let origin_thread = thread::spawn(move || origin::serve(origin_listener));
        let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
        let daemon_addr = daemon_listener.local_addr().expect("daemon addr");
        let cfg = DaemonConfig::compat(
            origin_addr.to_string(),
            setup.capacity,
            SweepConfig::tiny().policies[0],
            setup.scenario,
            setup.seed,
            setup.span_start_vms,
            setup.span_end_vms,
        );
        let daemon_thread = thread::spawn(move || daemon::serve(daemon_listener, cfg));
        let report = loadgen::run(
            &LoadgenConfig {
                addr: daemon_addr.to_string(),
                connections: 2,
                limit: None,
                drain: true,
                stats: true,
                shutdown: true,
            },
            &setup,
        );
        let daemon = daemon_thread.join().expect("daemon thread");
        let origin = origin_thread.join().expect("origin thread");
        let _ = tx.send((report, daemon, origin));
    });
    let (report, daemon, origin) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a write-only replay must finish, not hang");
    let report = report.expect("loadgen run");
    let stats = daemon.expect("daemon serve");
    let link = origin.expect("origin serve");

    assert_eq!(report.writes, u64::from(writes), "every write acked");
    let drain = report.drain.expect("drain report");
    assert_eq!(drain.flush_jobs, u64::from(writes), "one flush per write");
    assert_eq!(
        drain.origin_flushed_bytes, drain.flush_bytes,
        "writeback bytes lost in the drain"
    );
    assert_eq!(stats.recalls, 0, "a write-only replay recalls nothing");
    assert!(
        link.advances >= u64::from(writes / WATERMARK_LAG),
        "{} blocking advances for {writes} writes at lag bound {WATERMARK_LAG}",
        link.advances
    );
    assert!(link.watermarks > 0, "{link:?}");
}
