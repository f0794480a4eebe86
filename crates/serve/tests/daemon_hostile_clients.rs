//! Hostile clients: a well-formed frame that only a daemon sends, a
//! file id outside the dense `u32` space or far past the highest id
//! seen (one such frame would size the daemon's per-file arenas), or a
//! request time whose milliseconds the origin would refuse must cost
//! the sender its own connection and nothing else — the daemon neither
//! panics nor ends, and a replay running beside it still equals the
//! simulator oracle. The other side of the file-id rule: a well-behaved
//! client whose cold reads the degraded mode sheds keeps its connection
//! when it names the next new file.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_migrate::cache::CacheConfig;
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::loadgen::{self, LoadgenConfig};
use fmig_serve::origin;
use fmig_serve::protocol::{
    Frame, RejectReason, ServedKind, DRAIN_HORIZON_VMS, NO_NEXT_USE, PROTO_VERSION,
};
use fmig_sim::config::SimConfig;
use fmig_sim::event::MS;
use fmig_sim::HierarchySimulator;
use fmig_trace::DeviceClass;

fn read_req(file: u64, time_s: i64) -> Frame {
    Frame::ReadReq {
        // Request 0 is the replay's: were the frame admitted, it would
        // take that slot in the daemon's reorder buffer.
        req: 0,
        file,
        size: 1_000_000,
        time_s,
        next_use: NO_NEXT_USE,
        device: DeviceClass::TapeSilo,
    }
}

/// Says hello, asks for stats, sends `frame` — all in one write — and
/// waits for the daemon to hang up. The replies earned before the
/// hostile frame still arrive: dropping a connection hands its queued
/// replies to the writer first.
fn hostile_connection(daemon: SocketAddr, what: &str, frame: Frame) {
    let stream = TcpStream::connect(daemon).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    Frame::Hello {
        version: PROTO_VERSION,
        conn: 1000,
    }
    .write_to(&mut writer)
    .expect("hello");
    Frame::StatsReq.write_to(&mut writer).expect("stats req");
    frame.write_to(&mut writer).expect("hostile frame");
    writer.flush().expect("flush");
    match Frame::read_from(&mut reader) {
        Ok(Frame::HelloAck { .. }) => {}
        other => panic!("{what}: expected HelloAck, got {other:?}"),
    }
    match Frame::read_from(&mut reader) {
        Ok(Frame::Stats(_)) => {}
        other => panic!("{what}: expected Stats, got {other:?}"),
    }
    let after = Frame::read_from(&mut reader);
    assert!(after.is_err(), "{what}: connection survived: {after:?}");
}

#[test]
fn hostile_frames_cost_only_their_own_connection() {
    let scenario = FaultScenarioId::None;
    let setup = loadgen::tiny_cell(scenario);
    let policy_id = SweepConfig::tiny().policies[0];
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

    let hostile = [
        // Judged as it enters the reorder buffer, whatever slot it asks
        // for and however far the replay has come.
        (
            "file id far past the highest seen",
            read_req(u64::from(u32::MAX) - 1, 10),
        ),
        ("wrong-direction frame", Frame::AdvanceDone { now_vms: 0 }),
        ("file id past u32", read_req(1 << 32, 10)),
        ("time before zero", read_req(1, -1)),
        (
            "time past the horizon",
            read_req(1, DRAIN_HORIZON_VMS / MS + 1),
        ),
        ("time that wraps in ms", read_req(1, i64::MAX / 2)),
    ];
    let hostile_threads: Vec<_> = hostile
        .into_iter()
        .map(|(what, frame)| thread::spawn(move || hostile_connection(daemon_addr, what, frame)))
        .collect();

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
    )
    .expect("the replay beside the hostile connections");
    for h in hostile_threads {
        h.join().expect("hostile connection");
    }
    let stats = daemon_thread
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon serve must not end in an error");
    origin_thread
        .join()
        .expect("origin thread")
        .expect("origin serve");

    let c = oracle.cache;
    assert_eq!(stats.requests, setup.refs.len() as u64, "requests");
    assert_eq!(stats.read_hits, c.read_hits, "read_hits");
    assert_eq!(stats.read_misses, c.read_misses, "read_misses");
    assert_eq!(stats.writes, c.writes, "writes");
    assert_eq!(stats.evictions, c.evictions, "evictions");
    assert_eq!(stats.recalls, oracle.recalls, "recalls");
    assert_eq!(stats.delayed_hits, oracle.delayed_hits, "delayed_hits");
    assert_eq!(stats.flush_jobs, oracle.flush_jobs, "flush_jobs");
    assert_eq!(stats.flush_bytes, oracle.flush_bytes, "flush_bytes");
    assert_eq!(
        report.hits + report.delayed_hits + report.recalls + report.writes,
        setup.refs.len() as u64,
        "every replayed request served"
    );
    assert_eq!(
        report.read_waits.count(),
        oracle.read_wait().count(),
        "read wait sample counts"
    );
}

/// Live mode with every recall doomed (a 1 ms first-byte deadline, one
/// attempt) and a breaker that trips on the first failure and sheds
/// every cold read while open. Shed reads never reach the disk half,
/// yet the files they named count as seen: the client's next new file
/// is one past them, not a skip ahead.
#[test]
fn a_shed_cold_read_does_not_make_the_next_new_file_a_skip_ahead() {
    let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = origin_listener.local_addr().expect("origin addr");
    let origin_thread = thread::spawn(move || origin::serve(origin_listener));
    let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_listener.local_addr().expect("daemon addr");
    let mut cfg = DaemonConfig::compat(
        origin_addr.to_string(),
        1 << 30,
        SweepConfig::tiny().policies[0],
        FaultScenarioId::None,
        7,
        0,
        100_000 * MS,
    );
    cfg.deadline_ms = Some(1);
    cfg.retry.max_attempts = 1;
    cfg.breaker_threshold = 1;
    cfg.breaker_cooldown_ms = DRAIN_HORIZON_VMS;
    cfg.queue_bound = 0;
    let daemon_thread = thread::spawn(move || daemon::serve(daemon_listener, cfg));

    let stream = TcpStream::connect(daemon_addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let request = |req: u64, time_s, write| {
        let (file, size, next_use, device) = (req, 1_000_000, NO_NEXT_USE, DeviceClass::TapeSilo);
        if write {
            Frame::WriteReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            }
        } else {
            Frame::ReadReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            }
        }
    };
    let frames = [
        Frame::Hello {
            version: PROTO_VERSION,
            conn: 0,
        },
        // File 0's recall misses its deadline long before the next
        // request: abandoned, and the breaker opens.
        request(0, 10, false),
        // Files 1 and 2 are cold: shed. File 3 is a write, never shed.
        request(1, 10_000, false),
        request(2, 10_100, false),
        request(3, 10_200, true),
        Frame::Drain,
        Frame::StatsReq,
        Frame::Shutdown,
    ];
    for frame in &frames {
        frame.write_to(&mut writer).expect("send");
    }
    writer.flush().expect("flush");

    let mut replies = Vec::new();
    loop {
        match Frame::read_from(&mut reader).expect("the connection must survive the shed reads") {
            Frame::Stats(stats) => {
                assert_eq!(stats.requests, 2, "the failed read and the write arrived");
                assert_eq!(stats.abandoned, 1);
                break;
            }
            Frame::DrainDone { acked_writes, .. } => assert_eq!(acked_writes, 1),
            Frame::Done { req, served, .. } => replies.push((req, Ok(served))),
            Frame::Rejected { req, reason } => replies.push((req, Err(reason))),
            Frame::HelloAck { .. } => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!(
        replies,
        [
            (0, Ok(ServedKind::Failed)),
            (1, Err(RejectReason::Shedding)),
            (2, Err(RejectReason::Shedding)),
            (3, Ok(ServedKind::Write)),
        ]
    );
    daemon_thread
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon serve must not end in an error");
    origin_thread
        .join()
        .expect("origin thread")
        .expect("origin serve");
}
