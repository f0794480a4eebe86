//! Hostile clients: a well-formed frame that only a daemon sends, a
//! file id outside the dense `u32` space, or a request time whose
//! milliseconds the origin would refuse must cost the sender its own
//! connection and nothing else — the daemon neither panics nor ends,
//! and a replay running beside it still equals the simulator oracle.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_migrate::cache::CacheConfig;
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::loadgen::{self, LoadgenConfig};
use fmig_serve::origin;
use fmig_serve::protocol::{Frame, DRAIN_HORIZON_VMS, NO_NEXT_USE, PROTO_VERSION};
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

/// Says hello, sends `frame`, and waits for the daemon to hang up.
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
    frame.write_to(&mut writer).expect("hostile frame");
    writer.flush().expect("flush");
    match Frame::read_from(&mut reader).expect("hello ack") {
        Frame::HelloAck { .. } => {}
        other => panic!("{what}: expected HelloAck, got {other:?}"),
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
