//! Batched hand-offs: the daemon moves client frames to its core, and
//! replies to each connection's writer, a batch at a time. A reply must
//! still never wait for more input: a client that pipelines a whole
//! conversation in one write and then only reads gets every reply.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::origin;
use fmig_serve::protocol::{Frame, PROTO_VERSION};
use fmig_sim::event::MS;

#[test]
fn no_reply_waits_for_more_input() {
    let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = origin_listener.local_addr().expect("origin addr");
    let origin_thread = thread::spawn(move || origin::serve(origin_listener));
    let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_listener.local_addr().expect("daemon addr");
    let cfg = DaemonConfig::compat(
        origin_addr.to_string(),
        1 << 30,
        SweepConfig::tiny().policies[0],
        FaultScenarioId::None,
        7,
        0,
        100_000 * MS,
    );
    let daemon_thread = thread::spawn(move || daemon::serve(daemon_listener, cfg));

    let stream = TcpStream::connect(daemon_addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let conversation = [
        Frame::Hello {
            version: PROTO_VERSION,
            conn: 0,
        },
        Frame::StatsReq,
        Frame::Drain,
        Frame::StatsReq,
    ];
    for frame in &conversation {
        frame.write_to(&mut writer).expect("send");
    }
    writer.flush().expect("flush");

    let mut reply = |what: &str| {
        Frame::read_from(&mut reader)
            .unwrap_or_else(|e| panic!("{what} never arrived without more input: {e}"))
    };
    assert!(matches!(reply("HelloAck"), Frame::HelloAck { .. }));
    assert!(matches!(reply("first Stats"), Frame::Stats(s) if s.requests == 0));
    assert!(matches!(
        reply("DrainDone"),
        Frame::DrainDone {
            acked_writes: 0,
            ..
        }
    ));
    assert!(matches!(reply("second Stats"), Frame::Stats(s) if s.requests == 0));

    Frame::Shutdown.write_to(&mut writer).expect("shutdown");
    writer.flush().expect("flush");
    daemon_thread
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon serve must not end in an error");
    origin_thread
        .join()
        .expect("origin thread")
        .expect("origin serve");
}
