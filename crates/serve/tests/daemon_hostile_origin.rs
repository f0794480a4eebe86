//! Hostile origins: the lookahead grant in `AdvanceDone` steers the
//! daemon's clock, so a grant short of the requested watermark or past
//! `DRAIN_HORIZON_VMS` must end the daemon session with an `Err` —
//! never a panic, never a hang. So must an answer the shared disk half
//! refuses — a recall's first byte delivered twice would resolve its
//! reference twice — and a drain report whose `flushed_bytes` disagrees
//! with the `FlushDone` frames the daemon counted. An origin that merely
//! echoes the watermark (the pre-grant behaviour) is a grant of zero
//! lookahead and stays a valid peer.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::protocol::{
    Frame, ServedKind, ServiceStats, DRAIN_HORIZON_VMS, NO_NEXT_USE, PROTO_VERSION,
};
use fmig_trace::DeviceClass;

/// A scripted origin: handshakes, swallows enqueues, and answers every
/// `Advance { until_vms }` with `AdvanceDone { now_vms: grant(until_vms) }`
/// until the daemon hangs up. The first `Advance` after a `Recall` is
/// answered with that recall's first byte — twice — and a `Drain` with
/// a report of one flushed byte, which no `FlushDone` ever carried.
fn fake_origin(listener: TcpListener, grant: fn(i64) -> i64) {
    let (stream, _) = listener.accept().expect("daemon connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    match Frame::read_from(&mut reader).expect("origin hello") {
        Frame::OriginHello { .. } => {}
        other => panic!("expected OriginHello, got {other:?}"),
    }
    Frame::OriginHelloAck {
        version: PROTO_VERSION,
    }
    .write_to(&mut writer)
    .expect("hello ack");
    writer.flush().expect("flush ack");
    let mut recalled = None;
    while let Ok(frame) = Frame::read_from(&mut reader) {
        let mut replies = Vec::new();
        match frame {
            Frame::Recall { job, .. } => recalled = Some(job),
            Frame::Advance { until_vms } => {
                if let Some(job) = recalled.take() {
                    let first_byte = Frame::RecallFirstByte {
                        job,
                        fb_vms: until_vms,
                    };
                    replies.extend([first_byte.clone(), first_byte]);
                }
                replies.push(Frame::AdvanceDone {
                    now_vms: grant(until_vms),
                });
            }
            Frame::Drain => replies.push(Frame::OriginDrainDone {
                outage_events: 0,
                outage_wait_vms: 0,
                slow_transfers: 0,
                flushed_bytes: 1,
                recalls_completed: 0,
                read_failures: 0,
            }),
            _ => {}
        }
        for reply in replies {
            if reply.write_to(&mut writer).is_err() {
                return;
            }
        }
        if writer.flush().is_err() {
            return;
        }
    }
}

/// What the client does once it has said hello.
#[derive(Clone, Copy)]
enum Client {
    /// Two writes; nothing is read back.
    Writes,
    /// Two writes, then wait for the first one's `Done` and shut down.
    WritesThenShutdown,
    /// Two reads of missing files.
    Reads,
    /// A `Drain` of the idle daemon.
    Drain,
}

/// Boots a live `daemon::serve` against the scripted origin, plays the
/// client's part, and returns how the daemon session ended.
fn session_result(grant: fn(i64) -> i64, client: Client) -> Result<ServiceStats, String> {
    let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = origin_listener.local_addr().expect("origin addr");
    let origin = thread::spawn(move || fake_origin(origin_listener, grant));

    let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_listener.local_addr().expect("daemon addr");
    let cfg = DaemonConfig::compat(
        origin_addr.to_string(),
        1 << 30,
        SweepConfig::tiny().policies[0],
        FaultScenarioId::None,
        7,
        0,
        1_000_000,
    );
    let (result_tx, result_rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = result_tx.send(daemon::serve(daemon_listener, cfg));
    });

    let stream = TcpStream::connect(daemon_addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    Frame::Hello {
        version: PROTO_VERSION,
        conn: 0,
    }
    .write_to(&mut writer)
    .expect("hello");
    // The first request's arrival forces an `Advance`; the second,
    // later in virtual time, runs the daemon's clock past the first's
    // dispatch — a write's disk service, so its `Done` goes out; a
    // read's recall, so the next `Advance` reaches the origin after it.
    // Dense file ids in first-appearance order, as every client sends.
    let requests = [(0, 10), (1, 100)].map(|(req, time_s)| {
        let (file, size, next_use, device) = (req, 1_000_000, NO_NEXT_USE, DeviceClass::TapeSilo);
        if let Client::Reads = client {
            Frame::ReadReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            }
        } else {
            Frame::WriteReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            }
        }
    });
    let frames = match client {
        Client::Drain => &[Frame::Drain][..],
        _ => &requests[..],
    };
    for frame in frames {
        frame.write_to(&mut writer).expect("request");
    }
    writer.flush().expect("flush");
    if let Client::WritesThenShutdown = client {
        match Frame::read_from(&mut reader).expect("hello ack") {
            Frame::HelloAck { .. } => {}
            other => panic!("expected HelloAck, got {other:?}"),
        }
        match Frame::read_from(&mut reader).expect("write reply") {
            Frame::Done {
                req: 0,
                served: ServedKind::Write,
                ..
            } => {}
            other => panic!("expected the first write's Done, got {other:?}"),
        }
        Frame::Shutdown.write_to(&mut writer).expect("shutdown");
        writer.flush().expect("flush");
    }

    let result = result_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("daemon::serve must return, not hang or panic");
    origin.join().expect("fake origin thread");
    result
}

#[test]
fn an_echoing_origin_is_a_grant_of_zero_lookahead() {
    let stats =
        session_result(|until| until, Client::WritesThenShutdown).expect("echo is a valid grant");
    assert_eq!(stats.requests, 2);
}

#[test]
fn a_grant_short_of_the_watermark_ends_the_session_with_an_error() {
    let err = session_result(|until| until - 1, Client::Writes).expect_err("short grant");
    assert!(err.contains("origin granted"), "{err}");
}

#[test]
fn a_grant_past_the_horizon_ends_the_session_with_an_error() {
    let err =
        session_result(|_| DRAIN_HORIZON_VMS + 1, Client::Writes).expect_err("over-horizon grant");
    assert!(err.contains("origin granted"), "{err}");
}

#[test]
fn a_first_byte_delivered_twice_ends_the_session_with_an_error() {
    let err = session_result(|until| until, Client::Reads).expect_err("double first byte");
    assert!(err.contains("ResolvedTwice"), "{err}");
}

#[test]
fn a_drain_report_that_disagrees_on_flushed_bytes_ends_the_session_with_an_error() {
    let err = session_result(|until| until, Client::Drain).expect_err("wrong flushed_bytes");
    assert!(err.contains("flush accounting diverged"), "{err}");
}
