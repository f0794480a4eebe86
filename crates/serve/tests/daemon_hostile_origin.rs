//! Hostile origins: the lookahead grant in `AdvanceDone` steers the
//! daemon's clock, so a grant short of the requested watermark or past
//! `DRAIN_HORIZON_VMS` must end the daemon session with an `Err` —
//! never a panic, never a hang. So must an answer the shared disk half
//! refuses — a recall's first byte delivered twice would resolve its
//! reference twice — a recall answer timed behind the clock the daemon
//! has already run through (the sign of a peer whose answer floor
//! disagrees with the daemon's), and a drain report whose `flushed_bytes`
//! disagrees with the `FlushDone` frames the daemon counted. An origin that merely
//! echoes the watermark (the pre-grant behaviour) is a grant of zero
//! lookahead and stays a valid peer. With no recall in flight the daemon
//! reads no grant until it drains or its written-but-unread job frames
//! reach `WATERMARK_LAG`, so the bad-grant clients end there.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_serve::daemon::{self, DaemonConfig, WATERMARK_LAG};
use fmig_serve::protocol::{
    Frame, ServedKind, ServiceStats, DRAIN_HORIZON_VMS, NO_NEXT_USE, PROTO_VERSION,
};
use fmig_trace::DeviceClass;

/// A scripted origin: handshakes, swallows enqueues and watermarks, and
/// answers every `Advance { until_vms }` with
/// `AdvanceDone { now_vms: grant(until_vms) }` until the daemon hangs up.
/// The first `Advance` after a `Recall` is answered with that recall's
/// first byte — twice — and a `Drain` with a report of one flushed byte,
/// which no `FlushDone` ever carried. Returns how many `Watermark`s came
/// before the first `Advance`.
fn fake_origin(listener: TcpListener, grant: fn(i64) -> i64) -> u32 {
    let (mut reader, mut writer) = handshake(listener);
    let mut recalled = None;
    let (mut watermarks, mut advanced) = (0, false);
    while let Ok(frame) = Frame::read_from(&mut reader) {
        let mut replies = Vec::new();
        match frame {
            Frame::Recall { job, .. } => recalled = Some(job),
            Frame::Watermark { .. } if !advanced => watermarks += 1,
            Frame::Advance { until_vms } => {
                advanced = true;
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
                return watermarks;
            }
        }
        if writer.flush().is_err() {
            return watermarks;
        }
    }
    watermarks
}

/// Accepts the daemon and answers its `OriginHello`.
fn handshake(listener: TcpListener) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
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
    (reader, writer)
}

/// A scripted origin whose recall answers come late: every `Advance`
/// is granted exactly its watermark, and the first recall is answered —
/// first byte, then completion — only at the second `Advance` after it,
/// both timed at the recall's entry, behind the clock the daemon ran
/// through on the first grant. Returns 0, as no watermark is counted.
fn late_origin(listener: TcpListener) -> u32 {
    let (mut reader, mut writer) = handshake(listener);
    let (mut recalled, mut advances_since) = (None, 0);
    while let Ok(frame) = Frame::read_from(&mut reader) {
        let mut replies = Vec::new();
        match frame {
            Frame::Recall { job, enter_vms, .. } if recalled.is_none() => {
                recalled = Some((job, enter_vms));
            }
            Frame::Advance { until_vms } => {
                advances_since += 1;
                if let (Some((job, at)), 2) = (recalled, advances_since) {
                    replies.push(Frame::RecallFirstByte { job, fb_vms: at });
                    replies.push(Frame::RecallDone { job, done_vms: at });
                }
                replies.push(Frame::AdvanceDone { now_vms: until_vms });
            }
            _ => {}
        }
        for reply in replies {
            if reply.write_to(&mut writer).is_err() {
                return 0;
            }
        }
        if writer.flush().is_err() {
            return 0;
        }
    }
    0
}

/// What the client does once it has said hello.
#[derive(Clone, Copy)]
enum Client {
    /// Two writes and a `Drain`; nothing is read back.
    WritesThenDrain,
    /// `WATERMARK_LAG + 1` writes; nothing is read back. No recall is
    /// ever in flight, so only the lag bound makes the daemon block.
    WritesPastTheLag,
    /// Two writes, then wait for the first one's `Done` and shut down.
    WritesThenShutdown,
    /// Two reads of missing files.
    Reads,
    /// Two reads of missing files and a `Drain`.
    ReadsThenDrain,
    /// A `Drain` of the idle daemon.
    Drain,
}

/// Boots a live `daemon::serve` against the scripted origin, plays the
/// client's part, and returns how the daemon session ended, with the
/// number of `Watermark`s the origin read before its first `Advance`.
fn session_result(grant: fn(i64) -> i64, client: Client) -> (Result<ServiceStats, String>, u32) {
    session_with(move |listener| fake_origin(listener, grant), client)
}

/// [`session_result`] against any scripted origin.
fn session_with(
    origin: impl FnOnce(TcpListener) -> u32 + Send + 'static,
    client: Client,
) -> (Result<ServiceStats, String>, u32) {
    let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = origin_listener.local_addr().expect("origin addr");
    let origin = thread::spawn(move || origin(origin_listener));

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
    // The second request, later in virtual time, runs the daemon's clock
    // past the first's dispatch — a write's disk service, so its `Done`
    // goes out; a read's recall, so an `Advance` reaches the origin after
    // it. Dense file ids in first-appearance order, as every client sends.
    let count = match client {
        Client::WritesPastTheLag => u64::from(WATERMARK_LAG) + 1,
        _ => 2,
    };
    let requests: Vec<Frame> = (0..count)
        .map(|req| {
            let time_s = 10 + 90 * req as i64;
            let (file, size, next_use, device) =
                (req, 1_000_000, NO_NEXT_USE, DeviceClass::TapeSilo);
            if let Client::Reads | Client::ReadsThenDrain = client {
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
        })
        .collect();
    let frames = match client {
        Client::Drain => vec![Frame::Drain],
        Client::WritesThenDrain | Client::ReadsThenDrain => {
            [&requests[..], &[Frame::Drain]].concat()
        }
        _ => requests,
    };
    for frame in &frames {
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
    let watermarks = origin.join().expect("fake origin thread");
    (result, watermarks)
}

#[test]
fn an_echoing_origin_is_a_grant_of_zero_lookahead() {
    let stats = session_result(|until| until, Client::WritesThenShutdown)
        .0
        .expect("echo is a valid grant");
    assert_eq!(stats.requests, 2);
}

#[test]
fn a_grant_short_of_the_watermark_ends_the_session_with_an_error() {
    let (result, _) = session_result(|until| until - 1, Client::WritesThenDrain);
    let err = result.expect_err("short grant");
    assert!(err.contains("origin granted"), "{err}");
}

#[test]
fn a_grant_past_the_horizon_ends_the_session_with_an_error() {
    let (result, _) = session_result(|_| DRAIN_HORIZON_VMS + 1, Client::WritesThenDrain);
    let err = result.expect_err("over-horizon grant");
    assert!(err.contains("origin granted"), "{err}");
}

#[test]
fn a_short_grant_after_a_run_of_watermarks_ends_the_session_with_an_error() {
    let (result, watermarks) = session_result(|until| until - 1, Client::WritesPastTheLag);
    let err = result.expect_err("short grant at the lag bound");
    assert!(err.contains("origin granted"), "{err}");
    // Every write owed a watermark ahead of its flush, and the daemon
    // first blocked at the lag bound, not before.
    assert_eq!(watermarks, WATERMARK_LAG);
}

#[test]
fn a_first_byte_delivered_twice_ends_the_session_with_an_error() {
    let (result, _) = session_result(|until| until, Client::Reads);
    let err = result.expect_err("double first byte");
    assert!(err.contains("ResolvedTwice"), "{err}");
}

#[test]
fn a_drain_report_that_disagrees_on_flushed_bytes_ends_the_session_with_an_error() {
    let (result, _) = session_result(|until| until, Client::Drain);
    let err = result.expect_err("wrong flushed_bytes");
    assert!(err.contains("flush accounting diverged"), "{err}");
}

#[test]
fn a_recall_answer_behind_the_daemons_clock_ends_the_session_with_an_error() {
    let (result, _) = session_with(late_origin, Client::ReadsThenDrain);
    let err = result.expect_err("late first byte");
    assert!(err.contains("behind the daemon's clock"), "{err}");
}
