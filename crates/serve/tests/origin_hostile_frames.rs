//! Hostile daemons: a `Recall` or `Flush` frame naming the `Disk` tier,
//! or any frame carrying a virtual time outside
//! `0..=DRAIN_HORIZON_VMS`, must end the origin session with an `Err` —
//! never reach the tape engine, never panic.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use fmig_serve::origin;
use fmig_serve::protocol::{Frame, DRAIN_HORIZON_VMS, NO_DEADLINE, PROTO_VERSION};
use fmig_trace::DeviceClass;

/// Handshakes with a live `origin::serve` thread, sends `frames`, and
/// returns how the session ended (a panic fails the test at the join).
fn session_result(frames: &[Frame]) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let addr = listener.local_addr().expect("origin addr");
    let origin = thread::spawn(move || origin::serve(listener));

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    Frame::OriginHello {
        version: PROTO_VERSION,
        seed: 7,
        scenario: 0,
        span_start_vms: 0,
        span_end_vms: 1_000_000,
    }
    .write_to(&mut writer)
    .expect("hello");
    writer.flush().expect("flush hello");
    match Frame::read_from(&mut reader).expect("hello ack") {
        Frame::OriginHelloAck { .. } => {}
        other => panic!("expected OriginHelloAck, got {other:?}"),
    }
    for frame in frames {
        // The origin may already have hung up on an earlier frame.
        if frame.write_to(&mut writer).is_err() || writer.flush().is_err() {
            break;
        }
    }
    // Hold the connection until the origin hangs up: closing early
    // would race the orderly-end path against the error we expect.
    while Frame::read_from(&mut reader).is_ok() {}
    origin
        .join()
        .expect("origin thread must not panic")
        .map(drop)
}

fn recall(tier: DeviceClass, enter_vms: i64) -> Frame {
    Frame::Recall {
        job: 1,
        file: 1,
        seq: 0,
        size: 1_000_000,
        tier,
        enter_vms,
        deadline_vms: NO_DEADLINE,
    }
}

fn flush(tier: DeviceClass, ready_vms: i64) -> Frame {
    Frame::Flush {
        job: 2,
        file: 1,
        seq: 0,
        size: 1_000_000,
        tier,
        ready_vms,
    }
}

#[test]
fn well_formed_sessions_still_end_cleanly() {
    let frames = [
        recall(DeviceClass::TapeSilo, 0),
        flush(DeviceClass::TapeManual, DRAIN_HORIZON_VMS),
        Frame::Advance {
            until_vms: DRAIN_HORIZON_VMS,
        },
        Frame::Shutdown,
    ];
    assert_eq!(session_result(&frames), Ok(()));
}

#[test]
fn hostile_tiers_and_times_end_the_session_with_an_error() {
    let hostile = [
        ("disk recall", recall(DeviceClass::Disk, 0)),
        ("disk flush", flush(DeviceClass::Disk, 0)),
        (
            "recall entering near i64::MAX",
            recall(DeviceClass::TapeSilo, i64::MAX - 1),
        ),
        (
            "recall entering before time zero",
            recall(DeviceClass::TapeSilo, -1),
        ),
        (
            "flush ready near i64::MAX",
            flush(DeviceClass::TapeSilo, i64::MAX),
        ),
        (
            "flush ready at i64::MIN",
            flush(DeviceClass::TapeManual, i64::MIN),
        ),
        (
            "advance past the horizon",
            Frame::Advance {
                until_vms: i64::MAX,
            },
        ),
        ("advance before time zero", Frame::Advance { until_vms: -5 }),
    ];
    for (what, frame) in hostile {
        // A well-formed recall first, so a hostile watermark has
        // something to run; a full drain last, so a hostile enqueue
        // that slipped through would reach the engine.
        let frames = [
            recall(DeviceClass::TapeSilo, 0),
            frame,
            Frame::Advance {
                until_vms: DRAIN_HORIZON_VMS,
            },
        ];
        let result = session_result(&frames);
        assert!(result.is_err(), "{what}: session ended {result:?}");
    }
}
