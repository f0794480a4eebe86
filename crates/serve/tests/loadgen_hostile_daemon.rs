//! A hostile daemon: the request ids in `Done`/`Rejected` replies are
//! outside input to `fmig-loadgen`. A reply for a request the
//! connection never sent, or a second reply for one already answered,
//! must end `loadgen::run` with an `Err` — never a panic on the id,
//! never a report that counts the wrong replies, never a hang.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use fmig_core::FaultScenarioId;
use fmig_migrate::eval::PreparedRef;
use fmig_serve::loadgen::{self, CellSetup, LoadgenConfig};
use fmig_serve::protocol::{Frame, ServedKind, PROTO_VERSION};
use fmig_trace::{DeviceClass, FileId};

/// Answers `Hello`, swallows requests, and at the `StatsReq` barrier
/// sends a write's `Done` for each id in `answers`, then `Stats`.
/// The controller's connection sends no `StatsReq` and is only greeted.
fn serve_conn(stream: TcpStream, answers: &[u64]) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    while let Ok(frame) = Frame::read_from(&mut reader) {
        let replies: Vec<Frame> = match frame {
            Frame::Hello { .. } => vec![Frame::HelloAck {
                version: PROTO_VERSION,
            }],
            Frame::StatsReq => answers
                .iter()
                .map(|&req| Frame::Done {
                    req,
                    wait_vms: 0,
                    served: ServedKind::Write,
                })
                .chain([Frame::Stats(Box::default())])
                .collect(),
            _ => continue,
        };
        let sent = replies.iter().all(|f| f.write_to(&mut writer).is_ok());
        if !sent || writer.flush().is_err() {
            return;
        }
    }
}

/// Replays writes 0 and 1 over one connection against the scripted
/// daemon and returns how `loadgen::run` ended.
fn replay(answers: &'static [u64]) -> Result<loadgen::LoadgenReport, String> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let addr = listener.local_addr().expect("daemon addr").to_string();
    thread::spawn(move || {
        for stream in listener.incoming().map_while(Result::ok) {
            thread::spawn(move || serve_conn(stream, answers));
        }
    });
    let write = |i: u32| PreparedRef {
        id: FileId::new(i),
        size: 1_000,
        write: true,
        time: i64::from(i),
        next_use: None,
        device: DeviceClass::TapeSilo,
    };
    let setup = CellSetup {
        scenario: FaultScenarioId::None,
        refs: vec![write(0), write(1)],
        capacity: 1 << 20,
        seed: 7,
        span_start_vms: 0,
        span_end_vms: 1_000_000,
    };
    let cfg = LoadgenConfig {
        addr,
        connections: 1,
        limit: None,
        drain: false,
        stats: false,
        shutdown: false,
    };
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(loadgen::run(&cfg, &setup));
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("loadgen::run must return, not hang or panic")
}

#[test]
fn a_reply_for_a_request_never_sent_is_an_error() {
    let err = replay(&[0, 99]).expect_err("request 99 was never sent");
    assert!(err.contains("reply for request 99"), "{err}");
}

#[test]
fn a_second_reply_for_an_answered_request_is_an_error() {
    let err = replay(&[0, 0]).expect_err("request 0 twice");
    assert!(err.contains("request 0 answered twice"), "{err}");
}
