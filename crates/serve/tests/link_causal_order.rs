//! The causal order of the daemon↔origin link, on hand-built cells.
//!
//! The daemon reads the origin only when a recall answer can be due: its
//! held grant is the origin's floor (no recall in flight answered
//! before it) lowered to each new recall's own mount-plus-seek floor, and
//! the origin is told the daemon's clock by a `Watermark` ahead of every
//! job. Each cell below is replayed live — the real daemon, the real
//! origin, and a relay between them that watches the daemon's frames —
//! and every reply is held to the in-process oracle's outcome for the
//! same reference. A grant that promises too much shows up as an answer
//! timed behind the clock the daemon has run through (the session ends
//! in an error) or as a reply that differs from the oracle's; a job sent
//! ahead of its watermark shows up in the relay's count.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, PolicyId, SweepConfig};
use fmig_migrate::cache::CacheConfig;
use fmig_migrate::eval::PreparedRef;
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::origin;
use fmig_serve::protocol::{Frame, ServedKind, NO_NEXT_USE, PROTO_VERSION};
use fmig_sim::config::SimConfig;
use fmig_sim::fault::{fault_horizon, FaultPlan};
use fmig_sim::{HierarchySimulator, ServedBy};
use fmig_trace::{DeviceClass, FileId};

const SEED: u64 = 1993;

/// What the relay saw the daemon send the origin.
#[derive(Debug, Default)]
struct Link {
    recalls: u64,
    /// Recalls whose entry lies past everything the origin had been told
    /// to run through: the job joined before the origin reached the
    /// daemon's clock.
    early_recalls: u64,
    watermarks: u64,
    advances: u64,
}

/// Forwards one daemon session to the origin at `origin_addr`, frame by
/// frame, counting what the daemon sends.
fn relay(listener: TcpListener, origin_addr: String) -> Link {
    let (daemon, _) = listener.accept().expect("daemon connects");
    let origin = TcpStream::connect(origin_addr).expect("relay reaches the origin");
    let (mut up_from, mut up_to) = (
        origin.try_clone().expect("clone"),
        daemon.try_clone().expect("clone"),
    );
    let upstream = thread::spawn(move || {
        let _ = std::io::copy(&mut up_from, &mut up_to);
        let _ = up_to.shutdown(Shutdown::Write);
    });
    let mut from = BufReader::new(daemon);
    let mut to = BufWriter::new(origin);
    let (mut link, mut ran) = (Link::default(), i64::MIN);
    while let Ok(frame) = Frame::read_from(&mut from) {
        match frame {
            Frame::Recall { enter_vms, .. } => {
                link.recalls += 1;
                if enter_vms > ran {
                    link.early_recalls += 1;
                }
            }
            Frame::Watermark { until_vms } => {
                link.watermarks += 1;
                ran = ran.max(until_vms);
            }
            Frame::Advance { until_vms } => {
                link.advances += 1;
                ran = ran.max(until_vms);
            }
            _ => {}
        }
        if frame.write_to(&mut to).is_err() || to.flush().is_err() {
            break;
        }
    }
    let _ = to.get_ref().shutdown(Shutdown::Write);
    upstream.join().expect("upstream copy");
    link
}

/// A reference at `time_s` to file `file` (dense ids, first appearance
/// in order) of `size` bytes on `device`.
fn reference(file: u32, write: bool, size: u64, time_s: i64, device: DeviceClass) -> PreparedRef {
    PreparedRef {
        id: FileId::from(file),
        size,
        write,
        time: time_s,
        next_use: None,
        device,
    }
}

/// The oracle's reply to each reference: its wait in virtual ms and how
/// it was served.
fn oracle(refs: &[PreparedRef], policy: PolicyId) -> Vec<(i64, ServedKind)> {
    let mut replies = vec![(0, ServedKind::Failed); refs.len()];
    let horizon = fault_horizon(refs[0].time, refs[refs.len() - 1].time);
    HierarchySimulator::new(
        SimConfig::default()
            .with_seed(SEED)
            .with_counter_noise(true),
    )
    .run_streaming_with_faults(
        CacheConfig::with_capacity(1 << 40),
        policy.build().as_ref(),
        refs.iter().copied(),
        horizon,
        &FaultPlan::none(),
        |o| {
            let served = match o.served {
                ServedBy::DiskHit => ServedKind::Hit,
                ServedBy::DelayedHit => ServedKind::DelayedHit,
                ServedBy::Recall => ServedKind::Recall,
                ServedBy::DiskWrite => ServedKind::Write,
            };
            replies[o.index] = ((o.wait_s * 1000.0).round() as i64, served);
        },
    );
    replies
}

/// Replays `refs` live through the relay, one connection, then drains
/// and shuts down. Returns the daemon's replies in request order and
/// what the relay saw, or how the daemon session ended if not cleanly.
fn replay(
    refs: &[PreparedRef],
    policy: PolicyId,
) -> Result<(Vec<(i64, ServedKind)>, Link), String> {
    let bind = || TcpListener::bind("127.0.0.1:0").expect("bind");
    let origin_listener = bind();
    let origin_addr = origin_listener.local_addr().expect("addr").to_string();
    let origin = thread::spawn(move || origin::serve(origin_listener));
    let relay_listener = bind();
    let relay_addr = relay_listener.local_addr().expect("addr").to_string();
    let relay = thread::spawn(move || relay(relay_listener, origin_addr));

    let daemon_listener = bind();
    let daemon_addr = daemon_listener.local_addr().expect("addr");
    let horizon = fault_horizon(refs[0].time, refs[refs.len() - 1].time);
    let cfg = DaemonConfig::compat(
        relay_addr,
        1 << 40,
        policy,
        FaultScenarioId::None,
        SEED,
        horizon.0,
        horizon.1,
    );
    let daemon = thread::spawn(move || daemon::serve(daemon_listener, cfg));

    let stream = TcpStream::connect(daemon_addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let hello = Frame::Hello {
        version: PROTO_VERSION,
        conn: 0,
    };
    let requests = refs.iter().enumerate().map(|(req, r)| {
        let (req, file, size, time_s) = (req as u64, r.id.index() as u64, r.size, r.time);
        let (next_use, device) = (NO_NEXT_USE, r.device);
        match r.write {
            true => Frame::WriteReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            },
            false => Frame::ReadReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            },
        }
    });
    for frame in std::iter::once(hello).chain(requests).chain([Frame::Drain]) {
        frame.write_to(&mut writer).expect("request");
    }
    writer.flush().expect("flush");

    let mut replies = vec![None; refs.len()];
    let ended = loop {
        match Frame::read_from(&mut reader) {
            Ok(Frame::HelloAck { .. }) => {}
            Ok(Frame::Done {
                req,
                wait_vms,
                served,
            }) => replies[req as usize] = Some((wait_vms, served)),
            Ok(Frame::DrainDone { .. }) => {
                Frame::Shutdown.write_to(&mut writer).expect("shutdown");
                writer.flush().expect("flush");
                break None;
            }
            Ok(other) => panic!("unexpected reply {other:?}"),
            // The daemon ended the session before draining.
            Err(e) => break Some(e),
        }
    };
    let result = daemon.join().expect("daemon must not panic");
    let link = relay.join().expect("relay");
    origin.join().expect("origin must not panic").ok();
    result?;
    if let Some(e) = ended {
        return Err(format!("the drain never came back: {e}"));
    }
    let replies = replies
        .into_iter()
        .enumerate()
        .map(|(req, reply)| reply.unwrap_or_else(|| panic!("no reply to request {req}")))
        .collect();
    Ok((replies, link))
}

/// Replays `refs` live and holds every reply to the oracle's.
fn replay_matches_the_oracle(refs: &[PreparedRef]) -> Link {
    let policy = SweepConfig::tiny().policies[0];
    let (live, link) = replay(refs, policy).expect("the session ends cleanly");
    let want = oracle(refs, policy);
    for (req, (live, want)) in live.iter().zip(&want).enumerate() {
        assert_eq!(live, want, "request {req} at {} s", refs[req].time);
    }
    link
}

/// Every job joins an origin that has run through the daemon's clock:
/// the `Watermark` ahead of a recall reaches the recall's entry time, so
/// no stage event of the origin's that is due by then can be ordered
/// after the join. A write at 10 s leaves the origin run only to 10 s;
/// the reads at 200 s and 400 s recall with the daemon's clock far
/// ahead of it.
#[test]
fn every_recall_joins_an_origin_that_has_run_through_its_entry() {
    let silo = DeviceClass::TapeSilo;
    let refs = [
        reference(0, true, 5_000_000, 10, silo),
        reference(1, false, 20_000_000, 200, silo),
        reference(2, true, 5_000_000, 300, silo),
        reference(3, false, 20_000_000, 400, silo),
        reference(1, false, 20_000_000, 900, silo),
    ];
    let link = replay_matches_the_oracle(&refs);
    assert_eq!(link.recalls, 2);
    assert_eq!(link.early_recalls, 0, "{link:?}");
    assert!(link.watermarks >= 2, "{link:?}");
}

/// A recall lowers the daemon's grant to its own floor — entry plus
/// mount plus seek — and no further: its first byte can come no sooner,
/// and may come exactly then. A 100 MB read miss at 10 s has writes
/// arriving every 2 s behind it, well into its transfer, and re-reads of
/// the same file every 10 s, so a floor that reached past the first byte
/// would let the daemon's clock run past it and serve those re-reads as
/// if the file were further from staged than it is.
#[test]
fn the_first_byte_is_read_before_the_daemon_runs_past_it() {
    let silo = DeviceClass::TapeSilo;
    let mut refs = vec![reference(0, false, 100_000_000, 10, silo)];
    for f in 1..150 {
        let t = 10 + 2 * i64::from(f);
        refs.push(reference(f, true, 1_000_000, t, silo));
        if t % 10 == 0 {
            refs.push(reference(0, false, 100_000_000, t, silo));
        }
    }
    let link = replay_matches_the_oracle(&refs);
    assert_eq!(link.recalls, 1);
}

/// A recall that has finished its seek while flushes hold every tape
/// mover can start at the first mover release — a flush's transfer end,
/// which answers no recall. The origin's grant must stop there. Three
/// 2 GB writes land on tape from 30 s on for about 15 minutes; a 10 MB
/// read miss at 100 s is positioned long before a mover frees. Writes
/// every 20 s keep the daemon's clock moving through it all, and
/// re-reads of the recalled file every 100 s must find it staged exactly
/// when the oracle does.
#[test]
fn a_recall_waiting_on_a_mover_is_read_when_the_first_mover_frees() {
    let silo = DeviceClass::TapeSilo;
    let mut refs: Vec<PreparedRef> = (0..3)
        .map(|f| reference(f, true, 2_000_000_000, 1 + i64::from(f), silo))
        .collect();
    refs.push(reference(3, false, 10_000_000, 100, silo));
    for f in 4..104 {
        let t = 40 + 20 * i64::from(f);
        refs.push(reference(f, true, 1_000_000, t, silo));
        if t % 100 == 0 {
            refs.push(reference(3, false, 10_000_000, t, silo));
        }
    }
    let link = replay_matches_the_oracle(&refs);
    assert_eq!(link.recalls, 1);
}

/// A recall's grant stops at its first byte and does not run on to its
/// completion. A grant that reached past the transfer end would let the
/// daemon's clock pass the completion unread, and serve a re-read after
/// it as a wait on the recall where the oracle finds the file staged.
/// Four 100 MB read misses, 400 s apart, are each re-read every second
/// from before the earliest to after the latest completion their
/// jittered transfer allows, as the oracle places their first bytes; a
/// transfer drawn faster than the nominal rate ends before a grant that
/// adds the nominal transfer.
#[test]
fn re_reads_straddling_a_completion_find_the_file_staged_when_the_oracle_does() {
    const SIZE: u64 = 100_000_000;
    let silo = DeviceClass::TapeSilo;
    let policy = SweepConfig::tiny().policies[0];
    let misses: Vec<PreparedRef> = (0..4)
        .map(|f| reference(f, false, SIZE, 10 + 400 * i64::from(f), silo))
        .collect();
    let cfg = SimConfig::default();
    let nominal_ms = SIZE as f64 / cfg.rate_of(silo) * 1000.0;
    let earliest = (nominal_ms / (1.0 + cfg.rate_jitter)) as i64;
    let latest = (nominal_ms / (1.0 - cfg.rate_jitter)) as i64;
    let mut refs = Vec::new();
    for (f, (miss, (wait_ms, _))) in (0..).zip(misses.iter().zip(oracle(&misses, policy))) {
        // A recall's reply comes at its first byte.
        let first_byte_ms = miss.time * 1000 + wait_ms;
        refs.push(*miss);
        let re_reads = (first_byte_ms + earliest) / 1000 - 1..=(first_byte_ms + latest) / 1000 + 1;
        refs.extend(re_reads.map(|t| reference(f, false, SIZE, t, silo)));
    }
    let link = replay_matches_the_oracle(&refs);
    assert_eq!(link.recalls, 4);
}
