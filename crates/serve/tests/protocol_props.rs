//! Wire-codec properties: every frame type round-trips; truncated,
//! corrupted, and oversized frames come back as protocol errors —
//! never a panic, never an unbounded allocation.

use proptest::prelude::*;

use fmig_serve::protocol::{Frame, ProtoError, RejectReason, ServedKind, ServiceStats, MAX_FRAME};
use fmig_trace::DeviceClass;

/// Builds one frame of every wire type from a selector and a word pool,
/// so arbitrary (selector, words) tuples cover the full frame space.
fn frame_from(sel: u8, w: &[u64]) -> Frame {
    let g = |i: usize| w[i % w.len()];
    let gi = |i: usize| g(i) as i64;
    let device = match g(7) % 3 {
        0 => DeviceClass::Disk,
        1 => DeviceClass::TapeSilo,
        _ => DeviceClass::TapeManual,
    };
    let served = match g(8) % 5 {
        0 => ServedKind::Hit,
        1 => ServedKind::DelayedHit,
        2 => ServedKind::Recall,
        3 => ServedKind::Write,
        _ => ServedKind::Failed,
    };
    let reason = if g(9) % 2 == 0 {
        RejectReason::Draining
    } else {
        RejectReason::Shedding
    };
    let stats = ServiceStats {
        requests: g(0),
        read_hits: g(1),
        read_misses: g(2),
        read_hit_bytes: g(3),
        read_miss_bytes: g(4),
        writes: g(5),
        evictions: g(6),
        evicted_bytes: g(7),
        stall_bytes: g(8),
        purge_flush_bytes: g(9),
        writeback_bytes: g(10),
        fetch_retries: g(11),
        recalls: g(12),
        delayed_hits: g(13),
        flush_jobs: g(14),
        flush_bytes: g(15),
        abandoned: g(16),
        outage_events: g(17),
        outage_wait_vms: gi(18),
        slow_transfers: g(19),
    };
    match sel % 27 {
        0 => Frame::Hello {
            version: g(0) as u32,
            conn: g(1) as u32,
        },
        1 => Frame::HelloAck {
            version: g(0) as u32,
        },
        2 => Frame::ReadReq {
            req: g(0),
            file: g(1),
            size: g(2),
            time_s: gi(3),
            next_use: gi(4),
            device,
        },
        3 => Frame::WriteReq {
            req: g(0),
            file: g(1),
            size: g(2),
            time_s: gi(3),
            next_use: gi(4),
            device,
        },
        4 => Frame::Done {
            req: g(0),
            wait_vms: gi(1),
            served,
        },
        5 => Frame::Rejected { req: g(0), reason },
        6 => Frame::Drain,
        7 => Frame::DrainDone {
            acked_writes: g(0),
            acked_write_bytes: g(1),
            flush_jobs: g(2),
            flush_bytes: g(3),
            origin_flushed_bytes: g(4),
        },
        8 => Frame::StatsReq,
        9 => Frame::Stats(Box::new(stats)),
        10 => Frame::Shutdown,
        11 => Frame::OriginHello {
            version: g(0) as u32,
            seed: g(1),
            scenario: g(2) as u8,
            span_start_vms: gi(3),
            span_end_vms: gi(4),
        },
        12 => Frame::OriginHelloAck {
            version: g(0) as u32,
        },
        13 => Frame::Recall {
            job: g(0),
            file: g(1),
            seq: g(2),
            size: g(3),
            tier: device,
            enter_vms: gi(4),
            deadline_vms: gi(5),
        },
        14 => Frame::Flush {
            job: g(0),
            file: g(1),
            seq: g(2),
            size: g(3),
            tier: device,
            ready_vms: gi(4),
        },
        15 => Frame::Advance { until_vms: gi(0) },
        16 => Frame::AdvanceDone { now_vms: gi(0) },
        17 => Frame::RecallFirstByte {
            job: g(0),
            fb_vms: gi(1),
        },
        18 => Frame::RecallDone {
            job: g(0),
            done_vms: gi(1),
        },
        19 => Frame::RecallFailed {
            job: g(0),
            attempt: g(1) as u32,
            failed_vms: gi(2),
            drive_free_vms: gi(3),
        },
        20 => Frame::RecallRetry {
            job: g(0),
            rejoin_vms: gi(1),
        },
        21 => Frame::RecallAbandon { job: g(0) },
        22 => Frame::FlushDone {
            job: g(0),
            done_vms: gi(1),
            bytes: g(2),
        },
        23 => Frame::OriginDrainDone {
            outage_events: g(0),
            outage_wait_vms: gi(1),
            slow_transfers: g(2),
            flushed_bytes: g(3),
            recalls_completed: g(4),
            read_failures: g(5),
        },
        24 => Frame::Drain,
        25 => Frame::StatsReq,
        _ => Frame::Shutdown,
    }
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    frame.write_to(&mut buf).expect("encode");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every frame type round-trips the wire exactly.
    #[test]
    fn frames_roundtrip(
        sel in any::<u8>(),
        words in proptest::collection::vec(any::<u64>(), 20..21),
    ) {
        let frame = frame_from(sel, &words);
        let buf = encode(&frame);
        let decoded = Frame::read_from(&mut &buf[..]).expect("decode");
        prop_assert_eq!(frame, decoded);
    }

    /// Truncating a valid frame at any point yields a protocol error —
    /// never a panic, never a partial frame.
    #[test]
    fn truncated_frames_are_rejected(
        sel in any::<u8>(),
        words in proptest::collection::vec(any::<u64>(), 20..21),
        cut in any::<u16>(),
    ) {
        let frame = frame_from(sel, &words);
        let buf = encode(&frame);
        let cut = (cut as usize) % buf.len();
        let result = Frame::read_from(&mut &buf[..cut]);
        prop_assert!(result.is_err(), "truncated to {cut} of {}", buf.len());
    }

    /// Flipping any byte never panics: the decoder returns either a
    /// (different) valid frame or a protocol error.
    #[test]
    fn corrupted_frames_never_panic(
        sel in any::<u8>(),
        words in proptest::collection::vec(any::<u64>(), 20..21),
        at in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let frame = frame_from(sel, &words);
        let mut buf = encode(&frame);
        let at = (at as usize) % buf.len();
        buf[at] ^= xor;
        let _ = Frame::read_from(&mut &buf[..]);
    }

    /// A length prefix past the frame bound is rejected *before* any
    /// payload allocation, so a hostile peer cannot balloon memory.
    #[test]
    fn oversized_frames_are_rejected_without_allocation(
        len in (MAX_FRAME + 1)..u32::MAX,
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&tail);
        match Frame::read_from(&mut &buf[..]) {
            Err(ProtoError::Oversized(l)) => prop_assert_eq!(l, len),
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
    }

    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn random_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Frame::read_from(&mut &bytes[..]);
    }
}
