//! A frame-counting pass-through proxy for the daemon↔origin link.
//!
//! Traced pass only: the harness points the daemon at the proxy and the
//! proxy at the origin, copies bytes both ways untouched, and parses
//! just enough of the wire format (`u32` little-endian length, one type
//! byte, payload) to count frames, bytes, and `Advance` watermarks —
//! the one-round-trip-per-request suspicion in the roadmap becomes a
//! number without touching `fmig-serve`. The extra hop costs time, so
//! the end-to-end pass and the transport metric never run through it.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

use fmig_serve::Frame;

/// Counts of one direction of the link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounts {
    /// Complete frames seen.
    pub frames: u64,
    /// Bytes forwarded, length prefixes included.
    pub bytes: u64,
    /// Frames whose type byte is `Advance`'s.
    pub advances: u64,
}

impl LinkCounts {
    /// Field-wise sum.
    pub fn plus(self, other: LinkCounts) -> LinkCounts {
        LinkCounts {
            frames: self.frames + other.frames,
            bytes: self.bytes + other.bytes,
            advances: self.advances + other.advances,
        }
    }
}

/// Incremental parser of the length-prefixed stream: feed it the bytes
/// in whatever pieces the socket delivers them.
#[derive(Debug)]
pub struct FrameCounter {
    counts: LinkCounts,
    advance_type: u8,
    /// Length-prefix bytes gathered so far.
    prefix: [u8; 4],
    prefix_len: usize,
    /// Body bytes of the current frame still to come; `None` while the
    /// prefix is incomplete.
    body_left: Option<u32>,
    /// Whether the current frame's type byte has been seen.
    typed: bool,
}

impl FrameCounter {
    /// A counter that recognises `Advance` by the type byte the codec
    /// itself emits for it.
    pub fn new() -> Self {
        let advance_type = Frame::Advance { until_vms: 0 }.encode_body()[0];
        FrameCounter {
            counts: LinkCounts::default(),
            advance_type,
            prefix: [0; 4],
            prefix_len: 0,
            body_left: None,
            typed: false,
        }
    }

    /// Consumes the next piece of the stream.
    pub fn feed(&mut self, mut chunk: &[u8]) {
        self.counts.bytes += chunk.len() as u64;
        while !chunk.is_empty() {
            match self.body_left {
                None => {
                    let take = (4 - self.prefix_len).min(chunk.len());
                    self.prefix[self.prefix_len..self.prefix_len + take]
                        .copy_from_slice(&chunk[..take]);
                    self.prefix_len += take;
                    chunk = &chunk[take..];
                    if self.prefix_len == 4 {
                        self.prefix_len = 0;
                        self.typed = false;
                        self.body_left = Some(u32::from_le_bytes(self.prefix));
                        self.finish_if_complete();
                    }
                }
                Some(left) => {
                    if !self.typed {
                        self.typed = true;
                        if chunk[0] == self.advance_type {
                            self.counts.advances += 1;
                        }
                    }
                    let take = (left as usize).min(chunk.len());
                    chunk = &chunk[take..];
                    self.body_left = Some(left - take as u32);
                    self.finish_if_complete();
                }
            }
        }
    }

    fn finish_if_complete(&mut self) {
        if self.body_left == Some(0) {
            self.body_left = None;
            self.counts.frames += 1;
        }
    }

    /// Counts so far (a partial frame counts its bytes, not a frame).
    pub fn counts(&self) -> LinkCounts {
        self.counts
    }
}

/// A running proxy; [`LinkProxy::finish`] joins it.
#[derive(Debug)]
pub struct LinkProxy {
    /// Where the daemon should connect instead of the origin.
    pub addr: SocketAddr,
    handle: JoinHandle<Result<(LinkCounts, LinkCounts), String>>,
}

/// Copies `from` to `to` until EOF, counting frames on the way, then
/// half-closes `to` so the peer sees the EOF too.
fn pump(mut from: TcpStream, mut to: TcpStream) -> Result<LinkCounts, String> {
    let mut counter = FrameCounter::new();
    let mut buf = vec![0u8; 64 << 10];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            // A reset at teardown is the peer closing first.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => return Err(format!("proxy read: {e}")),
        };
        counter.feed(&buf[..n]);
        to.write_all(&buf[..n])
            .map_err(|e| format!("proxy write: {e}"))?;
    }
    let _ = to.shutdown(Shutdown::Write);
    Ok(counter.counts())
}

impl LinkProxy {
    /// Starts a proxy in front of `origin`; it serves the one daemon
    /// session the origin itself would.
    pub fn spawn(origin: SocketAddr) -> Result<LinkProxy, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("proxy bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("proxy addr: {e}"))?;
        let handle = std::thread::spawn(move || {
            let (daemon, _) = listener
                .accept()
                .map_err(|e| format!("proxy accept: {e}"))?;
            let upstream = TcpStream::connect(origin).map_err(|e| format!("proxy connect: {e}"))?;
            daemon.set_nodelay(true).ok();
            upstream.set_nodelay(true).ok();
            let clone = |s: &TcpStream| s.try_clone().map_err(|e| format!("proxy clone: {e}"));
            let (d2, u2) = (clone(&daemon)?, clone(&upstream)?);
            let down = std::thread::spawn(move || pump(daemon, upstream));
            let up = pump(u2, d2);
            let down = down.join().map_err(|_| "proxy pump panicked".to_string())?;
            Ok((down?, up?))
        });
        Ok(LinkProxy { addr, handle })
    }

    /// Waits for both directions to close; returns (daemon→origin,
    /// origin→daemon) counts.
    pub fn finish(self) -> Result<(LinkCounts, LinkCounts), String> {
        self.handle
            .join()
            .map_err(|_| "proxy thread panicked".to_string())?
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            f.write_to(&mut out).unwrap();
        }
        out
    }

    fn sample() -> Vec<Frame> {
        vec![
            Frame::Advance { until_vms: 5 },
            Frame::AdvanceDone { now_vms: 5 },
            Frame::Drain,
            Frame::Advance { until_vms: 9 },
            Frame::RecallDone {
                job: 3,
                done_vms: 77,
            },
        ]
    }

    #[test]
    fn coalesced_frames_in_one_chunk_are_all_counted() {
        let bytes = wire(&sample());
        let mut c = FrameCounter::new();
        c.feed(&bytes);
        assert_eq!(
            c.counts(),
            LinkCounts {
                frames: 5,
                bytes: bytes.len() as u64,
                advances: 2
            }
        );
    }

    #[test]
    fn frames_split_at_every_byte_boundary_count_the_same() {
        let bytes = wire(&sample());
        // One byte at a time: splits every prefix and every body.
        let mut c = FrameCounter::new();
        for b in &bytes {
            c.feed(std::slice::from_ref(b));
        }
        assert_eq!((c.counts().frames, c.counts().advances), (5, 2));
        // Every two-piece split of the whole stream.
        for cut in 0..=bytes.len() {
            let mut c = FrameCounter::new();
            c.feed(&bytes[..cut]);
            c.feed(&bytes[cut..]);
            assert_eq!(
                (c.counts().frames, c.counts().advances, c.counts().bytes),
                (5, 2, bytes.len() as u64),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn a_partial_frame_counts_bytes_but_no_frame() {
        let bytes = wire(&[Frame::Advance { until_vms: 1 }]);
        let mut c = FrameCounter::new();
        c.feed(&bytes[..bytes.len() - 1]);
        assert_eq!((c.counts().frames, c.counts().advances), (0, 1));
        c.feed(&bytes[bytes.len() - 1..]);
        assert_eq!(c.counts().frames, 1);
    }

    #[test]
    fn proxy_forwards_bytes_untouched_and_reports_both_directions() {
        let origin = TcpListener::bind("127.0.0.1:0").unwrap();
        let origin_addr = origin.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = origin.accept().unwrap();
            // Echo two frames back for the three received.
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(Frame::read_from(&mut s).unwrap());
            }
            Frame::AdvanceDone { now_vms: 1 }.write_to(&mut s).unwrap();
            Frame::AdvanceDone { now_vms: 2 }.write_to(&mut s).unwrap();
            got
        });
        let proxy = LinkProxy::spawn(origin_addr).unwrap();
        let mut client = TcpStream::connect(proxy.addr).unwrap();
        let sent = vec![
            Frame::Advance { until_vms: 1 },
            Frame::Drain,
            Frame::Advance { until_vms: 2 },
        ];
        client.write_all(&wire(&sent)).unwrap();
        assert_eq!(
            Frame::read_from(&mut client).unwrap(),
            Frame::AdvanceDone { now_vms: 1 }
        );
        assert_eq!(
            Frame::read_from(&mut client).unwrap(),
            Frame::AdvanceDone { now_vms: 2 }
        );
        drop(client);
        assert_eq!(server.join().unwrap(), sent);
        let (down, up) = proxy.finish().unwrap();
        assert_eq!((down.frames, down.advances), (3, 2));
        assert_eq!((up.frames, up.advances), (2, 0));
        assert_eq!(down.plus(up).frames, 5);
    }
}
