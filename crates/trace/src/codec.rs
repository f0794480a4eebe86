//! The compact ASCII trace format of §4.2 and the verbose log it replaces.
//!
//! The paper processed 50 MB/month of human-readable system logs into
//! 10–11 MB/month of machine-readable traces by dropping redundant fields
//! and delta-encoding times (after Samples' Mache trace compaction). The
//! format implemented here follows Table 2 field-for-field:
//!
//! ```text
//! # fmig-trace v1
//! # epoch <unix-seconds>
//! <src> <dst> <flags-hex> <dstart> <latency-s> <xfer-ms> <size> <mss-path> <local-path> <uid>
//! ...
//! ```
//!
//! * `dstart` is the start time in seconds **since the previous record's
//!   start time** (the first record is relative to the header epoch).
//! * When the same-user flag bit is set, the `uid` column is written as
//!   `-` and recovered from the previous record on read.
//! * Paths are percent-escaped so the format stays line- and
//!   whitespace-delimited; file names are otherwise stored verbatim
//!   ("they could not be compressed without losing information", §4.1).
//!
//! Traces stay ASCII "so they would be easy to read on different machines
//! with different byte orderings" (§4.2).

use std::io::{BufRead, Write};

use crate::error::TraceError;
use crate::flags::FlagWord;
use crate::line::{read_line_bounded, LineRead, MAX_LINE_BYTES};
use crate::record::{Endpoint, TraceRecord};
use crate::time::Timestamp;

/// Format identification line written at the top of every trace.
pub const MAGIC: &str = "# fmig-trace v1";

/// Streaming writer producing the compact trace format.
///
/// # Examples
///
/// ```
/// use fmig_trace::{TraceRecord, TraceWriter, Endpoint, Timestamp};
///
/// let mut buf = Vec::new();
/// let mut w = TraceWriter::new(&mut buf, Timestamp::from_unix(0)).unwrap();
/// let rec = TraceRecord::read(Endpoint::MssDisk, Timestamp::from_unix(5), 100, "/a/b", 1);
/// w.write_record(&rec).unwrap();
/// assert!(String::from_utf8(buf).unwrap().starts_with("# fmig-trace v1"));
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    prev_start: Timestamp,
    prev_uid: Option<u32>,
    records: u64,
    bytes: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header; `epoch` anchors the first
    /// record's time delta.
    pub fn new(mut out: W, epoch: Timestamp) -> Result<Self, TraceError> {
        let header = format!("{MAGIC}\n# epoch {}\n", epoch.as_unix());
        out.write_all(header.as_bytes())?;
        Ok(TraceWriter {
            out,
            prev_start: epoch,
            prev_uid: None,
            records: 0,
            bytes: header.len() as u64,
        })
    }

    /// Appends one record, delta-encoding its start time.
    ///
    /// Records must be fed in non-decreasing start order; out-of-order
    /// records are rejected rather than silently given negative deltas.
    pub fn write_record(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        let delta = rec.start.seconds_since(self.prev_start);
        if delta < 0 {
            return Err(TraceError::parse(
                self.records + 2,
                format!("record starts {delta}s before its predecessor"),
            ));
        }
        let same_user = self.prev_uid == Some(rec.uid);
        let flags = FlagWord::new(rec.direction(), rec.error, rec.compressed, same_user);
        let uid_field = if same_user {
            "-".to_string()
        } else {
            rec.uid.to_string()
        };
        let line = format!(
            "{} {} {:x} {} {} {} {} {} {} {}\n",
            rec.source.mnemonic(),
            rec.destination.mnemonic(),
            flags.bits(),
            delta,
            rec.startup_latency_s,
            rec.transfer_ms,
            rec.file_size,
            escape(&rec.mss_path),
            escape(&rec.local_path),
            uid_field,
        );
        self.out.write_all(line.as_bytes())?;
        self.bytes += line.len() as u64;
        self.records += 1;
        self.prev_start = rec.start;
        self.prev_uid = Some(rec.uid);
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Total bytes emitted, including the header.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming reader for the compact trace format.
///
/// Iterates records, reconstructing absolute start times and same-user
/// uids. Malformed lines surface as `Err` items without poisoning the
/// stream, matching the paper's practice of skipping errored references.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    input: R,
    prev_start: Timestamp,
    prev_uid: Option<u32>,
    line_no: u64,
    done: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Creates a reader, validating the two header lines.
    ///
    /// Header lines are read through the bounded line reader
    /// ([`crate::line::MAX_LINE_BYTES`]), so a garbage stream with no
    /// newlines is rejected without buffering it.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let magic = header_line(&mut input)?;
        if magic.trim_end() != MAGIC {
            return Err(TraceError::BadHeader(format!(
                "expected {MAGIC:?}, found {:?}",
                magic.trim_end()
            )));
        }
        let epoch_line = header_line(&mut input)?;
        let epoch = epoch_line
            .trim_end()
            .strip_prefix("# epoch ")
            .and_then(|s| s.parse::<i64>().ok())
            .ok_or_else(|| TraceError::BadHeader("missing `# epoch <secs>` line".into()))?;
        Ok(TraceReader {
            input,
            prev_start: Timestamp::from_unix(epoch),
            prev_uid: None,
            line_no: 2,
            done: false,
        })
    }

    fn parse_line(&mut self, line: &str) -> Result<TraceRecord, TraceError> {
        let ln = self.line_no;
        let mut it = line.split_ascii_whitespace();
        let mut field = |name: &str| {
            it.next()
                .ok_or_else(|| TraceError::parse(ln, format!("missing field `{name}`")))
        };

        let source = Endpoint::from_mnemonic(field("source")?)
            .ok_or_else(|| TraceError::parse(ln, "unknown source endpoint"))?;
        let destination = Endpoint::from_mnemonic(field("destination")?)
            .ok_or_else(|| TraceError::parse(ln, "unknown destination endpoint"))?;
        let flag_bits = u16::from_str_radix(field("flags")?, 16)
            .map_err(|e| TraceError::parse(ln, format!("bad flags: {e}")))?;
        let flags = FlagWord::from_bits(flag_bits)
            .ok_or_else(|| TraceError::parse(ln, "invalid flag bits"))?;
        let delta: i64 = parse_num(field("dstart")?, ln, "dstart")?;
        if delta < 0 {
            return Err(TraceError::parse(ln, "negative start delta"));
        }
        let startup_latency_s: u32 = parse_num(field("latency")?, ln, "latency")?;
        let transfer_ms: u64 = parse_num(field("xfer")?, ln, "xfer")?;
        let file_size: u64 = parse_num(field("size")?, ln, "size")?;
        let mss_path = unescape(field("mss-path")?)
            .ok_or_else(|| TraceError::parse(ln, "bad escape in mss path"))?;
        let local_path = unescape(field("local-path")?)
            .ok_or_else(|| TraceError::parse(ln, "bad escape in local path"))?;
        let uid_field = field("uid")?;
        if it.next().is_some() {
            return Err(TraceError::parse(ln, "trailing fields"));
        }

        let uid = if uid_field == "-" {
            if !flags.same_user() {
                return Err(TraceError::parse(ln, "`-` uid without same-user flag"));
            }
            self.prev_uid
                .ok_or_else(|| TraceError::parse(ln, "same-user flag on first record"))?
        } else {
            let explicit: u32 = parse_num(uid_field, ln, "uid")?;
            if flags.same_user() && self.prev_uid != Some(explicit) {
                return Err(TraceError::parse(ln, "same-user flag contradicts uid"));
            }
            explicit
        };

        let start = self.prev_start.add_secs(delta);
        let dir_from_endpoints = if source == Endpoint::Cray {
            crate::record::Direction::Write
        } else {
            crate::record::Direction::Read
        };
        if flags.direction() != dir_from_endpoints {
            return Err(TraceError::parse(
                ln,
                "flag direction contradicts endpoints",
            ));
        }

        self.prev_start = start;
        self.prev_uid = Some(uid);
        Ok(TraceRecord {
            source,
            destination,
            start,
            startup_latency_s,
            transfer_ms,
            file_size,
            mss_path,
            local_path,
            uid,
            error: flags.error(),
            compressed: flags.compressed(),
        })
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            match read_line_bounded(&mut self.input, MAX_LINE_BYTES) {
                Ok(LineRead::Eof) => {
                    self.done = true;
                    return None;
                }
                Ok(LineRead::Oversized) => {
                    self.line_no += 1;
                    return Some(Err(TraceError::parse(
                        self.line_no,
                        format!("line exceeds {MAX_LINE_BYTES} bytes"),
                    )));
                }
                Ok(LineRead::Line(bytes)) => {
                    self.line_no += 1;
                    // Invalid UTF-8 is a recoverable per-line
                    // diagnostic, like any other malformed line.
                    let Ok(line) = std::str::from_utf8(&bytes) else {
                        return Some(Err(TraceError::parse(
                            self.line_no,
                            "line is not valid UTF-8",
                        )));
                    };
                    let trimmed = line.trim_end();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    return Some(self.parse_line(trimmed));
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            }
        }
    }
}

/// Reads one bounded header line as UTF-8, mapping oversize and invalid
/// encodings to [`TraceError::BadHeader`].
fn header_line<R: BufRead>(input: &mut R) -> Result<String, TraceError> {
    match read_line_bounded(input, MAX_LINE_BYTES)? {
        LineRead::Eof => Err(TraceError::BadHeader("unexpected end of stream".into())),
        LineRead::Oversized => Err(TraceError::BadHeader(format!(
            "header line exceeds {MAX_LINE_BYTES} bytes"
        ))),
        LineRead::Line(bytes) => String::from_utf8(bytes)
            .map_err(|_| TraceError::BadHeader("header is not valid UTF-8".into())),
    }
}

/// Writer mimicking the raw MSCP/bitfile-mover system log (§4.1).
///
/// Every field is labelled, dates are human-readable, and each request is
/// spread across MSCP and mover records joined by a sequence number —
/// exactly the redundancy the compact format strips. Comparing
/// [`VerboseLogWriter::bytes_written`] against
/// [`TraceWriter::bytes_written`] reproduces the paper's ~5× compaction
/// (50 MB → 10–11 MB per month).
#[derive(Debug)]
pub struct VerboseLogWriter<W: Write> {
    out: W,
    seq: u64,
    bytes: u64,
}

impl<W: Write> VerboseLogWriter<W> {
    /// Creates a verbose log writer.
    pub fn new(out: W) -> Self {
        VerboseLogWriter {
            out,
            seq: 0,
            bytes: 0,
        }
    }

    /// Logs one request in the labelled multi-record style of the original
    /// system logs.
    pub fn write_record(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        self.seq += 1;
        let user = format!("u{:05}", rec.uid);
        let project = format!("proj{:03}", rec.uid % 211);
        let status = match rec.error {
            None => "COMPLETE".to_string(),
            Some(e) => format!("ERROR({e})"),
        };
        // The original logs write one MSCP record at request time, one at
        // transfer start, and a mover record at completion.
        let entry = format!(
            "MSCP  seq={seq} date=[{start}] op={op} user={user} uname={user} project={project} \
             source={src} dest={dst} mssfile={mss} localfile={local} size={size} request=QUEUED\n\
             MSCP  seq={seq} date=[{first}] op={op} user={user} project={project} \
             latency={lat}s request=STARTED\n\
             MOVER seq={seq} date=[{done}] op={op} user={user} bytes={size} \
             elapsed={xfer}ms status={status}\n",
            seq = self.seq,
            start = rec.start,
            first = rec.first_byte_at(),
            done = rec.completed_at(),
            op = match rec.direction() {
                crate::record::Direction::Read => "lread",
                crate::record::Direction::Write => "lwrite",
            },
            src = rec.source,
            dst = rec.destination,
            mss = rec.mss_path,
            local = rec.local_path,
            size = rec.file_size,
            lat = rec.startup_latency_s,
            xfer = rec.transfer_ms,
        );
        self.out.write_all(entry.as_bytes())?;
        self.bytes += entry.len() as u64;
        Ok(())
    }

    /// Total bytes logged so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Number of requests logged.
    pub fn records_written(&self) -> u64 {
        self.seq
    }
}

/// Percent-escapes `%` and the ASCII whitespace the reader splits fields
/// on, so paths survive the whitespace-delimited format. Every other
/// character, non-ASCII included, is kept as it is.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c == '%' || c.is_ascii_whitespace() {
            out.push_str(&format!("%{:02x}", c as u8));
        } else {
            out.push(c);
        }
    }
    if out.is_empty() {
        out.push_str("%00");
    }
    out
}

/// Inverse of [`escape`]; returns `None` on malformed escapes, or when
/// the unescaped bytes are not UTF-8.
pub(crate) fn unescape(s: &str) -> Option<String> {
    if s == "%00" {
        return Some(String::new());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

fn parse_num<T: core::str::FromStr>(s: &str, line: u64, name: &str) -> Result<T, TraceError>
where
    T::Err: core::fmt::Display,
{
    s.parse()
        .map_err(|e| TraceError::parse(line, format!("bad {name}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Direction, ErrorKind};
    use crate::time::TRACE_EPOCH;

    fn sample_records() -> Vec<TraceRecord> {
        let mut r1 = TraceRecord::read(
            Endpoint::MssTapeSilo,
            TRACE_EPOCH.add_secs(10),
            80_000_000,
            "/CCM/run 1/day001",
            100,
        );
        r1.startup_latency_s = 85;
        r1.transfer_ms = 40_000;
        let mut r2 = TraceRecord::write(
            Endpoint::MssDisk,
            TRACE_EPOCH.add_secs(14),
            2_000_000,
            "/CCM/run 1/log%1",
            100,
        );
        r2.compressed = true;
        let mut r3 = TraceRecord::read(
            Endpoint::MssTapeManual,
            TRACE_EPOCH.add_secs(500),
            150_000_000,
            "/OLD/archive/tape17",
            7,
        );
        r3.error = Some(ErrorKind::FileNotFound);
        vec![r1, r2, r3]
    }

    fn roundtrip(records: &[TraceRecord]) -> Vec<TraceRecord> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, TRACE_EPOCH).unwrap();
        for r in records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap();
        TraceReader::new(std::io::Cursor::new(buf))
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let records = sample_records();
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn same_user_uid_elided_and_recovered() {
        let records = sample_records();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, TRACE_EPOCH).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        // Second record shares uid 100 with the first, so its uid column is `-`.
        let line2 = text.lines().nth(3).unwrap();
        assert!(line2.ends_with(" -"), "line was {line2:?}");
    }

    #[test]
    fn out_of_order_write_rejected() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, TRACE_EPOCH).unwrap();
        let r1 = TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH.add_secs(10), 1, "/a", 1);
        let r0 = TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH.add_secs(5), 1, "/a", 1);
        w.write_record(&r1).unwrap();
        assert!(w.write_record(&r0).is_err());
    }

    #[test]
    fn bad_header_rejected() {
        let err = TraceReader::new(std::io::Cursor::new(b"nope\n".to_vec())).unwrap_err();
        assert!(matches!(err, TraceError::BadHeader(_)));
        let err = TraceReader::new(std::io::Cursor::new(
            format!("{MAGIC}\n# epoch x\n").into_bytes(),
        ))
        .unwrap_err();
        assert!(matches!(err, TraceError::BadHeader(_)));
    }

    #[test]
    fn malformed_line_is_an_err_item_not_a_poison() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, TRACE_EPOCH).unwrap();
        let r = TraceRecord::read(Endpoint::MssDisk, TRACE_EPOCH.add_secs(1), 9, "/a", 1);
        w.write_record(&r).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("disk cray zz 1 0 0 9 /a /tmp/wk/a 1\n");
        // A second good record after the bad one (delta from the *bad* line
        // is not consumed, so reuse the previous good time base).
        text.push_str("disk cray 0 3 0 0 9 /a /tmp/wk/a 1\n");
        let items: Vec<_> = TraceReader::new(std::io::Cursor::new(text.into_bytes()))
            .unwrap()
            .collect();
        assert_eq!(items.len(), 3);
        assert!(items[0].is_ok());
        assert!(items[1].is_err());
        assert!(items[2].is_ok());
    }

    #[test]
    fn direction_flag_must_match_endpoints() {
        let text = format!(
            "{MAGIC}\n# epoch 0\ncray disk 0 1 0 0 9 /a /tmp/wk/a 1\n" // flags say read, endpoints say write
        );
        let items: Vec<_> = TraceReader::new(std::io::Cursor::new(text.into_bytes()))
            .unwrap()
            .collect();
        assert!(items[0].is_err());
    }

    #[test]
    fn escape_handles_empty_and_specials() {
        assert_eq!(escape(""), "%00");
        assert_eq!(unescape("%00").unwrap(), "");
        let s = "a b%c\td";
        assert_eq!(unescape(&escape(s)).unwrap(), s);
        assert!(unescape("%zz").is_none());
        assert!(unescape("abc%2").is_none());
    }

    #[test]
    fn verbose_log_is_much_larger_than_compact() {
        let records = sample_records();
        let mut compact = Vec::new();
        let mut w = TraceWriter::new(&mut compact, TRACE_EPOCH).unwrap();
        let mut verbose = VerboseLogWriter::new(Vec::new());
        for r in &records {
            w.write_record(r).unwrap();
            verbose.write_record(r).unwrap();
        }
        assert_eq!(verbose.records_written(), 3);
        // The paper reports roughly 5x; we only insist on "substantially larger".
        assert!(
            verbose.bytes_written() > 3 * w.bytes_written(),
            "verbose {} vs compact {}",
            verbose.bytes_written(),
            w.bytes_written()
        );
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text =
            format!("{MAGIC}\n# epoch 0\n\n# interlude\ndisk cray 0 1 0 0 9 /a /tmp/wk/a 1\n");
        let recs: Vec<_> = TraceReader::new(std::io::Cursor::new(text.into_bytes()))
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].direction(), Direction::Read);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::time::TRACE_EPOCH;
    use proptest::prelude::*;

    fn arb_endpoint_pair() -> impl Strategy<Value = (Endpoint, Endpoint)> {
        prop_oneof![
            prop_oneof![
                Just(Endpoint::MssDisk),
                Just(Endpoint::MssTapeSilo),
                Just(Endpoint::MssTapeManual),
            ]
            .prop_map(|d| (d, Endpoint::Cray)),
            prop_oneof![
                Just(Endpoint::MssDisk),
                Just(Endpoint::MssTapeSilo),
                Just(Endpoint::MssTapeManual),
            ]
            .prop_map(|d| (Endpoint::Cray, d)),
        ]
    }

    fn arb_path() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                proptest::char::range('a', 'z'),
                Just('/'),
                Just(' '),
                Just('%'),
                Just('.'),
                Just('\\'),
                Just('\u{c}'),
                Just('\u{e9}'),
                Just('\u{6f22}'),
            ],
            1..40,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Encode→decode is the identity on arbitrary well-formed records.
        #[test]
        fn codec_roundtrips(
            specs in proptest::collection::vec(
                (arb_endpoint_pair(), 0i64..5000, 0u32..100_000, 0u64..10_000_000,
                 0u64..300_000_000, arb_path(), 0u32..5000, 0u8..4, any::<bool>()),
                1..50,
            )
        ) {
            let mut t = TRACE_EPOCH;
            let mut records = Vec::new();
            for ((src, dst), dt, lat, xfer, size, path, uid, err, comp) in specs {
                t = t.add_secs(dt);
                let mut rec = if src == Endpoint::Cray {
                    TraceRecord::write(dst, t, size, path, uid)
                } else {
                    TraceRecord::read(src, t, size, path, uid)
                };
                rec.startup_latency_s = lat;
                rec.transfer_ms = xfer;
                rec.error = crate::record::ErrorKind::from_code(err);
                rec.compressed = comp;
                records.push(rec);
            }
            let mut buf = Vec::new();
            let mut w = TraceWriter::new(&mut buf, TRACE_EPOCH).unwrap();
            for r in &records {
                w.write_record(r).unwrap();
            }
            w.finish().unwrap();
            let back: Vec<_> = TraceReader::new(std::io::Cursor::new(buf))
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            prop_assert_eq!(back, records);
        }

        /// Path escaping roundtrips for arbitrary strings.
        #[test]
        fn escape_roundtrips(s in arb_path()) {
            prop_assert_eq!(unescape(&escape(&s)).unwrap(), s);
        }
    }
}
