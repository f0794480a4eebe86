//! Columnar on-disk replay store for imported traces.
//!
//! A multi-GB external trace cannot be re-parsed (or held in memory as
//! a `Vec` of records) every time a sweep cell replays it. The store
//! pays the parse cost once, at import: records stream through a
//! [`StoreWriter`] that interns paths into dense [`FileId`]s and lays
//! the replay-relevant fields out as fixed-width column files, then a
//! backward pass fills in each reference's *next-use time* — the same
//! quantity `TracePrep` computes in memory for generated traces — so
//! replay needs no lookahead. A [`StoreReader`] streams the columns
//! back in bounded chunks; peak memory is O(distinct files) + one
//! chunk, never O(trace length).
//!
//! # Layout
//!
//! A store is a directory:
//!
//! | file           | contents                                          |
//! |----------------|---------------------------------------------------|
//! | `manifest.txt` | record/file counts, time window, referenced bytes |
//! | `start.col`    | per record: start time, Unix seconds, `i64` LE    |
//! | `file.col`     | per record: dense [`FileId`], `u32` LE            |
//! | `size.col`     | per record: size in bytes (≥ 1), `u64` LE         |
//! | `meta.col`     | per record: bit 0 = write, bits 1–2 device class  |
//! | `next.col`     | per record: next use of the same file, `i64` LE, `i64::MIN` = never |
//! | `paths.txt`    | one escaped path per line, [`FileId`] order        |
//! | `stats.txt`    | the full [`TraceStats`] census, including errors  |
//!
//! Only replayable records occupy the columns; errored references live
//! in `stats.txt` alone, mirroring how `TracePrep` drops them before
//! replay. Sizes are stored pre-clamped to ≥ 1 byte, again matching
//! the in-memory preparation, so a store replay and an in-memory
//! replay of the same records are bit-identical.
//!
//! `referenced_bytes` in the manifest is the sum over files of the
//! *largest* size each file was seen with — the denominator the sweep
//! uses to turn cache fractions into byte capacities.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::escape;
use crate::error::TraceError;
use crate::ident::{FileId, FileTable};
use crate::ingest::{FormatId, IngestConfig, IngestCounts};
use crate::record::{DeviceClass, TraceRecord};
use crate::stats::{Accum, TraceStats};

/// Magic first line of `manifest.txt`.
const MANIFEST_MAGIC: &str = "# fmig-store v1";
/// Magic first line of `stats.txt`.
const STATS_MAGIC: &str = "# fmig-store-stats v1";
/// `next.col` sentinel: the file is never referenced again.
const NEVER_AGAIN: i64 = i64::MIN;
/// Records per chunk for the import-time backward pass and the default
/// replay granularity (64 Ki records ≈ 1.8 MiB across all columns).
pub const CHUNK_RECORDS: usize = 1 << 16;

/// Summary of a finished store, persisted as `manifest.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreManifest {
    /// Replayable (non-errored) records in the columns.
    pub records: u64,
    /// Distinct files across those records.
    pub files: u64,
    /// Start time of the first record (Unix seconds; 0 if empty).
    pub epoch: i64,
    /// Start time of the last record (Unix seconds; 0 if empty).
    pub last: i64,
    /// Sum over files of the largest size each was seen with.
    pub referenced_bytes: u64,
    /// Read records among [`Self::records`].
    pub read_records: u64,
}

/// One decoded row of the column files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRow {
    /// Start time, Unix seconds.
    pub start: i64,
    /// Dense file identity (indexes `paths.txt`).
    pub file: FileId,
    /// Size in bytes, already clamped ≥ 1.
    pub size: u64,
    /// True for writes.
    pub write: bool,
    /// MSS storage class.
    pub device: DeviceClass,
    /// Start time of this file's next reference, if any.
    pub next_use: Option<i64>,
}

/// Streaming writer: append records in time order, then [`finish`].
///
/// [`finish`]: StoreWriter::finish
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    start: BufWriter<File>,
    file: BufWriter<File>,
    size: BufWriter<File>,
    meta: BufWriter<File>,
    table: FileTable,
    /// Largest size each file was seen with (clamped ≥ 1).
    max_size: Vec<u64>,
    stats: TraceStats,
    records: u64,
    read_records: u64,
    first_start: Option<i64>,
    last_start: i64,
}

impl StoreWriter {
    /// Creates the store directory (and parents) and opens the columns.
    pub fn create(dir: &Path) -> Result<Self, TraceError> {
        fs::create_dir_all(dir)?;
        let col = |name: &str| -> Result<BufWriter<File>, TraceError> {
            Ok(BufWriter::new(File::create(dir.join(name))?))
        };
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            start: col("start.col")?,
            file: col("file.col")?,
            size: col("size.col")?,
            meta: col("meta.col")?,
            table: FileTable::new(),
            max_size: Vec::new(),
            stats: TraceStats::new(),
            records: 0,
            read_records: 0,
            first_start: None,
            last_start: i64::MIN,
        })
    }

    /// Appends one record.
    ///
    /// Errored records join the stats census but occupy no columns.
    /// Records must arrive in non-decreasing start order (the ingest
    /// driver's monotone clamp guarantees this; the writer re-checks so
    /// a buggy caller cannot produce a store that replays out of
    /// order).
    pub fn append(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        self.stats.observe(rec);
        if rec.error.is_some() {
            return Ok(());
        }
        let Some(device) = rec.mss_device() else {
            return Err(TraceError::parse(
                self.stats.raw_references,
                "record has no MSS endpoint",
            ));
        };
        let start = rec.start.as_unix();
        if start < self.last_start {
            return Err(TraceError::parse(
                self.stats.raw_references,
                format!(
                    "start times must not decrease ({start} after {})",
                    self.last_start
                ),
            ));
        }
        self.last_start = start;
        self.first_start.get_or_insert(start);

        let id = self.table.intern(&rec.mss_path);
        let size = rec.file_size.max(1);
        if id.index() == self.max_size.len() {
            self.max_size.push(size);
        } else {
            let slot = &mut self.max_size[id.index()];
            *slot = (*slot).max(size);
        }

        let write = rec.direction() == crate::record::Direction::Write;
        if !write {
            self.read_records += 1;
        }
        let device_bits = match device {
            DeviceClass::Disk => 0u8,
            DeviceClass::TapeSilo => 1,
            DeviceClass::TapeManual => 2,
        };
        self.start.write_all(&start.to_le_bytes())?;
        self.file.write_all(&id.raw().to_le_bytes())?;
        self.size.write_all(&size.to_le_bytes())?;
        self.meta
            .write_all(&[u8::from(write) | (device_bits << 1)])?;
        self.records += 1;
        Ok(())
    }

    /// Replayable records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Distinct files interned so far.
    pub fn files(&self) -> usize {
        self.table.len()
    }

    /// The running census (including errored records).
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Flushes the columns, derives `next.col` with a backward pass,
    /// and writes paths, stats, and the manifest.
    pub fn finish(self) -> Result<StoreManifest, TraceError> {
        let StoreWriter {
            dir,
            start,
            file,
            size,
            meta,
            table,
            max_size,
            stats,
            records,
            read_records,
            first_start,
            last_start,
            ..
        } = self;
        for mut w in [start, file, size, meta] {
            w.flush()?;
        }

        write_next_column(&dir, records, table.len())?;

        let mut paths = BufWriter::new(File::create(dir.join("paths.txt"))?);
        for (_, path) in table.iter() {
            writeln!(paths, "{}", escape(path))?;
        }
        paths.flush()?;

        write_stats(&dir.join("stats.txt"), &stats)?;

        let manifest = StoreManifest {
            records,
            files: table.len() as u64,
            epoch: first_start.unwrap_or(0),
            last: if records == 0 { 0 } else { last_start },
            referenced_bytes: max_size.iter().sum(),
            read_records,
        };
        let mut m = BufWriter::new(File::create(dir.join("manifest.txt"))?);
        writeln!(m, "{MANIFEST_MAGIC}")?;
        writeln!(m, "records {}", manifest.records)?;
        writeln!(m, "files {}", manifest.files)?;
        writeln!(m, "epoch {}", manifest.epoch)?;
        writeln!(m, "last {}", manifest.last)?;
        writeln!(m, "referenced_bytes {}", manifest.referenced_bytes)?;
        writeln!(m, "read_records {}", manifest.read_records)?;
        m.flush()?;
        Ok(manifest)
    }
}

/// Fills `next.col` from `start.col` + `file.col` with one backward
/// chunked pass: O(files) memory for the per-file "next seen" table,
/// one chunk of column data at a time.
fn write_next_column(dir: &Path, records: u64, files: usize) -> Result<(), TraceError> {
    let mut start_col = File::open(dir.join("start.col"))?;
    let mut file_col = File::open(dir.join("file.col"))?;
    let mut next_col = File::create(dir.join("next.col"))?;
    next_col.set_len(records * 8)?;

    let mut next_seen: Vec<i64> = vec![NEVER_AGAIN; files];
    let chunk = CHUNK_RECORDS as u64;
    let chunks = records.div_ceil(chunk);
    let mut start_buf = vec![0u8; CHUNK_RECORDS * 8];
    let mut file_buf = vec![0u8; CHUNK_RECORDS * 4];
    let mut next_buf = vec![0u8; CHUNK_RECORDS * 8];
    for c in (0..chunks).rev() {
        let lo = c * chunk;
        let n = (records - lo).min(chunk) as usize;
        start_col.seek(SeekFrom::Start(lo * 8))?;
        start_col.read_exact(&mut start_buf[..n * 8])?;
        file_col.seek(SeekFrom::Start(lo * 4))?;
        file_col.read_exact(&mut file_buf[..n * 4])?;
        for i in (0..n).rev() {
            let start = i64::from_le_bytes(start_buf[i * 8..i * 8 + 8].try_into().unwrap());
            let file = u32::from_le_bytes(file_buf[i * 4..i * 4 + 4].try_into().unwrap()) as usize;
            next_buf[i * 8..i * 8 + 8].copy_from_slice(&next_seen[file].to_le_bytes());
            next_seen[file] = start;
        }
        next_col.seek(SeekFrom::Start(lo * 8))?;
        next_col.write_all(&next_buf[..n * 8])?;
    }
    next_col.sync_data().ok();
    Ok(())
}

fn write_stats(path: &Path, stats: &TraceStats) -> Result<(), TraceError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{STATS_MAGIC}")?;
    writeln!(w, "raw {}", stats.raw_references)?;
    writeln!(
        w,
        "errors {} {} {}",
        stats.errors[0], stats.errors[1], stats.errors[2]
    )?;
    let cell = |w: &mut BufWriter<File>, name: &str, a: &Accum| -> Result<(), TraceError> {
        writeln!(w, "{name} {} {} {}", a.references, a.bytes, a.latency_sum_s)?;
        Ok(())
    };
    for (dir_name, d) in [("reads", &stats.reads), ("writes", &stats.writes)] {
        cell(&mut w, &format!("{dir_name}.total"), &d.total)?;
        for (i, a) in d.by_device.iter().enumerate() {
            cell(&mut w, &format!("{dir_name}.dev{i}"), a)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a `stats.txt` back into a [`TraceStats`].
fn read_stats(path: &Path) -> Result<TraceStats, TraceError> {
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines();
    if lines.next() != Some(STATS_MAGIC) {
        return Err(TraceError::BadHeader("stats.txt magic mismatch".into()));
    }
    let mut stats = TraceStats::new();
    let mut fields = |expect: &str| -> Result<Vec<String>, TraceError> {
        let line = lines
            .next()
            .ok_or_else(|| TraceError::BadHeader(format!("stats.txt missing `{expect}`")))?;
        let mut parts = line.split_ascii_whitespace().map(str::to_string);
        match parts.next() {
            Some(tag) if tag == expect => Ok(parts.collect()),
            _ => Err(TraceError::BadHeader(format!(
                "stats.txt expected `{expect}`"
            ))),
        }
    };
    let num = |v: &[String], i: usize| -> Result<u64, TraceError> {
        v.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| TraceError::BadHeader("stats.txt malformed number".into()))
    };
    let raw = fields("raw")?;
    stats.raw_references = num(&raw, 0)?;
    let errs = fields("errors")?;
    for i in 0..3 {
        stats.errors[i] = num(&errs, i)?;
    }
    for dir_name in ["reads", "writes"] {
        for cell_name in ["total", "dev0", "dev1", "dev2"] {
            let v = fields(&format!("{dir_name}.{cell_name}"))?;
            let accum = Accum {
                references: num(&v, 0)?,
                bytes: num(&v, 1)?,
                latency_sum_s: v
                    .get(2)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| TraceError::BadHeader("stats.txt malformed latency".into()))?,
            };
            let d = if dir_name == "reads" {
                &mut stats.reads
            } else {
                &mut stats.writes
            };
            match cell_name {
                "total" => d.total = accum,
                "dev0" => d.by_device[0] = accum,
                "dev1" => d.by_device[1] = accum,
                _ => d.by_device[2] = accum,
            }
        }
    }
    Ok(stats)
}

/// Handle on a finished store; cheap to clone, opens fresh file handles
/// per [`rows`] call so parallel sweep cells can stream independently.
///
/// [`rows`]: StoreReader::rows
#[derive(Debug, Clone)]
pub struct StoreReader {
    dir: PathBuf,
    manifest: StoreManifest,
}

impl StoreReader {
    /// Opens a store, validating the manifest against the column files.
    ///
    /// Column lengths are checked against the record count up front, so
    /// a truncated or tampered store fails here — not with a short read
    /// mid-replay.
    pub fn open(dir: &Path) -> Result<Self, TraceError> {
        let text = fs::read_to_string(dir.join("manifest.txt"))?;
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(TraceError::BadHeader(format!(
                "`{}` is not a fmig trace store (manifest magic mismatch)",
                dir.display()
            )));
        }
        let mut field = |name: &str| -> Result<i64, TraceError> {
            let line = lines
                .next()
                .ok_or_else(|| TraceError::BadHeader(format!("manifest missing `{name}`")))?;
            let value = line
                .strip_prefix(name)
                .map(str::trim)
                .ok_or_else(|| TraceError::BadHeader(format!("manifest expected `{name}`")))?;
            value
                .parse()
                .map_err(|_| TraceError::BadHeader(format!("manifest `{name}` is not a number")))
        };
        let records = u64::try_from(field("records")?)
            .map_err(|_| TraceError::BadHeader("negative record count".into()))?;
        let files = u64::try_from(field("files")?)
            .map_err(|_| TraceError::BadHeader("negative file count".into()))?;
        if files > u64::from(u32::MAX) {
            return Err(TraceError::BadHeader(
                "file count exceeds dense id space".into(),
            ));
        }
        let manifest = StoreManifest {
            records,
            files,
            epoch: field("epoch")?,
            last: field("last")?,
            referenced_bytes: u64::try_from(field("referenced_bytes")?)
                .map_err(|_| TraceError::BadHeader("negative referenced_bytes".into()))?,
            read_records: u64::try_from(field("read_records")?)
                .map_err(|_| TraceError::BadHeader("negative read_records".into()))?,
        };
        for (name, width) in [
            ("start.col", 8u64),
            ("file.col", 4),
            ("size.col", 8),
            ("meta.col", 1),
            ("next.col", 8),
        ] {
            let len = fs::metadata(dir.join(name))?.len();
            if len != records * width {
                return Err(TraceError::BadHeader(format!(
                    "{name} holds {len} bytes, expected {} for {records} records",
                    records * width
                )));
            }
        }
        Ok(StoreReader {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The store's manifest.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reads the full census back from `stats.txt`.
    pub fn stats(&self) -> Result<TraceStats, TraceError> {
        read_stats(&self.dir.join("stats.txt"))
    }

    /// Opens a chunked streaming pass over the rows.
    pub fn rows(&self, chunk_records: usize) -> Result<StoreRows, TraceError> {
        assert!(chunk_records > 0, "chunk size must be positive");
        let open = |name: &str| -> Result<BufReader<File>, TraceError> {
            Ok(BufReader::new(File::open(self.dir.join(name))?))
        };
        Ok(StoreRows {
            start: open("start.col")?,
            file: open("file.col")?,
            size: open("size.col")?,
            meta: open("meta.col")?,
            next: open("next.col")?,
            records: self.manifest.records,
            remaining: self.manifest.records,
            files: self.manifest.files,
            chunk: chunk_records,
        })
    }

    /// Collects every row; test/report convenience, O(records) memory.
    pub fn read_all(&self) -> Result<Vec<StoreRow>, TraceError> {
        let mut rows = self.rows(CHUNK_RECORDS)?;
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while rows.next_chunk(&mut buf)? {
            out.extend_from_slice(&buf);
        }
        Ok(out)
    }
}

/// One streaming pass over a store's rows; see [`StoreReader::rows`].
#[derive(Debug)]
pub struct StoreRows {
    start: BufReader<File>,
    file: BufReader<File>,
    size: BufReader<File>,
    meta: BufReader<File>,
    next: BufReader<File>,
    records: u64,
    remaining: u64,
    /// The manifest's file count: every id in `file.col` is below it.
    files: u64,
    chunk: usize,
}

impl StoreRows {
    /// Decodes the next chunk into `out` (cleared first). Returns
    /// `false` when the store is exhausted. A row naming a file id the
    /// manifest does not count is [`TraceError::BadHeader`]: replay
    /// sizes its per-file arenas by id, so one corrupt id must not
    /// reach them.
    pub fn next_chunk(&mut self, out: &mut Vec<StoreRow>) -> Result<bool, TraceError> {
        out.clear();
        if self.remaining == 0 {
            return Ok(false);
        }
        let n = self.remaining.min(self.chunk as u64) as usize;
        let mut start_buf = vec![0u8; n * 8];
        let mut file_buf = vec![0u8; n * 4];
        let mut size_buf = vec![0u8; n * 8];
        let mut meta_buf = vec![0u8; n];
        let mut next_buf = vec![0u8; n * 8];
        self.start.read_exact(&mut start_buf)?;
        self.file.read_exact(&mut file_buf)?;
        self.size.read_exact(&mut size_buf)?;
        self.meta.read_exact(&mut meta_buf)?;
        self.next.read_exact(&mut next_buf)?;
        out.reserve(n);
        for i in 0..n {
            let meta = meta_buf[i];
            let device = match meta >> 1 {
                0 => DeviceClass::Disk,
                1 => DeviceClass::TapeSilo,
                2 => DeviceClass::TapeManual,
                other => {
                    return Err(TraceError::BadHeader(format!(
                        "meta.col holds invalid device bits {other}"
                    )))
                }
            };
            let file = u32::from_le_bytes(file_buf[i * 4..i * 4 + 4].try_into().unwrap());
            if u64::from(file) >= self.files {
                let first = self.records - self.remaining;
                return Err(TraceError::BadHeader(format!(
                    "file.col chunk at rows {first}..{}: row {} names file {file}, \
                     but the store holds {} files",
                    first + n as u64,
                    first + i as u64,
                    self.files
                )));
            }
            let next = i64::from_le_bytes(next_buf[i * 8..i * 8 + 8].try_into().unwrap());
            out.push(StoreRow {
                start: i64::from_le_bytes(start_buf[i * 8..i * 8 + 8].try_into().unwrap()),
                file: FileId::new(file),
                size: u64::from_le_bytes(size_buf[i * 8..i * 8 + 8].try_into().unwrap()),
                write: meta & 1 != 0,
                device,
                next_use: (next != NEVER_AGAIN).then_some(next),
            });
        }
        self.remaining -= n as u64;
        Ok(true)
    }
}

/// Outcome of one [`import`] run.
#[derive(Debug, Clone)]
pub struct ImportReport {
    /// The finished store's manifest.
    pub manifest: StoreManifest,
    /// The ingest driver's tallies.
    pub counts: IngestCounts,
    /// The census (identical to the store's `stats.txt`).
    pub stats: TraceStats,
}

/// Imports an external trace into a store directory in one streaming
/// pass.
///
/// Per-line diagnostics go to `on_error` and the import continues;
/// only an exhausted error budget (or I/O failure) aborts.
pub fn import<R: BufRead>(
    format: FormatId,
    input: R,
    config: IngestConfig,
    dir: &Path,
    mut on_error: impl FnMut(&TraceError),
) -> Result<ImportReport, TraceError> {
    let mut writer = StoreWriter::create(dir)?;
    let mut stream = format.stream(input, config);
    while let Some(item) = stream.next() {
        match item {
            Ok(rec) => writer.append(&rec)?,
            Err(err) => {
                if stream.counts.parse_errors > config.error_budget {
                    return Err(err);
                }
                on_error(&err);
            }
        }
    }
    let stats = writer.stats().clone();
    let manifest = writer.finish()?;
    Ok(ImportReport {
        manifest,
        counts: stream.counts,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use std::collections::HashMap;
    use std::io::Cursor;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fmig-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(t: i64, path: &str, size: u64, write: bool, dev: DeviceClass) -> TraceRecord {
        let ep = dev.endpoint();
        let ts = Timestamp::from_unix(t);
        if write {
            TraceRecord::write(ep, ts, size, path, 1)
        } else {
            TraceRecord::read(ep, ts, size, path, 1)
        }
    }

    /// In-memory oracle for next.col: the same reverse sweep TracePrep
    /// runs over generated traces.
    fn oracle_next_use(recs: &[TraceRecord]) -> Vec<Option<i64>> {
        let mut next_seen: HashMap<String, i64> = HashMap::new();
        let mut out = vec![None; recs.len()];
        for (i, r) in recs.iter().enumerate().rev() {
            out[i] = next_seen.get(&r.mss_path).copied();
            next_seen.insert(r.mss_path.clone(), r.start.as_unix());
        }
        out
    }

    #[test]
    fn roundtrip_matches_the_in_memory_oracle() {
        let dir = temp_dir("roundtrip");
        // Enough records to cross a (shrunk) chunk boundary is covered
        // by the dedicated test below; here: mixed devices, repeated
        // files, growing sizes, a path needing escapes.
        let recs = vec![
            rec(100, "/a file", 10, false, DeviceClass::Disk),
            rec(100, "/b", 0, true, DeviceClass::TapeSilo),
            rec(105, "/a file", 25, false, DeviceClass::Disk),
            rec(109, "/c", 7, false, DeviceClass::TapeManual),
            rec(120, "/b", 3, true, DeviceClass::TapeSilo),
            rec(120, "/a file", 5, false, DeviceClass::Disk),
        ];
        let mut w = StoreWriter::create(&dir).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.records, 6);
        assert_eq!(manifest.files, 3);
        assert_eq!(manifest.epoch, 100);
        assert_eq!(manifest.last, 120);
        // /a file max 25, /b max 3 (0 clamps to 1, then 3), /c 7.
        assert_eq!(manifest.referenced_bytes, 25 + 3 + 7);
        assert_eq!(manifest.read_records, 4);

        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.manifest(), &manifest);
        let rows = reader.read_all().unwrap();
        assert_eq!(rows.len(), recs.len());
        let expect_next = oracle_next_use(&recs);
        for ((row, r), next) in rows.iter().zip(&recs).zip(&expect_next) {
            assert_eq!(row.start, r.start.as_unix());
            assert_eq!(row.size, r.file_size.max(1));
            assert_eq!(row.write, r.direction() == crate::record::Direction::Write);
            assert_eq!(row.device, r.mss_device().unwrap());
            assert_eq!(row.next_use, *next, "next_use mismatch for {}", r.mss_path);
        }
        // Stats survive the text roundtrip exactly.
        let stats = reader.stats().unwrap();
        let mut expect = TraceStats::new();
        recs.iter().for_each(|r| expect.observe(r));
        assert_eq!(stats, expect);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paths_txt_holds_every_interned_path_in_file_id_order() {
        let dir = temp_dir("paths");
        // Names the whitespace-delimited text would split or mangle: a
        // newline, a backslash, non-ASCII, a space, a percent sign, a
        // form feed.
        let names = [
            "/new\nline",
            "/back\\slash",
            "/caf\u{e9}/\u{6f22}\u{5b57}",
            "/a b%c\u{c}",
        ];
        let mut w = StoreWriter::create(&dir).unwrap();
        for (t, name) in [0, 1, 0, 2, 3, 1].into_iter().enumerate() {
            let r = rec(t as i64, names[name], 1, false, DeviceClass::Disk);
            w.append(&r).unwrap();
        }
        let manifest = w.finish().unwrap();
        let text = fs::read_to_string(dir.join("paths.txt")).unwrap();
        let back: Vec<String> = text
            .lines()
            .map(|line| crate::codec::unescape(line).expect("a well-formed escape"))
            .collect();
        // One line per file, in first-appearance (`FileId`) order.
        assert_eq!(back.len() as u64, manifest.files);
        assert_eq!(back, names);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_column_is_correct_across_chunk_boundaries() {
        let dir = temp_dir("chunks");
        // 3 files interleaved over far more records than one backward-
        // pass buffer position, exercising cross-chunk carry of the
        // next-seen table. (CHUNK_RECORDS is large; the property that
        // matters is carry across iterations of the inner loop, which
        // the oracle checks regardless.)
        let n = 10_000;
        let recs: Vec<TraceRecord> = (0..n)
            .map(|i| rec(i, &format!("/f{}", i % 3), 1, false, DeviceClass::Disk))
            .collect();
        let mut w = StoreWriter::create(&dir).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.finish().unwrap();
        let rows = StoreReader::open(&dir).unwrap().read_all().unwrap();
        let expect = oracle_next_use(&recs);
        for (row, next) in rows.iter().zip(&expect) {
            assert_eq!(row.next_use, *next);
        }
        // The last reference of each file is NEVER_AGAIN.
        assert!(rows[n as usize - 1].next_use.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_appends_are_rejected() {
        let dir = temp_dir("order");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.append(&rec(50, "/a", 1, false, DeviceClass::Disk))
            .unwrap();
        let err = w.append(&rec(49, "/b", 1, false, DeviceClass::Disk));
        assert!(err.is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_columns_fail_at_open() {
        let dir = temp_dir("trunc");
        let mut w = StoreWriter::create(&dir).unwrap();
        for i in 0..10 {
            w.append(&rec(i, "/f", 1, false, DeviceClass::Disk))
                .unwrap();
        }
        w.finish().unwrap();
        // Chop a column; open must notice before any replay starts.
        let col = dir.join("size.col");
        let f = fs::OpenOptions::new().write(true).open(&col).unwrap();
        f.set_len(72).unwrap();
        drop(f);
        let err = StoreReader::open(&dir).unwrap_err();
        assert!(err.to_string().contains("size.col"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_file_id_past_the_manifest_fails_its_chunk() {
        let dir = temp_dir("badid");
        let text = "1000 REST.GET.OBJECT alpha 100\n2000 REST.GET.OBJECT beta 50\n";
        let input = Cursor::new(text.as_bytes().to_vec());
        import(
            FormatId::IbmKv,
            input,
            IngestConfig::default(),
            &dir,
            |_| {},
        )
        .unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.read_all().unwrap().len(), 2);
        // Row 1's id becomes 2^32 − 1: without the check, a replay
        // would size its per-file arenas to 2^32 rows.
        let mut ids = fs::read(dir.join("file.col")).unwrap();
        ids[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(dir.join("file.col"), ids).unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let err = reader
            .rows(8)
            .unwrap()
            .next_chunk(&mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, TraceError::BadHeader(_)), "{err}");
        assert!(
            err.to_string()
                .contains("rows 0..2: row 1 names file 4294967295"),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_clean_error() {
        let dir = temp_dir("nostore");
        fs::create_dir_all(&dir).unwrap();
        assert!(StoreReader::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_roundtrips() {
        let dir = temp_dir("empty");
        let w = StoreWriter::create(&dir).unwrap();
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.records, 0);
        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.read_all().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn import_streams_a_kv_trace_end_to_end() {
        let dir = temp_dir("import");
        let text = "\
# sample
1000 REST.GET.OBJECT alpha 100
2000 REST.PUT.OBJECT beta 50
not a line
3000 REST.GET.OBJECT alpha 100
4000 REST.DELETE.OBJECT beta
5000 REST.GET.OBJECT beta 60
";
        let mut diags = Vec::new();
        let report = import(
            FormatId::IbmKv,
            Cursor::new(text.as_bytes().to_vec()),
            IngestConfig::default(),
            &dir,
            |e| diags.push(e.to_string()),
        )
        .unwrap();
        assert_eq!(report.manifest.records, 4);
        assert_eq!(report.manifest.files, 2);
        assert_eq!(report.counts.skipped, 2, "comment + DELETE");
        assert_eq!(report.counts.parse_errors, 1);
        assert_eq!(diags.len(), 1);
        let rows = StoreReader::open(&dir).unwrap().read_all().unwrap();
        assert_eq!(rows[0].next_use, Some(3));
        assert_eq!(rows[1].next_use, Some(5));
        assert!(rows[2].next_use.is_none() && rows[3].next_use.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn import_aborts_when_the_budget_is_gone() {
        let dir = temp_dir("budget");
        let text = "junk\nmore junk\nworse\n";
        let err = import(
            FormatId::IbmKv,
            Cursor::new(text.as_bytes().to_vec()),
            IngestConfig {
                error_budget: 1,
                sample: None,
            },
            &dir,
            |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("error budget exhausted"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
