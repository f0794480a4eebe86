//! Seeded synthesizer for MSR Cambridge block-trace CSV.
//!
//! `repro ingest-gen` writes the same format but takes no seed and
//! lives in a bin; the benchmark needs its input to be a pure function
//! of `--seed`. The stream is timestamp-ordered like the real extracts
//! and popularity is power-law skewed (file rank = ⌊files · u³⌋, so the
//! hottest 1% of files draw about a fifth of the traffic) — cache
//! fractions discriminate, and the tail keeps interning new files to
//! the end of the trace.

use std::io::{BufWriter, Write};
use std::path::Path;

/// Shape of one synthetic trace.
#[derive(Debug, Clone, Copy)]
pub struct MsrSpec {
    /// Data lines to write (a header line precedes them).
    pub records: u64,
    /// Size of the file universe drawn from (distinct (host, disk,
    /// 1 MiB extent) triples); the trace touches most but not all.
    pub files: u64,
    /// Stream seed.
    pub seed: u64,
}

const HOSTS: u64 = 64;
const DISKS: u64 = 4;

/// splitmix64: one independent 64-bit draw per call.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Writes the trace to `path`; returns the bytes written.
pub fn write_csv(spec: &MsrSpec, path: &Path) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let file = std::fs::File::create(path).map_err(io)?;
    let mut w = BufWriter::with_capacity(1 << 20, file);
    let mut rng = Rng(spec.seed ^ 0x4D53_5221); // "MSR!"
    let mut bytes = 0u64;
    let mut line = Vec::with_capacity(96);

    let header = b"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n";
    w.write_all(header).map_err(io)?;
    bytes += header.len() as u64;

    // FILETIME ticks (100 ns) for 2008-01-01T00:00:00Z; each record
    // advances 0.1–0.4 s, so the stream is strictly time-ordered.
    let mut ticks: u64 = (1_199_145_600 + 11_644_473_600) * 10_000_000;
    for _ in 0..spec.records {
        ticks += 1_000_000 + rng.next() % 3_000_000;
        let u = rng.unit();
        let rank = ((u * u * u) * spec.files as f64) as u64;
        let file_idx = rank.min(spec.files.saturating_sub(1));
        let host = file_idx % HOSTS;
        let disk = (file_idx / HOSTS) % DISKS;
        let extent = file_idx / (HOSTS * DISKS);
        let r = rng.next();
        let write_op = r % 10 < 3;
        let size = 4096 + ((r >> 8) % 64) * 16_384;
        let resp = (r >> 20) % 40_000_000; // up to 4 s of ticks
        line.clear();
        // Writing into a Vec cannot fail.
        let _ = writeln!(
            line,
            "{ticks},src{host:02},{disk},{},{},{size},{resp}",
            if write_op { "Write" } else { "Read" },
            extent << 20,
        );
        w.write_all(&line).map_err(io)?;
        bytes += line.len() as u64;
    }
    w.flush().map_err(io)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Scratch;
    use fmig_trace::{FormatId, IngestConfig};

    #[test]
    fn same_seed_same_bytes_and_every_line_parses_in_time_order() {
        let scratch = Scratch::create("msrgen").unwrap();
        let spec = MsrSpec {
            records: 5_000,
            files: 1 << 10,
            seed: 7,
        };
        let a = scratch.path().join("a.csv");
        let b = scratch.path().join("b.csv");
        let c = scratch.path().join("c.csv");
        let n = write_csv(&spec, &a).unwrap();
        write_csv(&spec, &b).unwrap();
        write_csv(&MsrSpec { seed: 8, ..spec }, &c).unwrap();
        let (a, b, c) = (
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            std::fs::read(&c).unwrap(),
        );
        assert_eq!(a.len() as u64, n);
        assert_eq!(a, b, "one seed, one stream");
        assert_ne!(a, c, "another seed, another stream");

        let mut stream = FormatId::Msr.stream(&a[..], IngestConfig::default());
        let mut last = i64::MIN;
        let mut files = std::collections::HashSet::new();
        for item in stream.by_ref() {
            let rec = item.expect("synthetic lines parse");
            assert!(rec.start.as_unix() >= last);
            last = rec.start.as_unix();
            files.insert(rec.mss_path.clone());
        }
        let c = stream.counts;
        assert_eq!(
            (c.records, c.skipped, c.parse_errors, c.clamped),
            (5_000, 1, 0, 0)
        );
        // Skewed but wide: many files, far fewer than records.
        assert!(
            files.len() > 400 && files.len() < 1 << 10,
            "{} files",
            files.len()
        );
    }
}
