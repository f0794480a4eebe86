//! Work with the Table 2 trace format: write a trace to disk, stream it
//! back, and verify the analyses agree — the interchange path a site
//! would use to analyze its own MSS logs with this library.
//!
//! ```text
//! cargo run --release --example trace_roundtrip
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};

use fmig_analysis::Analyzer;
use fmig_trace::time::TRACE_EPOCH;
use fmig_trace::{TraceReader, TraceWriter, VerboseLogWriter};
use fmig_workload::{Workload, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::generate(&WorkloadConfig {
        scale: 0.005,
        seed: 42,
        ..WorkloadConfig::default()
    });
    println!("generated {} records", workload.len());

    // Write the compact machine-readable trace (delta times, same-user
    // elision, percent-escaped paths).
    let path = std::env::temp_dir().join("fmig-roundtrip.trace");
    let mut writer = TraceWriter::new(BufWriter::new(File::create(&path)?), TRACE_EPOCH)?;
    let verbose_bytes;
    {
        let mut verbose = VerboseLogWriter::new(std::io::sink());
        for rec in workload.records() {
            writer.write_record(&rec)?;
            verbose.write_record(&rec)?;
        }
        verbose_bytes = verbose.bytes_written();
    }
    let compact_bytes = writer.bytes_written();
    writer.finish()?;
    println!(
        "trace file: {} ({} bytes; the raw system log would be {} bytes — {:.1}x)",
        path.display(),
        compact_bytes,
        verbose_bytes,
        verbose_bytes as f64 / compact_bytes as f64,
    );

    // Stream it back and analyze.
    let reader = TraceReader::new(BufReader::new(File::open(&path)?))?;
    let mut from_disk = Analyzer::new();
    let mut read_back = 0usize;
    for item in reader {
        let rec = item?;
        from_disk.observe(&rec);
        read_back += 1;
    }
    println!("read back {read_back} records");

    // The round-tripped analysis must match the in-memory one.
    let in_memory = Analyzer::analyze(workload.records());
    assert_eq!(in_memory.stats, from_disk.stats, "Table 3 stats diverged");
    assert_eq!(
        in_memory.files.file_count(),
        from_disk.files.file_count(),
        "file census diverged"
    );
    println!(
        "round-trip verified: {} files, read share {:.1}%, error rate {:.2}%",
        from_disk.files.file_count(),
        from_disk.stats.read_reference_share() * 100.0,
        from_disk.stats.error_fraction() * 100.0
    );

    std::fs::remove_file(&path)?;
    Ok(())
}
