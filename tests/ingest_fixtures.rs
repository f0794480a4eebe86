//! The pinned external-format fixtures (`tests/fixtures/ingest/`): one
//! sample per supported format, each imported end to end and held to
//! its pinned outcome. The pins cover the full import pipeline — line
//! parsing, skip/error discipline, normalization, and the store's
//! manifest arithmetic — so a drift in any layer fails here. The rows
//! the store streams back are held to the cache specification's
//! `spec_refs` (`tests/spec/mod.rs`): interning order and the import
//! path's next-use sweep against a forward scan of the parsed records.

use std::io::BufReader;
use std::path::Path;

use fmig_trace::ingest::store::{import, StoreReader, StoreRow};
use fmig_trace::{FormatId, IngestConfig, TraceRecord};

mod spec;
use spec::{spec_refs, SpecRef};

struct IngestFixture {
    format: FormatId,
    file: &'static str,
    records: u64,
    files: u64,
    referenced_bytes: u64,
    read_records: u64,
    skipped: u64,
    parse_errors: u64,
    error_census: u64,
}

const INGEST_FIXTURES: [IngestFixture; 3] = [
    IngestFixture {
        format: FormatId::Msr,
        file: "msr_sample.csv",
        records: 16,
        files: 7,
        referenced_bytes: 536_576,
        read_records: 11,
        skipped: 1,
        parse_errors: 2,
        error_census: 0,
    },
    IngestFixture {
        format: FormatId::Clf,
        file: "clf_sample.log",
        records: 9,
        files: 6,
        referenced_bytes: 1_208_453,
        read_records: 7,
        skipped: 3,
        parse_errors: 2,
        error_census: 3,
    },
    IngestFixture {
        format: FormatId::IbmKv,
        file: "ibmkv_sample.txt",
        records: 14,
        files: 6,
        referenced_bytes: 7_388_757,
        read_records: 10,
        skipped: 2,
        parse_errors: 2,
        error_census: 0,
    },
];

#[test]
fn every_format_fixture_imports_to_its_pinned_stats_and_reopens() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ingest");
    let tmp = std::env::temp_dir().join(format!("fmig-ingest-fixtures-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    for fx in &INGEST_FIXTURES {
        let file = std::fs::File::open(fixtures.join(fx.file)).expect("fixture exists");
        let dir = tmp.join(fx.format.name());
        let report = import(
            fx.format,
            BufReader::new(file),
            IngestConfig::default(),
            &dir,
            |_| {},
        )
        .expect("import");
        let m = &report.manifest;
        assert_eq!(
            (
                m.records,
                m.files,
                m.referenced_bytes,
                m.read_records,
                report.counts.skipped,
                report.counts.parse_errors,
                report.stats.total_errors(),
            ),
            (
                fx.records,
                fx.files,
                fx.referenced_bytes,
                fx.read_records,
                fx.skipped,
                fx.parse_errors,
                fx.error_census,
            ),
            "{}: (records, files, bytes, reads, skipped, errors, census) drifted",
            fx.file
        );
        let reopened = StoreReader::open(&dir).expect("imported store reopens");
        assert_eq!(reopened.manifest(), m, "{}: reopened manifest", fx.file);
        let file = std::fs::File::open(fixtures.join(fx.file)).expect("fixture exists");
        let stream = fx
            .format
            .stream(BufReader::new(file), IngestConfig::default());
        let parsed: Vec<TraceRecord> = stream.filter_map(Result::ok).collect();
        let of_row = |r: &StoreRow| (r.file, r.size, r.write, r.start, r.next_use);
        let rows = reopened.read_all().expect("store rows");
        let rows: Vec<_> = rows.iter().map(of_row).collect();
        let of_ref = |r: &SpecRef| (r.id, r.size, r.write, r.time, r.next_use);
        let want: Vec<_> = spec_refs(&parsed).iter().map(of_ref).collect();
        assert!(want.iter().any(|r| r.4.is_some()), "no re-reference");
        assert_eq!(rows, want, "{}: store rows", fx.file);
    }
    std::fs::remove_dir_all(&tmp).expect("cleanup");
}
