//! Cross-crate pipeline integration: codec round-trips under analysis,
//! simulation respects trace identity, experiments all render.

use std::io::Cursor;

use fmig_analysis::Analyzer;
use fmig_core::{experiment_ids, run_experiment, Study, StudyConfig};
use fmig_sim::{MssSimulator, SimConfig};
use fmig_trace::time::TRACE_EPOCH;
use fmig_trace::{TraceReader, TraceWriter};
use fmig_workload::{Workload, WorkloadConfig};

fn small_workload() -> Workload {
    Workload::generate(&WorkloadConfig {
        scale: 0.004,
        seed: 77,
        ..WorkloadConfig::default()
    })
}

#[test]
fn codec_roundtrip_preserves_all_analyses() {
    let workload = small_workload();
    let mut buf = Vec::new();
    let mut writer = TraceWriter::new(&mut buf, TRACE_EPOCH).expect("vec writer");
    for rec in workload.records() {
        writer.write_record(&rec).expect("write record");
    }
    writer.finish().expect("flush");

    let records: Result<Vec<_>, _> = TraceReader::new(Cursor::new(buf))
        .expect("valid header")
        .collect();
    let records = records.expect("all records parse");
    assert_eq!(records.len(), workload.len());

    let direct = Analyzer::analyze(workload.records());
    let roundtrip = Analyzer::analyze(records.iter());
    assert_eq!(direct.stats, roundtrip.stats);
    assert_eq!(direct.files.file_count(), roundtrip.files.file_count());
    assert_eq!(direct.dirs.dir_count(), roundtrip.dirs.dir_count());
    assert_eq!(
        direct.files.repeat_within_8h_fraction(),
        roundtrip.files.repeat_within_8h_fraction()
    );
}

#[test]
fn simulation_preserves_record_identity_and_order() {
    let workload = small_workload();
    let input: Vec<_> = workload.records().collect();
    let run = MssSimulator::new(SimConfig::default()).run(input.clone());
    assert_eq!(run.records.len(), input.len());
    for (out, inp) in run.records.iter().zip(input.iter()) {
        assert_eq!(out.start, inp.start);
        assert_eq!(out.mss_path, inp.mss_path);
        assert_eq!(out.file_size, inp.file_size);
        assert_eq!(out.direction(), inp.direction());
        assert_eq!(out.error, inp.error);
    }
    // Successful requests got a transfer time consistent with ~2 MB/s.
    for rec in run
        .records
        .iter()
        .filter(|r| r.is_ok() && r.file_size > 1_000_000)
    {
        let mbps = rec.file_size as f64 / 1e6 / (rec.transfer_ms as f64 / 1000.0);
        assert!((1.4..3.5).contains(&mbps), "rate {mbps} MB/s");
    }
}

#[test]
fn every_experiment_runs_and_renders() {
    let mut config = StudyConfig::at_scale(0.004);
    config.workload.seed = 5;
    let output = Study::new(config).run();
    for id in experiment_ids() {
        let result =
            run_experiment(id, &output).unwrap_or_else(|| panic!("experiment {id} missing"));
        let text = result.render();
        assert!(text.contains(id), "{id} render lacks its id");
        assert!(text.len() > 100, "{id} render suspiciously short");
        for c in &result.comparisons {
            assert!(
                c.paper.is_finite() && c.measured.is_finite(),
                "{id}: non-finite comparison {c:?}"
            );
        }
    }
    assert_eq!(run_experiment("nonsense", &output).map(|r| r.id), None);
}

#[test]
fn deferred_writes_trace_is_valid_and_complete() {
    let workload = small_workload();
    let records: Vec<_> = workload.records().collect();
    let deferred = fmig_migrate::writeback::defer_writes(&records);
    assert_eq!(deferred.len(), records.len());
    // Still sorted, still simulable.
    for w in deferred.windows(2) {
        assert!(w[0].start <= w[1].start);
    }
    let run = MssSimulator::new(SimConfig::default()).run(deferred);
    assert_eq!(run.records.len(), records.len());
}

#[test]
fn different_seeds_differ_same_seeds_agree() {
    let a = Workload::generate(&WorkloadConfig {
        scale: 0.002,
        seed: 1,
        ..WorkloadConfig::default()
    });
    let b = Workload::generate(&WorkloadConfig {
        scale: 0.002,
        seed: 1,
        ..WorkloadConfig::default()
    });
    let c = Workload::generate(&WorkloadConfig {
        scale: 0.002,
        seed: 2,
        ..WorkloadConfig::default()
    });
    assert_eq!(a, b);
    assert_ne!(a, c);
}
