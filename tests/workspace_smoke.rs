//! Workspace smoke test: the two invariants every future PR leans on.
//!
//! 1. The `repro` binary's `Study` pipeline (workload → simulation →
//!    analysis) runs end-to-end on a tiny preset and feeds the
//!    experiment registry.
//! 2. The compact trace codec (`fmig_trace::codec`) is lossless over a
//!    generated, simulated trace: write → read back reproduces every
//!    record exactly.

use std::io::Cursor;

use fmig_core::{experiment_ids, run_experiment, Study, StudyConfig};
use fmig_sim::MssSimulator;
use fmig_trace::time::TRACE_EPOCH;
use fmig_trace::{TraceReader, TraceWriter};
use fmig_workload::Workload;

/// Small enough to finish in seconds, large enough to exercise every
/// stage (generation, simulation, analysis, experiments).
const SMOKE_SCALE: f64 = 0.001;

#[test]
fn study_pipeline_runs_end_to_end_on_a_tiny_preset() {
    let output = Study::new(StudyConfig::at_scale(SMOKE_SCALE)).run();

    assert!(
        !output.workload.is_empty(),
        "tiny study generated no records"
    );
    assert_eq!(
        output.analysis.stats.raw_references,
        output.workload.len() as u64,
        "analysis did not observe every record"
    );
    assert!(output.analysis.files.file_count() > 0);

    // Every registered experiment renders against this output — this is
    // exactly what `repro all` does.
    for id in experiment_ids() {
        let result = run_experiment(id, &output)
            .unwrap_or_else(|| panic!("experiment `{id}` is registered but did not run"));
        assert!(
            !result.render().trim().is_empty(),
            "experiment `{id}` rendered empty output"
        );
    }
}

#[test]
fn trace_codec_round_trip_is_lossless() {
    // The records a study's pass sees, rendered and annotated by the
    // device simulator.
    let config = StudyConfig::at_scale(SMOKE_SCALE);
    let mut records = Vec::new();
    MssSimulator::new(config.sim)
        .run_streaming(Workload::generate(&config.workload).into_records(), |rec| {
            records.push(rec)
        });
    assert!(!records.is_empty());

    let mut writer = TraceWriter::new(Vec::new(), TRACE_EPOCH).expect("writer on Vec");
    for rec in &records {
        writer.write_record(rec).expect("encode record");
    }
    let encoded = writer.finish().expect("finish trace");

    let decoded: Vec<_> = TraceReader::new(Cursor::new(encoded))
        .expect("valid header")
        .collect::<Result<_, _>>()
        .expect("every record decodes");

    assert_eq!(decoded.len(), records.len(), "record count changed");
    for (i, (orig, back)) in records.iter().zip(&decoded).enumerate() {
        assert_eq!(orig, back, "record {i} changed across the round trip");
    }
}
