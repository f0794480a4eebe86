//! The `repro` binary, run as a user runs it.
//!
//! * `repro sweep` writes exactly the report `run_sweep` returns: the
//!   same golden fixtures `tests/golden_report.rs` holds the library to;
//! * `repro sweep --trace` runs latency and fault cells over a store
//!   `repro ingest` wrote;
//! * `repro list` names the paper's experiments, in paper order;
//! * the seed a study run prints is one `--seed` reads back;
//! * a bad flag, an unknown experiment or a missing store is a one-line
//!   reason plus the usage text and a non-zero exit, never a panic;
//! * a reader that goes away (`repro all | head`) ends the run cleanly.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read_to_string(path).expect("golden fixture exists")
}

/// Runs `repro sweep --preset tiny --faults none <extra> --out F` and
/// returns the bytes it wrote.
fn tiny_sweep(tag: &str, extra: &[&str]) -> String {
    let out =
        std::env::temp_dir().join(format!("fmig-repro-cli-{tag}-{}.json", std::process::id()));
    let out_arg = out.to_str().expect("utf-8 temp path");
    let mut args = vec!["sweep", "--preset", "tiny", "--faults", "none"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--out", out_arg]);
    let run = repro(&args);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let written = std::fs::read_to_string(&out).expect("sweep wrote --out");
    std::fs::remove_file(&out).expect("cleanup");
    written
}

#[test]
fn tiny_sweep_writes_the_golden_open_loop_report() {
    assert_eq!(tiny_sweep("open", &[]), golden("golden_tiny_open.json"));
}

#[test]
fn tiny_latency_sweep_writes_the_golden_closed_loop_report() {
    assert_eq!(
        tiny_sweep("latency", &["--latency"]),
        golden("golden_tiny_latency.json")
    );
}

/// Imports the pinned MSR fixture with `repro ingest` and returns the
/// store directory.
fn fixture_store(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fmig-repro-cli-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let input = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/ingest/msr_sample.csv");
    let run = repro(&[
        "ingest",
        "--format",
        "msr",
        "--input",
        input.to_str().expect("utf-8 path"),
        "--out",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    dir
}

#[test]
fn trace_sweep_runs_closed_loop_cells_under_faults() {
    let store = fixture_store("closed");
    let out = store.join("sweep.json");
    let run = repro(&[
        "sweep",
        "--trace",
        store.to_str().expect("utf-8 temp path"),
        "--latency",
        "--faults",
        "none,degraded-peak",
        "--out",
        out.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let json = std::fs::read_to_string(&out).expect("sweep wrote --out");
    assert!(json.contains("\"latency_mode\": true"), "{json}");
    assert!(json.contains("\"fault\": \"degraded-peak\""), "{json}");
    assert!(json.contains("\"degraded\": {"), "{json}");
    std::fs::remove_dir_all(&store).expect("cleanup");
}

#[test]
fn bad_sweep_arguments_fail_with_a_reason_and_no_panic() {
    let store = fixture_store("preset");
    let store_arg = store.to_str().expect("utf-8 temp path");
    for (args, reason) in [
        (
            &["sweep", "--trace", "/nonexistent"][..],
            "trace store /nonexistent",
        ),
        (
            &["sweep", "--trace", store_arg, "--preset", "tiny"][..],
            "--trace replays an imported store; it takes no --preset",
        ),
        (
            &["sweep", "--scaling"][..],
            "unknown sweep flag `--scaling`",
        ),
    ] {
        let run = repro(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(reason), "{args:?}: first line {first:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&store).expect("cleanup");
}

#[test]
fn list_prints_the_paper_experiments_in_order() {
    let run = repro(&["list"]);
    assert!(run.status.success());
    let ids = "topology table1 table2 table3 table4 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 \
               fig11 fig12 policies dedup dividing writeback";
    assert_eq!(
        String::from_utf8_lossy(&run.stdout),
        ids.replace(' ', "\n") + "\n"
    );
}

#[test]
fn the_printed_seed_reads_back_as_the_same_study() {
    let first = repro(&["--scale", "0.002", "table3"]);
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(first.status.success(), "{stderr}");
    let seed = stderr
        .split("seed ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("no seed in the progress line: {stderr}"));
    let again = repro(&["--scale", "0.002", "--seed", seed, "table3"]);
    assert!(
        again.status.success(),
        "--seed {seed}: {}",
        String::from_utf8_lossy(&again.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&again.stdout),
        String::from_utf8_lossy(&first.stdout),
        "--seed {seed} ran another study"
    );
    let other = repro(&["--scale", "0.002", "--seed", "7", "table3"]);
    assert_ne!(other.stdout, first.stdout, "the seed changes nothing");
}

#[test]
fn an_unknown_experiment_fails_before_generating_a_study() {
    for id in [
        "prefetch",
        "residency",
        "cutthrough",
        "attribution",
        "striping",
    ] {
        let run = repro(&["--scale", "0.002", "--no-sim", id]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{id}: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert_eq!(first, format!("unknown experiment `{id}`"));
        assert!(!stderr.contains("panicked"), "{id}: {stderr}");
        assert!(!stderr.contains("generating study"), "{id}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_reader_ends_the_run_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "0.002", "--no-sim", "table1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro runs");
    // Close the read end before the first experiment prints.
    drop(child.stdout.take());
    let run = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
