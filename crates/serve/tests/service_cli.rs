//! The service binaries, run as a deployment runs them: a bad or
//! removed flag, a missing required one, or an unparsable value is a
//! one-line reason (plus the usage text) and exit status 1 at start —
//! never a panic, and never a daemon that runs something other than
//! what was asked for.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

/// Exit status 1, first stderr line naming `reason`, no panic.
fn assert_refused(bin: &str, args: &[&str], reason: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or("");
    assert!(first.contains(reason), "{args:?}: first line {first:?}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

const SERVED: &str = env!("CARGO_BIN_EXE_fmig-served");

#[test]
fn the_removed_shards_flag_fails_at_start() {
    let args = [
        "--origin",
        "127.0.0.1:1",
        "--capacity",
        "1",
        "--shards",
        "2",
    ];
    assert_refused(SERVED, &args, "unknown flag `--shards`");
}

#[test]
fn bad_daemon_arguments_fail_with_a_reason() {
    assert_refused(SERVED, &["--capacity", "1"], "--origin is required");
    let bad_capacity = ["--origin", "127.0.0.1:1", "--capacity", "x"];
    assert_refused(SERVED, &bad_capacity, "bad --capacity");
}

#[test]
fn bad_loadgen_and_origin_arguments_fail_with_a_reason() {
    let loadgen = env!("CARGO_BIN_EXE_fmig-loadgen");
    assert_refused(loadgen, &["--connections", "2"], "--addr is required");
    let origin = env!("CARGO_BIN_EXE_fmig-origin");
    assert_refused(origin, &["--bogus"], "unknown flag `--bogus`");
}

#[test]
fn daemon_help_exits_zero_without_the_shards_flag() {
    let out = run(SERVED, &["--help"]);
    let usage = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{usage}");
    assert!(usage.starts_with("usage: fmig-served --origin"), "{usage}");
    assert!(!usage.contains("--shards"), "{usage}");
}
