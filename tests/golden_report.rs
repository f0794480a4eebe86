//! Golden-report snapshots: the tiny-preset sweep JSON and the paper's
//! report (every experiment of `repro all` at scale 0.002, with and
//! without device simulation), byte for byte.
//!
//! The sweep fixtures under `tests/fixtures/` were generated from the
//! closed-loop engine *before* the fault-injection subsystem landed, so
//! they are simultaneously
//!
//! * a schema pin — any accidental field rename, float-formatting drift,
//!   or ordering change in [`fmig::SweepReport::to_json`] fails here
//!   first with a readable diff, and
//! * the zero-fault differential oracle — a sweep whose fault axis is
//!   `[FaultScenarioId::None]` must reproduce the pre-fault engine's
//!   report **byte-identically** (the fault plumbing may not perturb a
//!   single RNG draw, event, or formatted float on the no-fault path).
//!
//! Regenerating after an *intentional* schema or physics change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q --test golden_report
//! ```
//!
//! then commit the rewritten `tests/fixtures/golden_*` files alongside
//! the change that motivated it.

use fmig::{
    experiment_ids, run_experiment, run_sweep, FaultScenarioId, Study, StudyConfig, SweepConfig,
};

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The pinned matrix: `SweepConfig::tiny()` with the fault axis forced
/// to the zero-fault plan, which must equal the pre-fault engine.
fn zero_fault_tiny() -> SweepConfig {
    SweepConfig {
        faults: vec![FaultScenarioId::None],
        ..SweepConfig::tiny()
    }
}

fn check_or_update(name: &str, current: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, current).expect("write fixture");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if golden != current {
        let diff_at = golden
            .lines()
            .zip(current.lines())
            .position(|(g, c)| g != c)
            .map(|i| {
                format!(
                    "first differing line {}:\n  golden:  {}\n  current: {}",
                    i + 1,
                    golden.lines().nth(i).unwrap_or(""),
                    current.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| "line counts differ".to_string());
        panic!(
            "{name} drifted from the golden fixture.\n{diff_at}\n\
             If the change is intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test -q --test golden_report` and commit the fixture."
        );
    }
}

#[test]
fn tiny_open_loop_report_matches_golden() {
    let report = run_sweep(&zero_fault_tiny());
    check_or_update("golden_tiny_open.json", &report.to_json());
}

#[test]
fn tiny_latency_report_matches_golden() {
    let mut config = zero_fault_tiny();
    config.latency = true;
    let report = run_sweep(&config);
    check_or_update("golden_tiny_latency.json", &report.to_json());
}

/// `repro [--no-sim] --scale 0.002 all` at its default seed: every
/// experiment's rendering, each followed by a blank line, exactly as
/// the binary prints them.
fn paper_report(simulate_devices: bool) -> String {
    let mut config = StudyConfig::at_scale(0.002);
    config.workload.seed = 0x4E43_4152;
    config.simulate_devices = simulate_devices;
    let study = Study::new(config).run();
    experiment_ids()
        .iter()
        .map(|id| {
            let result = run_experiment(id, &study).expect("registered id");
            format!("{}\n\n", result.render())
        })
        .collect()
}

#[test]
fn paper_report_matches_golden() {
    check_or_update("golden_repro_0.002.txt", &paper_report(true));
}

#[test]
fn paper_report_without_device_simulation_matches_golden() {
    check_or_update("golden_repro_0.002_nosim.txt", &paper_report(false));
}
