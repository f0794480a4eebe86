//! The paper's motivating workload: a climate-modelling campaign.
//!
//! §3.3 describes the pattern: a Community Climate Model run takes an
//! hour of Cray time and produces ~500 MB that must go to the MSS; the
//! scientist then steps through the output interactively the next
//! morning. This example builds that workload explicitly (without the
//! full synthetic NCAR trace), pushes it through the MSS simulator, and
//! shows why the paper argues for read-optimised migration.
//!
//! ```text
//! cargo run --release --example climate_campaign
//! ```

use fmig_migrate::writeback;
use fmig_sim::{Metrics, MssSimulator, SimConfig};
use fmig_trace::time::{DAY, HOUR, TRACE_EPOCH};
use fmig_trace::{DeviceClass, Direction, Endpoint, FileTable, IdRecord, Request, TraceRecord};

/// One nightly model run: 60 history files of ~8 MB plus 4 restart files
/// of ~150 MB, written starting at 2 AM.
fn nightly_run(day: i64, run: usize) -> Vec<TraceRecord> {
    let mut records = Vec::new();
    let start = TRACE_EPOCH.add_secs(day * DAY + 2 * HOUR);
    let mut t = start;
    for hour_file in 0..60u64 {
        t = t.add_secs(45); // the job writes as it integrates
        records.push(TraceRecord::write(
            Endpoint::MssDisk,
            t,
            8_000_000,
            format!("/ccm/run{run:02}/hist{hour_file:03}"),
            100 + run as u32,
        ));
    }
    for restart in 0..4u64 {
        t = t.add_secs(140);
        records.push(TraceRecord::write(
            Endpoint::MssTapeSilo,
            t,
            150_000_000,
            format!("/ccm/run{run:02}/restart{restart}"),
            100 + run as u32,
        ));
    }
    records
}

/// The next morning the scientist pages through the history files.
fn morning_review(day: i64, run: usize) -> Vec<TraceRecord> {
    let mut records = Vec::new();
    let mut t = TRACE_EPOCH.add_secs(day * DAY + 9 * HOUR);
    for hour_file in 0..60u64 {
        t = t.add_secs(20); // a "movie" of the results
        records.push(TraceRecord::read(
            Endpoint::MssDisk,
            t,
            8_000_000,
            format!("/ccm/run{run:02}/hist{hour_file:03}"),
            100 + run as u32,
        ));
    }
    records
}

/// Mid-week, the scientist pulls last year's run back for comparison:
/// the dataset's cartridges are on the shelf and in the silo.
fn retrospective(day: i64) -> Vec<TraceRecord> {
    let mut records = Vec::new();
    let mut t = TRACE_EPOCH.add_secs(day * DAY + 10 * HOUR);
    for part in 0..8u64 {
        t = t.add_secs(320); // each file waits for an operator mount
        records.push(TraceRecord::read(
            Endpoint::MssTapeManual,
            t,
            47_000_000,
            format!("/ccm/archive90/season{part}"),
            100,
        ));
    }
    for part in 0..8u64 {
        t = t.add_secs(130); // silo robot is faster
        records.push(TraceRecord::read(
            Endpoint::MssTapeSilo,
            t,
            80_000_000,
            format!("/ccm/archive91/season{part}"),
            100,
        ));
    }
    records
}

/// The campaign as path-free requests, each path interned to a slot:
/// what the simulator and the write-behind planner take.
fn requests(records: &[TraceRecord]) -> Vec<IdRecord> {
    let mut paths = FileTable::new();
    records
        .iter()
        .map(|r| IdRecord {
            start: r.start,
            volume: r.volume_hash(),
            file_size: r.file_size,
            file: paths.intern(&r.mss_path).raw(),
            startup_latency_s: 0,
            direction: r.direction(),
            device: r.mss_device().expect("an MSS device"),
            error: r.error,
        })
        .collect()
}

/// Simulates `requests`, returning them annotated and the metrics.
fn simulate(sim: &MssSimulator, requests: Vec<IdRecord>) -> (Vec<IdRecord>, Metrics) {
    let mut annotated = Vec::with_capacity(requests.len());
    let metrics = sim.run_streaming(requests, |rec| annotated.push(rec));
    (annotated, metrics)
}

fn mean_latency(requests: &[IdRecord], dir: Direction) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for r in requests.iter().filter(|r| r.direction == dir) {
        sum += r.startup_latency_s as f64;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn main() {
    // A week of campaign: four concurrent model runs, nightly writes,
    // morning reviews.
    let mut records = Vec::new();
    for day in 0..7 {
        for run in 0..4 {
            records.extend(nightly_run(day, run));
            records.extend(morning_review(day + 1, run));
        }
        if day == 3 {
            records.extend(retrospective(day));
        }
    }
    records.sort_by_key(|r| r.start);
    println!(
        "campaign: {} requests over a week (4 runs x 7 nights)",
        records.len()
    );

    let requests = requests(&records);
    let sim = MssSimulator::new(SimConfig::default());
    let (base, m) = simulate(&sim, requests.clone());
    println!(
        "\nas-is         : reads wait {:5.1}s, writes wait {:5.1}s (mean to first byte)",
        mean_latency(&base, Direction::Read),
        mean_latency(&base, Direction::Write),
    );

    // §6: write lazily at night, keep daytime devices free for readers.
    let (lazy, _) = simulate(&sim, writeback::defer_writes(requests));
    println!(
        "write-behind  : reads wait {:5.1}s (perceived write wait ~0: the MSS\n\
         \x20               acknowledges writes and flushes during the night window)",
        mean_latency(&lazy, Direction::Read),
    );

    // Where does read time go? Mostly tape mounts: the silo mounts for
    // every fresh cartridge while disk reads fly.
    println!("\nlatency by device (reads, as-is):");
    for device in DeviceClass::ALL {
        let h = m.latency_of(Direction::Read, device);
        if h.count() > 0 {
            println!(
                "  {:14} mean {:6.1}s  p90 {:6.1}s  ({} requests)",
                device.label(),
                h.mean(),
                h.quantile(0.9),
                h.count()
            );
        }
    }
    println!(
        "\nThe asymmetry is the paper's point: the scientist waits for every\n\
         read, while nobody waits for a tape write — so the MSS should be\n\
         \"optimized to make read access to files faster at the cost of\n\
         requiring more work for writes\" (§6)."
    );
}
