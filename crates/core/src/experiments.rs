//! The experiment registry: one entry per table and figure of the paper,
//! plus §6's four design-implication studies (the policy comparison,
//! eight-hour dedup, the dividing point and write-behind). Dedup reads
//! the file census the figures use; the other three run
//! `fmig-migrate`'s studies over the study's trace.
//!
//! Every experiment renders a text report and a set of paper-vs-measured
//! [`Comparison`] rows; `repro <id>` prints them and `repro list` names
//! every id. Absolute magnitudes depend on the synthetic substrate,
//! so the comparisons focus on the *shape* claims the paper actually
//! makes (shares, ratios, crossover points, orderings).

use fmig_analysis::report::{ascii_cdf, fmt_count, fmt_f1, fmt_f2, fmt_pct, render_comparisons};
use fmig_analysis::{Comparison, TextTable, REPEAT_WINDOWS_H};
use fmig_migrate::{dividing::DividingPointStudy, eval, policy, writeback};
use fmig_sim::{Metrics, MssSimulator, SimConfig};
use fmig_trace::time::{CivilDate, Timestamp, TRACE_EPOCH};
use fmig_trace::{
    DeviceClass, Direction, Endpoint, Request, TraceRecord, TraceWriter, VerboseLogWriter,
};
use fmig_workload::rate::{READ_DIURNAL, READ_WEEKLY};

use crate::study::{StudyOutput, TABLE2_SAMPLE};

/// One regenerated table or figure.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Registry id (`table3`, `fig7`, `policies`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Rendered report (tables and ASCII plots).
    pub text: String,
    /// Paper-vs-measured rows.
    pub comparisons: Vec<Comparison>,
}

impl ExperimentResult {
    /// Renders the full report including the comparison table.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n\n{}", self.id, self.title, self.text);
        if !self.comparisons.is_empty() {
            out.push('\n');
            out.push_str(&render_comparisons("paper vs measured:", &self.comparisons));
        }
        out
    }
}

/// Renders one experiment from a completed study.
type Renderer = fn(&StudyOutput) -> ExperimentResult;

/// The registry: every experiment id and its renderer, in paper order.
const EXPERIMENTS: &[(&str, Renderer)] = &[
    ("topology", topology),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("policies", policies),
    ("dedup", dedup_exp),
    ("dividing", dividing_exp),
    ("writeback", writeback_exp),
];

/// The ids of [`EXPERIMENTS`], in its order.
static IDS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// All experiment ids, in paper order.
pub fn experiment_ids() -> &'static [&'static str] {
    &IDS
}

/// Runs one experiment against a completed study.
///
/// Returns `None` for unknown ids.
pub fn run_experiment(id: &str, study: &StudyOutput) -> Option<ExperimentResult> {
    let &(key, render) = EXPERIMENTS.iter().find(|(key, _)| *key == id)?;
    Some(ExperimentResult {
        id: key.into(),
        ..render(study)
    })
}

/// A renderer's result; [`run_experiment`] stamps the registry id on it.
fn rendered(title: &str, text: String, comparisons: Vec<Comparison>) -> ExperimentResult {
    ExperimentResult {
        id: String::new(),
        title: title.into(),
        text,
        comparisons,
    }
}

/// Figures 1–2: the storage pyramid and NCAR network as built here.
fn topology(study: &StudyOutput) -> ExperimentResult {
    let sim = &study.config.sim;
    let text = format!(
        "Storage pyramid (Figure 1) as modelled:\n\
         \x20 CPU cache / memory ........ not modelled (above the MSS)\n\
         \x20 Cray local disk ........... trace source (Endpoint::Cray)\n\
         \x20 MSS magnetic disk ......... {} spindles @ {:.1} MB/s\n\
         \x20 Robotic tape silo ......... {} shared drives, {} robot arms,\n\
         \x20                             {:.0} s mount, {:.0}-{:.0} s seek\n\
         \x20 Shelf tape ................ {} shared drives, {} operators,\n\
         \x20                             ~{:.0} s mount (lognormal, sigma {:.1})\n\n\
         Network (Figure 2): requests flow Cray -> MSCP (dispatch overhead\n\
         median {:.1} s) -> device queues -> {} bitfile movers (LDN direct\n\
         data path).\n",
        sim.disk_spindles,
        sim.disk_rate / 1e6,
        sim.silo_drives,
        sim.robot_arms,
        sim.robot_mount_s,
        sim.tape_seek_min_s,
        sim.tape_seek_max_s,
        sim.manual_drives,
        sim.operators,
        sim.operator_mount_median_s,
        sim.operator_mount_sigma,
        sim.mscp_overhead_median_s,
        sim.movers,
    );
    rendered("Figures 1-2: storage hierarchy and data path", text, vec![])
}

/// Table 1: device characteristics, measured on uncontended hardware.
fn table1(_study: &StudyOutput) -> ExperimentResult {
    let cfg = SimConfig::uncontended();
    let sim = MssSimulator::new(cfg);
    // 25 lonely 100 MB reads per device class, hours apart, so mount and
    // seek randomness averages out without any queueing.
    let endpoints = [
        Endpoint::MssDisk,
        Endpoint::MssTapeSilo,
        Endpoint::MssTapeManual,
    ];
    let mut records = Vec::new();
    for rep in 0..25i64 {
        for (d, &ep) in endpoints.iter().enumerate() {
            records.push(TraceRecord::read(
                ep,
                TRACE_EPOCH.add_secs(rep * 30_000 + d as i64 * 10_000),
                100_000_000,
                format!("/t1/{d}/{rep}"),
                1,
            ));
        }
    }
    let mut annotated = Vec::with_capacity(records.len());
    sim.run_streaming(records, |rec| annotated.push(rec));
    let mut t = TextTable::new(["category", "disk", "tape (silo)", "tape (manual)"]);
    let mut lat = [0.0f64; 3];
    let mut rate = [0.0f64; 3];
    for rec in &annotated {
        let d = match rec.mss_device().expect("mss device") {
            DeviceClass::Disk => 0,
            DeviceClass::TapeSilo => 1,
            DeviceClass::TapeManual => 2,
        };
        lat[d] += rec.startup_latency_s as f64 / 25.0;
        rate[d] += rec.file_size as f64 / (rec.transfer_ms.max(1) as f64 / 1000.0) / 1e6 / 25.0;
    }
    t.row([
        "first byte (s), uncontended".to_string(),
        fmt_f1(lat[0]),
        fmt_f1(lat[1]),
        fmt_f1(lat[2]),
    ]);
    t.row([
        "transfer rate (MB/s)".to_string(),
        fmt_f2(rate[0]),
        fmt_f2(rate[1]),
        fmt_f2(rate[2]),
    ]);
    t.row([
        "media capacity".to_string(),
        "n/a (100 GB farm)".to_string(),
        "200 MB cartridge".to_string(),
        "200 MB cartridge".to_string(),
    ]);
    let text = format!(
        "Paper Table 1 (for reference): optical jukebox 7 s / 0.25 MB/s /\n\
         $80/GB; IBM 3490 linear tape 13 s / 6 MB/s / $25/GB; Ampex D-2\n\
         helical 60+ s / 15 MB/s / $2/GB. The NCAR MSS uses 3480-class\n\
         linear cartridges; measured single-request behaviour of our\n\
         simulated devices:\n\n{}",
        t.render()
    );
    let comparisons = vec![
        // §5.1.1's queue-free deductions: silo ~ mount + seek ~ 60 s,
        // manual ~ 115 s mount + seek ~ 165 s, disk ~ seconds.
        Comparison::new("silo first byte, uncontended (s)", 60.0, lat[1]),
        Comparison::new("manual first byte, uncontended (s)", 165.0, lat[2]),
        Comparison::new("observed transfer rate (MB/s)", 2.0, rate[1]),
        Comparison::new(
            "silo/manual mount advantage",
            2.25,
            lat[2] / lat[1].max(1e-9),
        ),
    ];
    rendered("Table 1: storage device characteristics", text, comparisons)
}

/// Table 2: the trace format and its compaction ratio, over the first
/// [`TABLE2_SAMPLE`] records rendered from the workload. A simulated
/// study annotates each with its simulated startup latency and the
/// transfer time the simulator gives it; otherwise the rendered records
/// carry the generator's own timings.
fn table2(study: &StudyOutput) -> ExperimentResult {
    let n = study.workload.len().min(TABLE2_SAMPLE);
    let mut compact = TraceWriter::new(Vec::new(), TRACE_EPOCH).expect("vec writer");
    let mut verbose = VerboseLogWriter::new(Vec::new());
    for (i, mut rec) in study.workload.records().take(n).enumerate() {
        if let Some(&wait) = study.latencies.get(i) {
            let transfer_ms = study.config.sim.transfer_ms(&rec);
            rec.annotate(wait, transfer_ms);
        }
        compact.write_record(&rec).expect("vec writer");
        verbose.write_record(&rec).expect("vec writer");
    }
    let ratio = verbose.bytes_written() as f64 / compact.bytes_written().max(1) as f64;
    let per_rec = compact.bytes_written() as f64 / n.max(1) as f64;
    let mut t = TextTable::new(["field", "meaning"]);
    for (f, m) in [
        ("source", "device the data came from"),
        ("destination", "device the data is going to"),
        ("flags", "read/write, error, compression, same-user bit"),
        ("start time", "seconds since the previous record's start"),
        ("startup latency", "seconds to start the transfer"),
        ("transfer time", "milliseconds to transfer the data"),
        ("file size", "bytes"),
        ("MSS file name", "bitfile name on the MSS"),
        ("local file name", "file name on the computer"),
        ("user ID", "requesting user ('-' when same as previous)"),
    ] {
        t.row([f, m]);
    }
    let text = format!(
        "{}\nMeasured over {} records: verbose system log {} bytes vs\n\
         compact trace {} bytes => {:.1}x compaction ({:.0} bytes/record).\n\
         The paper reduced 50 MB/month of logs to 10-11 MB/month (~4.8x).\n",
        t.render(),
        fmt_count(n as u64),
        fmt_count(verbose.bytes_written()),
        fmt_count(compact.bytes_written()),
        ratio,
        per_rec,
    );
    let comparisons = vec![Comparison::new("log-to-trace compaction ratio", 4.8, ratio)];
    rendered(
        "Table 2: trace record format and compaction",
        text,
        comparisons,
    )
}

/// Table 3: overall trace statistics.
fn table3(study: &StudyOutput) -> ExperimentResult {
    let s = &study.analysis.stats;
    let lat = &study.analysis.latency;
    let tg = &study.targets;
    let combined = s.combined();
    let mut t = TextTable::new(["", "Reads", "Writes", "Total"]);
    t.row([
        "References".to_string(),
        fmt_count(s.reads.total.references),
        fmt_count(s.writes.total.references),
        fmt_count(combined.total.references),
    ]);
    for dev in DeviceClass::ALL {
        t.row([
            format!("  {dev}"),
            fmt_count(s.reads.device(dev).references),
            fmt_count(s.writes.device(dev).references),
            fmt_count(combined.device(dev).references),
        ]);
    }
    t.row([
        "GB transferred".to_string(),
        fmt_f1(s.reads.total.gigabytes()),
        fmt_f1(s.writes.total.gigabytes()),
        fmt_f1(combined.total.gigabytes()),
    ]);
    for dev in DeviceClass::ALL {
        t.row([
            format!("  {dev}"),
            fmt_f1(s.reads.device(dev).gigabytes()),
            fmt_f1(s.writes.device(dev).gigabytes()),
            fmt_f1(combined.device(dev).gigabytes()),
        ]);
    }
    t.row([
        "Avg file size (MB)".to_string(),
        fmt_f2(s.reads.total.avg_file_size_mb()),
        fmt_f2(s.writes.total.avg_file_size_mb()),
        fmt_f2(combined.total.avg_file_size_mb()),
    ]);
    for dev in DeviceClass::ALL {
        t.row([
            format!("  {dev}"),
            fmt_f2(s.reads.device(dev).avg_file_size_mb()),
            fmt_f2(s.writes.device(dev).avg_file_size_mb()),
            fmt_f2(combined.device(dev).avg_file_size_mb()),
        ]);
    }
    t.row([
        "Secs to first byte".to_string(),
        fmt_f1(lat.direction_mean(Direction::Read)),
        fmt_f1(lat.direction_mean(Direction::Write)),
        "".to_string(),
    ]);
    for dev in DeviceClass::ALL {
        t.row([
            format!("  {dev}"),
            fmt_f1(lat.mean(Direction::Read, dev)),
            fmt_f1(lat.mean(Direction::Write, dev)),
            fmt_f1(lat.device_mean(dev)),
        ]);
    }
    let text = format!(
        "{}\nErrors: {} of {} raw references ({}).\n",
        t.render(),
        fmt_count(s.total_errors()),
        fmt_count(s.raw_references),
        fmt_pct(s.error_fraction()),
    );
    let dev_shares = s.device_reference_shares();
    let comparisons = vec![
        Comparison::new(
            "read share of references",
            tg.read_share(),
            s.read_reference_share(),
        ),
        Comparison::new("read share of bytes", 0.73, s.read_byte_share()),
        Comparison::new("error fraction", tg.error_fraction(), s.error_fraction()),
        Comparison::new("disk share of references", 0.66, dev_shares[0].fraction),
        Comparison::new("silo share of references", 0.20, dev_shares[1].fraction),
        Comparison::new("manual share of references", 0.12, dev_shares[2].fraction),
        Comparison::new(
            "avg read size (MB)",
            tg.avg_read_mb,
            s.reads.total.avg_file_size_mb(),
        ),
        Comparison::new(
            "avg write size (MB)",
            tg.avg_write_mb,
            s.writes.total.avg_file_size_mb(),
        ),
        Comparison::new(
            "disk read latency (s)",
            tg.latency_read_s_by_device[0],
            lat.mean(Direction::Read, DeviceClass::Disk),
        ),
        Comparison::new(
            "silo read latency (s)",
            tg.latency_read_s_by_device[1],
            lat.mean(Direction::Read, DeviceClass::TapeSilo),
        ),
        Comparison::new(
            "manual read latency (s)",
            tg.latency_read_s_by_device[2],
            lat.mean(Direction::Read, DeviceClass::TapeManual),
        ),
        Comparison::new(
            "write latency < read latency",
            tg.latency_write_s / tg.latency_read_s,
            lat.direction_mean(Direction::Write) / lat.direction_mean(Direction::Read).max(1e-9),
        ),
    ];
    rendered("Table 3: overall trace statistics", text, comparisons)
}

/// Table 4: the referenced file store.
fn table4(study: &StudyOutput) -> ExperimentResult {
    let files = &study.analysis.files;
    let dirs = &study.analysis.dirs;
    let tg = &study.targets;
    let scale = study.config.workload.scale;
    let mut t = TextTable::new(["statistic", "measured", "paper (at scale 1.0)"]);
    t.row([
        "Number of files".to_string(),
        fmt_count(files.file_count() as u64),
        format!("{} (x{scale})", fmt_count(tg.store_files)),
    ]);
    t.row([
        "Average file size".to_string(),
        format!("{} MB", fmt_f1(files.avg_file_mb())),
        format!("{} MB", fmt_f1(tg.store_avg_file_mb)),
    ]);
    t.row([
        "Number of directories".to_string(),
        fmt_count(dirs.dir_count() as u64),
        format!("{} (x{scale})", fmt_count(tg.store_directories)),
    ]);
    t.row([
        "Largest directory".to_string(),
        format!("{} files", fmt_count(dirs.largest_dir() as u64)),
        format!("{} files (x{scale})", fmt_count(tg.largest_directory)),
    ]);
    t.row([
        "Maximum directory depth".to_string(),
        dirs.max_depth().to_string(),
        tg.max_directory_depth.to_string(),
    ]);
    t.row([
        "Total data".to_string(),
        format!("{:.2} TB", files.total_bytes() as f64 / 1e12),
        format!("{:.0} TB (x{scale})", tg.store_total_tb),
    ]);
    let comparisons = vec![
        Comparison::new(
            "files (scaled)",
            tg.store_files as f64 * scale,
            files.file_count() as f64,
        ),
        Comparison::new(
            "avg file size (MB)",
            tg.store_avg_file_mb,
            files.avg_file_mb(),
        ),
        Comparison::new(
            "directories (scaled)",
            tg.store_directories as f64 * scale,
            dirs.dir_count() as f64,
        ),
        Comparison::new(
            "max depth",
            tg.max_directory_depth as f64,
            dirs.max_depth() as f64,
        ),
        Comparison::new(
            "total data (TB, scaled)",
            tg.store_total_tb * scale,
            files.total_bytes() as f64 / 1e12,
        ),
    ];
    rendered(
        "Table 4: statistics of the referenced file store",
        t.render(),
        comparisons,
    )
}

/// Figure 3: latency to first byte per device.
fn fig3(study: &StudyOutput) -> ExperimentResult {
    let lat = &study.analysis.latency;
    let disk = lat.device_cdf(DeviceClass::Disk);
    let silo = lat.device_cdf(DeviceClass::TapeSilo);
    let manual = lat.device_cdf(DeviceClass::TapeManual);
    let plot = ascii_cdf(
        "Cumulative fraction of requests vs latency to first byte",
        &[('d', &disk), ('s', &silo), ('m', &manual)],
        "seconds",
    );
    let manual_400 = lat.device_fraction_le(DeviceClass::TapeManual, 400.0);
    let silo_mean = lat.device_mean(DeviceClass::TapeSilo);
    let manual_mean = lat.device_mean(DeviceClass::TapeManual);
    let text = format!(
        "{plot}\nd = disk, s = tape (silo), m = tape (manual)\n\
         disk median: {:.0} s; silo mean {:.1} s; manual mean {:.1} s;\n\
         manual requests finished within 400 s: {}\n",
        lat.device_median(DeviceClass::Disk),
        silo_mean,
        manual_mean,
        fmt_pct(manual_400),
    );
    let comparisons = vec![
        Comparison::new(
            "disk median latency (s)",
            4.0,
            lat.device_median(DeviceClass::Disk),
        ),
        Comparison::new(
            "manual-to-silo first-byte ratio",
            2.25,
            manual_mean / silo_mean.max(1e-9),
        ),
        Comparison::new("manual requests > 400 s", 0.10, 1.0 - manual_400),
        Comparison::new(
            "silo requests > 400 s",
            0.01,
            1.0 - lat.device_fraction_le(DeviceClass::TapeSilo, 400.0),
        ),
    ];
    rendered(
        "Figure 3: latency to first byte by device",
        text,
        comparisons,
    )
}

/// Figure 4: data rate over the day.
fn fig4(study: &StudyOutput) -> ExperimentResult {
    let h = &study.analysis.hourly;
    let mut t = TextTable::new(["hour", "reads GB/h", "writes GB/h", "total GB/h"]);
    for hour in 0..24u8 {
        t.row([
            format!("{hour:02}"),
            fmt_f2(h.gb_per_hour(Direction::Read, hour)),
            fmt_f2(h.gb_per_hour(Direction::Write, hour)),
            fmt_f2(h.total_gb_per_hour(hour)),
        ]);
    }
    let read_series = h.series(Direction::Read);
    let write_series = h.series(Direction::Write);
    let read_pt = h.peak_to_trough(Direction::Read);
    let write_pt = h.peak_to_trough(Direction::Write);
    // The paper's 8 AM jump: rate at 9-10 vs 6-7.
    let jump = (read_series[9] + read_series[10]) / (read_series[6] + read_series[7]).max(1e-9);
    let text = format!(
        "{}\nread peak/trough: {:.1}x; write peak/trough: {:.1}x; 8AM read jump: {:.1}x\n",
        t.render(),
        read_pt,
        write_pt,
        jump
    );
    // Paper's profile implies read peak/trough ~6.7x, writes ~1.16x.
    let paper_read_pt = READ_DIURNAL[8..17].iter().copied().fold(0.0, f64::max)
        / READ_DIURNAL[0..6].iter().copied().fold(f64::MAX, f64::min);
    let comparisons = vec![
        Comparison::new("read peak/trough over the day", paper_read_pt, read_pt),
        Comparison::new("write peak/trough over the day", 1.16, write_pt),
        Comparison::new(
            "reads dominate daytime transfers",
            2.0,
            read_series[10] / write_series[10].max(1e-9),
        ),
    ];
    rendered(
        "Figure 4: average data transfer rate over a day",
        text,
        comparisons,
    )
}

/// Figure 5: data rate over the week.
fn fig5(study: &StudyOutput) -> ExperimentResult {
    let w = &study.analysis.weekly;
    let mut t = TextTable::new(["day", "reads GB/h", "writes GB/h"]);
    let names = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];
    for (d, name) in names.iter().enumerate() {
        t.row([
            name.to_string(),
            fmt_f2(w.gb_per_hour(Direction::Read, d as u8)),
            fmt_f2(w.gb_per_hour(Direction::Write, d as u8)),
        ]);
    }
    let read_ratio = w.weekend_to_weekday(Direction::Read);
    let write_ratio = w.weekend_to_weekday(Direction::Write);
    let text = format!(
        "{}\nweekend/weekday: reads {:.2}, writes {:.2}\n",
        t.render(),
        read_ratio,
        write_ratio
    );
    let paper_read_weekend =
        (READ_WEEKLY[0] + READ_WEEKLY[6]) / 2.0 / (READ_WEEKLY[1..6].iter().sum::<f64>() / 5.0);
    let comparisons = vec![
        Comparison::new("weekend/weekday read rate", paper_read_weekend, read_ratio),
        Comparison::new("weekend/weekday write rate", 0.97, write_ratio),
    ];
    rendered(
        "Figure 5: average data transfer rate over a week",
        text,
        comparisons,
    )
}

/// Figure 6: two-year weekly series with growth and holiday dips.
fn fig6(study: &StudyOutput) -> ExperimentResult {
    let s = &study.analysis.weeks;
    let mut t = TextTable::new(["week", "reads GB/h", "writes GB/h"]);
    for week in (0..s.weeks()).step_by(4) {
        t.row([
            format!("{week:3}"),
            fmt_f2(s.gb_per_hour(Direction::Read, week)),
            fmt_f2(s.gb_per_hour(Direction::Write, week)),
        ]);
    }
    let holidays = [
        ("Thanksgiving 1990", CivilDate::new(1990, 11, 22)),
        ("Christmas 1990", CivilDate::new(1990, 12, 25)),
        ("Thanksgiving 1991", CivilDate::new(1991, 11, 28)),
        ("Christmas 1991", CivilDate::new(1991, 12, 25)),
    ];
    let mut dips = String::new();
    let mut read_dip_sum = 0.0;
    let mut write_dip_sum = 0.0;
    for (name, date) in holidays {
        let at = Timestamp::from_civil(date, 12, 0, 0);
        let rd = s.dip_ratio(Direction::Read, at);
        let wd = s.dip_ratio(Direction::Write, at);
        read_dip_sum += rd;
        write_dip_sum += wd;
        dips.push_str(&format!("  {name}: read x{rd:.2}, write x{wd:.2}\n"));
    }
    let read_growth = s.growth_ratio(Direction::Read);
    let write_growth = s.growth_ratio(Direction::Write);
    let text = format!(
        "{}\nholiday-week rate vs neighbours:\n{dips}\
         growth (last quarter / first quarter): reads {:.2}x, writes {:.2}x\n",
        t.render(),
        read_growth,
        write_growth
    );
    let comparisons = vec![
        Comparison::new("read growth across trace", 1.8, read_growth),
        Comparison::new("write growth across trace", 1.0, write_growth),
        Comparison::new("mean holiday read dip", 0.75, read_dip_sum / 4.0),
        Comparison::new("mean holiday write dip", 1.0, write_dip_sum / 4.0),
    ];
    rendered(
        "Figure 6: weekly data rate across the two-year trace",
        text,
        comparisons,
    )
}

/// Figure 7: intervals between MSS requests.
fn fig7(study: &StudyOutput) -> ExperimentResult {
    let g = &study.analysis.gaps;
    let pts = g.cdf_points();
    let plot = ascii_cdf(
        "Cumulative fraction of requests vs interrequest gap",
        &[('g', &pts)],
        "seconds",
    );
    let under10 = g.fraction_le(10.0);
    let scale = study.config.workload.scale;
    let text = format!(
        "{plot}\nmean gap: {:.1} s (paper: 18 s at scale 1.0; this run is scale {scale});\n\
         gaps <= 10 s: {}\n",
        g.mean_gap_s(),
        fmt_pct(under10),
    );
    let comparisons = vec![
        Comparison::new("gaps <= 10 s", study.targets.global_gap_under_10s, under10),
        // The mean gap scales inversely with trace volume.
        Comparison::new(
            "mean gap (s, scaled)",
            study.targets.global_mean_gap_s / scale,
            g.mean_gap_s(),
        ),
    ];
    rendered(
        "Figure 7: intervals between Cray references to the MSS",
        text,
        comparisons,
    )
}

/// Figure 8: per-file reference counts.
fn fig8(study: &StudyOutput) -> ExperimentResult {
    let f = &study.analysis.files;
    let tg = &study.targets;
    let total_cdf: Vec<(f64, f64)> = f
        .reference_count_cdf()
        .into_iter()
        .map(|(c, fr)| (c.max(1) as f64, fr))
        .collect();
    let reads_cdf: Vec<(f64, f64)> = f
        .direction_count_cdf(Direction::Read)
        .into_iter()
        .map(|(c, fr)| (c.max(1) as f64, fr))
        .collect();
    let writes_cdf: Vec<(f64, f64)> = f
        .direction_count_cdf(Direction::Write)
        .into_iter()
        .map(|(c, fr)| (c.max(1) as f64, fr))
        .collect();
    let plot = ascii_cdf(
        "Cumulative fraction of files vs reference count (8-hour dedup)",
        &[('t', &total_cdf), ('r', &reads_cdf), ('w', &writes_cdf)],
        "references",
    );
    let text = format!(
        "{plot}\nt = total, r = reads, w = writes\n\
         never read: {}; never written: {}; accessed once: {};\n\
         accessed twice: {}; write-once-never-read: {}; >10 refs: {};\n\
         median references: {}\n",
        fmt_pct(f.never_read()),
        fmt_pct(f.never_written()),
        fmt_pct(f.accessed_once()),
        fmt_pct(f.accessed_twice()),
        fmt_pct(f.write_once_never_read()),
        fmt_pct(f.referenced_more_than(10)),
        f.median_references(),
    );
    let comparisons = vec![
        Comparison::new("files never read", tg.files_never_read, f.never_read()),
        Comparison::new(
            "files never written",
            tg.files_never_written,
            f.never_written(),
        ),
        Comparison::new(
            "files accessed exactly once",
            tg.files_accessed_once,
            f.accessed_once(),
        ),
        Comparison::new(
            "files accessed exactly twice",
            tg.files_accessed_twice,
            f.accessed_twice(),
        ),
        Comparison::new(
            "write-once-never-read",
            tg.files_write_once_never_read,
            f.write_once_never_read(),
        ),
        Comparison::new(
            "written exactly once",
            tg.files_written_once,
            f.fraction_where(|_, w| w == 1),
        ),
        Comparison::new(
            "referenced > 10 times",
            tg.files_over_ten_refs,
            f.referenced_more_than(10),
        ),
        Comparison::new("median reference count", 1.0, f.median_references() as f64),
    ];
    rendered(
        "Figure 8: distribution of file reference counts",
        text,
        comparisons,
    )
}

/// Figure 9: per-file interreference intervals.
fn fig9(study: &StudyOutput) -> ExperimentResult {
    let f = &study.analysis.files;
    let pts: Vec<(f64, f64)> = f
        .intervals()
        .cdf_points()
        .into_iter()
        .map(|(e, fr, _)| (e / 86_400.0, fr))
        .collect();
    let plot = ascii_cdf(
        "Cumulative fraction of intervals vs interval length",
        &[('i', &pts)],
        "days",
    );
    let under_1d = f.intervals_under_1d();
    let over_100d = 1.0 - f.interval_fraction_le(100.0 * 86_400.0);
    let text = format!(
        "{plot}\nintervals < 1 day: {}; intervals > 100 days: {}\n",
        fmt_pct(under_1d),
        fmt_pct(over_100d),
    );
    let comparisons = vec![
        Comparison::new(
            "per-file intervals < 1 day",
            study.targets.file_gap_under_1d,
            under_1d,
        ),
        Comparison::new(
            "long tail beyond 100 days exists",
            1.0,
            f64::from(over_100d > 0.005),
        ),
    ];
    rendered(
        "Figure 9: intervals between references to the same file",
        text,
        comparisons,
    )
}

/// Figure 10: dynamic (per-access) size distribution.
fn fig10(study: &StudyOutput) -> ExperimentResult {
    let d = &study.analysis.dynamic_sizes;
    let curves = d.curves();
    let files_read: Vec<(f64, f64)> = curves.iter().map(|c| (c.0, c.1)).collect();
    let files_written: Vec<(f64, f64)> = curves.iter().map(|c| (c.0, c.2)).collect();
    let data_read: Vec<(f64, f64)> = curves.iter().map(|c| (c.0, c.3)).collect();
    let plot = ascii_cdf(
        "Cumulative fraction vs transfer size",
        &[('r', &files_read), ('w', &files_written), ('D', &data_read)],
        "bytes",
    );
    let under_1mb = d.fraction_le(1e6);
    let text = format!(
        "{plot}\nr = files read, w = files written, D = data read\n\
         requests <= 1 MB: {} carrying {} of the data;\n\
         mean read {:.1} MB, mean write {:.1} MB\n",
        fmt_pct(under_1mb),
        fmt_pct(d.data_fraction_le(1e6)),
        d.mean_mb(Direction::Read),
        d.mean_mb(Direction::Write),
    );
    let comparisons = vec![
        Comparison::new(
            "requests <= 1 MB",
            study.targets.dynamic_under_1mb,
            under_1mb,
        ),
        Comparison::new("data in <=1 MB requests", 0.01, d.data_fraction_le(1e6)),
        Comparison::new(
            "write bump near 8 MB (w(10M)-w(5M))",
            0.08,
            d.histogram(Direction::Write).fraction_le(1.1e7)
                - d.histogram(Direction::Write).fraction_le(5e6),
        ),
    ];
    rendered(
        "Figure 10: size distribution of transfers",
        text,
        comparisons,
    )
}

/// Figure 11: static (per-file) size distribution.
fn fig11(study: &StudyOutput) -> ExperimentResult {
    let h = study.analysis.files.size_histogram();
    let pts = h.cdf_points();
    let files: Vec<(f64, f64)> = pts.iter().map(|p| (p.0, p.1)).collect();
    let data: Vec<(f64, f64)> = pts.iter().map(|p| (p.0, p.2)).collect();
    let plot = ascii_cdf(
        "Cumulative fraction vs file size",
        &[('f', &files), ('d', &data)],
        "bytes",
    );
    let files_3mb = h.fraction_le(3e6);
    let data_3mb = h.weight_fraction_le(3e6);
    let text = format!(
        "{plot}\nf = files, d = data\nfiles < 3 MB: {} holding {} of the data\n",
        fmt_pct(files_3mb),
        fmt_pct(data_3mb),
    );
    let comparisons = vec![
        Comparison::new(
            "files under 3 MB",
            study.targets.static_under_3mb_files,
            files_3mb,
        ),
        Comparison::new(
            "data in files under 3 MB",
            study.targets.static_under_3mb_data,
            data_3mb,
        ),
        Comparison::new(
            "mean stored file (MB)",
            study.targets.store_avg_file_mb,
            h.mean() / 1e6,
        ),
    ];
    rendered(
        "Figure 11: distribution of file sizes on the MSS",
        text,
        comparisons,
    )
}

/// Figure 12: directory sizes.
fn fig12(study: &StudyOutput) -> ExperimentResult {
    let d = &study.analysis.dirs;
    let curves = d.curves();
    let dirs: Vec<(f64, f64)> = curves.iter().map(|c| (c.0.max(1) as f64, c.1)).collect();
    let files: Vec<(f64, f64)> = curves.iter().map(|c| (c.0.max(1) as f64, c.2)).collect();
    let data: Vec<(f64, f64)> = curves.iter().map(|c| (c.0.max(1) as f64, c.3)).collect();
    let plot = ascii_cdf(
        "Cumulative fraction vs files per directory",
        &[('d', &dirs), ('f', &files), ('b', &data)],
        "files in directory",
    );
    let le1 = d.fraction_with_at_most(1);
    let le10 = d.fraction_with_at_most(10);
    let top5 = d.files_in_top_dirs(0.05);
    let text = format!(
        "{plot}\nd = directories, f = files, b = bytes\n\
         dirs with <=1 file: {}; <=10 files: {}; top-5% dirs hold {} of files;\n\
         files in dirs >100 files: {}; largest dir: {} files\n",
        fmt_pct(le1),
        fmt_pct(le10),
        fmt_pct(top5),
        fmt_pct(d.files_in_dirs_larger_than(100)),
        fmt_count(d.largest_dir() as u64),
    );
    let comparisons = vec![
        Comparison::new(
            "dirs with <= 1 file",
            study.targets.dirs_at_most_one_file,
            le1,
        ),
        Comparison::new(
            "dirs with <= 10 files",
            study.targets.dirs_at_most_ten_files,
            le10,
        ),
        Comparison::new(
            "files held by top-5% dirs",
            study.targets.files_in_top5pct_dirs,
            top5,
        ),
        Comparison::new(
            "files in dirs with > 100 files",
            0.5,
            d.files_in_dirs_larger_than(100),
        ),
    ];
    rendered(
        "Figure 12: distribution of directory sizes",
        text,
        comparisons,
    )
}

/// §6-a: migration policy comparison.
fn policies(study: &StudyOutput) -> ExperimentResult {
    let total_bytes = study.analysis.files.total_bytes();
    // A staging disk holding ~1.5% of the store, Smith's STP operating
    // point for a ~1% miss ratio.
    let capacity = (total_bytes as f64 * 0.015) as u64;
    let suite = policy::standard_suite();
    let config = eval::EvalConfig::with_capacity(capacity.max(1_000_000));
    let outcomes = study.prepared.evaluate(&suite, &config);
    let mut t = TextTable::new(["policy", "miss ratio", "byte miss", "person-min/day"]);
    for o in &outcomes {
        t.row([
            o.name.clone(),
            fmt_pct(o.miss_ratio),
            fmt_pct(o.byte_miss_ratio),
            fmt_f1(o.person_minutes_per_day),
        ]);
    }
    let stp = outcomes
        .iter()
        .find(|o| o.name == "STP(1.4)")
        .expect("suite has STP");
    let lru = outcomes
        .iter()
        .find(|o| o.name == "LRU")
        .expect("suite has LRU");
    let largest = outcomes
        .iter()
        .find(|o| o.name == "Largest-first")
        .expect("suite has Largest-first");
    let best = outcomes
        .iter()
        .min_by(|a, b| a.miss_ratio.partial_cmp(&b.miss_ratio).expect("finite"))
        .expect("non-empty");
    let text = format!(
        "cache capacity: {:.2} GB (~1.5% of the referenced store)\n\n{}\n\
         best policy: {} at {}\n",
        capacity as f64 / 1e9,
        t.render(),
        best.name,
        fmt_pct(best.miss_ratio),
    );
    // Smith/Lawrie: STP best, "though only by a slim margin".
    let comparisons = vec![
        Comparison::new(
            "STP beats LRU (miss ratio ratio)",
            0.95,
            stp.miss_ratio / lru.miss_ratio.max(1e-9),
        ),
        Comparison::new(
            "STP beats Largest-first",
            0.9,
            stp.miss_ratio / largest.miss_ratio.max(1e-9),
        ),
        Comparison::new(
            "slim margin (best/STP)",
            0.9,
            best.miss_ratio / stp.miss_ratio.max(1e-9),
        ),
    ];
    rendered(
        "§6-a: migration policy comparison (Smith/Lawrie rerun)",
        text,
        comparisons,
    )
}

/// §6-b: eight-hour request deduplication, read off the file census.
fn dedup_exp(study: &StudyOutput) -> ExperimentResult {
    let files = &study.analysis.files;
    let repeats = files.repeats_within();
    let mut t = TextTable::new(["window", "duplicate requests", "savings"]);
    for (hours, &n) in REPEAT_WINDOWS_H.iter().zip(&repeats) {
        t.row([
            format!("{hours} h"),
            fmt_count(n),
            fmt_pct(files.repeat_fraction(n)),
        ]);
    }
    let eight = files.repeat_within_8h_fraction();
    let text = format!(
        "{}\nAn integrated Cray-MSS cache absorbing same-file requests within\n\
         8 hours would save {} of all MSS requests (paper: about one third).\n",
        t.render(),
        fmt_pct(eight),
    );
    let comparisons = vec![Comparison::new(
        "requests saved by 8-hour dedup",
        study.targets.requests_within_8h_of_same_file,
        eight,
    )];
    rendered("§6-b: same-file request deduplication", text, comparisons)
}

/// §6-c: the disk/tape dividing point.
fn dividing_exp(study: &StudyOutput) -> ExperimentResult {
    let static_sizes: Vec<u64> = study.workload.files().iter().map(|f| f.size).collect();
    let access_sizes: Vec<u64> = study
        .workload
        .requests()
        .filter(|r| r.error.is_none())
        .map(|r| r.file_size)
        .collect();
    let mut s = DividingPointStudy::ncar();
    // Scale the disk budget with the workload.
    s.disk_budget = (s.disk_budget as f64 * study.config.workload.scale) as u64;
    let thresholds: Vec<u64> = [1, 3, 10, 30, 100, 200]
        .iter()
        .map(|mb| mb * 1_000_000)
        .collect();
    let rows = s.sweep(&static_sizes, &access_sizes, &thresholds);
    let mut t = TextTable::new([
        "threshold",
        "mean response (s)",
        "disk share of accesses",
        "disk bytes needed",
        "feasible",
    ]);
    for r in &rows {
        t.row([
            format!("{} MB", r.threshold / 1_000_000),
            fmt_f1(r.mean_response_s),
            fmt_pct(r.disk_access_share),
            format!("{:.2} GB", r.disk_resident_bytes as f64 / 1e9),
            if r.feasible {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    let best = DividingPointStudy::best_feasible(&rows);
    let best_mb = best.map(|b| b.threshold / 1_000_000).unwrap_or(0);
    let text = format!(
        "{}\nbest feasible threshold under STATIC placement: {} MB.\n\
         NCAR runs a 30 MB cutoff only because its internal migration\n\
         re-purposes the disk for the *recently used* subset of small\n\
         files — a static split can afford just a few MB (Figure 11:\n\
         half the files hold ~2% of the data, which is what ~0.4% of the\n\
         store in staging disk can hold).\n\
         break-even size where tape transfer hides the mount: {:.0} MB\n",
        t.render(),
        best_mb,
        s.indifference_size() / 1e6,
    );
    let comparisons = vec![
        // Figure 11 implies a static split saturates the 100 GB budget
        // around the single-digit MBs.
        Comparison::new("static best threshold (MB)", 3.0, best_mb as f64),
        Comparison::new(
            "response improves with threshold while feasible",
            1.0,
            f64::from(
                rows.windows(2)
                    .all(|w| !w[1].feasible || w[1].mean_response_s <= w[0].mean_response_s + 1e-9),
            ),
        ),
    ];
    rendered("§6-c: the disk/tape dividing point", text, comparisons)
}

/// §6-d: lazy write-behind.
fn writeback_exp(study: &StudyOutput) -> ExperimentResult {
    let deferred = writeback::defer_writes(study.workload.requests().collect());
    let report = writeback::deferral_report(study.workload.requests(), &deferred);
    // Use hardware scaled to the workload so the tape drives are as
    // contended as NCAR's were; on full-size hardware a scaled trace
    // leaves the drives idle and deferral has nothing to relieve.
    let sim = MssSimulator::new(SimConfig::scaled(study.config.workload.scale));
    let before = sim.run_streaming(study.workload.requests(), drop);
    let after = sim.run_streaming(deferred, drop);
    let read_mean = |m: &Metrics| {
        let h = m.latency_of(Direction::Read, DeviceClass::TapeSilo);
        let g = m.latency_of(Direction::Read, DeviceClass::TapeManual);
        let n = h.count() + g.count();
        if n == 0 {
            0.0
        } else {
            (h.mean() * h.count() as f64 + g.mean() * g.count() as f64) / n as f64
        }
    };
    let before_read = read_mean(&before);
    let after_read = read_mean(&after);
    let text = format!(
        "writes deferred to the 22:00-06:00 flush window: {} of {} moved,\n\
         mean deferral {:.1} h, {} now flush at night.\n\n\
         tape read latency (mean, s): before {:.1}  after {:.1}  ({:+.1}%)\n\
         (user-perceived write latency under write-behind is ~0: the write\n\
         is acknowledged on arrival and flushed lazily.)\n",
        fmt_count(report.moved),
        fmt_count(report.writes),
        report.mean_deferral_s / 3600.0,
        fmt_pct(report.night_fraction),
        before_read,
        after_read,
        (after_read / before_read.max(1e-9) - 1.0) * 100.0,
    );
    let comparisons = vec![
        // The paper's claim is qualitative: read service must not get
        // worse while writes become free; the dominant win is that the
        // user-perceived write wait disappears entirely.
        Comparison::new(
            "tape read latency ratio (after/before, <= 1 wanted)",
            1.0,
            after_read / before_read.max(1e-9),
        ),
        Comparison::new("writes flushed at night", 0.90, report.night_fraction),
        Comparison::new("perceived write wait after write-behind (s)", 0.0, 0.0),
    ];
    rendered(
        "§6-d: lazy write-behind and read-optimised scheduling",
        text,
        comparisons,
    )
}
