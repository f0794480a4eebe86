//! The end-to-end pass of one workload: set up (five times or more, median),
//! repeat the timed section until the budget is spent, reduce to
//! medians, and report. No spans are recorded here.

use std::time::Instant;

use crate::catalog::{self, E2E, INGEST_MSR, SVC_LOOPBACK};
use crate::host::{self, HostStamp, Pinning};
use crate::json;
use crate::stats::{self, Summary};
use crate::workloads::{self, Repeat};

/// Set-up passes a run makes at the least; `setup_s` is the median of
/// all of them. Five, because a median of three still followed single
/// scheduler hiccups.
const MIN_SETUP_PASSES: usize = 5;
/// Set-up passes go on until this many seconds are spent: a pass of
/// `open-small` or `svc-loopback` is 0.1 s, and a median of five such
/// passes differed by 27% between two runs of one seed.
const SETUP_BUDGET_S: f64 = 1.5;
/// Timed repeats a run makes at the least, whatever the budget.
const MIN_REPEATS: usize = 3;

/// Everything one end-to-end run measured.
#[derive(Debug, Clone)]
pub struct E2eResult {
    /// Workload name.
    pub workload: String,
    /// The run's `--seed`.
    pub seed: u64,
    /// Set-up passes, seconds.
    pub setup_s: Summary,
    /// Per-repeat refs ÷ wall seconds.
    pub refs_per_s: Summary,
    /// Per-repeat import records ÷ wall seconds (`ingest-msr`).
    pub import_records_per_s: Option<Summary>,
    /// On-disk store bytes ÷ records (`ingest-msr`).
    pub store_bytes_per_record: Option<f64>,
    /// `VmHWM` of this process after set-up and the first timed
    /// repeat, MiB.
    pub peak_rss_mib: f64,
    /// Operations attempted over all repeats.
    pub attempted: u64,
    /// Operations failed over all repeats.
    pub failed: u64,
    /// Digest of the first repeat's deterministic output.
    pub stats_digest: u64,
    /// Whether every repeat produced that same digest.
    pub digests_identical: bool,
    /// Whether a golden pin existed for this seed.
    pub pin_checked: bool,
    /// CPU pinning outcome (`svc-loopback` only).
    pub cpu_pinned: Option<bool>,
    /// Seconds of timed work.
    pub timed_s: f64,
    /// Host stamp before the timed work.
    pub host_before: HostStamp,
    /// Host stamp after it.
    pub host_after: HostStamp,
}

impl E2eResult {
    /// Failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether the outputs were correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digests_identical
    }

    /// The samples behind end-to-end metric `name`, for the metrics
    /// that are medians of several.
    fn samples(&self, name: &str) -> Option<Summary> {
        match name {
            "refs_per_s" => Some(self.refs_per_s),
            "setup_s" => Some(self.setup_s),
            "import_records_per_s" => self.import_records_per_s,
            _ => None,
        }
    }

    /// The value of end-to-end metric `name`, when this workload has it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        match name {
            "peak_rss_mib" => Some(self.peak_rss_mib),
            "store_bytes_per_record" => self.store_bytes_per_record,
            "failed_share" => Some(self.failed_share()),
            _ => self.samples(name).map(|s| s.median),
        }
    }
}

/// Runs the end-to-end pass of `workload`.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<E2eResult, String> {
    let connections = workloads::svc_connections();
    // Pin before any thread exists so every later one inherits it.
    let pinning = (workload == SVC_LOOPBACK).then(Pinning::pin_to_one_cpu);

    // The stamp is not part of set-up: its calibration loop follows the
    // host's clock drift harder than any workload does (+22% between two
    // sets of runs whose throughput moved 11%), and would be most of
    // the sweeps' set-up time.
    let host_before = HostStamp::measure()?;
    let mut setups = Vec::new();
    let mut ready = None;
    while setups.len() < MIN_SETUP_PASSES || setups.iter().sum::<f64>() < SETUP_BUDGET_S {
        // Drop the previous pass first: set-up must not overlap itself
        // (ingest-msr would hold two CSVs, the peak would count both).
        drop(ready.take());
        let started = Instant::now();
        ready = Some(workloads::prepare(workload, seed, connections)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut prepared = ready.expect("at least one set-up pass");

    let mut repeats: Vec<Repeat> = Vec::new();
    let mut timed_s = 0.0;
    let mut peak_rss_mib = 0.0;
    loop {
        let r = prepared.repeat()?;
        timed_s += r.timed_s;
        repeats.push(r);
        if repeats.len() == 1 {
            // Read after one execution: later repeats only add what the
            // allocator retains between them (ingest-msr reads 68 MiB
            // here and 92–105 after five repeats), which is the
            // harness's doing, not the program's.
            peak_rss_mib = host::peak_rss_mib()?;
        }
        let typical = stats::median(&repeats.iter().map(|r| r.timed_s).collect::<Vec<_>>());
        if repeats.len() >= MIN_REPEATS && timed_s + typical > seconds {
            break;
        }
    }
    drop(prepared);
    let host_after = HostStamp::measure()?;

    let rate = |pairs: Vec<(u64, f64)>| {
        stats::summarize(&pairs.iter().map(|&(n, s)| n as f64 / s).collect::<Vec<_>>())
    };
    let first = &repeats[0];
    Ok(E2eResult {
        workload: workload.to_string(),
        seed,
        setup_s: stats::summarize(&setups).expect("set-up samples"),
        refs_per_s: rate(repeats.iter().map(|r| (r.refs, r.wall_s)).collect())
            .expect("repeat samples"),
        import_records_per_s: rate(repeats.iter().filter_map(|r| r.import).collect()),
        store_bytes_per_record: first.store_bytes_per_record,
        peak_rss_mib,
        attempted: repeats.iter().map(|r| r.attempted).sum(),
        failed: repeats.iter().map(|r| r.failed).sum(),
        stats_digest: first.digest,
        digests_identical: repeats.iter().all(|r| r.digest == first.digest),
        pin_checked: workloads::pin_path(workload, seed).is_file(),
        cpu_pinned: pinning.map(|p| p.pinned),
        timed_s,
        host_before,
        host_after,
    })
}

fn push_summary(out: &mut String, s: &Summary) {
    out.push_str("{\"median\":");
    json::push_f64(out, s.median);
    out.push_str(",\"min\":");
    json::push_f64(out, s.min);
    out.push_str(",\"max\":");
    json::push_f64(out, s.max);
    out.push_str(&format!(",\"n\":{}}}", s.n));
}

fn push_stamp(out: &mut String, s: &HostStamp) {
    out.push_str("{\"host.calib_ms\":");
    json::push_f64(out, s.calib_ms);
    out.push_str(",\"host.loopback_rtt_us\":");
    json::push_f64(out, s.loopback_rtt_us);
    out.push('}');
}

impl E2eResult {
    /// The full result as one JSON object (what `results.json` keeps).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workload\":");
        json::push_str(&mut out, &self.workload);
        out.push_str(&format!(",\"seed\":{}", self.seed));
        out.push_str(&format!(
            ",\"correct\":{},\"attempted\":{},\"failed\":{}",
            self.correct(),
            self.attempted,
            self.failed
        ));
        out.push_str(&format!(
            ",\"stats_digest\":\"{:016x}\",\"digests_identical\":{},\"pin_checked\":{}",
            self.stats_digest, self.digests_identical, self.pin_checked
        ));
        if let Some(pinned) = self.cpu_pinned {
            out.push_str(&format!(",\"pinned\":{pinned}"));
        }
        out.push_str(",\"timed_s\":");
        json::push_f64(&mut out, self.timed_s);
        out.push_str(",\"host_before\":");
        push_stamp(&mut out, &self.host_before);
        out.push_str(",\"host_after\":");
        push_stamp(&mut out, &self.host_after);
        out.push_str(",\"metrics\":{");
        let mut first = true;
        for m in &E2E {
            let Some(value) = self.metric(m.name) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            json::push_str(&mut out, m.name);
            out.push_str(":{\"value\":");
            json::push_f64(&mut out, value);
            out.push_str(",\"unit\":");
            json::push_str(&mut out, m.unit);
            out.push_str(",\"better\":");
            json::push_str(&mut out, m.better.name());
            out.push_str(",\"bound\":");
            json::push_f64(&mut out, m.bound);
            if let Some(s) = self.samples(m.name) {
                out.push_str(",\"samples\":");
                push_summary(&mut out, &s);
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Prints every metric by name with its unit, human-readable.
    pub fn print(&self) {
        println!(
            "== {} (seed {}) — {} ==",
            self.workload,
            self.seed,
            catalog::why(&self.workload)
        );
        for m in &E2E {
            let Some(value) = self.metric(m.name) else {
                continue;
            };
            let detail = self
                .samples(m.name)
                .map(|s| format!("  (min {:.6}, max {:.6}, n {})", s.min, s.max, s.n))
                .unwrap_or_default();
            println!("{:<24} {:>16.6} {}{}", m.name, value, m.unit, detail);
        }
        println!(
            "{:<24} {:>16} ops ({} failed)",
            "attempted", self.attempted, self.failed
        );
        println!(
            "{:<24} {:016x} ({}; {})",
            "stats_digest",
            self.stats_digest,
            if self.digests_identical {
                "identical across repeats"
            } else {
                "DIFFERS between repeats"
            },
            if self.pin_checked {
                "checked against the golden pin"
            } else {
                "no pin for this seed: compare digests across commits"
            }
        );
        if let Some(pinned) = self.cpu_pinned {
            println!("{:<24} {pinned}", "pinned");
        }
        for (when, s) in [("before", self.host_before), ("after", self.host_after)] {
            println!(
                "host ({when:<6})            calib {:.3} ms, loopback rtt {:.2} us",
                s.calib_ms, s.loopback_rtt_us
            );
        }
        if self.workload == INGEST_MSR {
            println!("(refs_per_s covers the imported sweep only; import has its own row)");
        }
    }
}
