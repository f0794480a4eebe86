//! `fmig-loadgen`: replays a prepared trace against the daemon from N
//! concurrent connections and reports a wait histogram compatible with
//! the analysis pipeline.
//!
//! References are dealt round-robin across connections but carry their
//! global trace index as the request id; the daemon re-sequences them,
//! so the replay is trace-order deterministic regardless of connection
//! count. The end-of-run barrier is a per-connection `StatsReq`: once a
//! worker sees its `Stats` reply, the daemon has admitted every request
//! that worker sent, and once *all* workers have, the whole trace is in
//! — only then does the controller issue `Drain`, which resolves every
//! still-pending reply and reports the writeback accounting.

use std::io::{BufReader, BufWriter, Write};
use std::mem;
use std::net::TcpStream;
use std::sync::mpsc::{self, Sender};
use std::thread;
use std::time::{Duration, Instant};

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_migrate::eval::{PreparedRef, TracePrep};
use fmig_sim::config::SimConfig;
use fmig_sim::event::{SimMs, MS};
use fmig_sim::fault::fault_horizon;
use fmig_sim::{LatencyHistogram, MssSimulator};
use fmig_workload::Workload;

use crate::protocol::{
    Frame, ProtoError, RejectReason, ServedKind, ServiceStats, NO_NEXT_USE, PROTO_VERSION,
};

/// One prepared sweep cell: the trace, cache capacity, and seeds the
/// live service and the simulator oracle must share.
#[derive(Debug, Clone)]
pub struct CellSetup {
    /// Chaos scenario (also the oracle's fault plan).
    pub scenario: FaultScenarioId,
    /// The prepared trace, sorted by time.
    pub refs: Vec<PreparedRef>,
    /// Staging-disk capacity in bytes for this cell.
    pub capacity: u64,
    /// The cell's fault seed — the oracle runs with exactly this seed.
    pub seed: u64,
    /// Fault-schedule span start (first reference), virtual ms.
    pub span_start_vms: SimMs,
    /// Fault-schedule span end (last reference + slack), virtual ms.
    pub span_end_vms: SimMs,
}

/// Prepares the tiny-preset sweep cell (preset 0, scale 0, cache 0,
/// policy 0 = stp1.4) for `scenario`, reproducing `prepare_shard`'s
/// seeds so [`fmig_sim::HierarchySimulator`] with
/// [`CellSetup::seed`] is the exact oracle for the live replay.
pub fn tiny_cell(scenario: FaultScenarioId) -> CellSetup {
    let config = SweepConfig::tiny();
    let preset = config.presets[0];
    let scale = config.scales[0];
    let workload_seed = config.workload_seed(0, 0);
    let sim_seed = config.sim_seed(0, 0);

    let workload = Workload::generate(&preset.workload(scale, workload_seed));
    let referenced_bytes: u64 = workload.files().iter().map(|f| f.size).sum();
    let mut prep = TracePrep::new();
    let sim = MssSimulator::new(SimConfig::default().with_seed(sim_seed));
    sim.run_streaming(workload.into_records(), |rec| prep.observe(&rec));
    let refs = prep.finish().refs().to_vec();

    let capacity = ((referenced_bytes as f64 * config.cache_fractions[0]) as u64).max(1);
    let fault_idx = config
        .fault_axis()
        .iter()
        .position(|s| *s == scenario)
        .unwrap_or(0);
    let seed = config.cell_fault_seed(0, 0, 0, 0, fault_idx, scenario);
    let (span_start_vms, span_end_vms) = fault_horizon(
        refs.first().map_or(0, |r| r.time),
        refs.last().map_or(0, |r| r.time),
    );
    CellSetup {
        scenario,
        refs,
        capacity,
        seed,
        span_start_vms,
        span_end_vms,
    }
}

/// Load-generator run options.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon `host:port`.
    pub addr: String,
    /// Concurrent replay connections.
    pub connections: usize,
    /// Replay only the first N references (`None` = all).
    pub limit: Option<usize>,
    /// Issue `Drain` after the replay (required for every reply to
    /// resolve; a run without it may leave workers waiting forever on
    /// recalls that only complete at the drain horizon).
    pub drain: bool,
    /// Fetch final `Stats` from the daemon after the drain.
    pub stats: bool,
    /// Send `Shutdown` once all workers have joined.
    pub shutdown: bool,
}

/// The writeback accounting half of `DrainDone`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Write requests the daemon acknowledged.
    pub acked_writes: u64,
    /// Bytes behind those acknowledgements.
    pub acked_write_bytes: u64,
    /// Background flush jobs spawned.
    pub flush_jobs: u64,
    /// Bytes those jobs carried.
    pub flush_bytes: u64,
    /// Bytes the origin confirmed landed on tape. Equal to
    /// `flush_bytes` after a clean drain: no acked write lost its
    /// writeback.
    pub origin_flushed_bytes: u64,
}

/// Everything a replay produced, aggregated in trace order.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests sent.
    pub sent: u64,
    /// `Done` replies by kind: hits.
    pub hits: u64,
    /// Delayed hits (arrived while the recall was in flight).
    pub delayed_hits: u64,
    /// Recalls served from tape.
    pub recalls: u64,
    /// Acknowledged writes.
    pub writes: u64,
    /// Failed (abandoned-recall) replies.
    pub failed: u64,
    /// Requests shed while draining.
    pub rejected_draining: u64,
    /// Requests shed by the open circuit breaker.
    pub rejected_shedding: u64,
    /// Bytes behind the acknowledged writes.
    pub acked_write_bytes: u64,
    /// Wait histogram over every served read (hit + delayed + recall),
    /// directly comparable to the oracle's `read_wait()`.
    pub read_waits: LatencyHistogram,
    /// Wait histogram over acknowledged writes.
    pub write_waits: LatencyHistogram,
    /// The drain accounting, when `drain` was requested.
    pub drain: Option<DrainReport>,
    /// The daemon's final statistics, when `stats` was requested.
    pub stats: Option<ServiceStats>,
    /// Wall-clock seconds for the replay (spawn to join).
    pub wall_s: f64,
    /// Replay throughput in references per wall second.
    pub refs_per_sec: f64,
}

/// One reply, keyed by its global trace index for re-assembly.
enum Outcome {
    Served { wait_vms: i64, served: ServedKind },
    Rejected(RejectReason),
}

impl LoadgenReport {
    /// Deterministic flat-JSON accounting of the run. Wall-clock fields
    /// are deliberately excluded so two replays of the same trace
    /// compare byte-identical.
    pub fn accounting_json(&self) -> String {
        let mut out = String::from("{");
        let push_u = |out: &mut String, k: &str, v: u64| {
            if out.len() > 1 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        };
        let push_f = |out: &mut String, k: &str, v: f64| {
            if out.len() > 1 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v:.6}"));
        };
        push_u(&mut out, "sent", self.sent);
        push_u(&mut out, "hits", self.hits);
        push_u(&mut out, "delayed_hits", self.delayed_hits);
        push_u(&mut out, "recalls", self.recalls);
        push_u(&mut out, "writes", self.writes);
        push_u(&mut out, "failed", self.failed);
        push_u(&mut out, "rejected_draining", self.rejected_draining);
        push_u(&mut out, "rejected_shedding", self.rejected_shedding);
        push_u(&mut out, "acked_write_bytes", self.acked_write_bytes);
        push_u(&mut out, "read_wait_count", self.read_waits.count());
        push_f(&mut out, "read_wait_mean_s", self.read_waits.mean());
        push_f(&mut out, "read_wait_p50_s", self.read_waits.quantile(0.50));
        push_f(&mut out, "read_wait_p99_s", self.read_waits.quantile(0.99));
        push_u(&mut out, "write_wait_count", self.write_waits.count());
        push_f(&mut out, "write_wait_mean_s", self.write_waits.mean());
        let d = self.drain.unwrap_or_default();
        push_u(&mut out, "drain_acked_writes", d.acked_writes);
        push_u(&mut out, "drain_acked_write_bytes", d.acked_write_bytes);
        push_u(&mut out, "drain_flush_jobs", d.flush_jobs);
        push_u(&mut out, "drain_flush_bytes", d.flush_bytes);
        push_u(
            &mut out,
            "drain_origin_flushed_bytes",
            d.origin_flushed_bytes,
        );
        let s = self.stats.unwrap_or_default();
        push_u(&mut out, "svc_requests", s.requests);
        push_u(&mut out, "svc_read_hits", s.read_hits);
        push_u(&mut out, "svc_read_misses", s.read_misses);
        push_u(&mut out, "svc_read_hit_bytes", s.read_hit_bytes);
        push_u(&mut out, "svc_read_miss_bytes", s.read_miss_bytes);
        push_u(&mut out, "svc_writes", s.writes);
        push_u(&mut out, "svc_evictions", s.evictions);
        push_u(&mut out, "svc_evicted_bytes", s.evicted_bytes);
        push_u(&mut out, "svc_stall_bytes", s.stall_bytes);
        push_u(&mut out, "svc_purge_flush_bytes", s.purge_flush_bytes);
        push_u(&mut out, "svc_writeback_bytes", s.writeback_bytes);
        push_u(&mut out, "svc_fetch_retries", s.fetch_retries);
        push_u(&mut out, "svc_recalls", s.recalls);
        push_u(&mut out, "svc_delayed_hits", s.delayed_hits);
        push_u(&mut out, "svc_flush_jobs", s.flush_jobs);
        push_u(&mut out, "svc_flush_bytes", s.flush_bytes);
        push_u(&mut out, "svc_abandoned", s.abandoned);
        push_u(&mut out, "svc_outage_events", s.outage_events);
        {
            out.push(',');
            out.push_str(&format!("\"svc_outage_wait_vms\":{}", s.outage_wait_vms));
        }
        push_u(&mut out, "svc_slow_transfers", s.slow_transfers);
        out.push('}');
        out
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut last = String::new();
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = e.to_string();
                thread::sleep(Duration::from_millis(25));
            }
        }
    }
    Err(format!("daemon {addr} unreachable: {last}"))
}

fn hello(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    conn: u32,
) -> Result<(), String> {
    Frame::Hello {
        version: PROTO_VERSION,
        conn,
    }
    .write_to(writer)
    .and_then(|()| writer.flush().map_err(ProtoError::from))
    .map_err(|e| format!("hello: {e}"))?;
    match Frame::read_from(reader) {
        Ok(Frame::HelloAck { version }) if version == PROTO_VERSION => Ok(()),
        Ok(other) => Err(format!("bad hello reply: {other:?}")),
        Err(e) => Err(format!("hello reply: {e}")),
    }
}

/// One replay connection: writes its deal of the trace plus the
/// `StatsReq` barrier, then reads until every reply is in. A reply for
/// a request this connection never sent, or a second reply for one, is
/// an error: the daemon's ids are outside input.
fn worker(
    addr: String,
    conn: u32,
    items: Vec<(u64, PreparedRef)>,
    barrier: &Sender<Result<(), String>>,
) -> Result<Vec<(u64, Outcome)>, String> {
    let stream = connect(&addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = BufWriter::new(stream);
    hello(&mut reader, &mut writer, conn)?;

    for &(req, r) in &items {
        let frame = if r.write {
            Frame::WriteReq {
                req,
                file: r.id.index() as u64,
                size: r.size,
                time_s: r.time,
                next_use: r.next_use.unwrap_or(NO_NEXT_USE),
                device: r.device,
            }
        } else {
            Frame::ReadReq {
                req,
                file: r.id.index() as u64,
                size: r.size,
                time_s: r.time,
                next_use: r.next_use.unwrap_or(NO_NEXT_USE),
                device: r.device,
            }
        };
        frame
            .write_to(&mut writer)
            .map_err(|e| format!("request {req}: {e}"))?;
    }
    Frame::StatsReq
        .write_to(&mut writer)
        .and_then(|()| writer.flush().map_err(ProtoError::from))
        .map_err(|e| format!("barrier: {e}"))?;

    let mut outcomes = Vec::with_capacity(items.len());
    // One flag per item; `items` is sorted by request id.
    let mut answered = vec![false; items.len()];
    let mut seen_stats = false;
    while outcomes.len() < items.len() || !seen_stats {
        let frame = Frame::read_from(&mut reader).map_err(|e| format!("conn {conn} read: {e}"))?;
        let (req, outcome) = match frame {
            Frame::Done {
                req,
                wait_vms,
                served,
            } => (req, Outcome::Served { wait_vms, served }),
            Frame::Rejected { req, reason } => (req, Outcome::Rejected(reason)),
            Frame::Stats(_) => {
                seen_stats = true;
                // The daemon has admitted everything this connection
                // sent; tell the controller.
                let _ = barrier.send(Ok(()));
                continue;
            }
            other => return Err(format!("unexpected reply: {other:?}")),
        };
        let k = items.binary_search_by_key(&req, |&(req, _)| req);
        let k = k.map_err(|_| format!("conn {conn}: reply for request {req} it did not send"))?;
        if mem::replace(&mut answered[k], true) {
            return Err(format!("conn {conn}: request {req} answered twice"));
        }
        outcomes.push((req, outcome));
    }
    Ok(outcomes)
}

/// Replays `setup` against the daemon and aggregates the accounting.
pub fn run(cfg: &LoadgenConfig, setup: &CellSetup) -> Result<LoadgenReport, String> {
    let refs: &[PreparedRef] = match cfg.limit {
        Some(n) => &setup.refs[..n.min(setup.refs.len())],
        None => &setup.refs,
    };
    let n = cfg.connections.max(1);
    let start = Instant::now();

    let (btx, brx) = mpsc::channel();
    let mut handles = Vec::with_capacity(n);
    for k in 0..n {
        let items: Vec<(u64, PreparedRef)> = refs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % n == k)
            .map(|(i, r)| (i as u64, *r))
            .collect();
        let addr = cfg.addr.clone();
        let btx = btx.clone();
        handles.push(thread::spawn(move || {
            // An error reaches the controller if it still waits at the barrier.
            worker(addr, k as u32, items, &btx).inspect_err(|e| drop(btx.send(Err(e.clone()))))
        }));
    }
    drop(btx);
    for _ in 0..n {
        brx.recv()
            .map_err(|_| "a replay connection died before the barrier".to_string())??;
    }

    // All requests are admitted: drain, then read the final stats.
    let control = connect(&cfg.addr)?;
    control.set_nodelay(true).ok();
    let mut creader = BufReader::new(control.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut cwriter = BufWriter::new(control);
    hello(&mut creader, &mut cwriter, u32::MAX)?;
    let drain = if cfg.drain {
        Frame::Drain
            .write_to(&mut cwriter)
            .and_then(|()| cwriter.flush().map_err(ProtoError::from))
            .map_err(|e| format!("drain: {e}"))?;
        match Frame::read_from(&mut creader) {
            Ok(Frame::DrainDone {
                acked_writes,
                acked_write_bytes,
                flush_jobs,
                flush_bytes,
                origin_flushed_bytes,
            }) => Some(DrainReport {
                acked_writes,
                acked_write_bytes,
                flush_jobs,
                flush_bytes,
                origin_flushed_bytes,
            }),
            Ok(other) => return Err(format!("bad drain reply: {other:?}")),
            Err(e) => return Err(format!("drain reply: {e}")),
        }
    } else {
        None
    };
    let stats = if cfg.stats {
        Frame::StatsReq
            .write_to(&mut cwriter)
            .and_then(|()| cwriter.flush().map_err(ProtoError::from))
            .map_err(|e| format!("stats: {e}"))?;
        match Frame::read_from(&mut creader) {
            Ok(Frame::Stats(s)) => Some(*s),
            Ok(other) => return Err(format!("bad stats reply: {other:?}")),
            Err(e) => return Err(format!("stats reply: {e}")),
        }
    } else {
        None
    };

    let mut outcomes: Vec<(u64, Outcome)> = Vec::with_capacity(refs.len());
    for h in handles {
        let part = h
            .join()
            .map_err(|_| "replay connection panicked".to_string())??;
        outcomes.extend(part);
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Shut the daemon down only after every worker has its replies, so
    // process teardown can never race the last Done frames.
    if cfg.shutdown {
        Frame::Shutdown
            .write_to(&mut cwriter)
            .and_then(|()| cwriter.flush().map_err(ProtoError::from))
            .map_err(|e| format!("shutdown: {e}"))?;
    }

    outcomes.sort_by_key(|(req, _)| *req);
    let mut report = LoadgenReport {
        sent: refs.len() as u64,
        hits: 0,
        delayed_hits: 0,
        recalls: 0,
        writes: 0,
        failed: 0,
        rejected_draining: 0,
        rejected_shedding: 0,
        acked_write_bytes: 0,
        read_waits: LatencyHistogram::new(),
        write_waits: LatencyHistogram::new(),
        drain,
        stats,
        wall_s,
        refs_per_sec: if wall_s > 0.0 {
            refs.len() as f64 / wall_s
        } else {
            0.0
        },
    };
    for (req, outcome) in outcomes {
        match outcome {
            Outcome::Served { wait_vms, served } => {
                let wait_s = wait_vms as f64 / MS as f64;
                match served {
                    ServedKind::Hit => {
                        report.hits += 1;
                        report.read_waits.record(wait_s);
                    }
                    ServedKind::DelayedHit => {
                        report.delayed_hits += 1;
                        report.read_waits.record(wait_s);
                    }
                    ServedKind::Recall => {
                        report.recalls += 1;
                        report.read_waits.record(wait_s);
                    }
                    ServedKind::Write => {
                        report.writes += 1;
                        report.acked_write_bytes += refs[req as usize].size;
                        report.write_waits.record(wait_s);
                    }
                    ServedKind::Failed => report.failed += 1,
                }
            }
            Outcome::Rejected(RejectReason::Draining) => report.rejected_draining += 1,
            Outcome::Rejected(RejectReason::Shedding) => report.rejected_shedding += 1,
        }
    }
    Ok(report)
}
