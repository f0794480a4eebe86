//! Trace-driven discrete-event simulation of the NCAR MSS data path.
//!
//! Each trace record becomes a request that flows through the stages the
//! paper describes in §3.2 and §5.1.1:
//!
//! 1. **MSCP dispatch** — the UNICOS `lread`/`lwrite` message reaches the
//!    IBM 3090 control processor (lognormal overhead);
//! 2. **device service** — disk requests enter [`crate::disk::DiskPath`]
//!    — their directory's spindle, a channel mover, a millisecond seek —
//!    and tape requests enter [`crate::tape`] — drive queue, robot or
//!    operator mount, seek, tape-mover transfer, unload. Those two
//!    modules are the single statement of the device physics. Tape
//!    writes append to the currently mounted cartridge and only remount
//!    when it fills (which is why Table 3 shows writes reaching the
//!    first byte faster than reads).
//!
//! This engine is the open-loop host of both halves: every request is a
//! plain read or write on the device its record names, no cache is
//! consulted, and noise comes from one sequential RNG stream. The
//! simulator annotates every record with its achieved startup latency
//! and transfer time and aggregates Figure 3 latency histograms.
//!
//! # The request window
//!
//! Requests are numbered in arrival order, and records are emitted in
//! that order once their startup latency is final. The engine keeps a
//! window over the requests from the oldest one not yet emitted to the
//! newest arrival, so its memory follows what is in flight, not the
//! length of the trace. A request leaves the window when its record is
//! emitted. No event names it after that: a disk transfer's end names
//! its spindle, and the tape half hears about a request only before its
//! first byte.

use std::collections::VecDeque;
use std::convert::Infallible;

use fmig_trace::{DeviceClass, Direction, Request};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::SimConfig;
use crate::disk::DiskPath;
use crate::event::{EventQueue, SimMs, MS};
use crate::fault::FaultSchedule;
use crate::metrics::Metrics;
use crate::noise::{self, Noise};
use crate::tape::{RetryVerdict, TapeEv, TapeHalf, TapeHost, Tier};

/// The MSS simulator.
#[derive(Debug)]
pub struct MssSimulator {
    config: SimConfig,
}

impl MssSimulator {
    /// Creates a simulator with the given hardware configuration.
    pub fn new(config: SimConfig) -> Self {
        MssSimulator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation as a pipeline stage: every record is handed to
    /// `sink` in arrival order as soon as its startup latency is known,
    /// so the caller never holds the full annotated trace in memory.
    ///
    /// Only the in-flight window of records is buffered (requests whose
    /// first byte the simulation has not reached yet).
    ///
    /// One engine over either record type: the path-free
    /// [`fmig_trace::IdRecord`]s a study or a sweep shard streams, or
    /// [`fmig_trace::TraceRecord`]s. The
    /// model reads a record only through [`Request`], so equal streams
    /// yield equal metrics and latencies.
    ///
    /// # Panics
    ///
    /// Panics if records are not sorted by start time.
    pub fn run_streaming<R: Request>(
        &self,
        records: impl IntoIterator<Item = R>,
        sink: impl FnMut(R),
    ) -> Metrics {
        Engine::new(&self.config).run(records, sink)
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// MSCP overhead elapsed; join the device queue.
    Dispatch(usize),
    /// A disk transfer on this spindle finished.
    DiskDone { spindle: usize },
    /// An errored request was answered at the MSCP.
    ErrorDone(usize),
    /// A tape-half event.
    Tape(TapeEv),
}

#[derive(Debug, Clone, Copy)]
struct Req {
    arrival_ms: SimMs,
    size: u64,
    dir: Direction,
    device: DeviceClass,
    spindle: usize,
    first_byte_ms: SimMs,
    /// The startup latency is final: the first byte has been reached,
    /// or the request errored at the MSCP.
    done: bool,
}

struct Engine<'a, R> {
    front: Front<'a, R>,
    disk: DiskPath,
    tape: TapeHalf,
    /// Start of the latest arrival.
    prev_ms: SimMs,
}

/// What both halves are hosted on: the request window, the event queue,
/// and the listener first bytes are reported to.
struct Front<'a, R> {
    cfg: &'a SimConfig,
    noise: Noise,
    queue: EventQueue<Ev>,
    /// The request window (see the module docs): requests `base..`, in
    /// arrival order.
    reqs: VecDeque<Req>,
    /// Their records, awaiting emission.
    pending: VecDeque<R>,
    /// Index of the window's front: the next request to hand to the
    /// sink.
    base: usize,
    metrics: Metrics,
}

impl<'a, R: Request> Engine<'a, R> {
    fn new(cfg: &'a SimConfig) -> Self {
        Engine {
            front: Front {
                cfg,
                noise: Noise::Sequential(SmallRng::seed_from_u64(cfg.seed)),
                queue: EventQueue::new(),
                reqs: VecDeque::new(),
                pending: VecDeque::new(),
                base: 0,
                metrics: Metrics::new(),
            },
            disk: DiskPath::new(cfg),
            tape: TapeHalf::new(cfg, FaultSchedule::none()),
            prev_ms: SimMs::MIN,
        }
    }

    fn run(mut self, records: impl IntoIterator<Item = R>, mut sink: impl FnMut(R)) -> Metrics {
        for rec in records {
            self.feed(rec, &mut sink);
        }
        self.finish(&mut sink)
    }

    /// Catches the simulation up to `rec`'s arrival, admits it, and
    /// emits every record whose latency is now final.
    fn feed(&mut self, rec: R, sink: &mut impl FnMut(R)) {
        let t_ms = rec.start().as_unix() * MS;
        assert!(t_ms >= self.prev_ms, "records must be sorted by start time");
        self.prev_ms = t_ms;
        while let Some((now, ev)) = self.front.queue.pop_due(t_ms) {
            self.handle(now, ev);
        }
        self.front.arrive(&rec, t_ms, self.disk.spindles());
        self.front.pending.push_back(rec);
        self.front.emit_finished(sink);
    }

    /// Runs the simulation dry and emits the rest.
    fn finish(mut self, sink: &mut impl FnMut(R)) -> Metrics {
        while let Some((now, ev)) = self.front.queue.pop() {
            self.handle(now, ev);
        }
        self.front.emit_finished(sink);
        let Front {
            reqs,
            base,
            mut metrics,
            ..
        } = self.front;
        debug_assert!(reqs.is_empty());
        metrics.requests = base as u64;
        metrics
    }

    fn handle(&mut self, now: SimMs, ev: Ev) {
        match ev {
            Ev::Dispatch(r) => {
                let req = *self.front.req(r);
                match Tier::of(req.device) {
                    None => {
                        let started = self.disk.join(r, req.spindle);
                        self.front.start_transfer(&self.disk, started, now);
                    }
                    Some(tier) => {
                        let j = match req.dir {
                            Direction::Read => self
                                .tape
                                .recall(r as u64, r as u64, req.size, tier, None, now),
                            Direction::Write => {
                                self.tape.flush(r as u64, r as u64, req.size, tier, now)
                            }
                        };
                        self.tape_event(now, TapeEv::Join(j));
                    }
                }
            }
            Ev::DiskDone { spindle } => {
                let started = self.disk.done(spindle);
                self.front.start_transfer(&self.disk, started, now);
            }
            Ev::ErrorDone(r) => self.front.first_byte_at(r, now),
            Ev::Tape(ev) => self.tape_event(now, ev),
        }
    }

    fn tape_event(&mut self, now: SimMs, ev: TapeEv) {
        self.tape
            .handle(now, ev, &mut self.front)
            .unwrap_or_else(|never| match never {});
    }
}

impl<R: Request> Front<'_, R> {
    /// Request `r`, which has not been emitted yet: every event naming a
    /// request comes before its first byte, and emission after.
    fn req(&mut self, r: usize) -> &mut Req {
        &mut self.reqs[r - self.base]
    }

    /// Annotates and emits every record whose latency is final, in
    /// arrival order; each leaves the window.
    fn emit_finished(&mut self, sink: &mut impl FnMut(R)) {
        while self.reqs.front().is_some_and(|req| req.done) {
            let req = self.reqs.pop_front().expect("a finished request");
            let mut rec = self.pending.pop_front().expect("pending record");
            self.base += 1;
            let latency_ms = (req.first_byte_ms - req.arrival_ms).max(0);
            let transfer_ms = self.cfg.transfer_ms(&rec);
            rec.annotate((latency_ms / MS) as u32, transfer_ms);
            sink(rec);
        }
    }

    fn arrive(&mut self, rec: &R, t_ms: SimMs, spindles: usize) {
        let idx = self.base + self.reqs.len();
        self.reqs.push_back(Req {
            arrival_ms: t_ms,
            size: rec.file_size(),
            dir: rec.direction(),
            device: rec.mss_device().unwrap_or(DeviceClass::Disk),
            // Files of one directory share a 3380 volume, so a session
            // re-reading a dataset queues on one spindle — the source of
            // the paper's long disk-latency tail (§5.1).
            spindle: rec.volume_hash() as usize % spindles,
            first_byte_ms: t_ms,
            done: false,
        });
        let key = || noise::dispatch_key(idx as u64);
        if rec.error().is_some() {
            self.metrics.errors += 1;
            let d = self
                .noise
                .lognormal_ms(key, self.cfg.error_latency_median_s, 0.5);
            self.queue.push(t_ms + d, Ev::ErrorDone(idx));
        } else {
            let d = self.noise.lognormal_ms(
                key,
                self.cfg.mscp_overhead_median_s,
                self.cfg.mscp_overhead_sigma,
            );
            self.queue.push(t_ms + d, Ev::Dispatch(idx));
        }
    }

    /// A request's startup latency is final. Transfer time is a pure
    /// function of size and device, so the record can be emitted even
    /// though its transfer is still in flight.
    fn first_byte_at(&mut self, r: usize, first_byte: SimMs) {
        let req = self.req(r);
        req.first_byte_ms = first_byte;
        req.done = true;
    }

    /// The transfer begins — this is "the first byte".
    fn served(&mut self, r: usize, first_byte: SimMs) {
        self.first_byte_at(r, first_byte);
        let req = *self.req(r);
        self.metrics.record_latency(
            req.dir,
            req.device,
            (first_byte - req.arrival_ms) as f64 / MS as f64,
        );
    }

    /// The disk job that reached a channel mover begins its transfer.
    fn start_transfer(&mut self, disk: &DiskPath, started: Option<usize>, now: SimMs) {
        if let Some(r) = started {
            let Req { size, spindle, .. } = *self.req(r);
            let (first_byte, end) = disk.transfer(r, size, now, &mut self.noise);
            self.served(r, first_byte);
            self.queue.push(end, Ev::DiskDone { spindle });
        }
    }
}

/// The open-loop listener: tape jobs are named by their request index,
/// reads and appends alike are served at their first byte, and nothing
/// ever fails — there is no fault schedule and no deadline.
impl<R: Request> TapeHost for Front<'_, R> {
    type Error = Infallible;

    fn schedule(&mut self, at: SimMs, ev: TapeEv) {
        self.queue.push(at, Ev::Tape(ev));
    }

    fn noise(&mut self) -> &mut Noise {
        &mut self.noise
    }

    fn first_byte(&mut self, job: u64, at: SimMs) -> Result<(), Infallible> {
        self.served(job as usize, at);
        Ok(())
    }

    fn append_started(&mut self, job: u64, at: SimMs) {
        self.served(job as usize, at);
    }

    fn done(&mut self, _job: u64, _at: SimMs) -> Result<(), Infallible> {
        Ok(())
    }

    fn flush_done(&mut self, _job: u64, _at: SimMs, _bytes: u64) -> Result<(), Infallible> {
        Ok(())
    }

    fn failed(&mut self, _: u64, _: u32, _: SimMs, _: SimMs) -> Result<RetryVerdict, Infallible> {
        unreachable!("open-loop runs carry no fault schedule and no deadlines")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::time::TRACE_EPOCH;
    use fmig_trace::{Endpoint, ErrorKind, TraceRecord};

    fn read_at(device: Endpoint, t: i64, size: u64, path: &str) -> TraceRecord {
        TraceRecord::read(device, TRACE_EPOCH.add_secs(t), size, path, 1)
    }

    fn write_at(device: Endpoint, t: i64, size: u64, path: &str) -> TraceRecord {
        TraceRecord::write(device, TRACE_EPOCH.add_secs(t), size, path, 1)
    }

    /// The annotated records and the metrics of one run.
    struct Run {
        records: Vec<TraceRecord>,
        metrics: Metrics,
    }

    fn run(records: Vec<TraceRecord>) -> Run {
        let mut out = Vec::new();
        let metrics =
            MssSimulator::new(SimConfig::default()).run_streaming(records, |rec| out.push(rec));
        Run {
            records: out,
            metrics,
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let run = run(Vec::new());
        assert!(run.records.is_empty());
        assert_eq!(run.metrics.requests, 0);
    }

    #[test]
    fn lone_disk_read_is_fast() {
        let run = run(vec![read_at(Endpoint::MssDisk, 0, 1_000_000, "/a/b")]);
        let rec = &run.records[0];
        // MSCP overhead plus sub-second disk work: single-digit seconds.
        assert!(
            rec.startup_latency_s < 15,
            "latency {}",
            rec.startup_latency_s
        );
        assert!(rec.transfer_ms > 0);
        assert_eq!(
            run.metrics
                .latency_of(Direction::Read, DeviceClass::Disk)
                .count(),
            1
        );
    }

    #[test]
    fn lone_silo_read_pays_mount_and_seek() {
        let run = run(vec![read_at(Endpoint::MssTapeSilo, 0, 80_000_000, "/a/b")]);
        let lat = run.records[0].startup_latency_s;
        // ~7s mount + 10..90s seek + overhead.
        assert!((15..150).contains(&lat), "latency {lat}");
    }

    #[test]
    fn lone_manual_read_pays_operator_mount() {
        let run = run(vec![read_at(Endpoint::MssTapeManual, 0, 80_000_000, "/a")]);
        let lat = run.records[0].startup_latency_s;
        assert!(lat >= 30, "latency {lat}");
    }

    #[test]
    fn manual_reads_are_slower_than_silo_reads_on_average() {
        let mut records = Vec::new();
        for i in 0..300 {
            records.push(read_at(Endpoint::MssTapeSilo, i * 600, 50_000_000, "/s"));
            records.push(read_at(
                Endpoint::MssTapeManual,
                i * 600 + 300,
                50_000_000,
                "/m",
            ));
        }
        records.sort_by_key(|r| r.start);
        let run = run(records);
        let silo = run
            .metrics
            .latency_of(Direction::Read, DeviceClass::TapeSilo)
            .mean();
        let manual = run
            .metrics
            .latency_of(Direction::Read, DeviceClass::TapeManual)
            .mean();
        // The paper finds the silo 2-2.5x faster to the first byte.
        let ratio = manual / silo;
        assert!(ratio > 1.5, "manual {manual} vs silo {silo}");
    }

    #[test]
    fn tape_writes_append_without_remounting() {
        // First write mounts a cartridge; the rest append to it.
        let records: Vec<_> = (0..6)
            .map(|i| write_at(Endpoint::MssTapeSilo, i * 1200, 10_000_000, "/w"))
            .collect();
        let run = run(records);
        let first = run.records[0].startup_latency_s;
        let rest_max = run.records[1..]
            .iter()
            .map(|r| r.startup_latency_s)
            .max()
            .unwrap();
        assert!(
            rest_max < first,
            "appends ({rest_max}s) should beat the mounting write ({first}s)"
        );
    }

    #[test]
    fn cartridge_fills_force_a_remount() {
        // 200 MB cartridge: two 90 MB writes fit, the third remounts.
        let records: Vec<_> = (0..4)
            .map(|i| write_at(Endpoint::MssTapeSilo, i * 1200, 90_000_000, "/w"))
            .collect();
        let run = run(records);
        let l: Vec<u32> = run.records.iter().map(|r| r.startup_latency_s).collect();
        // Writes 1 and 3 mount (cartridge empty, then full); 2 and 4 append.
        assert!(l[1] < l[0], "append {l:?}");
        assert!(l[2] > l[1], "third write must remount: {l:?}");
        assert!(l[3] < l[2], "fourth appends again: {l:?}");
    }

    #[test]
    fn same_spindle_requests_serialize() {
        let records = vec![
            read_at(Endpoint::MssDisk, 0, 24_000_000, "/same/file"),
            read_at(Endpoint::MssDisk, 0, 24_000_000, "/same/file"),
            read_at(Endpoint::MssDisk, 0, 24_000_000, "/same/file"),
        ];
        let run = run(records);
        let mut lats: Vec<u32> = run.records.iter().map(|r| r.startup_latency_s).collect();
        lats.sort_unstable();
        // 24 MB at 2.4 MB/s is 10 s of service; the third in line waits
        // for two predecessors.
        assert!(lats[2] >= lats[0] + 10, "no queueing visible: {lats:?}");
    }

    #[test]
    fn errors_resolve_quickly_without_devices() {
        let mut rec = read_at(Endpoint::MssDisk, 0, 0, "/gone");
        rec.error = Some(ErrorKind::FileNotFound);
        let run = run(vec![rec]);
        assert_eq!(run.metrics.errors, 1);
        assert!(run.records[0].startup_latency_s < 30);
        assert_eq!(run.records[0].transfer_ms, 0);
        // No device histogram entry for errors.
        assert_eq!(
            run.metrics
                .latency_of(Direction::Read, DeviceClass::Disk)
                .count(),
            0
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let records: Vec<_> = (0..50)
            .map(|i| read_at(Endpoint::MssTapeSilo, i * 30, 50_000_000, "/d"))
            .collect();
        let a = run(records.clone());
        let b = run(records);
        let la: Vec<u32> = a.records.iter().map(|r| r.startup_latency_s).collect();
        let lb: Vec<u32> = b.records.iter().map(|r| r.startup_latency_s).collect();
        assert_eq!(la, lb);
    }

    #[test]
    #[should_panic(expected = "sorted by start time")]
    fn unsorted_input_is_rejected() {
        let records = vec![
            read_at(Endpoint::MssDisk, 100, 1, "/a"),
            read_at(Endpoint::MssDisk, 0, 1, "/b"),
        ];
        let _ = run(records);
    }

    #[test]
    fn the_request_window_stays_small_over_a_long_tape_heavy_stream() {
        // One record every 20 s for two weeks: silo and shelf reads,
        // appends and disk reads in turn, well inside every pool's
        // capacity. Requests in flight number in the tens.
        const RECORDS: usize = 60_000;
        let cfg = SimConfig::default();
        let mut engine = Engine::new(&cfg);
        let (mut emitted, mut high_water) = (0, 0);
        let mut sink = |_: TraceRecord| emitted += 1;
        for i in 0..RECORDS {
            let t = i as i64 * 20;
            let rec = match i % 4 {
                0 => read_at(Endpoint::MssTapeSilo, t, 20_000_000, "/s/a"),
                1 => write_at(Endpoint::MssTapeSilo, t, 5_000_000, "/w/b"),
                2 => read_at(Endpoint::MssDisk, t, 5_000_000, &format!("/d/{}", i % 7)),
                _ => read_at(Endpoint::MssTapeManual, t, 20_000_000, "/m/c"),
            };
            engine.feed(rec, &mut sink);
            high_water = high_water.max(engine.front.reqs.len());
        }
        let metrics = engine.finish(&mut sink);
        assert_eq!((emitted, metrics.requests), (RECORDS, RECORDS as u64));
        assert!(high_water < 256, "{high_water} requests held at once");
    }

    #[test]
    fn contention_stretches_the_tail() {
        // A burst of silo reads through limited drives: the queue grows
        // and the last requests wait far longer than the first.
        let records: Vec<_> = (0..40)
            .map(|i| read_at(Endpoint::MssTapeSilo, i * 3, 80_000_000, "/d"))
            .collect();
        let run = run(records);
        let h = run
            .metrics
            .latency_of(Direction::Read, DeviceClass::TapeSilo);
        assert!(
            h.quantile(0.95) > 3.0 * h.quantile(0.1),
            "p95 {} vs p10 {}",
            h.quantile(0.95),
            h.quantile(0.1)
        );
    }
}
