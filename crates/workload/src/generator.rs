//! The synthetic trace generator: ties namespace, population, and rate
//! models into a time-ordered request stream: path-free [`IdRecord`]s,
//! or the [`TraceRecord`]s they render as.
//!
//! # Generative model
//!
//! * Each directory is a **dataset** born either before the trace window
//!   (its creation writes are invisible) or during it (a batch job writes
//!   its files in bursts of 20–200 with ~3 s gaps — the §5.2.1 request
//!   clustering).
//! * Datasets with re-written files receive later **update jobs** that
//!   rewrite the affected subset in another burst.
//! * Reads arrive in **sessions**: a researcher visits a dataset and
//!   steps through a contiguous run of its files with ~3 s gaps. Session
//!   times follow a clustered renewal process (same-day, next-morning,
//!   next-week, and months-later components — Figure 9) thinned by the
//!   diurnal/weekly/growth/holiday read-rate model (Figures 4–6).
//! * Every request may spawn **echo** re-requests of the same file within
//!   eight hours, reproducing §6's "about one third of all requests came
//!   within eight hours of another request for the same file".
//! * 4.76% of raw references are **errors**, dominated by requests for
//!   files that never existed (§5.1).
//! * Devices are assigned in a final chronological pass implementing the
//!   NCAR placement policy: files under 30 MB live on MSS disk while
//!   warm, larger files go to tape; cold data migrates to shelved
//!   cartridges needing an operator mount (§3.1, §6).

use fmig_trace::ingest::fnv1a64;
use fmig_trace::time::{Timestamp, DAY, HOUR, TRACE_END, TRACE_EPOCH, TRACE_SECONDS};
use fmig_trace::{
    DeviceClass, Direction, Endpoint, ErrorKind, FileId, FileTable, IdRecord, TraceRecord,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dist::{Discrete, Exp, LogNormal, Sample};
use crate::namespace::Namespace;
use crate::population::{build_dataset_files, sessions_needed, ClassModel, FileSpec, SizeModel};
use crate::preset::WorkloadConfig;
use crate::rate::RateModel;

/// Immutable metadata for one generated file.
///
/// An entry is not an identity: a file *is* its MSS path, which is
/// `(dir_ids[dir], name_seq)`, and two entries whose directories render
/// one path (see [`Workload::file_path`]) are one file referenced at
/// two sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileMeta {
    /// Directory (dataset) id in the namespace.
    pub dir: u32,
    /// Position within the directory, used to derive the file name.
    pub name_seq: u32,
    /// File size in bytes.
    pub size: u64,
}

/// Direction-or-error discriminant of a raw event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum EventKind {
    /// Successful read (MSS → Cray).
    Read = 0,
    /// Successful write (Cray → MSS).
    Write = 1,
}

/// One generated event, prior to rendering as a [`TraceRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawEvent {
    /// Absolute time, seconds since the Unix epoch.
    pub time: i64,
    /// File index into [`Workload::files`], or `u32::MAX` for error
    /// events referencing files that never existed.
    pub file: u32,
    /// Requesting user.
    pub uid: u32,
    /// Read or write.
    pub kind: EventKind,
    /// MSS device class (0 disk / 1 silo / 2 manual).
    pub device: u8,
    /// Error code (0 = ok; `ErrorKind` codes otherwise).
    pub err: u8,
}

impl RawEvent {
    /// The device class assigned to this event.
    pub fn device_class(&self) -> DeviceClass {
        match self.device {
            0 => DeviceClass::Disk,
            1 => DeviceClass::TapeSilo,
            _ => DeviceClass::TapeManual,
        }
    }
}

/// A fully generated synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    config: WorkloadConfig,
    namespace: Namespace,
    /// Directory paths interned through the workspace-wide interner
    /// (see [`fmig_trace::FileTable`]), replacing a module-local
    /// `Vec<String>` id scheme. Distinct namespace nodes can render to
    /// the same path (sibling subtrees reuse name pools at scale), and
    /// the table dedupes those, so `dir_ids` carries the dense id for
    /// each namespace directory index.
    dirs: FileTable,
    dir_ids: Vec<FileId>,
    files: Vec<FileMeta>,
    events: Vec<RawEvent>,
}

impl Workload {
    /// Generates the full workload for a configuration.
    ///
    /// Deterministic in `config` (including its seed).
    pub fn generate(config: &WorkloadConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let namespace = Namespace::generate(config, &mut rng);
        let mut dirs = FileTable::with_capacity(namespace.len());
        let dir_ids: Vec<FileId> = namespace
            .paths()
            .iter()
            .map(|path| dirs.intern(path))
            .collect();
        let classes = ClassModel::ncar();
        let sizes = SizeModel::ncar(config.max_file_bytes);
        let read_model = RateModel::read(config.read_growth);
        let write_model = RateModel::write();
        let n_users = config.target_users();

        let mut files: Vec<FileMeta> = Vec::with_capacity(namespace.total_files() as usize);
        let mut events: Vec<RawEvent> = Vec::new();
        let mut dataset_births: Vec<i64> = Vec::with_capacity(namespace.len());

        let disk_gap = Exp::new(config.intra_burst_gap_s);
        let tape_gap = Exp::new(config.tape_paced_gap_s);
        let cold_gap = Exp::new(config.cold_session_gap_s);
        let echo_gap = Exp::new(40.0 * 60.0);
        let job_gap = LogNormal::from_median(2.0 * DAY as f64, 1.0);
        let rewrite_gap = LogNormal::from_median(3.0 * DAY as f64, 1.0);
        let first_read_lag = LogNormal::from_median(4.0 * HOUR as f64, 1.0);
        // Session-gap mixture: same-workday re-visits (folded away by the
        // paper's 8-hour dedup), the dominant next-morning return that
        // puts 70% of Figure 9's intervals under one day, next-week
        // returns, and the months-later long tail.
        let session_gap_mix = Discrete::new(&[0.24, 0.64, 0.08, 0.04]);
        let session_gaps: [LogNormal; 3] = [
            LogNormal::from_median(10.0 * HOUR as f64, 0.35),
            LogNormal::from_median(4.0 * DAY as f64, 0.8),
            LogNormal::from_median(60.0 * DAY as f64, 1.2),
        ];
        let same_day_gap = Exp::new(1.5 * HOUR as f64);

        for (dir_id, dir) in namespace.dirs().iter().enumerate() {
            let pre = rng.gen::<f64>() < config.pre_trace_fraction;
            let birth = if pre {
                TRACE_EPOCH.as_unix()
                    - (rng.gen::<f64>() * config.pre_trace_span_years * 365.25 * DAY as f64) as i64
                    - 1
            } else {
                TRACE_EPOCH.as_unix() + (rng.gen::<f64>() * TRACE_SECONDS as f64 * 0.98) as i64
            };
            dataset_births.push(birth);
            if dir.file_count == 0 {
                continue;
            }
            // Figure 6: reads grow ~2x across the trace while writes stay
            // flat. Re-read intensity scales with the dataset's birth
            // position; pre-trace datasets (read uniformly across the
            // window) stay neutral.
            let read_scale = if pre {
                1.0
            } else {
                let frac =
                    ((birth - TRACE_EPOCH.as_unix()) as f64 / TRACE_SECONDS as f64).clamp(0.0, 1.0);
                0.55 + 1.15 * frac
            };
            let specs =
                build_dataset_files(&mut rng, dir.file_count, pre, read_scale, &classes, &sizes);
            let base = files.len() as u32;
            for (i, spec) in specs.iter().enumerate() {
                files.push(FileMeta {
                    dir: dir_id as u32,
                    name_seq: i as u32,
                    size: spec.size,
                });
            }
            let owner = dir.owner_uid;

            // Large directories are project archives worked on by many
            // people: schedule them as independent ~180-file segments so
            // one visit stays within a working day. Without this, a
            // session over a 5,000-file directory spans days and drags
            // Figure 9's interreference intervals far past one day.
            const SEGMENT: usize = 180;
            let mut seg_birth = birth;
            for (seg_idx, seg) in specs.chunks(SEGMENT).enumerate() {
                let seg_base = base + (seg_idx * SEGMENT) as u32;
                if seg_idx > 0 {
                    // Later segments accumulate as the project produces
                    // more data.
                    seg_birth += (rng.gen::<f64>() * 6.0 * DAY as f64) as i64;
                }
                if !pre {
                    schedule_writes(
                        &mut rng,
                        &mut events,
                        config,
                        seg,
                        seg_base,
                        owner,
                        seg_birth,
                        &write_model,
                        &disk_gap,
                        &tape_gap,
                        &echo_gap,
                        &job_gap,
                        &rewrite_gap,
                    );
                }
                // Reading starts shortly after the segment lands — the
                // researcher reviews tonight's run tomorrow morning, not
                // after the whole project finishes writing.
                let first_session_nominal = if pre {
                    TRACE_EPOCH.as_unix() + (rng.gen::<f64>() * TRACE_SECONDS as f64) as i64
                } else {
                    seg_birth + first_read_lag.sample(&mut rng) as i64
                };
                schedule_reads(
                    &mut rng,
                    &mut events,
                    config,
                    seg,
                    seg_base,
                    owner,
                    n_users,
                    first_session_nominal,
                    seg_birth,
                    &read_model,
                    &disk_gap,
                    &tape_gap,
                    &cold_gap,
                    &echo_gap,
                    &session_gap_mix,
                    &session_gaps,
                    &same_day_gap,
                );
            }
        }

        // Drop anything outside the observation window, then order by time.
        events.retain(|e| e.time >= TRACE_EPOCH.as_unix() && e.time < TRACE_END.as_unix());
        inject_errors(&mut rng, &mut events, config, n_users);
        sort_by_time(&mut events);

        assign_devices(&mut rng, &mut events, config, &files, &dataset_births);

        Workload {
            config: config.clone(),
            namespace,
            dirs,
            dir_ids,
            files,
            events,
        }
    }

    /// The configuration this workload was generated from.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The generated namespace.
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// Metadata for every generated file.
    pub fn files(&self) -> &[FileMeta] {
        &self.files
    }

    /// The raw time-ordered event stream.
    pub fn events(&self) -> &[RawEvent] {
        &self.events
    }

    /// Number of trace records this workload will emit.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the workload generated no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The MSS path of a generated file.
    ///
    /// Not injective once a namespace has a few thousand directories
    /// (scale ≳ 0.02): directory names are `{theme}{id % 1000:03}`, so two
    /// nodes under one parent can render the same directory path, and
    /// then equal `name_seq`s under them are one path — one file as far
    /// as every consumer of the trace can tell.
    ///
    /// # Panics
    ///
    /// Panics if `file` is out of range.
    pub fn file_path(&self, file: u32) -> String {
        file_path_of(&self.files, &self.dirs, &self.dir_ids, file)
    }

    /// Streams the workload as trace records, in time order.
    pub fn records(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.events
            .iter()
            .enumerate()
            .map(move |(i, ev)| render_event(&self.files, &self.dirs, &self.dir_ids, i, ev))
    }

    /// Consumes the workload into an owning record stream.
    ///
    /// Renders exactly what [`Workload::records`] renders, but without a
    /// live borrow: the per-record [`TraceRecord`]s (path strings
    /// included) are built and dropped one at a time instead of
    /// materializing the full `Vec<TraceRecord>`.
    pub fn into_records(self) -> impl ExactSizeIterator<Item = TraceRecord> {
        let Workload {
            dirs,
            dir_ids,
            files,
            events,
            ..
        } = self;
        events
            .into_iter()
            .enumerate()
            .map(move |(i, ev)| render_event(&files, &dirs, &dir_ids, i, &ev))
    }

    /// Streams the workload as path-free [`IdRecord`]s: the requests
    /// [`Workload::records`] renders, minus the names, the user, and the
    /// synthesised transfer time.
    ///
    /// `IdRecord::file` is the index of the first [`FileMeta`] that
    /// renders the record's path, so two records share a slot exactly
    /// when their rendered `mss_path`s are equal (each keeps its own
    /// entry's size), and [`Workload::file_path`] of the slot is that
    /// path; `IdRecord::volume` hashes the rendered directory. Both are
    /// worked out here, once per file, never per record.
    pub fn requests(&self) -> impl ExactSizeIterator<Item = IdRecord> + '_ {
        /// What the stream keeps of one [`FileMeta`].
        #[derive(Clone, Copy)]
        struct FileSlot {
            file: u32,
            size: u64,
            volume: u64,
        }
        let volumes: Vec<u64> = self
            .dirs
            .iter()
            .map(|(_, path)| fnv1a64(path.as_bytes()))
            .collect();
        // Only a namespace where two directories share a path can alias.
        // Then each rendered directory lists, by `name_seq`, the first
        // entry that renders each of its paths.
        let aliased = self.dirs.len() < self.dir_ids.len();
        let mut first: Vec<Vec<u32>> = vec![Vec::new(); if aliased { self.dirs.len() } else { 0 }];
        let files: Vec<FileSlot> = (0u32..)
            .zip(&self.files)
            .map(|(i, meta)| {
                let dir = self.dir_ids[meta.dir as usize];
                let file = if aliased {
                    // A directory's entries arrive in `name_seq` order
                    // from 0, so a name not seen yet extends the list.
                    let names = &mut first[dir.index()];
                    let seq = meta.name_seq as usize;
                    if seq == names.len() {
                        names.push(i);
                    }
                    names[seq]
                } else {
                    i
                };
                FileSlot {
                    file,
                    size: meta.size,
                    volume: volumes[dir.index()],
                }
            })
            .collect();
        // An errored event mirrors `render_event`: a read of nothing
        // from `/scratch/lost+NNNNNNN`, on disk.
        let lost = FileSlot {
            file: u32::MAX,
            size: 0,
            volume: fnv1a64(b"/scratch"),
        };
        self.events.iter().map(move |ev| {
            let (slot, direction, device) = match ev.err {
                0 => (
                    files[ev.file as usize],
                    match ev.kind {
                        EventKind::Read => Direction::Read,
                        EventKind::Write => Direction::Write,
                    },
                    ev.device_class(),
                ),
                _ => (lost, Direction::Read, DeviceClass::Disk),
            };
            IdRecord {
                start: Timestamp::from_unix(ev.time),
                volume: slot.volume,
                file_size: slot.size,
                file: slot.file,
                startup_latency_s: 0,
                direction,
                device,
                error: ErrorKind::from_code(ev.err),
            }
        })
    }
}

fn file_path_of(files: &[FileMeta], dirs: &FileTable, dir_ids: &[FileId], file: u32) -> String {
    let meta = &files[file as usize];
    let dir = dirs
        .name(dir_ids[meta.dir as usize])
        .expect("directory interned");
    format!("{dir}/f{:04}", meta.name_seq)
}

fn render_event(
    files: &[FileMeta],
    dirs: &FileTable,
    dir_ids: &[FileId],
    seq: usize,
    ev: &RawEvent,
) -> TraceRecord {
    let start = Timestamp::from_unix(ev.time);
    if ev.err != 0 {
        let mut rec = TraceRecord::read(
            Endpoint::MssDisk,
            start,
            0,
            format!("/scratch/lost+{seq:07}"),
            ev.uid,
        );
        rec.error = ErrorKind::from_code(ev.err);
        return rec;
    }
    let meta = &files[ev.file as usize];
    let device = ev.device_class().endpoint();
    let path = file_path_of(files, dirs, dir_ids, ev.file);
    let mut rec = match ev.kind {
        EventKind::Read => TraceRecord::read(device, start, meta.size, path, ev.uid),
        EventKind::Write => TraceRecord::write(device, start, meta.size, path, ev.uid),
    };
    rec.transfer_ms = transfer_ms(meta.size, ev.device_class(), ev.file, ev.time);
    rec
}

/// Nominal transfer time: ~2–2.5 MB/s depending on device (§5.1.1: "both
/// the tapes and the disks can transfer at a peak rate of 3 MB/sec, but
/// the observed rates are usually closer to 2 MB/sec"), with ±15%
/// deterministic jitter derived from the event identity.
pub fn transfer_ms(size: u64, device: DeviceClass, file: u32, time: i64) -> u64 {
    let rate = match device {
        DeviceClass::Disk => 2.4e6,
        DeviceClass::TapeSilo => 2.2e6,
        DeviceClass::TapeManual => 2.0e6,
    };
    let h = splitmix64((file as u64) << 32 ^ time as u64);
    let jitter = 0.85 + 0.30 * ((h >> 11) as f64 / (1u64 << 53) as f64);
    (size as f64 / (rate * jitter) * 1000.0) as u64
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Pushes an event plus its geometric chain of within-8-hours echoes.
#[expect(clippy::too_many_arguments)]
fn push_with_echoes<R: Rng + ?Sized>(
    rng: &mut R,
    events: &mut Vec<RawEvent>,
    config: &WorkloadConfig,
    echo_gap: &Exp,
    time: i64,
    file: u32,
    uid: u32,
    kind: EventKind,
) {
    events.push(RawEvent {
        time,
        file,
        uid,
        kind,
        device: 0,
        err: 0,
    });
    let mut t = time;
    while rng.gen::<f64>() < config.echo_probability {
        t += (echo_gap.sample(rng) as i64).clamp(30, 7 * HOUR);
        events.push(RawEvent {
            time: t,
            file,
            uid,
            kind,
            device: 0,
            err: 0,
        });
    }
}

/// Schedules the creation-job bursts and update jobs for one dataset.
/// Returns the time of the last write issued.
#[expect(clippy::too_many_arguments)]
fn schedule_writes<R: Rng + ?Sized>(
    rng: &mut R,
    events: &mut Vec<RawEvent>,
    config: &WorkloadConfig,
    specs: &[FileSpec],
    base: u32,
    owner: u32,
    birth: i64,
    write_model: &RateModel,
    disk_gap: &Exp,
    tape_gap: &Exp,
    echo_gap: &Exp,
    job_gap: &LogNormal,
    rewrite_gap: &LogNormal,
) -> i64 {
    let mut last = birth;
    // Creation jobs: the dataset's files arrive in chunks of 20-200
    // (one climate-model run's output per job).
    let mut idx = 0usize;
    let mut job_t = birth;
    while idx < specs.len() {
        let chunk = rng.gen_range(20..=200).min(specs.len() - idx);
        let mut t = job_t as f64;
        #[expect(clippy::needless_range_loop)]
        for i in idx..idx + chunk {
            // `lwrite` is synchronous: a large file paces the script by
            // roughly its transfer time; small files stream out quickly.
            let gap = if specs[i].size >= config.tape_threshold_bytes {
                tape_gap
            } else {
                disk_gap
            };
            t += gap.sample(rng);
            push_with_echoes(
                rng,
                events,
                config,
                echo_gap,
                t as i64,
                base + i as u32,
                owner,
                EventKind::Write,
            );
        }
        last = t as i64;
        idx += chunk;
        if idx < specs.len() {
            let gap = job_gap.sample(rng);
            job_t = write_model
                .modulate(rng, Timestamp::from_unix(last), gap)
                .as_unix();
        }
    }
    // Update jobs: round k rewrites every file expecting more than k writes.
    let max_writes = specs.iter().map(|s| s.writes).max().unwrap_or(0);
    let mut round_t = last;
    for round in 1..max_writes {
        let gap = rewrite_gap.sample(rng);
        round_t = write_model
            .modulate(rng, Timestamp::from_unix(round_t), gap)
            .as_unix();
        if round_t >= TRACE_END.as_unix() {
            break;
        }
        let mut t = round_t as f64;
        for (i, spec) in specs.iter().enumerate() {
            if spec.writes > round {
                let gap = if spec.size >= config.tape_threshold_bytes {
                    tape_gap
                } else {
                    disk_gap
                };
                t += gap.sample(rng);
                push_with_echoes(
                    rng,
                    events,
                    config,
                    echo_gap,
                    t as i64,
                    base + i as u32,
                    owner,
                    EventKind::Write,
                );
            }
        }
        last = last.max(t as i64);
    }
    last
}

/// Schedules the read sessions for one dataset.
#[expect(clippy::too_many_arguments)]
fn schedule_reads<R: Rng + ?Sized>(
    rng: &mut R,
    events: &mut Vec<RawEvent>,
    config: &WorkloadConfig,
    specs: &[FileSpec],
    base: u32,
    owner: u32,
    n_users: u32,
    first_session_nominal: i64,
    birth: i64,
    read_model: &RateModel,
    disk_gap: &Exp,
    tape_gap: &Exp,
    cold_gap: &Exp,
    echo_gap: &Exp,
    gap_mix: &Discrete,
    session_gaps: &[LogNormal; 3],
    same_day_gap: &Exp,
) {
    let n_sessions = sessions_needed(specs);
    if n_sessions == 0 {
        return;
    }
    // Sweep files in and out of the active set as sessions advance.
    let mut by_entry: Vec<u32> = (0..specs.len() as u32)
        .filter(|&i| specs[i as usize].reads > 0)
        .collect();
    by_entry.sort_by_key(|&i| specs[i as usize].first_session);
    let mut next_entry = 0usize;
    let mut active: Vec<(u32, u32)> = Vec::new(); // (exit_session, file_offset)

    let mut tau = read_model
        .modulate(rng, Timestamp::from_unix(first_session_nominal), 0.0)
        .as_unix();
    let silo_residency_s = (config.silo_residency_days * DAY as f64) as i64;
    // Estimated last touch per file, mirroring the device-assignment
    // rule: files untouched longer than the silo residency live on the
    // shelf, and reading them paces the script at operator speed.
    let mut last_touch: Vec<i64> = vec![birth; specs.len()];
    for k in 0..n_sessions {
        if k > 0 {
            let gap = match gap_mix.index(rng) {
                0 => same_day_gap.sample(rng),
                i => session_gaps[i - 1].sample(rng),
            };
            tau = read_model
                .modulate(rng, Timestamp::from_unix(tau), gap)
                .as_unix();
        }
        while next_entry < by_entry.len() && specs[by_entry[next_entry] as usize].first_session <= k
        {
            let i = by_entry[next_entry];
            let spec = &specs[i as usize];
            active.push((spec.first_session + spec.reads, i));
            next_entry += 1;
        }
        active.retain(|&(exit, _)| exit > k);
        if tau >= TRACE_END.as_unix() {
            break;
        }
        if active.is_empty() {
            continue;
        }
        let uid = if rng.gen::<f64>() < 0.85 {
            owner
        } else {
            rng.gen_range(0..n_users)
        };
        let mut t = tau as f64;
        for &(_, i) in &active {
            // The synchronous `lread` paces the session: shelf files cost
            // an operator mount, silo files a robot mount plus seek plus
            // transfer, disk files almost nothing.
            let est_age = t as i64 - last_touch[i as usize];
            let gap = if est_age > silo_residency_s {
                cold_gap
            } else if specs[i as usize].size >= config.tape_threshold_bytes {
                tape_gap
            } else {
                disk_gap
            };
            t += gap.sample(rng);
            // Sessions respect the calendar: overnight and weekend work
            // pauses until the researcher returns (Figures 4-5).
            t = read_model
                .pace(rng, Timestamp::from_unix(t as i64))
                .as_unix() as f64;
            last_touch[i as usize] = t as i64;
            push_with_echoes(
                rng,
                events,
                config,
                echo_gap,
                t as i64,
                base + i,
                uid,
                EventKind::Read,
            );
        }
        // Sessions serialize: the researcher finishes stepping through
        // this visit before the next one begins, so the next session's
        // gap counts from the end of this one. Without this, a large
        // cold dataset would run dozens of operator-paced restage
        // trickles in parallel and swamp the shelf-tape operators.
        tau = t as i64;
    }
}

/// Adds the §5.1 error population: requests for files that never existed,
/// media errors, and premature terminations, at the configured fraction
/// of raw references.
fn inject_errors<R: Rng + ?Sized>(
    rng: &mut R,
    events: &mut Vec<RawEvent>,
    config: &WorkloadConfig,
    n_users: u32,
) {
    if events.is_empty() || config.error_fraction <= 0.0 {
        return;
    }
    let n_good = events.len();
    let n_err =
        ((n_good as f64) * config.error_fraction / (1.0 - config.error_fraction)).round() as usize;
    let kind_mix = Discrete::new(&[0.85, 0.10, 0.05]);
    for _ in 0..n_err {
        // Errors track overall activity: jitter around an existing event.
        let anchor = events[rng.gen_range(0..n_good)].time;
        let time = (anchor + rng.gen_range(-HOUR..HOUR))
            .clamp(TRACE_EPOCH.as_unix(), TRACE_END.as_unix() - 1);
        let err = match kind_mix.index(rng) {
            0 => ErrorKind::FileNotFound,
            1 => ErrorKind::MediaError,
            _ => ErrorKind::PrematureTermination,
        }
        .code();
        events.push(RawEvent {
            time,
            file: u32::MAX,
            uid: rng.gen_range(0..n_users),
            kind: EventKind::Read,
            device: 0,
            err,
        });
    }
}

/// Stably sorts in-window events by time, as `sort_by_key(|e| e.time)`
/// would: an LSD radix sort on the offset from [`TRACE_EPOCH`], two
/// 13-bit digits.
///
/// # Panics
///
/// Panics if an event lies outside `[TRACE_EPOCH, TRACE_EPOCH + 2²⁶)`.
fn sort_by_time(events: &mut [RawEvent]) {
    const BITS: usize = 13;
    const LOW: usize = (1 << BITS) - 1;
    const _: () = assert!(TRACE_SECONDS <= 1 << (2 * BITS));
    let offset = |e: &RawEvent| {
        usize::try_from(e.time - TRACE_EPOCH.as_unix()).expect("event before the epoch")
    };
    // Both digits' histograms in one pass; the high digit is not
    // masked, so an offset past 2²⁶ fails the index instead of wrapping.
    let mut counts = vec![[0usize; 2]; 1 << BITS];
    for e in events.iter() {
        let t = offset(e);
        counts[t & LOW][0] += 1;
        counts[t >> BITS][1] += 1;
    }
    // Exclusive prefix sums: where each digit value's run starts.
    let mut starts = counts;
    let (mut low, mut high) = (0, 0);
    for s in &mut starts {
        (s[0], low) = (low, low + s[0]);
        (s[1], high) = (high, high + s[1]);
    }
    // Low digit into `buf`, then high digit back; each pass is stable.
    let mut buf = events.to_vec();
    for e in events.iter() {
        let pos = &mut starts[offset(e) & LOW][0];
        buf[*pos] = *e;
        *pos += 1;
    }
    for e in &buf {
        let pos = &mut starts[offset(e) >> BITS][1];
        events[*pos] = *e;
        *pos += 1;
    }
}

/// Chronological device-placement pass (§3.1 policy + internal migration).
fn assign_devices<R: Rng + ?Sized>(
    rng: &mut R,
    events: &mut [RawEvent],
    config: &WorkloadConfig,
    files: &[FileMeta],
    dataset_births: &[i64],
) {
    const DISK: u8 = 0;
    const SILO: u8 = 1;
    const MANUAL: u8 = 2;
    let disk_residency = (config.disk_residency_days * DAY as f64) as i64;
    let silo_residency = (config.silo_residency_days * DAY as f64) as i64;
    // Per-file last-reference time; pre-trace files age from their
    // dataset's birth.
    let mut last_ref: Vec<i64> = files
        .iter()
        .map(|f| dataset_births[f.dir as usize])
        .collect();
    for ev in events.iter_mut() {
        if ev.err != 0 {
            continue;
        }
        let meta = &files[ev.file as usize];
        let small = meta.size < config.tape_threshold_bytes;
        ev.device = match ev.kind {
            EventKind::Write => {
                if small {
                    DISK
                } else {
                    // Shelf writes skew toward mid-size files (Table 3:
                    // manual write average 47.7 MB vs silo 79.8 MB).
                    let p = (config.manual_write_fraction * (5.0e7 / meta.size as f64).sqrt())
                        .clamp(0.01, 0.30);
                    if rng.gen::<f64>() < p {
                        MANUAL
                    } else {
                        SILO
                    }
                }
            }
            EventKind::Read => {
                let age = ev.time - last_ref[ev.file as usize];
                if small {
                    if age <= disk_residency {
                        DISK
                    } else if age <= silo_residency {
                        SILO
                    } else {
                        MANUAL
                    }
                } else if age <= silo_residency {
                    SILO
                } else {
                    MANUAL
                }
            }
        };
        last_ref[ev.file as usize] = ev.time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_trace::Direction;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn small_workload() -> Workload {
        Workload::generate(&WorkloadConfig {
            scale: 0.002,
            seed: 11,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_workload();
        let b = small_workload();
        assert_eq!(a, b);
    }

    #[test]
    fn events_are_time_ordered_and_in_window() {
        let w = small_workload();
        assert!(!w.is_empty());
        let mut prev = i64::MIN;
        for ev in w.events() {
            assert!(ev.time >= prev, "events out of order");
            assert!(ev.time >= TRACE_EPOCH.as_unix() && ev.time < TRACE_END.as_unix());
            prev = ev.time;
        }
    }

    #[test]
    fn error_fraction_near_configured() {
        let w = small_workload();
        let errors = w.events().iter().filter(|e| e.err != 0).count();
        let frac = errors as f64 / w.len() as f64;
        assert!((frac - 0.0476).abs() < 0.01, "error fraction {frac}");
    }

    #[test]
    fn read_share_is_roughly_two_to_one() {
        let w = small_workload();
        let reads = w
            .events()
            .iter()
            .filter(|e| e.err == 0 && e.kind == EventKind::Read)
            .count();
        let writes = w
            .events()
            .iter()
            .filter(|e| e.err == 0 && e.kind == EventKind::Write)
            .count();
        let share = reads as f64 / (reads + writes) as f64;
        assert!((0.55..0.78).contains(&share), "read share {share}");
    }

    #[test]
    fn small_writes_hit_disk_large_writes_hit_tape() {
        let w = small_workload();
        for ev in w.events().iter().filter(|e| e.err == 0) {
            let size = w.files()[ev.file as usize].size;
            if ev.kind == EventKind::Write {
                if size < w.config().tape_threshold_bytes {
                    assert_eq!(ev.device_class(), DeviceClass::Disk);
                } else {
                    assert_ne!(ev.device_class(), DeviceClass::Disk);
                }
            }
        }
    }

    #[test]
    fn records_match_events() {
        let w = small_workload();
        let records: Vec<TraceRecord> = w.records().collect();
        assert_eq!(records.len(), w.len());
        for (rec, ev) in records.iter().zip(w.events()) {
            assert_eq!(rec.start.as_unix(), ev.time);
            assert_eq!(rec.uid, ev.uid);
            if ev.err == 0 {
                let expected = match ev.kind {
                    EventKind::Read => Direction::Read,
                    EventKind::Write => Direction::Write,
                };
                assert_eq!(rec.direction(), expected);
                assert_eq!(rec.mss_device(), Some(ev.device_class()));
                assert_eq!(rec.file_size, w.files()[ev.file as usize].size);
                assert!(rec.transfer_ms > 0 || rec.file_size < 4096);
            } else {
                assert!(rec.error.is_some());
            }
        }
    }

    #[test]
    fn owning_stream_matches_borrowed_records() {
        let w = small_workload();
        let borrowed: Vec<TraceRecord> = w.records().collect();
        let mut stream = w.clone().into_records();
        assert_eq!(stream.len(), w.len());
        let owned: Vec<TraceRecord> = stream.by_ref().collect();
        assert_eq!(borrowed, owned);
        assert_eq!(stream.len(), 0);
    }

    #[test]
    fn id_stream_carries_what_the_records_carry() {
        let w = small_workload();
        let ids: Vec<IdRecord> = w.requests().collect();
        assert_eq!(ids.len(), w.len());
        for (i, (id, rec)) in ids.iter().zip(w.records()).enumerate() {
            assert_eq!(id.start, rec.start);
            assert_eq!(id.file_size, rec.file_size);
            assert_eq!(id.error, rec.error);
            assert_eq!(id.direction, rec.direction());
            assert_eq!(Some(id.device), rec.mss_device());
            assert_eq!(id.volume, fmig_trace::Request::volume_hash(&rec));
            // No directory path repeats at this scale, so a file's slot
            // is its `files` index.
            let expected = match w.events()[i].err {
                0 => w.events()[i].file,
                _ => u32::MAX,
            };
            assert_eq!(id.file, expected);
        }
    }

    #[test]
    fn aliased_directories_make_two_entries_one_file() {
        // Directory names repeat modulo 1000, so at a few thousand
        // directories two nodes under one parent render one path.
        let w = Workload::generate(&WorkloadConfig {
            scale: 0.03,
            seed: 3,
            ..WorkloadConfig::default()
        });
        let mut first_with_path = HashMap::new();
        let slot_of: Vec<u32> = (0..w.files().len() as u32)
            .map(|f| *first_with_path.entry(w.file_path(f)).or_insert(f))
            .collect();
        let aliased = (0u32..).zip(&slot_of).filter(|(f, s)| f != *s).count();
        assert!(aliased > 0, "this config no longer aliases any path");
        // The id stream names the path, not the entry — and keeps each
        // entry's own size, as the rendered records do.
        let mut hit = 0;
        for (id, ev) in w.requests().zip(w.events()) {
            if ev.err == 0 {
                assert_eq!(id.file, slot_of[ev.file as usize]);
                assert_eq!(id.file_size, w.files()[ev.file as usize].size);
                hit += usize::from(id.file != ev.file);
            }
        }
        assert!(hit > 0, "no aliased entry is ever referenced");
    }

    #[test]
    fn first_500_paths_of_a_small_workload_are_distinct_and_stable() {
        let w = small_workload();
        let n = w.files().len().min(500);
        let mut seen = std::collections::HashSet::new();
        for f in 0..n as u32 {
            let p = w.file_path(f);
            assert!(p.starts_with('/'));
            assert!(seen.insert(p.clone()), "duplicate path {p}");
            assert_eq!(w.file_path(f), p);
        }
    }

    #[test]
    fn transfer_time_tracks_size_and_device() {
        let ms_disk = transfer_ms(24_000_000, DeviceClass::Disk, 1, 1000);
        // 24 MB at ~2.4 MB/s is about 10s, within the ±15% jitter band.
        assert!((8_000..12_500).contains(&ms_disk), "disk {ms_disk}");
        let ms_tape = transfer_ms(24_000_000, DeviceClass::TapeManual, 1, 1000);
        assert!(ms_tape > ms_disk / 2, "tape not absurdly fast");
        // Deterministic.
        assert_eq!(ms_disk, transfer_ms(24_000_000, DeviceClass::Disk, 1, 1000));
    }

    #[test]
    fn echoes_create_same_file_re_requests_within_8h() {
        let w = small_workload();
        let mut last_seen: HashMap<u32, i64> = HashMap::new();
        let mut within_8h = 0usize;
        let mut total = 0usize;
        for ev in w.events().iter().filter(|e| e.err == 0) {
            total += 1;
            if let Some(&prev) = last_seen.get(&ev.file) {
                if ev.time - prev <= 8 * HOUR {
                    within_8h += 1;
                }
            }
            last_seen.insert(ev.file, ev.time);
        }
        let frac = within_8h as f64 / total as f64;
        // §6: "about one third"; generous tolerance at tiny scale.
        assert!(
            (0.18..0.50).contains(&frac),
            "8-hour repeat fraction {frac}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The radix sort is the stable `sort_by_key` it replaces: equal
        /// times keep their input order, which `file` records here.
        #[test]
        fn radix_sort_by_time_is_a_stable_sort(
            picks in proptest::collection::vec((0u8..4, 0i64..TRACE_SECONDS), 0..600),
        ) {
            // Offsets from a handful of hot values (ties), the window's
            // two ends, and anywhere in between.
            let events: Vec<RawEvent> = (0u32..)
                .zip(&picks)
                .map(|(i, &(kind, anywhere))| {
                    let offset = match kind {
                        0 => 0,
                        1 => TRACE_SECONDS - 1,
                        2 => [17, 8191, 8192, 1 << 20][i as usize % 4],
                        _ => anywhere,
                    };
                    RawEvent {
                        time: TRACE_EPOCH.as_unix() + offset,
                        file: i,
                        uid: 0,
                        kind: EventKind::Read,
                        device: 0,
                        err: 0,
                    }
                })
                .collect();
            let mut radix = events.clone();
            sort_by_time(&mut radix);
            let mut stable = events;
            stable.sort_by_key(|e| e.time);
            prop_assert_eq!(radix, stable);
        }
    }
}
