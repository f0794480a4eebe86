//! Pins `Workload::generate`'s full output stream by hash.
//!
//! The sweep reports read only sums and curves, so a generator change
//! that moves a `uid`, swaps two events with equal timestamps or
//! perturbs one size by a rounding step can pass every report check.
//! These hashes cover every field of every event and every
//! `FileMeta`, plus the path-free `requests` stream the sweep
//! runner and the study consume, for the four generator presets at two
//! seeds. A generator speed-up must leave all of them unchanged.

use fmig_core::PresetId;
use fmig_trace::IdRecord;
use fmig_workload::{Workload, WorkloadConfig};

/// Streaming 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }
}

/// `(events and files, request stream)` hashes of one generated workload.
fn stream_hashes(config: &WorkloadConfig) -> (u64, u64) {
    let w = Workload::generate(config);
    let mut raw = Fnv::new();
    raw.u64(w.events().len() as u64);
    for ev in w.events() {
        raw.u64(ev.time as u64);
        raw.u64(u64::from(ev.file));
        raw.u64(u64::from(ev.uid));
        raw.write(&[ev.kind as u8, ev.device, ev.err]);
    }
    raw.u64(w.files().len() as u64);
    for f in w.files() {
        raw.u64(u64::from(f.dir));
        raw.u64(u64::from(f.name_seq));
        raw.u64(f.size);
    }
    let mut ids = Fnv::new();
    for r in w.requests() {
        let IdRecord {
            start,
            volume,
            file_size,
            file,
            startup_latency_s,
            direction,
            device,
            error,
        } = r;
        ids.u64(start.as_unix() as u64);
        ids.u64(volume);
        ids.u64(file_size);
        ids.u64(u64::from(file));
        ids.u64(u64::from(startup_latency_s));
        ids.write(&[direction as u8, device as u8, error.map_or(0, |e| e.code())]);
    }
    (raw.0, ids.0)
}

/// Scale of the pinned preset shards (a few hundred directories).
const SCALE: f64 = 0.004;

#[test]
fn generator_streams_match_their_pins() {
    #[rustfmt::skip]
    const PINS: [(PresetId, u64, u64, u64); 8] = [
        (PresetId::Ncar, 1993, 0xf683_9fa6_6d40_990d, 0xe9d4_997f_c98f_3129),
        (PresetId::ReadHot, 1993, 0x4387_4a1c_f264_f697, 0x54fa_a995_41ec_1d5e),
        (PresetId::WriteHeavy, 1993, 0xdf01_8ae8_ca58_2cf8, 0x906a_eeb1_963f_4e7f),
        (PresetId::Archival, 1993, 0x9e69_8324_83c5_c1cc, 0x0c49_c65d_9044_36f7),
        (PresetId::Ncar, 2024, 0x2410_2537_5399_0974, 0x6ed5_d9bc_4de8_84ff),
        (PresetId::ReadHot, 2024, 0xf900_1938_085d_cf2b, 0x557e_5b2d_124e_0325),
        (PresetId::WriteHeavy, 2024, 0x4a11_6937_c7be_0aa8, 0x078b_19e4_6558_0463),
        (PresetId::Archival, 2024, 0x963c_0885_79cd_8279, 0x2d02_0653_2a3a_9d98),
    ];
    let mut failures = Vec::new();
    for (preset, seed, raw, ids) in PINS {
        let got = stream_hashes(&preset.workload(SCALE, seed));
        if got != (raw, ids) {
            failures.push(format!(
                "({preset:?}, {seed}, {:#018x}, {:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(failures.is_empty(), "moved pins:\n{}", failures.join("\n"));
}

/// At a few thousand directories two namespace nodes render one path,
/// so `requests` folds aliased entries onto one slot; pin that
/// path too.
#[test]
fn an_aliasing_namespace_streams_match_their_pin() {
    let config = PresetId::Ncar.workload(0.03, 3);
    let got = stream_hashes(&config);
    assert_eq!(
        got,
        (0x0480_5093_725b_3a11, 0x2af1_5dec_31bf_a65a),
        "moved pin: {:#018x}, {:#018x}",
        got.0,
        got.1
    );
}
