//! Cross-crate property tests and failure injection.
//!
//! These push randomized and adversarial inputs through the public APIs:
//! arbitrary request streams through the simulator, garbage bytes through
//! the trace parser, random configurations through the generator, and
//! random operation sequences through the policy cache.

use proptest::prelude::*;

use fmig_migrate::cache::{CacheConfig, CacheOp, DiskCache};
use fmig_migrate::eval::{EvalConfig, PreparedRef};
use fmig_migrate::mrc::sweep_capacities;
use fmig_migrate::policy::{Lru, LruMad, MigrationPolicy, Stp};
use fmig_sim::{FaultPlan, HierarchySimulator, MssSimulator, SimConfig};
use fmig_trace::time::{Timestamp, TRACE_EPOCH};
use fmig_trace::{DeviceClass, Endpoint, ErrorKind, TraceReader, TraceRecord};
use fmig_workload::{Workload, WorkloadConfig};

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    prop_oneof![
        Just(Endpoint::MssDisk),
        Just(Endpoint::MssTapeSilo),
        Just(Endpoint::MssTapeManual),
    ]
}

prop_compose! {
    fn arb_request()(
        ep in arb_endpoint(),
        write in any::<bool>(),
        dt in 0i64..600,
        size in 1u64..200_000_000,
        err in 0u8..8,
        uid in 0u32..50,
        path_seed in 0u32..40,
    ) -> (Endpoint, bool, i64, u64, Option<ErrorKind>, u32, u32) {
        (ep, write, dt, size, ErrorKind::from_code(err), uid, path_seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulator accepts any sorted request stream without panicking,
    /// conserves records, and produces sane annotations.
    #[test]
    fn simulator_is_total_on_sorted_streams(
        specs in proptest::collection::vec(arb_request(), 1..120)
    ) {
        let mut t = TRACE_EPOCH;
        let mut records = Vec::new();
        for (ep, write, dt, size, err, uid, path_seed) in specs {
            t = t.add_secs(dt);
            let path = format!("/p/{}/{}", path_seed % 7, path_seed);
            let mut rec = if write {
                TraceRecord::write(ep, t, size, path, uid)
            } else {
                TraceRecord::read(ep, t, size, path, uid)
            };
            rec.error = err;
            records.push(rec);
        }
        let mut annotated = Vec::new();
        let metrics = MssSimulator::new(SimConfig::default())
            .run_streaming(records.clone(), |rec| annotated.push(rec));
        prop_assert_eq!(annotated.len(), records.len());
        for (out, inp) in annotated.iter().zip(records.iter()) {
            prop_assert_eq!(&out.mss_path, &inp.mss_path);
            // First byte never precedes the request.
            prop_assert!(out.first_byte_at() >= out.start);
            if out.is_ok() {
                prop_assert!(out.transfer_ms > 0 || out.file_size < 1000);
            } else {
                prop_assert_eq!(out.transfer_ms, 0);
            }
        }
        prop_assert_eq!(metrics.requests, records.len() as u64);
    }

    /// Arbitrary bytes never panic the trace parser: every line either
    /// parses or yields a structured error.
    #[test]
    fn trace_parser_is_total_on_garbage(
        lines in proptest::collection::vec("[ -~]{0,60}", 0..40)
    ) {
        let mut text = String::from("# fmig-trace v1\n# epoch 0\n");
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        let reader = TraceReader::new(std::io::Cursor::new(text.into_bytes()))
            .expect("valid header");
        // Drain: no panic is the property; errors are fine.
        let mut ok = 0usize;
        let mut bad = 0usize;
        for item in reader {
            match item {
                Ok(_) => ok += 1,
                Err(_) => bad += 1,
            }
        }
        prop_assert!(ok + bad <= lines.len());
    }

    /// The policy cache never exceeds capacity and keeps its counters
    /// consistent under arbitrary operation sequences. Write-behind
    /// conserves bytes: every written byte is queued for tape exactly
    /// once, by `DiskCache`, by the MRC point at the same capacity, and
    /// in a closed-loop run, where the flush jobs carry those bytes.
    #[test]
    fn cache_invariants_hold_under_random_ops(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u32..30, 1u64..800, 0i64..100_000),
            1..300,
        ),
        capacity in 500u64..5_000,
    ) {
        let stp = Stp::classic();
        let mut cache = DiskCache::new(CacheConfig::with_capacity(capacity), &stp);
        let mut sorted_ops = ops;
        sorted_ops.sort_by_key(|&(_, _, _, t)| t);
        let mut refs = Vec::new();
        let mut written = 0;
        for (write, id, size, t) in sorted_ops {
            refs.push(PreparedRef {
                id: id.into(),
                size,
                write,
                time: t,
                next_use: None,
                device: DeviceClass::TapeSilo,
            });
            if write {
                written += size;
                cache.write(id, size, t, None);
            } else {
                let hit = cache.read(id, size, t, None);
                // A hit implies residency before the call.
                if hit {
                    prop_assert!(cache.contains(id));
                }
            }
            prop_assert!(cache.usage() <= capacity, "usage over capacity");
        }
        let s = cache.stats();
        prop_assert!(s.read_hits + s.read_misses + s.writes >= 1);
        prop_assert_eq!(s.writeback_bytes, written);
        let curve = sweep_capacities(&refs, &stp, &[capacity], &EvalConfig::with_capacity(capacity));
        prop_assert_eq!(curve.points[0].stats.writeback_bytes, written);
        let closed = HierarchySimulator::new(SimConfig::default()).run_with_faults(
            CacheConfig::with_capacity(capacity),
            &stp,
            &refs,
            &FaultPlan::none(),
        );
        prop_assert_eq!(closed.cache.writeback_bytes, written);
        prop_assert_eq!(closed.flush_bytes, written);
    }

    /// With zero miss-latency feedback, LRU-MAD's aggregate-delay
    /// denominator is exactly 1.0, so its victim sequence — every
    /// eviction, in order — is identical to plain LRU's on any
    /// operation stream. This pins the open-loop degradation contract
    /// end-to-end through the cache, not just at the priority function.
    #[test]
    fn zero_feedback_lru_mad_evicts_in_lru_order(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u32..30, 1u64..800, 0i64..100_000),
            1..300,
        ),
        capacity in 500u64..5_000,
    ) {
        fn victims(policy: &dyn MigrationPolicy, ops: &[(bool, u32, u64, i64)], capacity: u64)
            -> (Vec<fmig_trace::FileId>, u64, u64)
        {
            let mut cache = DiskCache::new(CacheConfig::with_capacity(capacity), policy);
            // Explicit, not just default: the degradation contract is
            // about a zero estimate, whatever the cache saw before.
            cache.set_est_miss_wait_s(0.0);
            let mut seq = Vec::new();
            let mut sink = |op: CacheOp| match op {
                CacheOp::Drop { id, .. } => seq.push(id),
                CacheOp::Fetch { .. } | CacheOp::Writeback { .. } => {}
            };
            for &(write, id, size, t) in ops {
                if write {
                    cache.write_with(id, size, t, None, &mut sink);
                } else {
                    cache.read_with(id, size, t, None, &mut sink);
                }
            }
            let s = cache.stats();
            (seq, s.read_hits, s.read_misses)
        }
        let mut sorted_ops = ops;
        sorted_ops.sort_by_key(|&(_, _, _, t)| t);
        let lru = victims(&Lru, &sorted_ops, capacity);
        let mad = victims(&LruMad::classic(), &sorted_ops, capacity);
        prop_assert_eq!(lru, mad);
    }

    /// LRU and STP agree on trivial workloads that fit entirely in cache
    /// (no evictions => identical hit sequences).
    #[test]
    fn policies_agree_when_nothing_is_evicted(
        ids in proptest::collection::vec(0u32..10, 1..80)
    ) {
        let lru = Lru;
        let stp = Stp::classic();
        let mut a = DiskCache::new(CacheConfig::with_capacity(u64::MAX), &lru);
        let mut b = DiskCache::new(CacheConfig::with_capacity(u64::MAX), &stp);
        for (t, &id) in ids.iter().enumerate() {
            let ha = a.read(id, 100, t as i64, None);
            let hb = b.read(id, 100, t as i64, None);
            prop_assert_eq!(ha, hb);
        }
        prop_assert_eq!(a.stats().read_misses, b.stats().read_misses);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The generator upholds its invariants for arbitrary small
    /// configurations: sorted, in-window, capped sizes, error fraction
    /// near the configured value.
    #[test]
    fn generator_invariants_hold_for_random_configs(
        seed in any::<u64>(),
        scale in 0.0005f64..0.004,
        echo in 0.05f64..0.4,
        error in 0.0f64..0.12,
    ) {
        let config = WorkloadConfig {
            scale,
            seed,
            echo_probability: echo,
            error_fraction: error,
            ..WorkloadConfig::default()
        };
        let w = Workload::generate(&config);
        prop_assert!(!w.is_empty());
        let mut prev = Timestamp::from_unix(i64::MIN);
        let mut errors = 0u64;
        for rec in w.records() {
            prop_assert!(rec.start >= prev, "unsorted");
            prev = rec.start;
            prop_assert!(rec.start.in_trace_window(), "outside window");
            prop_assert!(rec.file_size <= config.max_file_bytes);
            if rec.error.is_some() {
                errors += 1;
            }
        }
        let frac = errors as f64 / w.len() as f64;
        prop_assert!((frac - error).abs() < 0.03, "error fraction {frac} vs {error}");
    }
}
