//! The fixed names: five workloads, the end-to-end metrics, and the
//! per-layer ledger with the end-to-end metric and workload each layer
//! is expected to move (→) and the workloads where it must not (⊘).
//!
//! Later issues quote these names; `BENCHMARK.json` lists the same ones
//! (a unit test holds the two together).

/// The workload names, in run order.
pub const WORKLOADS: [&str; 5] = [
    OPEN_LARGE,
    OPEN_SMALL,
    CLOSED_MIXED,
    INGEST_MSR,
    SVC_LOOPBACK,
];

/// Open-loop sweep far beyond the CPU's private caches.
pub const OPEN_LARGE: &str = "open-large";
/// Open-loop sweep over four cache-resident preset shards.
pub const OPEN_SMALL: &str = "open-small";
/// Closed-loop hierarchy sweep with a write-heavy shard and faults.
pub const CLOSED_MIXED: &str = "closed-mixed";
/// Seeded MSR CSV → columnar store → imported sweep.
pub const INGEST_MSR: &str = "ingest-msr";
/// Live daemon + origin + loadgen over 127.0.0.1.
pub const SVC_LOOPBACK: &str = "svc-loopback";

/// Default seed (the paper's year) and the held-out seed: claims are
/// developed on the first and must also hold on the second.
pub const DEFAULT_SEED: u64 = 1993;
/// See [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 2024;

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct E2eMetric {
    /// Name in every output.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening of the median, as a share, before `selfcheck`
    /// (and the driver, for the metrics `BENCHMARK.json` lists) calls a
    /// regression.
    pub bound: f64,
    /// Workloads that report it; empty means all five.
    pub on: &'static [&'static str],
}

/// Throughput bound. The sandbox this was calibrated on shows ±20%
/// memory-speed phases lasting tens of seconds (identical instructions
/// and page faults, user time 0.65–1.10 s for one sweep; see the
/// README's noise section), so a tighter bound would flag the host,
/// not the code.
const REFS_BOUND: f64 = 0.25;

/// The six end-to-end metrics.
pub const E2E: [E2eMetric; 6] = [
    E2eMetric {
        name: "refs_per_s",
        unit: "refs/s",
        better: Better::Higher,
        bound: REFS_BOUND,
        on: &[],
    },
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        on: &[],
    },
    // At one seed the peak repeats within 1%; across seeds the
    // heavy-tailed generator moves the input size, and the peak with
    // it, by ±10%, which the spread rule counts against the bound.
    E2eMetric {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        on: &[],
    },
    E2eMetric {
        name: "import_records_per_s",
        unit: "records/s",
        better: Better::Higher,
        bound: REFS_BOUND,
        on: &[INGEST_MSR],
    },
    E2eMetric {
        name: "store_bytes_per_record",
        unit: "bytes/record",
        better: Better::Lower,
        bound: 0.0,
        on: &[INGEST_MSR],
    },
    E2eMetric {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound: 0.0,
        on: &[],
    },
];

/// One per-layer metric of the ledger.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Name: module path, what was measured, unit hint.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The call(s) the span wraps, or how the figure is derived.
    pub what: &'static str,
    /// (end-to-end metric, workloads) it should move.
    pub moves: &'static [(&'static str, &'static [&'static str])],
    /// Workloads where a change to this layer must show nothing.
    pub flat_on: &'static [&'static str],
}

const OPEN: &[&str] = &[OPEN_LARGE, OPEN_SMALL];
const NOT_SVC_INGEST: &[&str] = &[INGEST_MSR, SVC_LOOPBACK];
const ONLY_CLOSED_FLAT: &[&str] = &[OPEN_LARGE, OPEN_SMALL, INGEST_MSR];
const ONLY_INGEST_FLAT: &[&str] = &[OPEN_LARGE, OPEN_SMALL, CLOSED_MIXED, SVC_LOOPBACK];
const ONLY_SVC_FLAT: &[&str] = &[OPEN_LARGE, OPEN_SMALL, CLOSED_MIXED, INGEST_MSR];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static [(&'static str, &'static [&'static str])],
    flat_on: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        what,
        moves,
        flat_on,
    }
}

use Better::{Higher, Lower};

const REFS_OPEN_SMALL: &[(&str, &[&str])] = &[("refs_per_s", &[OPEN_SMALL])];
const REFS_SMALL_THEN_LARGE: &[(&str, &[&str])] = &[("refs_per_s", &[OPEN_SMALL, OPEN_LARGE])];
const REFS_OPEN_LARGE: &[(&str, &[&str])] = &[("refs_per_s", &[OPEN_LARGE])];
const REFS_OPEN: &[(&str, &[&str])] = &[("refs_per_s", OPEN)];
const REFS_OPEN_AND_CLOSED: &[(&str, &[&str])] =
    &[("refs_per_s", &[OPEN_LARGE, OPEN_SMALL, CLOSED_MIXED])];
const REFS_OPEN_AND_INGEST: &[(&str, &[&str])] =
    &[("refs_per_s", &[OPEN_LARGE, OPEN_SMALL, INGEST_MSR])];
const REFS_CLOSED: &[(&str, &[&str])] = &[("refs_per_s", &[CLOSED_MIXED])];
const IMPORT_INGEST: &[(&str, &[&str])] = &[("import_records_per_s", &[INGEST_MSR])];
const READ_INGEST: &[(&str, &[&str])] = &[
    ("refs_per_s", &[INGEST_MSR]),
    ("peak_rss_mib", &[INGEST_MSR]),
];
const REFS_SVC: &[(&str, &[&str])] = &[("refs_per_s", &[SVC_LOOPBACK])];
const NOTHING: &[(&str, &[&str])] = &[];

/// The per-layer ledger, in pipeline order.
pub const LAYERS: [LayerMetric; 52] = [
    layer(
        "workload.generate.ns_per_rec",
        "ns/rec",
        Lower,
        "Workload::generate",
        REFS_OPEN_SMALL,
        NOT_SVC_INGEST,
    ),
    layer(
        "workload.records.ns_per_rec",
        "ns/rec",
        Lower,
        "Workload::into_records, drained into a pre-sized Vec",
        REFS_OPEN_SMALL,
        NOT_SVC_INGEST,
    ),
    layer(
        "sim.mss.ns_per_rec",
        "ns/rec",
        Lower,
        "MssSimulator::run_streaming, sink moves each record into a pre-sized Vec",
        REFS_SMALL_THEN_LARGE,
        &[INGEST_MSR],
    ),
    layer(
        "analysis.analyzer.ns_per_rec",
        "ns/rec",
        Lower,
        "Analyzer::observe over the annotated records",
        REFS_SMALL_THEN_LARGE,
        &[INGEST_MSR],
    ),
    layer(
        "migrate.prep.ns_per_ref",
        "ns/ref",
        Lower,
        "TracePrep::observe over the annotated records, then finish",
        REFS_SMALL_THEN_LARGE,
        &[INGEST_MSR],
    ),
    layer(
        "migrate.cache.hit_path.ns_per_ref",
        "ns/ref",
        Lower,
        "PreparedTrace::replay, LRU, capacity = 4x referenced bytes, zero evictions",
        REFS_OPEN_LARGE,
        &[OPEN_SMALL],
    ),
    layer(
        "migrate.cache.lru.ns_per_ref",
        "ns/ref",
        Lower,
        "PreparedTrace::replay, lru, cache 1.5%",
        REFS_OPEN,
        &[],
    ),
    layer(
        "migrate.cache.belady.ns_per_ref",
        "ns/ref",
        Lower,
        "PreparedTrace::replay, belady, cache 1.5%",
        REFS_OPEN,
        &[],
    ),
    layer(
        "migrate.cache.stp14.ns_per_ref",
        "ns/ref",
        Lower,
        "PreparedTrace::replay, stp1.4, cache 1.5%",
        REFS_OPEN,
        &[],
    ),
    layer(
        "migrate.cache.saac.ns_per_ref",
        "ns/ref",
        Lower,
        "PreparedTrace::replay, saac, cache 1.5%",
        REFS_OPEN,
        &[],
    ),
    layer(
        "migrate.cache.stp-lat.ns_per_ref",
        "ns/ref",
        Lower,
        "PreparedTrace::replay, stp-lat, cache 1.5%",
        REFS_OPEN,
        &[],
    ),
    layer(
        "migrate.rank.monotone.ns_per_eviction",
        "ns/eviction",
        Lower,
        "(lru replay at 0.5% − hit path) ÷ evictions",
        REFS_OPEN,
        &[],
    ),
    layer(
        "migrate.rank.heap.ns_per_eviction",
        "ns/eviction",
        Lower,
        "(belady replay at 0.5% − hit path) ÷ evictions",
        REFS_OPEN,
        &[],
    ),
    layer(
        "migrate.rank.kinetic.ns_per_eviction",
        "ns/eviction",
        Lower,
        "(stp1.4 replay at 0.5% − hit path) ÷ evictions",
        REFS_OPEN_AND_CLOSED,
        &[INGEST_MSR],
    ),
    layer(
        "migrate.cache.evictions_per_kref",
        "count/kref",
        Lower,
        "CacheStats::evictions of the lru replay at 0.5%, exact",
        NOTHING,
        &[],
    ),
    layer(
        "migrate.cache.miss_ratio",
        "share",
        Lower,
        "CacheStats::miss_ratio of the lru replay at 1.5%, exact",
        NOTHING,
        &[],
    ),
    layer(
        "migrate.mrc.lru.ns_per_ref_per_cap",
        "ns/ref/cap",
        Lower,
        "mrc::sweep_capacities, lru, 8-point grid",
        REFS_OPEN_AND_INGEST,
        &[CLOSED_MIXED, SVC_LOOPBACK],
    ),
    layer(
        "migrate.mrc.stp14.ns_per_ref_per_cap",
        "ns/ref/cap",
        Lower,
        "mrc::sweep_capacities, stp1.4, 8-point grid",
        REFS_OPEN,
        &[CLOSED_MIXED, SVC_LOOPBACK],
    ),
    layer(
        "sim.event.ns_per_push_pop",
        "ns/op",
        Lower,
        "EventQueue::pop + push at a steady depth of 1000",
        REFS_CLOSED,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.hierarchy.healthy.ns_per_ref",
        "ns/ref",
        Lower,
        "HierarchySimulator::run_with_faults, ncar shard, no faults",
        REFS_CLOSED,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.hierarchy.degraded.ns_per_ref",
        "ns/ref",
        Lower,
        "HierarchySimulator::run_with_faults, ncar shard, degraded-peak",
        REFS_CLOSED,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.hierarchy.write-heavy.ns_per_ref",
        "ns/ref",
        Lower,
        "HierarchySimulator::run_with_faults, write-heavy shard, no faults",
        REFS_CLOSED,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.hierarchy.device_overhead.ns_per_ref",
        "ns/ref",
        Lower,
        "healthy − open-loop PreparedTrace::replay of the same cells",
        REFS_CLOSED,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.fault.overhead.ns_per_ref",
        "ns/ref",
        Lower,
        "degraded − healthy",
        REFS_CLOSED,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.hierarchy.recalls_per_kref",
        "count/kref",
        Lower,
        "HierarchyMetrics::recalls, healthy ncar cells, exact",
        NOTHING,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.hierarchy.delayed_hits_per_kref",
        "count/kref",
        Higher,
        "HierarchyMetrics::delayed_hits, healthy ncar cells, exact",
        NOTHING,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.hierarchy.flush_jobs_per_kref",
        "count/kref",
        Lower,
        "HierarchyMetrics::flush_jobs, healthy write-heavy cells, exact",
        NOTHING,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.fault.retries_per_krecall",
        "count/krecall",
        Lower,
        "DegradedOutcome::read_retries ÷ recalls, degraded ncar cells, exact",
        NOTHING,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "sim.hierarchy.p99_read_wait_s",
        "sim-s",
        Lower,
        "simulated p99 first-byte read wait, healthy ncar stp1.4 cell, exact",
        NOTHING,
        ONLY_CLOSED_FLAT,
    ),
    layer(
        "trace.ingest.parse.ns_per_line",
        "ns/line",
        Lower,
        "FormatId::Msr.stream over the CSV held in memory, drained",
        IMPORT_INGEST,
        ONLY_INGEST_FLAT,
    ),
    layer(
        "trace.ident.intern.ns_per_new",
        "ns/path",
        Lower,
        "FileTable::intern, each distinct path once, empty table",
        IMPORT_INGEST,
        ONLY_INGEST_FLAT,
    ),
    layer(
        "trace.ident.intern.ns_per_hit",
        "ns/path",
        Lower,
        "FileTable::intern, every record's path, table already full",
        IMPORT_INGEST,
        ONLY_INGEST_FLAT,
    ),
    layer(
        "trace.store.write.ns_per_rec",
        "ns/rec",
        Lower,
        "StoreWriter::create + append + finish (incl. next-use back-fill)",
        IMPORT_INGEST,
        ONLY_INGEST_FLAT,
    ),
    layer(
        "trace.store.read.ns_per_rec",
        "ns/rec",
        Lower,
        "StoreReader::open + rows + next_chunk to the end",
        READ_INGEST,
        ONLY_INGEST_FLAT,
    ),
    layer(
        "import_records_per_s",
        "records/s",
        Higher,
        "ingest::store::import of the CSV on disk (the end-to-end figure, one run)",
        NOTHING,
        ONLY_INGEST_FLAT,
    ),
    layer(
        "store_bytes_per_record",
        "bytes/record",
        Lower,
        "store directory bytes ÷ records, exact",
        NOTHING,
        ONLY_INGEST_FLAT,
    ),
    layer(
        "core.runner.overhead_share",
        "share",
        Lower,
        "1 − Σ staged spans of the sweep's own stages ÷ run_sweep wall",
        REFS_OPEN_SMALL,
        &[],
    ),
    layer(
        "core.report.json_ms",
        "ms",
        Lower,
        "SweepReport::to_json",
        REFS_OPEN_SMALL,
        &[],
    ),
    layer(
        "serve.protocol.encode.ns_per_frame",
        "ns/frame",
        Lower,
        "Frame::encode_body over the replay's request + reply frames",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.protocol.decode.ns_per_frame",
        "ns/frame",
        Lower,
        "Frame::decode_body over the same frames",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.protocol.bytes_per_req_frame",
        "bytes/frame",
        Lower,
        "mean wire size of a request frame, length prefix included, exact",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.link.frames_per_ref",
        "frames/ref",
        Lower,
        "daemon↔origin frames (both ways) ÷ refs, counted by the proxy",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.link.bytes_per_ref",
        "bytes/ref",
        Lower,
        "daemon↔origin bytes (both ways) ÷ refs, counted by the proxy",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.link.advance_per_ref",
        "frames/ref",
        Lower,
        "Advance watermarks ÷ refs, counted by the proxy",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.transport.ns_per_ref",
        "ns/ref",
        Lower,
        "service wall ÷ ref − in-process oracle ns ÷ ref",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.rtts_per_ref",
        "rtt/ref",
        Lower,
        "serve.transport.ns_per_ref ÷ host.loopback_rtt_us",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.conn1.refs_per_s",
        "refs/s",
        Higher,
        "the replay over one connection, one run",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.degraded.refs_per_s",
        "refs/s",
        Higher,
        "the replay under degraded-peak chaos, one run",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.unpinned.refs_per_s",
        "refs/s",
        Higher,
        "the replay with the original CPU affinity, one run",
        REFS_SVC,
        ONLY_SVC_FLAT,
    ),
    layer(
        "serve.oracle_p99_rel_err",
        "share",
        Lower,
        "|live p99 − oracle p99| ÷ oracle p99 of the read wait, exact",
        NOTHING,
        ONLY_SVC_FLAT,
    ),
    layer(
        "host.calib_ms",
        "ms",
        Lower,
        "the repo's 20M-step mixing loop, best of 3",
        NOTHING,
        &[],
    ),
    layer(
        "host.loopback_rtt_us",
        "us",
        Lower,
        "median 1-byte TCP round trip over 127.0.0.1",
        NOTHING,
        &[],
    ),
];

/// Looks a workload name up.
pub fn workload_known(name: &str) -> bool {
    WORKLOADS.contains(&name)
}

/// Why each workload exists, one line (the `why` of `BENCHMARK.json`).
pub fn why(workload: &str) -> &'static str {
    match workload {
        OPEN_LARGE => "Open-loop sweep at a file count far beyond the private caches: migrate::cache arenas and migrate::rank do most of the work (the roadmap's tiny-to-large drop).",
        OPEN_SMALL => "Same call over four cache-resident preset shards: generator, sim::sim, prep and core::runner fixed costs dominate; a memory-layout change must leave it flat.",
        CLOSED_MIXED => "Closed-loop sweep, read and write-heavy shards, healthy and degraded: sim::hierarchy, sim::event and sim::fault do the work; bypasses migrate::mrc.",
        INGEST_MSR => "Seeded MSR CSV imported into the columnar store, then swept from disk: trace::ingest, trace::ident, trace::ingest::store and the streaming MRC; carries the O(files) memory claim.",
        SVC_LOOPBACK => "Daemon, origin and loadgen over 127.0.0.1 on one pinned CPU: serve::{protocol,daemon,origin,tape} and the socket do the work; every other workload bypasses them.",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_arrows_point_at_known_things() {
        let mut names: Vec<&str> = LAYERS.iter().map(|l| l.name).collect();
        names.extend(E2E.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        // The two ingest figures appear on both lists by design.
        assert_eq!(names.len(), total - 2);
        for l in &LAYERS {
            for (metric, workloads) in l.moves {
                assert!(E2E.iter().any(|m| m.name == *metric), "{}", l.name);
                assert!(workloads.iter().all(|w| workload_known(w)), "{}", l.name);
                assert!(
                    workloads.iter().all(|w| !l.flat_on.contains(w)),
                    "{} both moves and must not move a workload",
                    l.name
                );
            }
            assert!(l.flat_on.iter().all(|w| workload_known(w)), "{}", l.name);
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it from drifting
    /// from the names the binary prints.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        for w in doc.get("workloads").unwrap().items() {
            let name = w.get("name").unwrap().as_str().unwrap();
            assert_eq!(w.get("why").unwrap().as_str().unwrap(), why(name));
        }
        let layers: Vec<_> = LAYERS
            .iter()
            .map(|l| (l.name.into(), l.unit.into(), l.better.name().into()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        // The driver wants every end-to-end metric on every workload
        // and never zero, so BENCHMARK.json carries the universal ones.
        let universal: Vec<_> = E2E
            .iter()
            .filter(|m| m.on.is_empty() && m.name != "failed_share")
            .map(|m| (m.name.into(), m.unit.into(), m.better.name().into()))
            .collect();
        assert_eq!(names("end_to_end"), universal);
        for m in doc.get("end_to_end").unwrap().items() {
            let name = m.get("name").unwrap().as_str().unwrap();
            let spec = E2E.iter().find(|e| e.name == name).unwrap();
            assert_eq!(m.get("bound").unwrap().as_f64(), Some(spec.bound));
        }
    }
}
