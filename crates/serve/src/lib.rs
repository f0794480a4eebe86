//! Live HSM cache service: the closed-loop hierarchy engine split into
//! three cooperating processes that talk a hand-rolled TCP protocol.
//!
//! * **`fmig-served`** ([`daemon`]) — the cache daemon. It hosts
//!   [`fmig_sim::disk::DiskHalf`], the one disk-half state machine the
//!   simulators run (cache classification, recall coalescing, MSCP
//!   dispatch, spindles, channel movers, stall gates), over the one
//!   `DiskCache` they run, and carries every miss to the origin as a
//!   recall. Its
//!   robustness core wraps each recall in a deadline, a
//!   jittered-exponential-backoff retry budget ([`backoff`]), and an
//!   origin circuit breaker ([`breaker`]).
//! * **`fmig-origin`** ([`origin`]) — the "tape" server. It hosts
//!   [`fmig_sim::tape::TapeHalf`], the one tape-half state machine the
//!   simulators run (drives, robot arms, operators, seeks, cartridge
//!   appends, unloads), behind a socket, and its chaos mode
//!   materializes a `FaultScenarioId` into live outages, media read
//!   errors, and slow-drive windows.
//! * **`fmig-loadgen`** ([`loadgen`]) — replays a prepared trace at a
//!   configurable rate from N concurrent connections and reports a wait
//!   histogram compatible with the analysis pipeline.
//!
//! # Virtual time and the simulator-as-oracle contract
//!
//! The service runs the paper's *hardware* in virtual time: frames carry
//! virtual milliseconds on exactly the clock
//! [`fmig_sim::HierarchySimulator`] uses, and every stochastic stage
//! delay is a keyed draw from [`fmig_sim::noise`] — a pure function of
//! (seed, job identity, stage). Both halves are the simulator's own
//! code, so a live replay of a trace reproduces the counter-noise
//! simulator's cache decisions **exactly** (same miss ratio, same
//! eviction stream, same retry counters) and its wait distribution to
//! the bucket: `repro service-smoke` asserts the measured p99 equals
//! the simulator's prediction in both healthy and degraded-peak runs. See
//! `docs/architecture.md` ("Live service") for the topology and the
//! degradation order.

#![warn(missing_docs)]

pub mod backoff;
pub mod breaker;
pub mod daemon;
pub mod loadgen;
pub mod origin;
pub mod protocol;
pub mod smoke;

pub use protocol::{Frame, ProtoError, ServiceStats, PROTO_VERSION};
