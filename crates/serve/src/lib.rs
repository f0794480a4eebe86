//! Live HSM cache service: the closed-loop hierarchy engine split into
//! three cooperating processes that talk a hand-rolled TCP protocol.
//!
//! * **`fmig-served`** ([`daemon`]) — the cache daemon. It owns a
//!   policy-driven sharded disk cache plus the *disk half* of the device
//!   model (MSCP dispatch, spindles, channel movers) and schedules every
//!   miss as a recall against the origin. Its robustness core wraps each
//!   recall in a deadline, a jittered-exponential-backoff retry budget
//!   ([`backoff`]), and an origin circuit breaker ([`breaker`]).
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
//! (seed, job identity, stage). A live replay of a trace therefore
//! reproduces the counter-noise simulator's cache decisions **exactly**
//! (same miss ratio, same eviction stream, same retry counters) and its
//! wait distributions up to event tie-ordering, which is what lets
//! `repro service-smoke` assert measured p99 against the simulator's
//! prediction within ±15% in both healthy and degraded-peak runs. See
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
