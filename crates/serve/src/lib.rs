//! Multi-tenant CDPU serving: a discrete-event simulator and a real
//! execution engine, closed against each other.
//!
//! The paper's Table 7 argues that per-invocation *offload latency* — not
//! peak throughput — decides which placements make sense for the fleet's
//! small-call-dominated workloads. This crate turns that argument into a
//! queueing experiment twice over: an analytic simulator prices fleet
//! calls with the `cdpu-hwsim` cycle model, and an execution engine runs
//! the same seeded arrival streams as real compress/decompress calls on
//! `cdpu-par` worker shards — so every simulated claim has a measured
//! counterpart on the identical workload.
//!
//! The simulator tier:
//!
//! - [`event`]: the event heap — total order on `(time, seq)`, so a run
//!   is a pure function of its seed.
//! - [`scheduler`]: FCFS, size-aware SJF, and per-tenant deficit
//!   round-robin (weighted fair) queue disciplines.
//! - [`tenants`]: tenant specifications and call mixes (full fleet mix,
//!   one algorithm/direction, or fixed-size synthetic tenants).
//! - [`sim`]: the simulator core — open-loop Poisson arrivals calibrated
//!   to an offered load, bounded queue with drop accounting, busy/idle
//!   instance tracking.
//! - [`report`]: per-tenant and aggregate tail-latency reports
//!   (p50/p99/p99.9 wait and sojourn, utilization, goodput).
//! - [`obs`]: time-resolved observability — tumbling-window tenant
//!   timelines, per-tenant SLO burn-rate/error-budget tracking with an
//!   overload-onset detector, and slow-call exemplars attributed to the
//!   pipeline stage that bounded them.
//!
//! The execution tier:
//!
//! - [`arrivals`]: the seeded per-tenant arrival streams, shared verbatim
//!   by simulator and engine so both serve bit-identical call sequences.
//! - [`workload`]: real call payloads — a corpus tape sliced into exact
//!   compress windows and a pre-compressed decode ladder.
//! - [`admission`]: the four admission gates (bounded queue, outstanding
//!   quota, token bucket, SLO burn-rate shedding with onset hysteresis).
//! - [`batch`]: small-call coalescing, amortizing per-dispatch offload
//!   overhead across jobs.
//! - [`engine`]: the engine core — admission, scheduling and dispatch of
//!   real codec calls over worker shards, under deterministic work
//!   timing (calibrated against the analytic price, bit-identical across
//!   runs and hosts) or measured wall-clock timing.
//!
//! Everything is deterministic from its config seed: two runs of the
//! same config produce bit-identical event logs and reports, regardless
//! of thread count (simulator and work-timed engine alike; parallelism
//! lives one level up, across independent load points).

pub mod admission;
pub mod arrivals;
pub mod batch;
pub mod chunk;
pub mod engine;
pub mod event;
mod kernel;
pub mod obs;
pub mod report;
pub mod scheduler;
pub mod sim;
pub mod tenants;
pub mod workload;

pub use admission::{AdmissionConfig, ShedConfig, ShedReason};
pub use batch::BatchPolicy;
pub use engine::{EngineConfig, ServedReport, ServedTenant, Timing};
pub use obs::{ObsConfig, ObsReport, SloSpec};
pub use report::{ServeReport, SizeBin, TenantReport};
pub use scheduler::SchedKind;
pub use sim::{analytic_price_ps, offload_overhead_ps, ChunkedPolicy, ServeConfig};
pub use tenants::{CallMix, TenantSpec};
pub use workload::Workload;

/// Picoseconds per second — the simulator's time base. Picosecond
/// resolution keeps cycle→time conversion exact at 2 GHz (500 ps/cycle)
/// while `u64` still spans ~213 days of simulated time.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;
