//! The simulator: open-loop arrivals → bounded queue → N instances, as
//! the analytic tier of the one serving loop (`event::serve`).
//! Its tier prices each call with the `cdpu-hwsim` cycle model, starts an
//! arrival at once on an idle instance (never counted in queue depth),
//! and drops one only when every instance is busy and `queue_capacity`
//! jobs wait; the loop does the rest and reports.
//!
//! Arrival rates are *calibrated*, not guessed: a pre-pass prices a few
//! hundred calls per tenant (with dedicated RNG streams that do not
//! perturb the run itself) to estimate the mean service time `E[S]`, then
//! sets the total arrival rate `λ = ρ·N / E[S]` so that `offered_load` is
//! the classical utilization ρ. Sweeping ρ toward 1 reproduces the
//! super-linear tail growth every M/G/1-flavored system shows — the
//! serving-tier counterpart of the paper's Table 7 offload-latency
//! argument.
//!
//! The run is single-threaded and deterministic: every random stream is
//! forked from `ServeConfig::seed` by fixed tags, and events are totally
//! ordered by `(time, seq)`.

use crate::arrivals;
use crate::event::{self, Entry, Tier};
use crate::obs::ObsConfig;
use crate::report::ServeReport;
use crate::scheduler::{Job, SchedKind, Scheduler};
use crate::tenants::TenantSpec;
use cdpu_fleet::CallRecord;
use cdpu_hwsim::params::{CdpuParams, MemParams, Placement};
use cdpu_hwsim::service::service_cycles;

/// Per-invocation software offload overhead by placement, picoseconds —
/// the driver/DMA/doorbell cost of *reaching* the accelerator that
/// Table 7 centers on. RoCC's custom-instruction dispatch is already in
/// the cycle model (`DISPATCH_CYCLES`); a chiplet hop costs a cache-line
/// doorbell round-trip; a PCIe invocation pays descriptor setup, DMA
/// mapping and completion-interrupt amortization.
pub fn offload_overhead_ps(placement: Placement) -> u64 {
    match placement {
        Placement::Rocc => 0,
        Placement::Chiplet => 150_000,
        Placement::PcieLocalCache | Placement::PcieNoCache => 1_700_000,
    }
}

/// Converts accelerator cycles to picoseconds (exact at 2 GHz: 500 ps).
fn cycles_to_ps(cycles: u64, freq_ghz: f64) -> u64 {
    (cycles as f64 * 1000.0 / freq_ghz).round() as u64
}

/// The simulator's analytic call price: accelerator residency from the
/// `cdpu-hwsim` cycle model plus the per-invocation offload overhead of
/// the placement. Exposed so the execution engine can calibrate its
/// arrival rates against the *same* `E[S]` estimate (making ρ mean the
/// same thing in both tiers); the engine never uses it on its hot path.
pub fn analytic_price_ps(
    call: &cdpu_fleet::CallRecord,
    params: &CdpuParams,
    mem: &MemParams,
) -> u64 {
    cycles_to_ps(service_cycles(call, params, mem), mem.freq_ghz)
        + offload_overhead_ps(params.placement)
}

/// Intra-call data parallelism for large decompression calls: each CDPU
/// instance carries `workers` parallel decode lanes, and a decompress call
/// at or above the threshold executes as a chunked frame across them
/// (priced by [`cdpu_hwsim::chunked`]). The call still occupies one
/// instance slot — lanes are inside the instance — so raising `workers`
/// at fixed silicon means fewer instances: the intra-call-parallelism vs
/// queueing-delay trade the chunked figures sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedPolicy {
    /// Decompress calls at or above this uncompressed size run chunked.
    pub threshold_bytes: u64,
    /// Uncompressed bytes per chunk.
    pub chunk_bytes: u64,
    /// Parallel decode lanes per instance.
    pub workers: u32,
}

/// Configuration of one serving-tier simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Master seed; every stream forks from it.
    pub seed: u64,
    /// CDPU instances behind the queue.
    pub instances: u32,
    /// Queue slots; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Queue discipline.
    pub sched: SchedKind,
    /// CDPU configuration (placement drives the offload overhead).
    pub params: CdpuParams,
    /// SoC memory model.
    pub mem: MemParams,
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Calls to inject across all tenants.
    pub total_calls: u64,
    /// Target utilization ρ the arrival rate is calibrated to.
    pub offered_load: f64,
    /// Record the compact per-job event log (arrival/start/depart/drop).
    pub record_events: bool,
    /// Collect time-resolved observability (windowed tenant timelines,
    /// SLO burn rates, slow-call exemplars) into `ServeReport::obs`.
    pub obs: Option<ObsConfig>,
    /// Chunked-frame decode for large calls (None = every call serial,
    /// today's behavior).
    pub chunked: Option<ChunkedPolicy>,
}

impl ServeConfig {
    /// A config with workable defaults for the given tenants.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        ServeConfig {
            seed: 0xC0FFEE,
            instances: 4,
            queue_capacity: 4096,
            sched: SchedKind::Fcfs,
            params: CdpuParams::default(),
            mem: MemParams::default(),
            tenants,
            total_calls: 20_000,
            offered_load: 0.7,
            record_events: false,
            obs: None,
            chunked: None,
        }
    }

    /// Prices one sampled call: accelerator residency plus the
    /// per-invocation offload overhead of the placement. Large decompress
    /// calls under a [`ChunkedPolicy`] are priced at the chunked-frame
    /// makespan across the instance's lanes instead of the serial pipeline.
    fn price_ps(&self, call: &cdpu_fleet::CallRecord) -> u64 {
        if let Some(pol) = self.chunked {
            if call.op.dir == cdpu_fleet::Direction::Decompress
                && call.uncompressed_bytes >= pol.threshold_bytes
            {
                let r = cdpu_hwsim::chunked::chunked_cycles(
                    call,
                    pol.chunk_bytes,
                    pol.workers,
                    &self.params,
                    &self.mem,
                );
                return cycles_to_ps(r.chunked_cycles, self.mem.freq_ghz)
                    + offload_overhead_ps(self.params.placement);
            }
        }
        analytic_price_ps(call, &self.params, &self.mem)
    }

    /// Calibration pre-pass: weighted mean service time in picoseconds,
    /// from dedicated RNG streams.
    pub fn mean_service_ps(&self) -> f64 {
        arrivals::mean_service_ps(self.seed, &self.tenants, |call| self.price_ps(call))
    }

    /// Per-tenant arrival rates calibrated so the load is `offered_load`:
    /// λ_total in events per picosecond is ρ·N / E[S].
    pub(crate) fn rates(&self) -> Vec<f64> {
        arrivals::calibrated_rates(
            self.seed,
            &self.tenants,
            self.offered_load,
            self.instances,
            |call| self.price_ps(call),
        )
    }
}

/// The simulator's side of the loop: the analytic price and the global
/// drop-tail bound.
struct SimTier<'c> {
    cfg: &'c ServeConfig,
    // Telemetry handles (names are dynamic per tenant, so they are
    // registered once here, like FleetSampler does).
    peak_gauge: cdpu_telemetry::metrics::Gauge,
    tenant_completed: Vec<cdpu_telemetry::metrics::Counter>,
}

impl Tier for SimTier<'_> {
    const TELEMETRY: &'static str = "serve";

    fn price(&mut self, _id: u64, call: &CallRecord) -> (u64, u64) {
        (self.cfg.price_ps(call), call.uncompressed_bytes)
    }

    /// An arrival starts at once on an idle instance, never counted in
    /// queue depth; otherwise it queues unless `queue_capacity` jobs
    /// already wait.
    fn admit(&mut self, _job: &Job, idle: bool, queued: usize) -> Entry {
        if idle {
            Entry::Start
        } else if queued < self.cfg.queue_capacity {
            Entry::Queue
        } else {
            Entry::Shed
        }
    }

    fn next_dispatch(&mut self, sched: &mut Scheduler, out: &mut Vec<Job>) -> bool {
        out.extend(sched.pop());
        !out.is_empty()
    }

    fn on_queue_depth(&mut self, depth: u64) {
        self.peak_gauge.set_max(depth as i64);
    }

    /// A call is resident for exactly its price.
    fn serve(&mut self, jobs: &[Job]) -> u64 {
        jobs.iter().map(|j| j.service_ps).sum()
    }

    fn on_complete(&mut self, _now: u64, job: &Job, _start_ps: u64) {
        self.tenant_completed[job.tenant as usize].incr();
    }
}

/// Runs one simulation to completion and reports.
///
/// # Panics
///
/// Panics on an empty tenant list, zero instances, or a non-positive
/// offered load.
pub fn run(cfg: &ServeConfig) -> ServeReport {
    let registry = cdpu_telemetry::registry();
    let mut tier = SimTier {
        cfg,
        peak_gauge: registry.gauge("serve.queue.depth_peak"),
        tenant_completed: cfg
            .tenants
            .iter()
            .map(|t| registry.counter(&format!("serve.tenant.{}.completed", t.name)))
            .collect(),
    };
    event::serve(&mut tier, cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenants::{fleet_tenants, CallMix};
    use cdpu_fleet::{AlgoOp, Algorithm, Direction};

    fn small_cfg(load: f64) -> ServeConfig {
        let mut cfg = ServeConfig::new(fleet_tenants(4));
        cfg.total_calls = 2_000;
        cfg.offered_load = load;
        cfg
    }

    #[test]
    fn conservation_and_determinism() {
        let mut cfg = small_cfg(0.7);
        cfg.record_events = true;
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b, "same seed+config must be bit-identical");
        assert_eq!(a.injected, cfg.total_calls);
        assert_eq!(a.completed + a.dropped, a.injected, "no lost jobs");
        assert!(!a.events.is_empty());
        let mut c = cfg.clone();
        c.seed ^= 1;
        assert_ne!(run(&c), a, "different seed must differ");
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let r = run(&small_cfg(0.6));
        assert!(
            (r.utilization - 0.6).abs() < 0.15,
            "utilization {} vs offered 0.6",
            r.utilization
        );
        assert!(r.goodput_gbps > 0.0);
    }

    #[test]
    fn p99_wait_grows_superlinearly_toward_saturation() {
        let lo = run(&small_cfg(0.5));
        let mid = run(&small_cfg(0.7));
        let hi = run(&small_cfg(0.92));
        assert!(
            mid.wait.p99_ns > lo.wait.p99_ns,
            "{} !> {}",
            mid.wait.p99_ns,
            lo.wait.p99_ns
        );
        let first_step = mid.wait.p99_ns - lo.wait.p99_ns;
        let second_step = hi.wait.p99_ns - mid.wait.p99_ns;
        assert!(
            second_step > first_step,
            "tail growth must accelerate: +{first_step:.0} then +{second_step:.0} ns"
        );
    }

    #[test]
    fn tiny_queue_sheds_load() {
        let mut cfg = small_cfg(0.95);
        cfg.queue_capacity = 2;
        let r = run(&cfg);
        assert!(r.dropped > 0, "capacity 2 at ρ=0.95 must shed");
        assert_eq!(r.completed + r.dropped, r.injected);
    }

    #[test]
    fn drr_bounds_small_tenant_tail_under_heavy_surge() {
        // The fairness acceptance shape: a heavy tenant (1.5 MiB ZStd-D
        // calls) shares the tier with a small-call tenant (4 KiB
        // Snappy-D). Under FCFS the small tenant's p99 wait is dominated
        // by head-of-line heavy jobs; DRR bounds it.
        let tenants = vec![
            TenantSpec {
                name: "heavy".into(),
                weight: 0.5,
                mix: CallMix::Fixed {
                    op: AlgoOp::new(Algorithm::Zstd, Direction::Decompress),
                    bytes: 3 << 19,
                    level: Some(3),
                },
            },
            TenantSpec {
                name: "small".into(),
                weight: 0.5,
                mix: CallMix::Fixed {
                    op: AlgoOp::new(Algorithm::Snappy, Direction::Decompress),
                    bytes: 4096,
                    level: None,
                },
            },
        ];
        let mut cfg = ServeConfig::new(tenants);
        cfg.total_calls = 4_000;
        cfg.offered_load = 0.9;
        cfg.instances = 2;
        let fcfs = run(&cfg);
        cfg.sched = SchedKind::Drr;
        let drr = run(&cfg);
        let f = fcfs.tenant("small").unwrap().wait.p99_ns;
        let d = drr.tenant("small").unwrap().wait.p99_ns;
        assert!(
            d < f / 2.0,
            "DRR must cut the small tenant's p99 wait: FCFS {f:.0} ns vs DRR {d:.0} ns"
        );
    }

    #[test]
    fn size_bins_cover_fixed_workload() {
        let tenants = vec![TenantSpec {
            name: "pinned".into(),
            weight: 1.0,
            mix: CallMix::Fixed {
                op: AlgoOp::new(Algorithm::Snappy, Direction::Decompress),
                bytes: 4096,
                level: None,
            },
        }];
        let mut cfg = ServeConfig::new(tenants);
        cfg.total_calls = 500;
        let r = run(&cfg);
        assert_eq!(r.size_bins.len(), 1);
        assert_eq!(r.size_bins[0].log2, 12);
        assert_eq!(r.size_bins[0].count, 500);
        assert!(r.size_bins[0].mean_service_ns > 0.0);
    }

    #[test]
    fn pcie_offload_overhead_dominates_small_calls() {
        // Table 7's argument, serving-tier edition: for 4 KiB Snappy-D
        // calls the PCIe per-invocation overhead exceeds the RoCC
        // end-to-end service time many times over.
        let mk = |placement| {
            let tenants = vec![TenantSpec {
                name: "small".into(),
                weight: 1.0,
                mix: CallMix::Fixed {
                    op: AlgoOp::new(Algorithm::Snappy, Direction::Decompress),
                    bytes: 4096,
                    level: None,
                },
            }];
            let mut cfg = ServeConfig::new(tenants);
            cfg.total_calls = 300;
            cfg.offered_load = 0.3;
            cfg.params = CdpuParams::full_size(placement);
            run(&cfg).mean_service_ns
        };
        let rocc = mk(Placement::Rocc);
        let pcie = mk(Placement::PcieNoCache);
        assert!(pcie > rocc * 3.0, "rocc {rocc:.0} ns vs pcie {pcie:.0} ns");
    }
}
