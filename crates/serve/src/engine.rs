//! The serving engine: the execution tier of the one serving loop
//! (`event::serve`), running *real* codec calls on worker shards
//! behind the tenant model.
//!
//! Where the simulator's tier prices a call and moves on, the engine's
//! tier dispatches it to a [`NotifyPool`] worker shard which executes
//! the actual compress/decompress kernel over corpus-bank bytes
//! ([`crate::workload`]); a kernel that panics panics `run` with its
//! payload. The virtual clock still drives everything — arrivals,
//! scheduling, admission and departures happen in simulated time — but
//! the *content* of every call (bytes in, bytes out, checksums) comes
//! from real execution, never from the analytic model.
//!
//! # Closing the loop
//!
//! The engine runs the loop on [`EngineConfig::as_sim`], so it injects
//! the **same workload** as the simulator: arrival instants, tenants and
//! call bodies come from the same seeded streams, with rates calibrated
//! against the same analytic `E[S]` — a (ρ, seed) point means the same
//! thing in both tiers and their reports are comparable point-for-point.
//! `figures --served` renders exactly that comparison. The tiers differ
//! only where their policies do: every admitted call queues behind four
//! per-tenant admission gates ([`crate::admission`]), and the batcher
//! ([`crate::batch`]) forms each dispatch.
//!
//! # Two timing modes
//!
//! - [`Timing::Work`] (default): a dispatch's virtual service time is the
//!   per-dispatch offload overhead plus a per-call linear *work model*
//!   (`fixed + rate × bytes`, per algorithm/direction) applied to the
//!   bytes each call **actually processed**. The model's constants are
//!   calibrated once at startup from two analytic reference points — off
//!   the hot path — so runs are bit-identical across reruns, shard
//!   counts and host load.
//! - [`Timing::Measured`]: the dispatch's wall-clock execution time on
//!   the shard becomes its virtual service time. Reports then reflect
//!   this host's real codec throughput (and are *not* reproducible
//!   bit-for-bit).

use crate::admission::{Admission, AdmissionConfig, ShedReason, Verdict};
use crate::arrivals;
use crate::batch::{BatchPolicy, Batcher};
use crate::event::{self, Entry, LogRecord, Tier};
use crate::report::LatencyDist;
use crate::scheduler::{Job, SchedKind, Scheduler};
use crate::sim::{analytic_price_ps, offload_overhead_ps};
use crate::tenants::TenantSpec;
use crate::workload::{EngineCall, ExecOutcome, Workload};
use cdpu_fleet::{AlgoOp, CallRecord};
use cdpu_hwsim::params::{CdpuParams, MemParams};
use cdpu_par::NotifyPool;
use cdpu_util::rng::mix64;
use std::sync::Arc;

/// How dispatch service times are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Timing {
    /// Deterministic work model over really-executed bytes (default).
    #[default]
    Work,
    /// Wall-clock execution time on the shard (not reproducible).
    Measured,
}

impl Timing {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Timing::Work => "work",
            Timing::Measured => "measured",
        }
    }
}

/// Configuration of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Master seed — shared with the simulator for workload identity.
    pub seed: u64,
    /// Worker shards executing dispatches.
    pub shards: u32,
    /// Queue discipline.
    pub sched: SchedKind,
    /// CDPU configuration (placement drives the offload overhead the
    /// work model charges per dispatch).
    pub params: CdpuParams,
    /// SoC memory model (for work-model calibration).
    pub mem: MemParams,
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Calls to inject across all tenants.
    pub total_calls: u64,
    /// Target utilization ρ the arrival rates are calibrated to.
    pub offered_load: f64,
    /// Per-tenant admission policy.
    pub admission: AdmissionConfig,
    /// Small-call coalescing policy.
    pub batch: BatchPolicy,
    /// Service-time derivation.
    pub timing: Timing,
    /// Record the compact per-job event log.
    pub record_events: bool,
}

impl EngineConfig {
    /// A config with workable defaults for the given tenants, matching
    /// the simulator's defaults where the two overlap.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        EngineConfig {
            seed: 0xC0FFEE,
            shards: 4,
            sched: SchedKind::Fcfs,
            params: CdpuParams::default(),
            mem: MemParams::default(),
            tenants,
            total_calls: 4_000,
            offered_load: 0.7,
            admission: AdmissionConfig::default(),
            batch: BatchPolicy::default(),
            timing: Timing::Work,
            record_events: false,
        }
    }

    /// The simulator config injecting the identical workload (same seed,
    /// same calibration, shards → instances), for closed-loop comparison.
    pub fn as_sim(&self) -> crate::sim::ServeConfig {
        let mut sim = crate::sim::ServeConfig::new(self.tenants.clone());
        sim.seed = self.seed;
        sim.instances = self.shards;
        sim.sched = self.sched;
        sim.params = self.params;
        sim.mem = self.mem;
        sim.total_calls = self.total_calls;
        sim.offered_load = self.offered_load;
        sim
    }
}

/// Per-(algorithm, direction) piecewise-linear service model, calibrated
/// from the analytic price at quarter-octave anchor sizes spanning the
/// fleet's full call range. The analytic curve is not monotonic (cache-
/// and window-bucket steps put local dips around 256–448 KiB), so the
/// anchors must be dense enough to trace it; quarter-octave spacing also
/// puts every decode-ladder size exactly on an anchor, making the model
/// error-free for decompress calls.
#[derive(Debug)]
struct WorkModel {
    ops: Vec<AlgoOp>,
    /// Calibration sizes, ascending: `(4+j)·2^(o-2)` from 1 KiB to 64 MiB.
    anchors: Vec<u64>,
    /// `anchor_ps[op][k]` = residency price at `anchors[k]`.
    anchor_ps: Vec<Vec<f64>>,
    offload_ps: u64,
}

/// The quarter-octave calibration anchors, 1 KiB through 64 MiB
/// (the fleet's `MIN_CALL..=MAX_CALL` span).
fn work_anchors() -> Vec<u64> {
    let mut anchors: Vec<u64> = (10..26u32)
        .flat_map(|o| (4u64..8).map(move |j| j << (o - 2)))
        .collect();
    anchors.push(1 << 26);
    anchors
}

impl WorkModel {
    fn calibrate(params: &CdpuParams, mem: &MemParams) -> Self {
        let ops = AlgoOp::all();
        let anchors = work_anchors();
        let offload_ps = offload_overhead_ps(params.placement);
        let mut anchor_ps = Vec::with_capacity(ops.len());
        for &op in &ops {
            let price = |bytes: u64| {
                let call = CallRecord {
                    op,
                    uncompressed_bytes: bytes,
                    level: (op.algo == cdpu_fleet::Algorithm::Zstd).then_some(3),
                    window_log: None,
                    caller: "served-cal",
                };
                // Residency only: the engine charges offload per
                // *dispatch* (that's what batching amortizes), so it must
                // not also ride inside the per-call model.
                ((analytic_price_ps(&call, params, mem) - offload_ps) as f64).max(1.0)
            };
            anchor_ps.push(anchors.iter().map(|&b| price(b)).collect());
        }
        WorkModel {
            ops,
            anchors,
            anchor_ps,
            offload_ps,
        }
    }

    fn op_index(&self, op: AlgoOp) -> usize {
        self.ops.iter().position(|&o| o == op).expect("all ops modeled")
    }

    /// Residency charge for one call that processed `bytes`: linear
    /// interpolation on the anchor segment covering `bytes`, the edge
    /// segments extended for the (clamped-rare) out-of-range sizes.
    fn call_ps(&self, op: AlgoOp, bytes: u64) -> u64 {
        let ps = &self.anchor_ps[self.op_index(op)];
        // partition_point = count of anchors strictly below `bytes`;
        // clamp to keep a valid segment when out of range (below 1 KiB
        // never happens — fleet MIN_CALL — above 64 MiB extends the top).
        let seg = self
            .anchors
            .partition_point(|&a| a < bytes)
            .saturating_sub(1)
            .min(self.anchors.len() - 2);
        let (a0, a1) = (self.anchors[seg] as f64, self.anchors[seg + 1] as f64);
        let t = (bytes as f64 - a0) / (a1 - a0);
        (ps[seg] + t * (ps[seg + 1] - ps[seg])).max(1.0).round() as u64
    }

    /// Scheduling estimate for an arriving call (mirrors what the
    /// simulator's jobs carry: residency plus offload).
    fn estimate_ps(&self, op: AlgoOp, bytes: u64) -> u64 {
        self.call_ps(op, bytes) + self.offload_ps
    }
}

/// Per-tenant outcome of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedTenant {
    /// Tenant name.
    pub name: String,
    /// Normalized arrival weight.
    pub weight: f64,
    /// Calls injected (arrived).
    pub injected: u64,
    /// Calls admitted past all four gates.
    pub admitted: u64,
    /// Calls completed.
    pub completed: u64,
    /// Calls shed, by gate.
    pub shed_burn: u64,
    /// Quota-gate sheds.
    pub shed_quota: u64,
    /// Token-bucket sheds.
    pub shed_bucket: u64,
    /// Queue-bound sheds.
    pub shed_queue: u64,
    /// Queueing delay (arrival → dispatch).
    pub wait: LatencyDist,
    /// Sojourn time (arrival → completion).
    pub total: LatencyDist,
    /// Uncompressed bytes really processed by this tenant's calls.
    pub executed_uncompressed_bytes: u64,
    /// Fold of every call's output checksum — proof of real execution,
    /// and the cheapest cross-run identity witness.
    pub checksum: u64,
}

impl ServedTenant {
    /// Total sheds across the four gates.
    pub fn shed(&self) -> u64 {
        self.shed_burn + self.shed_quota + self.shed_bucket + self.shed_queue
    }
}

/// Aggregate outcome of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedReport {
    /// Timing mode the run used.
    pub timing: Timing,
    /// Queue discipline.
    pub sched: SchedKind,
    /// Offered load ρ.
    pub offered_load: f64,
    /// Worker shards.
    pub shards: u32,
    /// Calls injected.
    pub injected: u64,
    /// Calls admitted.
    pub admitted: u64,
    /// Calls completed (equals admitted at drain).
    pub completed: u64,
    /// Calls shed across all gates.
    pub shed: u64,
    /// Aggregate queueing delay.
    pub wait: LatencyDist,
    /// Aggregate sojourn time.
    pub total: LatencyDist,
    /// Busy fraction of the shards over the run span.
    pub utilization: f64,
    /// Uncompressed bytes per simulated second, GB/s.
    pub goodput_gbps: f64,
    /// Worker dispatches (batches).
    pub dispatches: u64,
    /// Jobs that shared a dispatch with at least one other job.
    pub coalesced_jobs: u64,
    /// Mean jobs per dispatch.
    pub mean_batch: f64,
    /// Largest dispatch.
    pub max_batch: u64,
    /// Peak queued jobs (scheduler + batcher carry).
    pub peak_queue_depth: u64,
    /// Uncompressed bytes really processed.
    pub executed_uncompressed_bytes: u64,
    /// Compressed bytes really produced/consumed.
    pub executed_compressed_bytes: u64,
    /// Fold of all tenants' checksums.
    pub checksum: u64,
    /// Per-tenant breakdown.
    pub tenants: Vec<ServedTenant>,
    /// Compact event log (only when `record_events`).
    pub events: Vec<LogRecord>,
}

impl ServedReport {
    /// The named tenant's report.
    pub fn tenant(&self, name: &str) -> Option<&ServedTenant> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// The engine's side of the loop: the work-model estimate, the four
/// admission gates, the batcher, and real execution on the shard pool.
struct EngineTier<'c> {
    cfg: &'c EngineConfig,
    workload: &'c Arc<Workload>,
    model: WorkModel,
    batcher: Batcher,
    admission: Admission,
    pool: NotifyPool<(Vec<ExecOutcome>, u64)>,
    /// Every injected call, indexed by job id.
    calls: Vec<EngineCall>,
    admitted: Vec<u64>,
    shed: Vec<[u64; 4]>,
    exec_unc: Vec<u64>,
    exec_comp: Vec<u64>,
    checksum: Vec<u64>,
    dispatches: u64,
    coalesced_jobs: u64,
    max_batch: u64,
    dispatch_counter: cdpu_telemetry::metrics::Counter,
    shed_counters: Vec<cdpu_telemetry::metrics::Counter>,
}

impl Tier for EngineTier<'_> {
    const TELEMETRY: &'static str = "served";

    fn price(&mut self, id: u64, call: &CallRecord) -> (u64, u64) {
        let c = engine_call(self.cfg.seed, id, call, self.workload);
        self.calls.push(c);
        (self.model.estimate_ps(c.op, c.bytes), c.bytes)
    }

    /// Every admitted call queues, idle shard or not, behind the four
    /// per-tenant gates.
    fn admit(&mut self, job: &Job, _idle: bool, _queued: usize) -> Entry {
        let ti = job.tenant as usize;
        match self.admission.offer(ti, job.arrival_ps) {
            Verdict::Admit => {
                self.admitted[ti] += 1;
                Entry::Queue
            }
            Verdict::Shed(reason) => {
                let r = ShedReason::ALL
                    .iter()
                    .position(|&x| x == reason)
                    .expect("ShedReason::ALL lists every reason");
                self.shed[ti][r] += 1;
                self.shed_counters[r].incr();
                Entry::Shed
            }
        }
    }

    fn next_dispatch(&mut self, sched: &mut Scheduler, out: &mut Vec<Job>) -> bool {
        self.batcher.next_into(sched, out)
    }

    fn held(&self) -> usize {
        self.batcher.carried()
    }

    /// Real execution on a worker shard: submit, then block on this
    /// dispatch's completion (the virtual clock cannot advance past the
    /// dispatch without its outcome). A kernel's panic resumes here.
    fn serve(&mut self, jobs: &[Job]) -> u64 {
        let batch: Vec<EngineCall> = jobs.iter().map(|j| self.calls[j.id as usize]).collect();
        let wl = Arc::clone(self.workload);
        self.pool.submit(move || wl.execute_all(&batch));
        let (_, (outcomes, measured_ns)) = self.pool.recv().expect("one dispatch outstanding");
        debug_assert_eq!(outcomes.len(), jobs.len());
        let mut residency_ps = 0u64;
        for (job, out) in jobs.iter().zip(&outcomes) {
            let ti = job.tenant as usize;
            self.admission.on_dispatch(ti);
            self.exec_unc[ti] += out.uncompressed_bytes;
            self.exec_comp[ti] += out.compressed_bytes;
            self.checksum[ti] ^= mix64(out.check ^ job.id);
            let op = self.calls[job.id as usize].op;
            residency_ps += self.model.call_ps(op, out.uncompressed_bytes);
        }
        self.dispatches += 1;
        self.dispatch_counter.incr();
        self.max_batch = self.max_batch.max(jobs.len() as u64);
        if jobs.len() > 1 {
            self.coalesced_jobs += jobs.len() as u64;
        }
        self.model.offload_ps
            + match self.cfg.timing {
                Timing::Work => residency_ps.max(1),
                Timing::Measured => (measured_ns * 1000).max(1),
            }
    }

    fn on_complete(&mut self, now: u64, job: &Job, start_ps: u64) {
        let wait_ps = start_ps - job.arrival_ps;
        self.admission.on_complete(job.tenant as usize, now, wait_ps);
    }
}

/// The executable form of call `id`: bytes clamped to the workload, a
/// salt from the seed and the id.
fn engine_call(seed: u64, id: u64, call: &CallRecord, workload: &Workload) -> EngineCall {
    EngineCall {
        op: call.op,
        bytes: workload.clamp_bytes(call.uncompressed_bytes),
        level: call.level,
        salt: mix64(seed ^ id),
    }
}

/// Runs one engine to completion and reports.
///
/// The workload is shared (`Arc`) because building one is expensive and
/// every run of a sweep can reuse the same tape and ladder.
///
/// # Panics
///
/// Panics on an empty tenant list, zero shards, or a non-positive
/// offered load, and with the payload of a kernel that panicked.
pub fn run(cfg: &EngineConfig, workload: &Arc<Workload>) -> ServedReport {
    cfg.batch.validate();
    let registry = cdpu_telemetry::registry();
    let n = cfg.tenants.len();
    let mut tier = EngineTier {
        cfg,
        workload,
        model: WorkModel::calibrate(&cfg.params, &cfg.mem),
        batcher: Batcher::new(cfg.batch),
        admission: Admission::new(cfg.admission.clone(), n),
        pool: NotifyPool::new(cfg.shards as usize),
        calls: Vec::with_capacity(cfg.total_calls.min(1 << 20) as usize),
        admitted: vec![0; n],
        shed: vec![[0; 4]; n],
        exec_unc: vec![0; n],
        exec_comp: vec![0; n],
        checksum: vec![0; n],
        dispatches: 0,
        coalesced_jobs: 0,
        max_batch: 0,
        dispatch_counter: registry.counter("served.dispatches"),
        shed_counters: ShedReason::ALL
            .iter()
            .map(|r| registry.counter(&format!("served.shed.{}", r.label())))
            .collect(),
    };
    // The simulator's config of this workload: the same calls arrive at
    // the same instants in both tiers.
    let mut sim = cfg.as_sim();
    sim.record_events = cfg.record_events;
    let (r, end_ps) = event::serve(&mut tier, &sim);

    let tenants = r
        .tenants
        .into_iter()
        .enumerate()
        .map(|(i, t)| ServedTenant {
            name: t.name,
            weight: t.weight,
            injected: t.injected,
            admitted: tier.admitted[i],
            completed: t.completed,
            shed_burn: tier.shed[i][0],
            shed_quota: tier.shed[i][1],
            shed_bucket: tier.shed[i][2],
            shed_queue: tier.shed[i][3],
            wait: t.wait,
            total: t.total,
            executed_uncompressed_bytes: tier.exec_unc[i],
            checksum: tier.checksum[i],
        })
        .collect();
    let exec_unc: u64 = tier.exec_unc.iter().sum();
    ServedReport {
        timing: cfg.timing,
        sched: cfg.sched,
        offered_load: cfg.offered_load,
        shards: cfg.shards,
        injected: r.injected,
        admitted: tier.admitted.iter().sum(),
        completed: r.completed,
        shed: r.dropped,
        wait: r.wait,
        total: r.total,
        utilization: r.utilization,
        // Bytes really processed, which the decode ladder's steps move
        // off the calls' nominal sizes.
        goodput_gbps: exec_unc as f64 * 1000.0 / end_ps.max(1) as f64,
        dispatches: tier.dispatches,
        coalesced_jobs: tier.coalesced_jobs,
        mean_batch: if tier.dispatches == 0 {
            0.0
        } else {
            r.completed as f64 / tier.dispatches as f64
        },
        max_batch: tier.max_batch,
        peak_queue_depth: r.peak_queue_depth,
        executed_uncompressed_bytes: exec_unc,
        executed_compressed_bytes: tier.exec_comp.iter().sum(),
        checksum: tier
            .checksum
            .iter()
            .fold(0u64, |acc, &c| acc ^ mix64(c ^ acc.rotate_left(17))),
        tenants,
        events: r.events,
    }
}

/// Saturation throughput: pushes every call through the shard pool at
/// full concurrency (no virtual-time pacing, batches formed greedily by
/// the policy) and measures wall-clock. This is where real multi-shard
/// parallelism shows — the engine's closed loop intentionally serializes
/// on each dispatch to keep the virtual clock exact.
///
/// Returns `(uncompressed_bytes, wall_seconds)`.
pub fn saturation_run(
    workload: &Arc<Workload>,
    calls: &[EngineCall],
    shards: usize,
    batch: BatchPolicy,
) -> (u64, f64) {
    batch.validate();
    let mut pool: NotifyPool<(Vec<ExecOutcome>, u64)> = NotifyPool::new(shards);
    let start = std::time::Instant::now();
    let mut i = 0;
    while i < calls.len() {
        let mut end = i + 1;
        if calls[i].bytes <= batch.small_bytes {
            while end < calls.len()
                && end - i < batch.max_jobs
                && calls[end].bytes <= batch.small_bytes
            {
                end += 1;
            }
        }
        let chunk: Vec<EngineCall> = calls[i..end].to_vec();
        let wl = Arc::clone(workload);
        pool.submit(move || wl.execute_all(&chunk));
        i = end;
    }
    let done = pool.drain();
    let wall = start.elapsed().as_secs_f64();
    let bytes = done
        .iter()
        .flat_map(|(_, (outs, _))| outs.iter())
        .map(|o| o.uncompressed_bytes)
        .sum();
    (bytes, wall)
}

/// Materializes the engine's admitted-or-not call list for
/// [`saturation_run`]: the same bodies the engine would inject for `cfg`,
/// in arrival order.
pub fn materialize_calls(cfg: &EngineConfig, workload: &Workload) -> Vec<EngineCall> {
    arrivals::schedule(cfg.seed, &cfg.tenants, &cfg.as_sim().rates(), cfg.total_calls)
        .iter()
        .map(|a| engine_call(cfg.seed, a.id, &a.call, workload))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenants::fleet_tenants;
    use crate::workload::WorkloadConfig;
    use std::sync::OnceLock;

    /// One shared tiny workload for all engine tests (bank builds are the
    /// slow part).
    fn wl() -> Arc<Workload> {
        static WL: OnceLock<Arc<Workload>> = OnceLock::new();
        Arc::clone(WL.get_or_init(|| Arc::new(Workload::build(&WorkloadConfig::tiny()))))
    }

    fn small_cfg(load: f64) -> EngineConfig {
        let mut cfg = EngineConfig::new(fleet_tenants(4));
        cfg.total_calls = 600;
        cfg.offered_load = load;
        cfg.shards = 2;
        cfg
    }

    #[test]
    fn conservation_holds_and_execution_is_real() {
        let r = run(&small_cfg(0.7), &wl());
        assert_eq!(r.injected, 600);
        assert_eq!(r.completed + r.shed, r.injected, "no lost jobs");
        assert_eq!(r.completed, r.admitted, "drain completes every admission");
        assert!(r.executed_uncompressed_bytes > 0, "real bytes must flow");
        assert!(r.executed_compressed_bytes > 0);
        assert_ne!(r.checksum, 0, "outputs must fold into a witness");
        assert!(r.utilization > 0.0 && r.goodput_gbps > 0.0);
    }

    #[test]
    fn work_timing_is_bit_identical_across_runs() {
        let mut cfg = small_cfg(0.8);
        cfg.record_events = true;
        let a = run(&cfg, &wl());
        let b = run(&cfg, &wl());
        assert_eq!(a, b, "same seed+config must be bit-identical");
        let mut c = cfg.clone();
        c.seed ^= 1;
        assert_ne!(run(&c, &wl()), a, "different seed must differ");
    }

    #[test]
    fn batching_coalesces_small_calls() {
        // An all-small workload at high load on one shard: the queue
        // builds, and every pop is batchable.
        let tenants = vec![crate::tenants::TenantSpec {
            name: "small".into(),
            weight: 1.0,
            mix: crate::tenants::CallMix::Fixed {
                op: AlgoOp::new(cdpu_fleet::Algorithm::Snappy, cdpu_fleet::Direction::Decompress),
                bytes: 1024,
                level: None,
            },
        }];
        let mut cfg = EngineConfig::new(tenants);
        cfg.total_calls = 400;
        cfg.offered_load = 0.95;
        cfg.shards = 1;
        cfg.batch = BatchPolicy {
            small_bytes: 16 * 1024,
            max_jobs: 8,
        };
        let r = run(&cfg, &wl());
        assert!(r.mean_batch > 1.0, "ρ=0.9 must queue enough to coalesce");
        assert!(r.max_batch > 1);
        assert!(r.coalesced_jobs > 0);
        assert!(r.dispatches < r.completed, "fewer dispatches than jobs");
    }

    #[test]
    fn engine_arrivals_match_shared_schedule() {
        let mut cfg = small_cfg(0.7);
        cfg.record_events = true;
        let r = run(&cfg, &wl());
        let rates = cfg.as_sim().rates();
        let sched = arrivals::schedule(cfg.seed, &cfg.tenants, &rates, cfg.total_calls);
        let logged: Vec<_> = r.events.iter().filter(|e| e.kind == 0).collect();
        assert_eq!(logged.len(), sched.len());
        for (log, s) in logged.iter().zip(&sched) {
            assert_eq!((log.time_ps, log.tenant, log.job), (s.time_ps, s.tenant, s.id));
        }
    }

    #[test]
    fn measured_timing_runs_and_reports() {
        let mut cfg = small_cfg(0.5);
        cfg.timing = Timing::Measured;
        cfg.total_calls = 200;
        let r = run(&cfg, &wl());
        assert_eq!(r.timing, Timing::Measured);
        assert_eq!(r.completed + r.shed, r.injected);
        assert!(r.wait.mean_ns >= 0.0);
    }

    #[test]
    fn saturation_run_processes_all_bytes() {
        let cfg = {
            let mut c = small_cfg(0.7);
            c.total_calls = 100;
            c
        };
        let calls = materialize_calls(&cfg, &wl());
        assert_eq!(calls.len(), 100);
        let (bytes, secs) = saturation_run(&wl(), &calls, 2, BatchPolicy::default());
        assert!(bytes > 0 && secs > 0.0);
    }
}
