//! The serving-engine workloads. Both push the same kind of call list —
//! fleet-mix calls from `fleet_tenants(8)` over a `cdpu_serve::Workload`
//! tape — through the real engine:
//!
//! - `serve_saturation`: `engine::saturation_run` on 2 shards, the whole
//!   data path at full concurrency (ladder lookup, `execute_all`,
//!   `NotifyPool` handoff, batching).
//! - `serve_paced`: `engine::run` under `Timing::Measured`, open loop at
//!   a fixed 500 calls/s, where queueing, scheduling and admission matter
//!   and pool parallelism does not (the engine blocks per dispatch).

use crate::estimator::{p50_p95_us, Series};
use crate::harness::{E2e, Report, Workload, THREADS};
use crate::inputs::{fold_u64, sub_seed, FNV_BASIS, SHAPE_SEED};
use crate::spans::{Recorder, Span};
use cdpu_fleet::{AlgoOp, Direction};
use cdpu_serve::admission::ShedConfig;
use cdpu_serve::engine::{self, EngineConfig, ServedReport, Timing};
use cdpu_serve::event::LogRecord;
use cdpu_serve::tenants::fleet_tenants;
use cdpu_serve::workload::{EngineCall, ExecOutcome, WorkloadConfig};
use cdpu_serve::{analytic_price_ps, arrivals, BatchPolicy, SchedKind, PS_PER_SEC};
use cdpu_util::rng::mix64;
use std::sync::Arc;
use std::time::Instant;

/// Calls per `serve_saturation` round.
pub const SATURATION_CALLS: u64 = 400;
/// Calls per `serve_paced` round: 12 samples beyond p95.
pub const PACED_CALLS: u64 = 250;
/// The open-loop arrival rate, a constant of the benchmark.
pub const PACED_RATE_CPS: f64 = 500.0;
/// Passes that time every call on its own, one thread, for the
/// per-direction rates and the service-latency percentiles.
const SERIAL_PASSES: u64 = 5;

/// A built tape, a materialized call list and what each call must produce.
pub struct ServeInputs {
    pub wl: Arc<cdpu_serve::Workload>,
    pub cfg: EngineConfig,
    pub calls: Vec<EngineCall>,
    /// Outcomes of one serial pass over `calls`, taken during set-up (it
    /// is also the ladder warm-up round).
    pub reference: Vec<ExecOutcome>,
    pub build_s: f64,
    pub warm_s: f64,
}

impl ServeInputs {
    pub fn new(seed: u64, total_calls: u64) -> Self {
        let t = Instant::now();
        let wl = Arc::new(cdpu_serve::Workload::build(&WorkloadConfig {
            seed: sub_seed(seed, "serve.tape"),
            ..WorkloadConfig::default()
        }));
        let build_s = t.elapsed().as_secs_f64();
        let mut cfg = EngineConfig::new(fleet_tenants(8));
        // The call bodies and the arrival schedule are constants of the
        // benchmark; `--seed` picks the bytes they run over (see `inputs`).
        cfg.seed = SHAPE_SEED;
        cfg.shards = THREADS as u32;
        cfg.total_calls = total_calls;
        let calls = engine::materialize_calls(&cfg, &wl);
        let t = Instant::now();
        let (reference, _) = wl.execute_all(&calls);
        let warm_s = t.elapsed().as_secs_f64();
        ServeInputs {
            wl,
            cfg,
            calls,
            reference,
            build_s,
            warm_s,
        }
    }

    /// Fold of the call list (op, size, level and salt of every call, in
    /// arrival order) and of what the calls read and produced on this
    /// seed's tape.
    pub fn calls_hash(&self) -> u64 {
        let outcomes = self.reference.iter().fold(FNV_BASIS, |h, o| {
            [o.uncompressed_bytes, o.compressed_bytes, o.check]
                .into_iter()
                .fold(h, fold_u64)
        });
        let ops = AlgoOp::all();
        self.calls.iter().fold(outcomes, |h, c| {
            let op = ops.iter().position(|&o| o == c.op).unwrap_or(usize::MAX);
            [
                op as u64,
                c.bytes,
                c.level.map_or(0, |l| l as u64 + 1),
                c.salt,
            ]
            .into_iter()
            .fold(h, fold_u64)
        })
    }

    pub fn uncompressed_bytes(&self) -> u64 {
        self.reference.iter().map(|o| o.uncompressed_bytes).sum()
    }

    pub fn compressed_bytes(&self) -> u64 {
        self.reference.iter().map(|o| o.compressed_bytes).sum()
    }
}

/// Per-call fastest service time, one thread, through `execute_all`
/// (whose own clock brackets exactly the codec call).
struct SerialTimes {
    min_ns: Vec<u64>,
    passes: u64,
    mismatches: u64,
}

impl SerialTimes {
    fn new(calls: usize) -> Self {
        SerialTimes {
            min_ns: vec![u64::MAX; calls],
            passes: 0,
            mismatches: 0,
        }
    }

    fn pass(&mut self, inp: &ServeInputs, mut rec: Option<&mut Recorder>) {
        for (i, call) in inp.calls.iter().enumerate() {
            let root = rec
                .as_deref_mut()
                .and_then(|r| r.open("call", None, i as u64));
            let t0 = Instant::now();
            let (outcomes, ns) = inp.wl.execute_all(std::slice::from_ref(call));
            if let Some(r) = rec.as_deref_mut() {
                r.record("workload.execute_all", t0, ns as f64 / 1e9, root, i as u64);
            }
            self.min_ns[i] = self.min_ns[i].min(ns);
            if outcomes[0] != inp.reference[i] {
                self.mismatches += 1;
            }
            if let Some(r) = rec.as_deref_mut() {
                r.close(root);
            }
        }
        self.passes += 1;
    }

    /// Uncompressed MB per second inside the calls of one direction.
    fn mb_s(&self, inp: &ServeInputs, dir: Direction) -> f64 {
        let (mut bytes, mut ns) = (0u64, 0u64);
        for ((call, out), &min) in inp.calls.iter().zip(&inp.reference).zip(&self.min_ns) {
            if call.op.dir == dir {
                bytes += out.uncompressed_bytes;
                ns += min;
            }
        }
        bytes as f64 / 1e6 / (ns as f64 / 1e9)
    }
}

pub struct ServeSaturation {
    inp: ServeInputs,
    serial: SerialTimes,
    saturation: Series,
    failed: u64,
}

impl Workload for ServeSaturation {
    const NAME: &'static str = "serve_saturation";
    /// One CPU per shard: full concurrency is the point.
    const CPUS: usize = THREADS;
    const LATENCY_PASSES: u64 = SERIAL_PASSES;

    fn inputs_hash(&self) -> u64 {
        self.inp.calls_hash()
    }

    fn latency_pass(&mut self, rec: Option<&mut Recorder>) {
        self.serial.pass(&self.inp, rec);
    }

    fn setup(seed: u64) -> Self {
        let inp = ServeInputs::new(seed, SATURATION_CALLS);
        ServeSaturation {
            serial: SerialTimes::new(inp.calls.len()),
            saturation: Series::new("saturation_run", inp.uncompressed_bytes()),
            inp,
            failed: 0,
        }
    }

    fn round(&mut self, mut rec: Option<&mut Recorder>) -> f64 {
        let round = self.saturation.secs.len() as u64;
        let root = rec
            .as_deref_mut()
            .and_then(|r| r.open("engine.saturation_run", None, round));
        let (bytes, wall) = engine::saturation_run(
            &self.inp.wl,
            &self.inp.calls,
            THREADS,
            BatchPolicy::default(),
        );
        if let Some(r) = rec {
            r.close(root);
        }
        self.saturation.secs.push(wall);
        if bytes != self.saturation.bytes {
            self.failed += 1;
        }
        wall
    }

    fn report(&self) -> Report {
        let calls = self.inp.calls.len() as u64;
        let (call_p50_us, call_p95_us) = p50_p95_us(&self.serial.min_ns);
        Report {
            e2e: E2e {
                compress_mb_s: self.serial.mb_s(&self.inp, Direction::Compress),
                decompress_mb_s: self.serial.mb_s(&self.inp, Direction::Decompress),
                ratio: self.inp.uncompressed_bytes() as f64 / self.inp.compressed_bytes() as f64,
                goodput_mb_s: self.saturation.mb_s(),
                call_p50_us,
                call_p95_us,
            },
            attempted: (self.saturation.secs.len() as u64 + self.serial.passes) * calls,
            failed: self.failed + self.serial.mismatches,
            series: vec![self.saturation.clone()],
        }
    }
}

/// The engine configuration of one paced run: `base` with measured
/// timing, FCFS, the event log on, the burn gate rescaled to software
/// time, and `offered_load` chosen so arrivals come at `rate_cps`.
pub fn paced_config(base: &EngineConfig, rate_cps: f64) -> EngineConfig {
    let mut cfg = base.clone();
    cfg.timing = Timing::Measured;
    cfg.sched = SchedKind::Fcfs;
    cfg.record_events = true;
    // The default gate (100 µs wait SLO, 1 ms windows) is scaled for the
    // modelled accelerator; software calls take milliseconds. With a
    // 100 ms SLO over 200 ms windows a slow phase of the host (2× for
    // seconds, seen here) sheds nothing; an engine slowed several-fold
    // does, and shed calls are failures.
    cfg.admission.shed = Some(ShedConfig {
        window_ps: PS_PER_SEC / 5,
        wait_slo_ps: PS_PER_SEC / 10,
        ..ShedConfig::default()
    });
    // `calibrated_rates` turns ρ into λ = ρ·shards / E[S]; invert it.
    let mean_service_ps = arrivals::mean_service_ps(cfg.seed, &cfg.tenants, |call| {
        analytic_price_ps(call, &cfg.params, &cfg.mem)
    });
    cfg.offered_load = rate_cps / PS_PER_SEC as f64 * mean_service_ps / f64::from(cfg.shards);
    cfg
}

/// Total arrival rate in calls/s the engine will derive from `cfg`.
pub fn arrival_rate_cps(cfg: &EngineConfig) -> f64 {
    arrivals::calibrated_rates(
        cfg.seed,
        &cfg.tenants,
        cfg.offered_load,
        cfg.shards,
        |call| analytic_price_ps(call, &cfg.params, &cfg.mem),
    )
    .iter()
    .sum::<f64>()
        * PS_PER_SEC as f64
}

/// Per-job times read off the engine's event log (virtual clock).
pub struct JobTimes {
    pub tenant: Vec<u32>,
    pub arrival_ps: Vec<u64>,
    pub start_ps: Vec<u64>,
    pub departure_ps: Vec<u64>,
}

impl JobTimes {
    pub fn from_events(events: &[LogRecord], jobs: usize) -> Self {
        let mut t = JobTimes {
            tenant: vec![0; jobs],
            arrival_ps: vec![0; jobs],
            start_ps: vec![0; jobs],
            departure_ps: vec![0; jobs],
        };
        for e in events {
            let j = e.job as usize;
            match e.kind {
                0 => {
                    t.tenant[j] = e.tenant;
                    t.arrival_ps[j] = e.time_ps;
                }
                1 => t.start_ps[j] = e.time_ps,
                2 => t.departure_ps[j] = e.time_ps,
                _ => {}
            }
        }
        t
    }

    /// Arrival → completion per completed job, nanoseconds.
    pub fn sojourn_ns(&self) -> Vec<u64> {
        self.span_ns(&self.arrival_ps, &self.departure_ps)
    }

    /// Arrival → dispatch per completed job, nanoseconds.
    pub fn wait_ns(&self) -> Vec<u64> {
        self.span_ns(&self.arrival_ps, &self.start_ps)
    }

    fn span_ns(&self, from: &[u64], to: &[u64]) -> Vec<u64> {
        (0..from.len())
            .filter(|&j| self.departure_ps[j] > 0)
            .map(|j| (to[j] - from[j]) / 1000)
            .collect()
    }

    /// Per job: a root from arrival to completion on the tenant's track,
    /// with its queue (admit → dispatch) and execute (dispatch → complete)
    /// children. The engine's clock is virtual, so the spans are laid out
    /// from `origin_ns`, where the run started on the wall clock.
    fn record(&self, rec: &mut Recorder, origin_ns: u64) {
        for j in (0..self.tenant.len()).filter(|&j| self.departure_ps[j] > 0) {
            let at = |ps: u64| origin_ns + ps / 1000;
            let mut push = |name: &str, from: u64, to: u64, parent| {
                rec.push(Span {
                    name: name.to_string(),
                    start_ns: at(from),
                    end_ns: at(to),
                    parent,
                    call_id: j as u64,
                    track: 1 + self.tenant[j],
                })
            };
            let root = push("engine.job", self.arrival_ps[j], self.departure_ps[j], None);
            push("engine.queue", self.arrival_ps[j], self.start_ps[j], root);
            push(
                "engine.execute",
                self.start_ps[j],
                self.departure_ps[j],
                root,
            );
        }
    }
}

/// The checksum `engine::run` must report when every call of `inp`
/// completes with its reference outcome.
fn expected_checksum(inp: &ServeInputs, jobs: &JobTimes) -> u64 {
    let mut per_tenant = vec![0u64; inp.cfg.tenants.len()];
    for (j, out) in inp.reference.iter().enumerate() {
        per_tenant[jobs.tenant[j] as usize] ^= mix64(out.check ^ j as u64);
    }
    per_tenant
        .iter()
        .fold(0u64, |acc, &c| acc ^ mix64(c ^ acc.rotate_left(17)))
}

/// Counts what is wrong with one paced run: shed calls, lost calls, and
/// executed bytes or output checksums that differ from the reference.
pub fn paced_failures(inp: &ServeInputs, report: &ServedReport, jobs: &JobTimes) -> u64 {
    let mut failed = report.shed;
    if report.completed + report.shed != report.injected || report.injected != inp.cfg.total_calls {
        failed += 1;
    }
    if report.shed == 0
        && (report.executed_uncompressed_bytes != inp.uncompressed_bytes()
            || report.executed_compressed_bytes != inp.compressed_bytes()
            || report.checksum != expected_checksum(inp, jobs))
    {
        failed += 1;
    }
    failed
}

pub struct ServePaced {
    inp: ServeInputs,
    cfg: EngineConfig,
    serial: SerialTimes,
    /// Host seconds per `engine::run`.
    host: Series,
    /// Per round: p50 and p95 sojourn (µs).
    p50_us: Vec<f64>,
    p95_us: Vec<f64>,
    failed: u64,
}

impl Workload for ServePaced {
    const NAME: &'static str = "serve_paced";
    const LATENCY_PASSES: u64 = SERIAL_PASSES;

    fn inputs_hash(&self) -> u64 {
        self.inp.calls_hash()
    }

    fn latency_pass(&mut self, rec: Option<&mut Recorder>) {
        self.serial.pass(&self.inp, rec);
    }

    fn setup(seed: u64) -> Self {
        let inp = ServeInputs::new(seed, PACED_CALLS);
        let cfg = paced_config(&inp.cfg, PACED_RATE_CPS);
        let rate = arrival_rate_cps(&cfg);
        assert!(
            (rate / PACED_RATE_CPS - 1.0).abs() < 1e-9,
            "derived arrival rate {rate} calls/s, want {PACED_RATE_CPS}"
        );
        ServePaced {
            serial: SerialTimes::new(inp.calls.len()),
            host: Series::new("engine.run", inp.uncompressed_bytes()),
            inp,
            cfg,
            p50_us: Vec::new(),
            p95_us: Vec::new(),
            failed: 0,
        }
    }

    fn round(&mut self, rec: Option<&mut Recorder>) -> f64 {
        let origin_ns = rec.as_deref().map_or(0, Recorder::now_ns);
        let t0 = Instant::now();
        let report = engine::run(&self.cfg, &self.inp.wl);
        let wall = t0.elapsed().as_secs_f64();
        self.host.secs.push(wall);

        let jobs = JobTimes::from_events(&report.events, self.inp.calls.len());
        self.failed += paced_failures(&self.inp, &report, &jobs);
        let (p50, p95) = p50_p95_us(&jobs.sojourn_ns());
        self.p50_us.push(p50);
        self.p95_us.push(p95);
        if let Some(r) = rec {
            r.record(
                "engine.run",
                t0,
                wall,
                None,
                self.host.secs.len() as u64 - 1,
            );
            jobs.record(r, origin_ns);
        }
        wall
    }

    fn report(&self) -> Report {
        let calls = self.inp.calls.len() as u64;
        let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        Report {
            e2e: E2e {
                compress_mb_s: self.serial.mb_s(&self.inp, Direction::Compress),
                decompress_mb_s: self.serial.mb_s(&self.inp, Direction::Decompress),
                ratio: self.inp.uncompressed_bytes() as f64 / self.inp.compressed_bytes() as f64,
                // On the engine's clock goodput is set by the arrival rate;
                // on the host's it is how fast the engine gets through the
                // list, one blocking dispatch after the other.
                goodput_mb_s: self.host.mb_s(),
                call_p50_us: fastest(&self.p50_us),
                call_p95_us: fastest(&self.p95_us),
            },
            attempted: (self.host.secs.len() as u64 + self.serial.passes) * calls,
            failed: self.failed + self.serial.mismatches,
            series: vec![
                self.host.clone(),
                series_of("sojourn_p50_us", &self.p50_us),
                series_of("sojourn_p95_us", &self.p95_us),
            ],
        }
    }
}

/// Wraps per-round values (not seconds) so the table prints their
/// fastest, median and quartiles like any other series.
fn series_of(name: &str, values: &[f64]) -> Series {
    Series {
        name: name.to_string(),
        bytes: 0,
        secs: values.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_rate_derivation_reproduces_500_calls_per_second() {
        let mut base = EngineConfig::new(fleet_tenants(8));
        base.shards = THREADS as u32;
        for seed in [1u64, 2, SHAPE_SEED] {
            base.seed = seed;
            let cfg = paced_config(&base, PACED_RATE_CPS);
            let rate = arrival_rate_cps(&cfg);
            assert!((rate - 500.0).abs() < 1e-6, "seed {seed}: {rate}");
            assert!(cfg.offered_load > 0.0 && cfg.offered_load.is_finite());
        }
    }

    #[test]
    fn job_times_follow_the_event_log() {
        let ev = |time_ps, kind, job| LogRecord {
            time_ps,
            kind,
            tenant: 3,
            job,
        };
        let events = [
            ev(1_000, 0, 0),
            ev(2_000, 0, 1),
            ev(3_000, 1, 0),
            ev(9_000, 2, 0),
            ev(9_000, 3, 1),
        ];
        let jobs = JobTimes::from_events(&events, 2);
        // Job 1 was shed: it has no sojourn.
        assert_eq!(jobs.sojourn_ns(), vec![8]);
        assert_eq!(jobs.wait_ns(), vec![2]);
        let mut rec = Recorder::new(8);
        jobs.record(&mut rec, 100);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["engine.job", "engine.queue", "engine.execute"]);
        assert_eq!(rec.spans()[0].track, 4);
        assert_eq!(rec.self_times_ns()[0], 0);
    }
}
