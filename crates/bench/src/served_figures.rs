//! Serving-engine figures: the measured execution engine
//! (`cdpu_serve::engine`) closed against the analytic simulator
//! (`cdpu_serve::sim`) on the identical seeded workload.
//!
//! Three experiments, all deterministic under [`Timing::Work`]:
//!
//! - **Closed loop** — simulator and engine run the same arrivals at
//!   three offered loads; the table prints both p99 waits and the
//!   per-point deviation. Tenants use fixed quarter-octave call sizes
//!   within the workload's call cap, so the engine executes exactly the
//!   bytes the simulator prices and the residual deviation isolates the
//!   engine's piecewise-linear work model against the full analytic
//!   curve.
//! - **Fairness, both tiers** — the heavy/small tenant surge of
//!   `serve_figures::serve_fairness`, replayed on the engine: DRR must
//!   rescue the small tenant's tail in the measured tier too.
//! - **Batching** — small-call coalescing under Chiplet placement, where
//!   the 150 µs per-dispatch offload overhead is the latency floor the
//!   batcher amortizes.
//!
//! Everything forks its simulation seed from [`Scale::seed`] by fixed
//! tags and renders across the `cdpu-par` pool; serial and parallel runs
//! are byte-identical.

use std::sync::Arc;

use cdpu_fleet::{AlgoOp, Algorithm, Direction};
use cdpu_hwsim::params::{CdpuParams, Placement};
use cdpu_serve::workload::WorkloadConfig;
use cdpu_serve::{
    engine, sim, AdmissionConfig, BatchPolicy, CallMix, EngineConfig, SchedKind, ServeReport,
    ServedReport, TenantSpec, Timing, Workload,
};
use cdpu_util::rng::mix64;

use crate::cli::ServedOpts;
use crate::{render_table, Scale};

/// Stream tags so the experiments never share a simulation seed.
const TAG_LOOP: u64 = 0x5352_5644_4601;
const TAG_FAIR: u64 = 0x5352_5644_4602;
const TAG_BATCH: u64 = 0x5352_5644_4603;

/// Offered loads of the closed-loop comparison.
pub const LOOP_LOADS: [f64; 3] = [0.5, 0.75, 0.9];

/// Calls injected per engine run. Real execution makes engine calls ~100×
/// costlier than simulated ones, so this is a tenth of the simulator
/// figures' budget (default scale: 2,400 calls per point; tiny: 200).
pub fn served_calls(scale: Scale) -> u64 {
    (scale.files_per_suite as u64).max(1) * 25
}

/// Builds the payload workload for `scale`: one bank-kind's worth of tape
/// per corpus kind, calls capped like every other figure at this scale.
pub fn workload(scale: Scale) -> Arc<Workload> {
    Arc::new(Workload::build(&WorkloadConfig {
        seed: scale.seed,
        tape_bytes: scale.bank_bytes_per_kind * cdpu_corpus::ALL_KINDS.len(),
        max_call_bytes: scale.max_call_bytes,
    }))
}

/// Nanoseconds rendered as microseconds with one decimal.
fn us(ns: f64) -> String {
    format!("{:.1}", ns / 1000.0)
}

fn fixed(name: &str, weight: f64, algo: Algorithm, dir: Direction, bytes: u64) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        weight,
        mix: CallMix::Fixed {
            op: AlgoOp::new(algo, dir),
            bytes,
            level: (algo == Algorithm::Zstd).then_some(3),
        },
    }
}

/// The closed-loop tenant population: five fixed-size tenants spanning
/// 4–64 KiB on quarter-octave sizes (ladder rounding is exact there) and
/// both directions of three codecs, all within even the tiny scale's
/// call cap so the engine never clamps what the simulator priced.
fn loop_tenants() -> Vec<TenantSpec> {
    use Direction::{Compress, Decompress};
    vec![
        fixed("snappy-d-4k", 0.30, Algorithm::Snappy, Decompress, 4 << 10),
        fixed("snappy-c-16k", 0.20, Algorithm::Snappy, Compress, 16 << 10),
        fixed("zstd-d-64k", 0.20, Algorithm::Zstd, Decompress, 64 << 10),
        fixed("zstd-c-32k", 0.15, Algorithm::Zstd, Compress, 32 << 10),
        fixed("flate-d-8k", 0.15, Algorithm::Flate, Decompress, 8 << 10),
    ]
}

/// An engine config set up for simulator comparison: open admission (the
/// simulator has no shedding) and no batching (the simulator dispatches
/// one job at a time), deterministic work timing.
fn comparison_cfg(seed: u64, tenants: Vec<TenantSpec>, shards: u32, load: f64) -> EngineConfig {
    let mut cfg = EngineConfig::new(tenants);
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.offered_load = load;
    cfg.admission = AdmissionConfig::open();
    cfg.batch = BatchPolicy::off();
    cfg.timing = Timing::Work;
    cfg
}

/// One closed-loop comparison point: simulator and engine reports for the
/// identical workload at one offered load.
pub struct LoopPoint {
    /// Offered load ρ.
    pub load: f64,
    /// The analytic simulator's report.
    pub sim: ServeReport,
    /// The execution engine's report.
    pub engine: ServedReport,
}

impl LoopPoint {
    /// Engine-vs-simulator p99-wait deviation, percent (signed).
    pub fn deviation_pct(&self) -> f64 {
        let s = self.sim.wait.p99_ns.max(1.0);
        (self.engine.wait.p99_ns - s) / s * 100.0
    }
}

/// Runs the closed-loop sweep over [`LOOP_LOADS`].
pub fn loop_points(scale: Scale, opts: &ServedOpts, wl: &Arc<Workload>) -> Vec<LoopPoint> {
    let calls = served_calls(scale);
    cdpu_par::par_map(&LOOP_LOADS, |&load| {
        let mut cfg = comparison_cfg(
            mix64(scale.seed ^ TAG_LOOP),
            loop_tenants(),
            opts.shards,
            load,
        );
        cfg.total_calls = calls;
        LoopPoint {
            load,
            sim: sim::run(&cfg.as_sim()),
            engine: engine::run(&cfg, wl),
        }
    })
}

/// The fairness surge tenants: a heavy ZStd-decompress tenant (384 KiB,
/// clamped to the workload's call cap so tiny scales stay comparable)
/// against a 4 KiB Snappy-decompress tenant.
fn fairness_tenants(wl: &Workload) -> Vec<TenantSpec> {
    use Direction::Decompress;
    let heavy = (3u64 << 17).min(wl.max_call_bytes());
    vec![
        fixed("heavy", 0.5, Algorithm::Zstd, Decompress, heavy),
        fixed("small", 0.5, Algorithm::Snappy, Decompress, 4096),
    ]
}

/// Runs the fairness surge under all three schedulers in both tiers
/// (ρ=0.9, two shards), in [`SchedKind::ALL`] order.
pub fn fairness_points(
    scale: Scale,
    wl: &Arc<Workload>,
) -> Vec<(SchedKind, ServeReport, ServedReport)> {
    let calls = served_calls(scale);
    cdpu_par::par_map(&SchedKind::ALL, |&sched| {
        let mut cfg = comparison_cfg(mix64(scale.seed ^ TAG_FAIR), fairness_tenants(wl), 2, 0.9);
        cfg.sched = sched;
        cfg.total_calls = calls;
        (sched, sim::run(&cfg.as_sim()), engine::run(&cfg, wl))
    })
}

/// Small-tenant p99 wait improvement, FCFS over DRR, from a fairness
/// sweep — the deterministic ratio `bench --regress` gates.
pub fn small_tenant_drr_speedup(points: &[(SchedKind, ServeReport, ServedReport)]) -> f64 {
    let p99 = |k: SchedKind| {
        points
            .iter()
            .find(|(s, _, _)| *s == k)
            .and_then(|(_, _, e)| e.tenant("small"))
            .map_or(f64::NAN, |t| t.wait.p99_ns)
    };
    p99(SchedKind::Fcfs) / p99(SchedKind::Drr).max(1.0)
}

/// Runs the batching experiment: an all-small Snappy-decompress tenant at
/// ρ=0.9 on one shard under **Chiplet** placement (nonzero per-dispatch
/// offload — under RoCC's zero overhead, coalescing changes nothing).
/// Returns `(batch-off report, batch-on report)`; the p99-wait ratio
/// off/on is the second gated metric.
pub fn batch_points(
    scale: Scale,
    opts: &ServedOpts,
    wl: &Arc<Workload>,
) -> (ServedReport, ServedReport) {
    let tenants = vec![fixed(
        "small",
        1.0,
        Algorithm::Snappy,
        Direction::Decompress,
        1024,
    )];
    let policies = [BatchPolicy::off(), opts.batch_policy()];
    let mut reports = cdpu_par::par_map(&policies, |&batch| {
        let mut cfg = comparison_cfg(mix64(scale.seed ^ TAG_BATCH), tenants.clone(), 1, 0.9);
        cfg.params = CdpuParams::full_size(Placement::Chiplet);
        cfg.batch = batch;
        cfg.total_calls = served_calls(scale);
        engine::run(&cfg, wl)
    });
    let on = reports.pop().expect("two policies");
    let off = reports.pop().expect("two policies");
    (off, on)
}

/// Batch-off over batch-on p99 wait (>1 when coalescing helps).
pub fn batch_speedup(off: &ServedReport, on: &ServedReport) -> f64 {
    off.wait.p99_ns / on.wait.p99_ns.max(1.0)
}

/// Renders the full served figure: closed loop, fairness, batching.
pub fn served(scale: Scale, opts: &ServedOpts) -> String {
    let wl = workload(scale);
    let loop_pts = loop_points(scale, opts, &wl);
    let fair_pts = fairness_points(scale, &wl);
    let (batch_off, batch_on) = batch_points(scale, opts, &wl);
    render(scale, opts, &loop_pts, &fair_pts, &batch_off, &batch_on)
}

fn render(
    scale: Scale,
    opts: &ServedOpts,
    loop_pts: &[LoopPoint],
    fair_pts: &[(SchedKind, ServeReport, ServedReport)],
    batch_off: &ServedReport,
    batch_on: &ServedReport,
) -> String {
    let mut out = String::new();

    let rows: Vec<Vec<String>> = loop_pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.load),
                format!("{:.3}", p.sim.utilization),
                format!("{:.3}", p.engine.utilization),
                us(p.sim.wait.p99_ns),
                us(p.engine.wait.p99_ns),
                format!("{:+.1}%", p.deviation_pct()),
                format!("{:.2}", p.engine.goodput_gbps),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &format!(
            "Serving engine vs simulator: p99 wait over offered load \
             ({} calls/point, {} shards, FCFS, work timing)",
            served_calls(scale),
            opts.shards
        ),
        &[
            "rho",
            "sim util",
            "eng util",
            "sim p99 wait us",
            "eng p99 wait us",
            "deviation",
            "eng GB/s",
        ],
        &rows,
    ));
    out.push_str(
        "deviation isolates the engine's piecewise-linear work model \
         against the analytic service curve\n\n",
    );

    let mut rows = Vec::new();
    for (sched, s, e) in fair_pts {
        for name in ["heavy", "small"] {
            let st = s.tenant(name).expect("sim tenant");
            let et = e.tenant(name).expect("engine tenant");
            rows.push(vec![
                sched.label().to_string(),
                name.to_string(),
                us(st.wait.p99_ns),
                us(et.wait.p99_ns),
                format!("{}", et.completed),
            ]);
        }
    }
    out.push_str(&render_table(
        "Serving engine vs simulator: scheduler fairness under a heavy-tenant surge \
         (rho=0.9, 2 shards)",
        &["sched", "tenant", "sim p99 wait us", "eng p99 wait us", "completed"],
        &rows,
    ));
    let sim_p99 = |k: SchedKind| {
        fair_pts
            .iter()
            .find(|(s, _, _)| *s == k)
            .and_then(|(_, r, _)| r.tenant("small"))
            .map_or(f64::NAN, |t| t.wait.p99_ns)
    };
    out.push_str(&format!(
        "small-tenant p99 wait, FCFS/DRR: sim {:.1}x, engine {:.1}x\n\n",
        sim_p99(SchedKind::Fcfs) / sim_p99(SchedKind::Drr),
        small_tenant_drr_speedup(fair_pts),
    ));

    let batch_row = |label: &str, r: &ServedReport| {
        vec![
            label.to_string(),
            format!("{}", r.dispatches),
            format!("{:.2}", r.mean_batch),
            format!("{}", r.max_batch),
            us(r.wait.p99_ns),
            format!("{:.3}", r.utilization),
        ]
    };
    out.push_str(&render_table(
        &format!(
            "Serving engine: small-call batching under Chiplet placement \
             (1 KiB Snappy-D, rho=0.9, 1 shard, threshold {} B, max {})",
            opts.batch_bytes, opts.batch_max
        ),
        &["batching", "dispatches", "mean batch", "max batch", "p99 wait us", "util"],
        &[batch_row("off", batch_off), batch_row("on", batch_on)],
    ));
    out.push_str(&format!(
        "offload amortization, p99 wait off/on: {:.2}x\n",
        batch_speedup(batch_off, batch_on),
    ));
    out
}

/// Renders the served figure and writes it (with a scale header) to
/// `path` — the committed `results/served.txt` artifact. Returns the
/// rendered figure for stdout.
pub fn write_served(
    scale: Scale,
    opts: &ServedOpts,
    path: &std::path::Path,
) -> std::io::Result<String> {
    let body = served(scale, opts);
    let mut file = format!(
        "Serving engine, measured vs simulated (seed {:#x}, {} files/suite scale)\n\n",
        scale.seed, scale.files_per_suite
    );
    file.push_str(&body);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, &file)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_figure_renders_and_gates_at_tiny_scale() {
        let scale = Scale::tiny();
        let opts = ServedOpts::default();
        let wl = workload(scale);

        let pts = loop_points(scale, &opts, &wl);
        assert_eq!(pts.len(), 3, "acceptance: at least three load points");
        for p in &pts {
            assert_eq!(p.sim.injected, p.engine.injected, "same workload in both tiers");
            assert!(p.engine.executed_uncompressed_bytes > 0, "real bytes must flow");
            assert!(p.deviation_pct().is_finite());
        }

        let fair = fairness_points(scale, &wl);
        let drr = small_tenant_drr_speedup(&fair);
        assert!(drr > 1.0, "DRR must rescue the small tenant: {drr}x");

        let (off, on) = batch_points(scale, &opts, &wl);
        assert!(on.mean_batch > 1.0, "coalescing must engage: {}", on.mean_batch);
        let speedup = batch_speedup(&off, &on);
        assert!(speedup > 1.0, "batching must amortize offload: {speedup}x");

        let text = render(scale, &opts, &pts, &fair, &off, &on);
        assert!(text.contains("deviation"));
        assert!(text.contains("FCFS/DRR"));
        assert!(text.contains("off/on"));
        for p in &pts {
            assert!(text.contains(&format!("{:.2}", p.load)));
        }
    }
}
