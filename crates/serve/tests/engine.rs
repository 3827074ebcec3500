//! Integration tests for the execution engine's admission edge cases:
//! every gate under stress at once, quota exhaustion mid-burst, and the
//! empty-queue wakeup path at very low load. The scheduler unit tests
//! cover the per-gate mechanics; these drive the whole engine —
//! arrivals, admission, dispatch, real codec execution — end to end on a
//! small shared workload.

use std::sync::{Arc, OnceLock};

use cdpu_fleet::{AlgoOp, Algorithm, Direction};
use cdpu_serve::workload::WorkloadConfig;
use cdpu_serve::{
    engine, AdmissionConfig, BatchPolicy, CallMix, EngineConfig, ShedConfig, TenantSpec, Timing,
    Workload, PS_PER_SEC,
};

/// One small payload tape shared by every test in this binary.
fn workload() -> &'static Arc<Workload> {
    static WL: OnceLock<Arc<Workload>> = OnceLock::new();
    WL.get_or_init(|| {
        Arc::new(Workload::build(&WorkloadConfig {
            seed: 0x454e_4749_4e45,
            tape_bytes: 256 * 1024,
            max_call_bytes: 16 * 1024,
        }))
    })
}

fn fixed(name: &str, weight: f64, bytes: u64) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        weight,
        mix: CallMix::Fixed {
            op: AlgoOp::new(Algorithm::Snappy, Direction::Decompress),
            bytes,
            level: None,
        },
    }
}

fn base_cfg(total_calls: u64, load: f64) -> EngineConfig {
    let mut cfg = EngineConfig::new(vec![
        fixed("a", 0.5, 4 << 10),
        fixed("b", 0.3, 8 << 10),
        fixed("c", 0.2, 2 << 10),
    ]);
    cfg.seed = 0xBEEF;
    cfg.shards = 2;
    cfg.total_calls = total_calls;
    cfg.offered_load = load;
    cfg.batch = BatchPolicy::off();
    cfg.timing = Timing::Work;
    cfg
}

/// Conservation must hold even when every admission gate fires: a harsh
/// queue bound, a one-call quota, a slow token bucket and a hair-trigger
/// burn gate, all under 3x overload. Every tenant records sheds, nothing
/// is lost, and the calls that do get through really execute.
#[test]
fn all_tenants_shedding_conserves_calls() {
    let mut cfg = base_cfg(600, 3.0);
    cfg.admission = AdmissionConfig {
        queue_capacity: 2,
        quota_outstanding: 1,
        bucket_rate_cps: 500.0,
        bucket_burst: 2.0,
        shed: Some(ShedConfig {
            window_ps: PS_PER_SEC / 10_000,
            wait_slo_ps: PS_PER_SEC / 1_000_000,
            objective: 0.999,
            shed_burn: 1.0,
            onset_windows: 1,
        }),
    };
    let r = engine::run(&cfg, workload());
    assert_eq!(r.injected, 600);
    assert_eq!(r.injected, r.admitted + r.shed, "admission must conserve calls");
    assert_eq!(r.completed, r.admitted, "drain must complete every admitted call");
    assert!(r.shed > 0, "3x overload against harsh gates must shed");
    for t in &r.tenants {
        assert_eq!(t.injected, t.admitted + t.shed(), "tenant {} leaks calls", t.name);
        assert!(t.shed() > 0, "tenant {} never shed under universal overload", t.name);
    }
    // At least two distinct gates fired across the run (queue/quota/bucket
    // pressure plus the burn gate once waits blow the SLO).
    let gates = [
        r.tenants.iter().map(|t| t.shed_queue).sum::<u64>(),
        r.tenants.iter().map(|t| t.shed_quota).sum::<u64>(),
        r.tenants.iter().map(|t| t.shed_bucket).sum::<u64>(),
        r.tenants.iter().map(|t| t.shed_burn).sum::<u64>(),
    ];
    assert!(
        gates.iter().filter(|&&g| g > 0).count() >= 2,
        "expected multiple gates to fire, got {gates:?}"
    );
    assert!(r.executed_uncompressed_bytes > 0, "admitted calls must really execute");
}

/// A one-outstanding-call quota under a burst: the quota gate must shed
/// while the call is in flight and re-admit after completion, so both
/// admitted and quota-shed counts are non-trivial.
#[test]
fn quota_exhausted_mid_burst_recovers() {
    let mut cfg = base_cfg(400, 2.0);
    cfg.admission = AdmissionConfig {
        quota_outstanding: 1,
        ..AdmissionConfig::open()
    };
    let r = engine::run(&cfg, workload());
    let quota_shed: u64 = r.tenants.iter().map(|t| t.shed_quota).sum();
    assert!(quota_shed > 0, "burst against quota 1 must shed at the quota gate");
    assert_eq!(r.shed, quota_shed, "only the quota gate is armed");
    assert!(
        r.completed >= cfg.tenants.len() as u64,
        "quota must re-open after completions, got {} completed",
        r.completed
    );
    assert_eq!(r.injected, r.admitted + r.shed);
}

/// At near-idle load the queue is empty almost always: every arrival must
/// still wake a shard (no lost-wakeup deadlock), every call completes,
/// nothing sheds, and the queue never builds.
#[test]
fn empty_queue_wakeup_at_low_load() {
    let mut cfg = base_cfg(150, 0.05);
    cfg.admission = AdmissionConfig::open();
    let r = engine::run(&cfg, workload());
    assert_eq!(r.completed, 150, "every call must complete at near-idle load");
    assert_eq!(r.shed, 0);
    assert!(
        r.peak_queue_depth <= 3,
        "near-idle load must not build a queue, peak {}",
        r.peak_queue_depth
    );
    assert!(r.utilization < 0.3, "utilization {} at rho 0.05", r.utilization);
}

/// The same overloaded shedding run twice from one seed is bit-identical
/// — shed decisions included, not just completions.
#[test]
fn shedding_runs_are_deterministic() {
    let mut cfg = base_cfg(300, 2.5);
    cfg.admission.queue_capacity = 4;
    let a = engine::run(&cfg, workload());
    let b = engine::run(&cfg, workload());
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.wait.p99_ns.to_bits(), b.wait.p99_ns.to_bits());
}
