//! Per-tenant admission control for the serving engine: quotas, token
//! buckets, bounded queues, and SLO-burn-keyed shedding.
//!
//! The engine never lets one tenant starve the fleet. Four gates run, in
//! order, when a call arrives (cheapest-signal-first, so an overloaded
//! tenant is turned away before spending bucket tokens):
//!
//! 1. **Burn** — graceful shedding keyed off the SLO burn-rate signal
//!    (PR 6's `obs` machinery distilled to the admission path): a
//!    tumbling window tracks the fraction of the tenant's completions
//!    that met the wait SLO; when the burn rate (budget consumed ÷
//!    budget available) stays at or above the shed threshold for
//!    `onset_windows` consecutive windows, new arrivals shed until a
//!    window cools down. Keying on *burn*, not raw queue depth, means a
//!    short benign burst doesn't shed but a sustained SLO violation does.
//! 2. **Quota** — a cap on the tenant's outstanding (admitted but not
//!    completed) calls: the closed-loop analog of a connection limit.
//! 3. **Bucket** — a token bucket refilled in virtual time caps the
//!    tenant's sustained admission *rate* while allowing bursts.
//! 4. **Queue** — a bound on the tenant's queued (admitted, not yet
//!    dispatched) calls backstops everything else.
//!
//! All state advances on virtual (engine) time, so admission decisions
//! are bit-identical across runs and shard counts.

use crate::PS_PER_SEC;

/// Why an arrival was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's SLO burn rate crossed the shed threshold.
    Burn,
    /// Outstanding-call quota exhausted.
    Quota,
    /// Token bucket empty (sustained rate above the tenant's limit).
    Bucket,
    /// Per-tenant queue bound reached.
    Queue,
}

impl ShedReason {
    /// All reasons, in gate order.
    pub const ALL: [ShedReason; 4] =
        [ShedReason::Burn, ShedReason::Quota, ShedReason::Bucket, ShedReason::Queue];

    /// Display label used in reports and metric names.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::Burn => "burn",
            ShedReason::Quota => "quota",
            ShedReason::Bucket => "bucket",
            ShedReason::Queue => "queue",
        }
    }
}

/// Outcome of offering one arrival to admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted: the caller must enqueue the job.
    Admit,
    /// Shed for the given reason: the caller drops the job.
    Shed(ShedReason),
}

/// Burn-rate shedding parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedConfig {
    /// Tumbling-window width.
    pub window_ps: u64,
    /// A completion whose queueing wait is at or below this met the SLO.
    pub wait_slo_ps: u64,
    /// Availability objective (fraction of calls that should meet the
    /// SLO); `1 - objective` is the error budget per window.
    pub objective: f64,
    /// Shed when the window burn rate reaches this multiple of budget.
    pub shed_burn: f64,
    /// Consecutive hot windows before shedding engages (the obs module's
    /// overload-onset hysteresis, applied to admission).
    pub onset_windows: u32,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            window_ps: PS_PER_SEC / 1000, // 1 ms windows
            wait_slo_ps: PS_PER_SEC / 10_000, // 100 µs wait SLO
            objective: 0.99,
            shed_burn: 2.0,
            onset_windows: 3,
        }
    }
}

/// Full admission policy for one engine run (applied per tenant).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Max queued (admitted, undispatched) calls per tenant.
    pub queue_capacity: usize,
    /// Max outstanding (admitted, uncompleted) calls per tenant.
    pub quota_outstanding: u64,
    /// Token-bucket refill rate in calls/second; `f64::INFINITY` disables
    /// the bucket.
    pub bucket_rate_cps: f64,
    /// Token-bucket burst capacity.
    pub bucket_burst: f64,
    /// Burn-rate shedding; `None` disables the burn gate.
    pub shed: Option<ShedConfig>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 4096,
            quota_outstanding: 4096,
            bucket_rate_cps: f64::INFINITY,
            bucket_burst: 64.0,
            shed: Some(ShedConfig::default()),
        }
    }
}

impl AdmissionConfig {
    /// A fully open policy: no gate ever sheds. Used when validating the
    /// engine against the (admission-free) simulator.
    pub fn open() -> Self {
        AdmissionConfig {
            queue_capacity: usize::MAX,
            quota_outstanding: u64::MAX,
            bucket_rate_cps: f64::INFINITY,
            bucket_burst: 1.0,
            shed: None,
        }
    }
}

/// Tumbling-window SLO burn tracker for one tenant.
#[derive(Debug)]
pub struct BurnGate {
    cfg: ShedConfig,
    window_start_ps: u64,
    calls: u64,
    good: u64,
    hot_streak: u32,
    shedding: bool,
    /// Windows spent in the shedding state (reported for observability).
    pub shed_windows: u64,
}

impl BurnGate {
    /// Creates a gate whose first window starts at time 0.
    pub fn new(cfg: ShedConfig) -> Self {
        assert!(cfg.window_ps > 0, "window must be non-empty");
        assert!(
            cfg.objective > 0.0 && cfg.objective < 1.0,
            "objective must leave a non-zero error budget"
        );
        BurnGate {
            cfg,
            window_start_ps: 0,
            calls: 0,
            good: 0,
            hot_streak: 0,
            shedding: false,
            shed_windows: 0,
        }
    }

    /// Closes every window that ended at or before `now`.
    fn roll_to(&mut self, now_ps: u64) {
        while now_ps >= self.window_start_ps + self.cfg.window_ps {
            let burn = if self.calls > 0 {
                let bad = (self.calls - self.good) as f64 / self.calls as f64;
                bad / (1.0 - self.cfg.objective)
            } else {
                0.0
            };
            if burn >= self.cfg.shed_burn {
                self.hot_streak += 1;
            } else {
                self.hot_streak = 0;
            }
            self.shedding = self.hot_streak >= self.cfg.onset_windows;
            if self.shedding {
                self.shed_windows += 1;
            }
            self.calls = 0;
            self.good = 0;
            self.window_start_ps += self.cfg.window_ps;
            // A long idle gap is all empty (cool) windows: fast-forward
            // instead of iterating through each one.
            if self.calls == 0 && !self.shedding && self.hot_streak == 0 {
                let gap = now_ps.saturating_sub(self.window_start_ps);
                if gap >= 2 * self.cfg.window_ps {
                    let skip = gap / self.cfg.window_ps - 1;
                    self.window_start_ps += skip * self.cfg.window_ps;
                }
            }
        }
    }

    /// Records a completed call's queueing wait.
    pub fn observe(&mut self, now_ps: u64, wait_ps: u64) {
        self.roll_to(now_ps);
        self.calls += 1;
        if wait_ps <= self.cfg.wait_slo_ps {
            self.good += 1;
        }
    }

    /// Whether arrivals should shed right now.
    pub fn shedding(&mut self, now_ps: u64) -> bool {
        self.roll_to(now_ps);
        self.shedding
    }
}

#[derive(Debug)]
struct TenantState {
    queued: usize,
    outstanding: u64,
    tokens: f64,
    refill_at_ps: u64,
    burn: Option<BurnGate>,
}

/// Admission state for every tenant of one engine run.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    tenants: Vec<TenantState>,
}

impl Admission {
    /// Creates admission state for `n` tenants under one shared policy.
    pub fn new(cfg: AdmissionConfig, n: usize) -> Self {
        assert!(cfg.bucket_burst >= 1.0, "burst below one call admits nothing");
        let tenants = (0..n)
            .map(|_| TenantState {
                queued: 0,
                outstanding: 0,
                tokens: cfg.bucket_burst,
                refill_at_ps: 0,
                burn: cfg.shed.clone().map(BurnGate::new),
            })
            .collect();
        Admission { cfg, tenants }
    }

    /// Offers one arrival; on [`Verdict::Admit`] the tenant's queued and
    /// outstanding counts are already incremented.
    pub fn offer(&mut self, tenant: usize, now_ps: u64) -> Verdict {
        let s = &mut self.tenants[tenant];
        if let Some(gate) = s.burn.as_mut() {
            if gate.shedding(now_ps) {
                return Verdict::Shed(ShedReason::Burn);
            }
        }
        if s.outstanding >= self.cfg.quota_outstanding {
            return Verdict::Shed(ShedReason::Quota);
        }
        let metered = self.cfg.bucket_rate_cps.is_finite();
        if metered {
            let dt = now_ps.saturating_sub(s.refill_at_ps) as f64 / PS_PER_SEC as f64;
            s.tokens = (s.tokens + dt * self.cfg.bucket_rate_cps).min(self.cfg.bucket_burst);
            s.refill_at_ps = now_ps;
            if s.tokens < 1.0 {
                return Verdict::Shed(ShedReason::Bucket);
            }
        }
        if s.queued >= self.cfg.queue_capacity {
            return Verdict::Shed(ShedReason::Queue);
        }
        if metered {
            s.tokens -= 1.0;
        }
        s.queued += 1;
        s.outstanding += 1;
        Verdict::Admit
    }

    /// A queued call left the queue for a worker shard.
    pub fn on_dispatch(&mut self, tenant: usize) {
        let s = &mut self.tenants[tenant];
        debug_assert!(s.queued > 0, "dispatch without a queued call");
        s.queued -= 1;
    }

    /// A dispatched call completed; `wait_ps` is its queueing wait (what
    /// the SLO is written against).
    pub fn on_complete(&mut self, tenant: usize, now_ps: u64, wait_ps: u64) {
        let s = &mut self.tenants[tenant];
        debug_assert!(s.outstanding > 0, "completion without an outstanding call");
        s.outstanding -= 1;
        if let Some(gate) = s.burn.as_mut() {
            gate.observe(now_ps, wait_ps);
        }
    }

    /// Windows the tenant has spent shedding (0 without a burn gate).
    pub fn shed_windows(&self, tenant: usize) -> u64 {
        self.tenants[tenant]
            .burn
            .as_ref()
            .map_or(0, |g| g.shed_windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = PS_PER_SEC / 1000;

    fn shed_cfg() -> ShedConfig {
        ShedConfig {
            window_ps: MS,
            wait_slo_ps: 100 * MS / 1000,
            objective: 0.99,
            shed_burn: 2.0,
            onset_windows: 3,
        }
    }

    #[test]
    fn open_policy_never_sheds() {
        let mut adm = Admission::new(AdmissionConfig::open(), 2);
        for i in 0..10_000u64 {
            assert_eq!(adm.offer(0, i), Verdict::Admit);
        }
    }

    #[test]
    fn quota_caps_outstanding_and_releases_on_complete() {
        let cfg = AdmissionConfig {
            quota_outstanding: 2,
            shed: None,
            ..AdmissionConfig::default()
        };
        let mut adm = Admission::new(cfg, 1);
        assert_eq!(adm.offer(0, 0), Verdict::Admit);
        assert_eq!(adm.offer(0, 1), Verdict::Admit);
        assert_eq!(adm.offer(0, 2), Verdict::Shed(ShedReason::Quota));
        adm.on_dispatch(0);
        // Dispatch alone doesn't release quota — completion does.
        assert_eq!(adm.offer(0, 3), Verdict::Shed(ShedReason::Quota));
        adm.on_complete(0, 4, 0);
        assert_eq!(adm.offer(0, 5), Verdict::Admit);
    }

    #[test]
    fn bucket_meters_sustained_rate_but_allows_burst() {
        let cfg = AdmissionConfig {
            bucket_rate_cps: 1000.0, // one token per ms
            bucket_burst: 4.0,
            shed: None,
            ..AdmissionConfig::default()
        };
        let mut adm = Admission::new(cfg, 1);
        // Burst capacity admits the first four back-to-back calls.
        for i in 0..4u64 {
            assert_eq!(adm.offer(0, i), Verdict::Admit, "burst call {i}");
        }
        assert_eq!(adm.offer(0, 4), Verdict::Shed(ShedReason::Bucket));
        // One refill period later a single token is back.
        assert_eq!(adm.offer(0, MS + 4), Verdict::Admit);
        assert_eq!(adm.offer(0, MS + 5), Verdict::Shed(ShedReason::Bucket));
    }

    #[test]
    fn queue_bound_backstops() {
        let cfg = AdmissionConfig {
            queue_capacity: 3,
            shed: None,
            ..AdmissionConfig::default()
        };
        let mut adm = Admission::new(cfg, 1);
        for i in 0..3u64 {
            assert_eq!(adm.offer(0, i), Verdict::Admit);
        }
        assert_eq!(adm.offer(0, 3), Verdict::Shed(ShedReason::Queue));
        adm.on_dispatch(0);
        assert_eq!(adm.offer(0, 4), Verdict::Admit);
    }

    #[test]
    fn burn_gate_needs_consecutive_hot_windows() {
        let mut gate = BurnGate::new(shed_cfg());
        let slo = shed_cfg().wait_slo_ps;
        // Two hot windows, then a cool one: no shed.
        for w in 0..2u64 {
            for i in 0..10 {
                gate.observe(w * MS + i, slo + 1); // all misses
            }
        }
        for i in 0..10 {
            gate.observe(2 * MS + i, 0); // all good
        }
        assert!(!gate.shedding(3 * MS + 1), "streak broken by cool window");
        // Three consecutive hot windows: shed engages.
        for w in 4..7u64 {
            for i in 0..10 {
                gate.observe(w * MS + i, slo + 1);
            }
        }
        assert!(gate.shedding(7 * MS + 1));
        assert!(gate.shed_windows >= 1);
        // A cool window recovers.
        for i in 0..10 {
            gate.observe(7 * MS + 10 + i, 0);
        }
        assert!(!gate.shedding(8 * MS + 1), "recovered after cool window");
    }

    #[test]
    fn burn_gate_empty_windows_are_cool_and_gap_skips_are_cheap() {
        let mut gate = BurnGate::new(shed_cfg());
        for i in 0..10 {
            gate.observe(i, shed_cfg().wait_slo_ps + 1);
        }
        // Jump far into the future: intermediate empty windows cool the
        // streak and the roll is O(1), not O(gap/window).
        assert!(!gate.shedding(1_000_000 * MS));
        gate.observe(1_000_000 * MS + 1, 0);
        assert!(!gate.shedding(1_000_001 * MS));
    }

    #[test]
    fn gates_check_in_documented_order() {
        // Burn before quota: a shedding tenant reports Burn even with
        // quota also exhausted.
        let cfg = AdmissionConfig {
            quota_outstanding: 1,
            shed: Some(ShedConfig {
                onset_windows: 1,
                ..shed_cfg()
            }),
            ..AdmissionConfig::default()
        };
        let mut adm = Admission::new(cfg, 1);
        assert_eq!(adm.offer(0, 0), Verdict::Admit);
        adm.on_dispatch(0);
        adm.on_complete(0, 1, u64::MAX); // SLO miss
        assert_eq!(adm.offer(0, 2), Verdict::Admit); // quota free again
        adm.on_dispatch(0);
        adm.on_complete(0, 3, u64::MAX);
        // Window 0 was 100% miss → hot → shedding with onset 1.
        let v = adm.offer(0, MS + 1);
        assert_eq!(v, Verdict::Shed(ShedReason::Burn));
    }
}
