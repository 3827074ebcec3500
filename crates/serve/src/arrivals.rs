//! Seeded per-tenant arrival streams, shared by the discrete-event
//! simulator ([`crate::sim`]) and the execution engine
//! ([`crate::engine`]).
//!
//! Both tiers must draw *identical* workloads from one master seed so
//! their reports are comparable point-for-point: the same calls, in the
//! same global order, at the same arrival instants. That identity holds
//! because every tenant owns two private streams forked from the master
//! seed by fixed tags — one [`FleetSampler`] for call bodies, one
//! [`Xoshiro256`] for exponential inter-arrival gaps — and a tenant's
//! draw order (gap₀, call₀, gap₁, call₁, …) never depends on what other
//! tenants or the serving side do. Departure events, admission verdicts
//! and scheduling decisions interleave differently between the two tiers,
//! but they never touch the arrival streams.
//!
//! [`schedule`] materializes the merged arrival sequence through the
//! serving loop's own injection, with no serving model at all; the unit
//! tests pin the simulator's recorded arrival log to it bit-for-bit.

use crate::event::{EventHeap, EventKind};
use crate::tenants::TenantSpec;
use cdpu_fleet::sampler::FleetSampler;
use cdpu_fleet::CallRecord;
use cdpu_util::rng::{mix64, Xoshiro256};

/// Stream tags for deriving independent sub-seeds from the master seed.
/// (Shared constants: the simulator and the engine must fork identically.)
pub(crate) const TAG_CALIBRATE: u64 = 0x5345_5256_4501;
pub(crate) const TAG_SAMPLER: u64 = 0x5345_5256_4502;
pub(crate) const TAG_ARRIVAL: u64 = 0x5345_5256_4503;

/// Calls priced per tenant by the calibration pre-pass.
const CAL_SAMPLES: usize = 200;

/// Normalized tenant weights (each tenant's share of the offered load).
///
/// # Panics
///
/// Panics unless the weights sum positive.
pub fn normalized_weights(tenants: &[TenantSpec]) -> Vec<f64> {
    let total: f64 = tenants.iter().map(|t| t.weight.max(0.0)).sum();
    assert!(total > 0.0, "tenant weights must sum positive");
    tenants.iter().map(|t| t.weight.max(0.0) / total).collect()
}

/// Calibration pre-pass: weighted mean service time in picoseconds under
/// `price_ps`, drawn from dedicated RNG streams (tag `TAG_CALIBRATE`)
/// that never perturb the run itself.
pub fn mean_service_ps(
    seed: u64,
    tenants: &[TenantSpec],
    mut price_ps: impl FnMut(&CallRecord) -> u64,
) -> f64 {
    let weights = normalized_weights(tenants);
    let mut mean = 0.0;
    for (i, (tenant, w)) in tenants.iter().zip(&weights).enumerate() {
        if *w == 0.0 {
            continue;
        }
        let mut sampler = FleetSampler::new(mix64(seed ^ TAG_CALIBRATE ^ (i as u64) << 8));
        let sum: u64 = (0..CAL_SAMPLES)
            .map(|_| price_ps(&tenant.sample(&mut sampler)))
            .sum();
        mean += w * sum as f64 / CAL_SAMPLES as f64;
    }
    mean
}

/// Per-tenant arrival rates (events per picosecond) calibrated so the
/// total offered load is the classical utilization ρ: the rate vector is
/// `weightᵢ · ρ·N / E[S]` with `E[S]` from [`mean_service_ps`].
pub fn calibrated_rates(
    seed: u64,
    tenants: &[TenantSpec],
    offered_load: f64,
    instances: u32,
    price_ps: impl FnMut(&CallRecord) -> u64,
) -> Vec<f64> {
    let weights = normalized_weights(tenants);
    let mean_service = mean_service_ps(seed, tenants, price_ps).max(1.0);
    let lambda_total = offered_load * instances as f64 / mean_service;
    weights.iter().map(|w| w * lambda_total).collect()
}

/// The arrival injection of every serving run (the loop in
/// [`crate::event`]) and of [`schedule`]: per tenant, one call-body
/// sampler and one exponential-gap stream forked from the seed, under a
/// cap on the calls injected. Each live tenant keeps one pending arrival
/// in the heap; one popped after the cap is dropped undrawn.
pub(crate) struct Injector {
    samplers: Vec<FleetSampler>,
    rngs: Vec<Xoshiro256>,
    rates: Vec<f64>,
    cap: u64,
    injected: u64,
}

impl Injector {
    /// Forks the streams and schedules each live tenant's first arrival.
    pub(crate) fn new(seed: u64, rates: Vec<f64>, cap: u64, heap: &mut EventHeap) -> Self {
        let fork = |tag: u64, i: usize| mix64(seed ^ tag ^ (i as u64) << 8);
        let n = rates.len();
        let mut arrivals = Injector {
            samplers: (0..n).map(|i| FleetSampler::new(fork(TAG_SAMPLER, i))).collect(),
            rngs: (0..n).map(|i| Xoshiro256::seed_from(fork(TAG_ARRIVAL, i))).collect(),
            rates,
            cap,
            injected: 0,
        };
        for t in 0..n {
            if arrivals.rates[t] > 0.0 && cap > 0 {
                let gap = arrivals.gap_ps(t);
                heap.push(gap, EventKind::Arrival(t as u32));
            }
        }
        arrivals
    }

    /// Tenant `t`'s next inter-arrival gap, picoseconds (≥ 1). A
    /// zero-rate tenant's stream is never drawn.
    fn gap_ps(&mut self, t: usize) -> u64 {
        self.rngs[t].exp_f64(self.rates[t]).round().max(1.0) as u64
    }

    /// Tenant `t`'s arrival at `now`: its global id and call body, with
    /// the tenant's next arrival scheduled while the cap allows. `None`
    /// once the cap is reached.
    pub(crate) fn inject(
        &mut self,
        heap: &mut EventHeap,
        now: u64,
        t: u32,
        tenants: &[TenantSpec],
    ) -> Option<(u64, CallRecord)> {
        if self.injected >= self.cap {
            return None;
        }
        let call = tenants[t as usize].sample(&mut self.samplers[t as usize]);
        self.injected += 1;
        if self.injected < self.cap {
            let gap = self.gap_ps(t as usize);
            heap.push(now + gap, EventKind::Arrival(t));
        }
        Some((self.injected - 1, call))
    }
}

/// One materialized arrival of the merged schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledArrival {
    /// Arrival instant, picoseconds.
    pub time_ps: u64,
    /// Tenant index.
    pub tenant: u32,
    /// Global arrival order (0-based).
    pub id: u64,
    /// The call body.
    pub call: CallRecord,
}

/// Materializes the first `max_calls` arrivals of the merged schedule —
/// exactly the sequence the simulator and engine inject, independent of
/// any serving model. Ties in arrival time resolve by push order on the
/// same `(time, seq)` heap discipline the serving tiers use, which
/// preserves the relative order of arrival pushes and therefore matches
/// both tiers even though their heaps also carry departure events.
pub fn schedule(
    seed: u64,
    tenants: &[TenantSpec],
    rates: &[f64],
    max_calls: u64,
) -> Vec<ScheduledArrival> {
    assert_eq!(tenants.len(), rates.len(), "one rate per tenant");
    let mut heap = EventHeap::new();
    let mut arrivals = Injector::new(seed, rates.to_vec(), max_calls, &mut heap);
    let mut out = Vec::with_capacity(max_calls.min(1 << 20) as usize);
    while let Some(event) = heap.pop() {
        let EventKind::Arrival(t) = event.kind else {
            unreachable!("schedule() pushes only arrivals")
        };
        let Some((id, call)) = arrivals.inject(&mut heap, event.time_ps, t, tenants) else {
            break;
        };
        out.push(ScheduledArrival {
            time_ps: event.time_ps,
            tenant: t,
            id,
            call,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;
    use crate::tenants::fleet_tenants;
    use crate::ServeConfig;

    /// The calibrated rates the simulator would use for `cfg`.
    fn sim_rates(cfg: &ServeConfig) -> Vec<f64> {
        calibrated_rates(
            cfg.seed,
            &cfg.tenants,
            cfg.offered_load,
            cfg.instances,
            |call| sim::analytic_price_ps(call, &cfg.params, &cfg.mem),
        )
    }

    #[test]
    fn first_1k_arrivals_bit_identical_across_constructions() {
        let tenants = fleet_tenants(6);
        let cfg = {
            let mut c = ServeConfig::new(tenants.clone());
            c.total_calls = 1_000;
            c
        };
        let rates = sim_rates(&cfg);
        let a = schedule(cfg.seed, &tenants, &rates, 1_000);
        let b = schedule(cfg.seed, &tenants, &rates, 1_000);
        assert_eq!(a.len(), 1_000);
        assert_eq!(a, b, "two constructions must draw identical workloads");
        for pair in a.windows(2) {
            assert!(pair[0].time_ps <= pair[1].time_ps, "schedule out of order");
        }
    }

    #[test]
    fn schedule_matches_simulator_arrival_log() {
        // The extracted generator must reproduce the simulator's injected
        // arrivals exactly: same instants, same tenants, same order —
        // despite the simulator's heap also carrying departure events.
        let mut cfg = ServeConfig::new(fleet_tenants(6));
        cfg.total_calls = 1_000;
        cfg.offered_load = 0.8;
        cfg.record_events = true;
        let report = sim::run(&cfg);
        let sched = schedule(cfg.seed, &cfg.tenants, &sim_rates(&cfg), cfg.total_calls);
        let arrivals: Vec<_> = report.events.iter().filter(|e| e.kind == 0).collect();
        assert_eq!(arrivals.len(), sched.len());
        for (log, gen) in arrivals.iter().zip(&sched) {
            assert_eq!(log.time_ps, gen.time_ps, "arrival instant diverged at id {}", gen.id);
            assert_eq!(log.tenant, gen.tenant, "tenant diverged at id {}", gen.id);
            assert_eq!(log.job, gen.id, "arrival order diverged at id {}", gen.id);
        }
    }

    #[test]
    fn zero_rate_tenants_never_arrive() {
        let mut tenants = fleet_tenants(3);
        tenants[2].weight = 0.0;
        let rates = calibrated_rates(7, &tenants, 0.5, 2, |c| c.uncompressed_bytes.max(1));
        assert_eq!(rates[2], 0.0);
        let sched = schedule(7, &tenants, &rates, 500);
        assert_eq!(sched.len(), 500);
        assert!(sched.iter().all(|a| a.tenant != 2));
    }

    #[test]
    fn calibration_matches_serve_config() {
        let cfg = ServeConfig::new(fleet_tenants(4));
        let direct = mean_service_ps(cfg.seed, &cfg.tenants, |call| {
            sim::analytic_price_ps(call, &cfg.params, &cfg.mem)
        });
        assert_eq!(direct, cfg.mean_service_ps(), "one calibration, two entry points");
        assert!(direct > 0.0);
    }
}
