//! The discrete-event core: a min-heap of timestamped events with a
//! deterministic total order, and the one serving loop over it.
//!
//! Ties in simulated time are broken by an insertion sequence number, so
//! event processing order — and therefore the whole simulation — is a
//! pure function of the pushed events, never of heap internals.
//!
//! `serve` is the arrival → admit → queue → dispatch → departure loop
//! both serving tiers run: it owns the heap, the arrival injection and
//! call cap, the scheduler, idle instances, in-flight dispatches, the
//! per-tenant samples, busy time, queue depth, the event log and the
//! observability hooks, and folds them into a [`ServeReport`]. A
//! `Tier` supplies the policy: the simulator ([`crate::sim`]) prices
//! analytically and serves for the price; the engine ([`crate::engine`])
//! admits through its gates, batches and executes real kernels.

use crate::arrivals::{normalized_weights, Injector};
use crate::obs::ObsState;
use crate::report::{LatencyDist, ServeReport, SizeBin, TenantReport};
use crate::scheduler::{Job, Scheduler};
use crate::sim::ServeConfig;
use cdpu_fleet::CallRecord;
use cdpu_telemetry::metrics::{Gauge, Histogram};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happens at an event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A tenant's next call arrives (payload: tenant index).
    Arrival(u32),
    /// An instance finishes its current job (payload: instance index).
    Departure(u32),
}

/// One scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Simulated time, picoseconds.
    pub time_ps: u64,
    /// Insertion sequence — the deterministic tie-breaker.
    pub seq: u64,
    /// The event itself.
    pub kind: EventKind,
}

/// Min-heap of events ordered by `(time_ps, seq)`.
#[derive(Debug, Default)]
pub struct EventHeap {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl EventHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `time_ps`.
    pub fn push(&mut self, time_ps: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { time_ps, seq, kind }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One line of the compact event log (for determinism checks and debug
/// traces): `(time, kind, a, b)` with `kind` 0=arrival, 1=start,
/// 2=departure, 3=drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Simulated time, picoseconds.
    pub time_ps: u64,
    /// 0=arrival, 1=start, 2=departure, 3=drop.
    pub kind: u8,
    /// Tenant index.
    pub tenant: u32,
    /// Job id (arrival/start/departure/drop all carry it).
    pub job: u64,
}

/// Where [`Tier::admit`] sends a priced arrival.
pub(crate) enum Entry {
    /// Straight onto the lowest-numbered idle instance, never queued.
    Start,
    /// Into the scheduler, then onto any idle instance.
    Queue,
    /// Turned away: reported as dropped.
    Shed,
}

/// One serving tier under [`serve`]: what it charges for a call, whom it
/// admits, how it forms and serves a dispatch, and what it accounts
/// beyond the [`ServeReport`] the loop keeps.
pub(crate) trait Tier {
    /// Prefix of the `.queue.depth` gauge and `.wait_ns` histogram.
    const TELEMETRY: &'static str;
    /// The scheduling estimate and the bytes of call `id`.
    fn price(&mut self, id: u64, call: &CallRecord) -> (u64, u64);
    /// Places a priced arrival; `idle` says whether an instance is free,
    /// `queued` how many jobs the scheduler holds.
    fn admit(&mut self, job: &Job, idle: bool, queued: usize) -> Entry;
    /// Fills the empty `out` with the next dispatch; `false` if none.
    fn next_dispatch(&mut self, sched: &mut Scheduler, out: &mut Vec<Job>) -> bool;
    /// Jobs taken from the scheduler but not yet dispatched.
    fn held(&self) -> usize {
        0
    }
    fn on_queue_depth(&mut self, _depth: u64) {}
    /// Serves one dispatch; returns its service time, picoseconds.
    fn serve(&mut self, jobs: &[Job]) -> u64;
    /// `job`, dispatched at `start_ps`, departs at `now`.
    fn on_complete(&mut self, now: u64, job: &Job, start_ps: u64);
}

/// One instance: the dispatch it serves (empty while idle, the buffer
/// kept for the next one) and when that dispatch started.
#[derive(Default)]
struct Instance {
    jobs: Vec<Job>,
    start_ps: u64,
}

/// The loop's state, the same for both tiers.
struct Loop {
    heap: EventHeap,
    arrivals: Injector,
    sched: Scheduler,
    idle: BinaryHeap<Reverse<u32>>,
    instances: Vec<Instance>,
    injected: Vec<u64>,
    completed: Vec<u64>,
    dropped: Vec<u64>,
    waits: Vec<Vec<u64>>,
    totals: Vec<Vec<u64>>,
    service_sums: Vec<u64>,
    /// Per `ceil(log2(bytes))` bin: calls, service picoseconds, bytes.
    bins: [[u64; 3]; 33],
    busy_ps: u64,
    completed_bytes: u64,
    end_ps: u64,
    peak_queue: u64,
    events: Option<Vec<LogRecord>>,
    obs: Option<ObsState>,
    depth_gauge: Gauge,
    wait_hist: Histogram,
}

impl Loop {
    fn log(&mut self, time_ps: u64, kind: u8, tenant: u32, job: u64) {
        if let Some(events) = self.events.as_mut() {
            events.push(LogRecord { time_ps, kind, tenant, job });
        }
    }

    fn queue_changed(&mut self, tier: &mut impl Tier, now: u64) {
        let depth = (self.sched.len() + tier.held()) as u64;
        self.peak_queue = self.peak_queue.max(depth);
        self.depth_gauge.set(depth as i64);
        tier.on_queue_depth(depth);
        if let Some(obs) = self.obs.as_mut() {
            obs.on_queue_depth(now, depth);
        }
    }

    /// Puts `jobs` on `instance` at `now` and schedules their departure.
    fn dispatch(&mut self, tier: &mut impl Tier, instance: u32, jobs: Vec<Job>, now: u64) {
        for job in &jobs {
            let wait = now - job.arrival_ps;
            self.waits[job.tenant as usize].push(wait);
            self.wait_hist.record(wait / 1000);
            if let Some(obs) = self.obs.as_mut() {
                obs.on_start(now, job);
            }
            self.log(now, 1, job.tenant, job.id);
        }
        let service_ps = tier.serve(&jobs);
        self.busy_ps += service_ps;
        self.heap.push(now + service_ps, EventKind::Departure(instance));
        self.instances[instance as usize] = Instance { jobs, start_ps: now };
    }

    /// Puts the next dispatch, formed in the empty `jobs`, on the free
    /// `instance`, or idles it when the queue is empty; `false` then.
    fn refill(
        &mut self,
        tier: &mut impl Tier,
        instance: u32,
        mut jobs: Vec<Job>,
        now: u64,
    ) -> bool {
        if !tier.next_dispatch(&mut self.sched, &mut jobs) {
            self.instances[instance as usize].jobs = jobs;
            self.idle.push(Reverse(instance));
            return false;
        }
        self.queue_changed(tier, now);
        self.dispatch(tier, instance, jobs, now);
        true
    }

    /// Dispatches onto idle instances until either side runs dry.
    fn start_idle(&mut self, tier: &mut impl Tier, now: u64) {
        while let Some(Reverse(instance)) = self.idle.pop() {
            let jobs = std::mem::take(&mut self.instances[instance as usize].jobs);
            if !self.refill(tier, instance, jobs, now) {
                return;
            }
        }
    }

    /// Injects tenant `t`'s arrival at `now`, if the cap allows, and
    /// places it where the tier admits it.
    fn arrive(&mut self, tier: &mut impl Tier, cfg: &ServeConfig, t: u32, now: u64) {
        let Some((id, call)) = self.arrivals.inject(&mut self.heap, now, t, &cfg.tenants) else {
            return;
        };
        let (service_ps, bytes) = tier.price(id, &call);
        let job = Job { id, tenant: t, arrival_ps: now, service_ps, bytes };
        self.injected[t as usize] += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.on_arrival(now, &job, &call);
        }
        self.log(now, 0, t, id);
        match tier.admit(&job, !self.idle.is_empty(), self.sched.len()) {
            Entry::Start => {
                let Reverse(instance) = self.idle.pop().expect("an idle instance");
                let mut jobs = std::mem::take(&mut self.instances[instance as usize].jobs);
                jobs.push(job);
                self.dispatch(tier, instance, jobs, now);
            }
            Entry::Queue => {
                self.sched.push(job);
                self.queue_changed(tier, now);
                self.start_idle(tier, now);
            }
            Entry::Shed => {
                self.dropped[t as usize] += 1;
                if let Some(obs) = self.obs.as_mut() {
                    obs.on_drop(now, &job);
                }
                self.log(now, 3, t, id);
            }
        }
    }

    /// Retires the dispatch on `instance` at `now` and refills it.
    fn depart(&mut self, tier: &mut impl Tier, instance: u32, now: u64) {
        let Instance { mut jobs, start_ps } =
            std::mem::take(&mut self.instances[instance as usize]);
        debug_assert!(!jobs.is_empty(), "departure from an idle instance");
        for job in &jobs {
            let ti = job.tenant as usize;
            self.totals[ti].push(now - job.arrival_ps);
            self.service_sums[ti] += job.service_ps;
            self.completed[ti] += 1;
            self.completed_bytes += job.bytes;
            let bin = &mut self.bins[cdpu_util::ceil_log2(job.bytes.max(1)).min(32) as usize];
            bin[0] += 1;
            bin[1] += job.service_ps;
            bin[2] += job.bytes;
            tier.on_complete(now, job, start_ps);
            if let Some(obs) = self.obs.as_mut() {
                obs.on_completion(now, job);
            }
            self.log(now, 2, job.tenant, job.id);
        }
        self.end_ps = self.end_ps.max(now);
        jobs.clear();
        // An instance is idle only while the queue is empty, so queued work
        // goes to this one, the instance the lowest-index rule would pick.
        self.refill(tier, instance, jobs, now);
    }
}

/// Mean of `sum_ps` over `count` calls, nanoseconds (0 for none).
fn mean_ns(sum_ps: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_ps as f64 / count as f64 / 1000.0
    }
}

/// Runs the workload `cfg` describes to completion — arrival → price →
/// admit → queue → dispatch → serve → departure, each step's policy
/// `tier`'s — and reports what the loop measured, with the last
/// departure (picoseconds). The simulator runs its own config; the
/// engine runs [`crate::EngineConfig::as_sim`], so both inject the same
/// calls at the same instants.
///
/// # Panics
///
/// Panics on an empty tenant list, zero instances, or a non-positive
/// offered load.
pub(crate) fn serve<T: Tier>(tier: &mut T, cfg: &ServeConfig) -> (ServeReport, u64) {
    assert!(!cfg.tenants.is_empty(), "need at least one tenant");
    assert!(cfg.instances >= 1, "need at least one instance");
    assert!(
        cfg.offered_load > 0.0 && cfg.offered_load.is_finite(),
        "offered load must be positive"
    );
    cfg.params.validate();
    let n = cfg.tenants.len();
    let weights = normalized_weights(&cfg.tenants);
    let registry = cdpu_telemetry::registry();
    let mut heap = EventHeap::new();
    let arrivals = Injector::new(cfg.seed, cfg.rates(), cfg.total_calls, &mut heap);
    let mut lp = Loop {
        heap,
        arrivals,
        sched: Scheduler::new(cfg.sched, &weights),
        idle: (0..cfg.instances).map(Reverse).collect(),
        instances: (0..cfg.instances).map(|_| Instance::default()).collect(),
        injected: vec![0; n],
        completed: vec![0; n],
        dropped: vec![0; n],
        waits: vec![Vec::new(); n],
        totals: vec![Vec::new(); n],
        service_sums: vec![0; n],
        bins: [[0; 3]; 33],
        busy_ps: 0,
        completed_bytes: 0,
        end_ps: 0,
        peak_queue: 0,
        events: cfg.record_events.then(Vec::new),
        obs: cfg.obs.clone().map(|o| ObsState::new(o, &cfg.tenants)),
        depth_gauge: registry.gauge(&format!("{}.queue.depth", T::TELEMETRY)),
        wait_hist: registry.histogram(&format!("{}.wait_ns", T::TELEMETRY)),
    };

    while let Some(event) = lp.heap.pop() {
        match event.kind {
            EventKind::Arrival(t) => lp.arrive(tier, cfg, t, event.time_ps),
            EventKind::Departure(instance) => lp.depart(tier, instance, event.time_ps),
        }
    }

    let span_ps = lp.end_ps.max(1);
    let (mut all_waits, mut all_totals) = (Vec::new(), Vec::new());
    let tenants = (0..n)
        .map(|i| {
            all_waits.extend_from_slice(&lp.waits[i]);
            all_totals.extend_from_slice(&lp.totals[i]);
            TenantReport {
                name: cfg.tenants[i].name.clone(),
                weight: weights[i],
                injected: lp.injected[i],
                completed: lp.completed[i],
                dropped: lp.dropped[i],
                wait: LatencyDist::from_ps(&mut lp.waits[i]),
                total: LatencyDist::from_ps(&mut lp.totals[i]),
                mean_service_ns: mean_ns(lp.service_sums[i], lp.completed[i]),
            }
        })
        .collect();
    let completed = lp.completed.iter().sum();
    let report = ServeReport {
        offered_load: cfg.offered_load,
        instances: cfg.instances,
        injected: lp.injected.iter().sum(),
        completed,
        dropped: lp.dropped.iter().sum(),
        wait: LatencyDist::from_ps(&mut all_waits),
        total: LatencyDist::from_ps(&mut all_totals),
        mean_service_ns: mean_ns(lp.service_sums.iter().sum(), completed),
        utilization: lp.busy_ps as f64 / (cfg.instances as u64 * span_ps) as f64,
        goodput_gbps: lp.completed_bytes as f64 * 1000.0 / span_ps as f64,
        peak_queue_depth: lp.peak_queue,
        tenants,
        size_bins: (0..33)
            .filter(|&b| lp.bins[b][0] > 0)
            .map(|b| SizeBin {
                log2: b as u32,
                count: lp.bins[b][0],
                mean_service_ns: mean_ns(lp.bins[b][1], lp.bins[b][0]),
                mean_bytes: lp.bins[b][2] as f64 / lp.bins[b][0] as f64,
            })
            .collect(),
        events: lp.events.unwrap_or_default(),
        obs: lp.obs.map(|o| o.into_report(cfg, lp.end_ps)),
    };
    (report, lp.end_ps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.push(30, EventKind::Departure(0));
        h.push(10, EventKind::Arrival(1));
        h.push(20, EventKind::Arrival(2));
        let times: Vec<u64> = std::iter::from_fn(|| h.pop()).map(|e| e.time_ps).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut h = EventHeap::new();
        h.push(5, EventKind::Arrival(7));
        h.push(5, EventKind::Departure(3));
        h.push(5, EventKind::Arrival(1));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| h.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Arrival(7),
                EventKind::Departure(3),
                EventKind::Arrival(1)
            ]
        );
    }

    #[test]
    fn len_tracks() {
        let mut h = EventHeap::new();
        assert!(h.is_empty());
        h.push(1, EventKind::Arrival(0));
        assert_eq!(h.len(), 1);
        h.pop();
        assert!(h.is_empty());
    }
}
