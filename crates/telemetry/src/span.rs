//! RAII span tracing into a bounded ring buffer.
//!
//! A span is opened with [`crate::span!`] (or [`SpanGuard::enter`]) and
//! recorded when the guard drops: name, thread, wall-clock start/duration
//! relative to the process telemetry epoch, and an optional accumulated
//! *cycle* payload (the simulator's modeled cycles, so traces can show
//! modeled time next to host time). Events land in a fixed-capacity ring —
//! when full, the oldest event is overwritten and a drop counter advances,
//! bounding memory regardless of run length.
//!
//! # Concurrency
//!
//! Recording is sharded per thread: each recording thread buffers events
//! in its own small shard (one uncontended mutex per thread) and batches
//! them into the central ring, so parallel sweep workers never serialize
//! on the ring lock per event. Shards are flushed into the ring when a
//! thread exits and transparently whenever the global log is read
//! ([`SpanLog::events`] / [`SpanLog::aggregate`]), so exports always see
//! every completed span; merged events are ordered by start time.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (events). At 48 bytes/event this bounds the log
/// at ~12 MiB — sized so a full-scale `figures all --telemetry` run keeps
/// every span (the previous 64 Ki default silently overwrote ~2/3 of a
/// heavy run's events; overflow is now also surfaced by
/// [`SpanLog::dropped`] in the markdown snapshot).
pub const DEFAULT_CAPACITY: usize = 262_144;

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static: no allocation on the recording path).
    pub name: &'static str,
    /// Small dense id of the recording thread (1-based).
    pub tid: u64,
    /// Start time, nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// User cycle payload accumulated via [`SpanGuard::add_cycles`].
    pub cycles: u64,
}

struct Ring {
    buf: Vec<SpanEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

/// The process-global bounded span log.
pub struct SpanLog {
    ring: Mutex<Ring>,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                cap: DEFAULT_CAPACITY,
                head: 0,
                dropped: 0,
            }),
        }
    }

    /// Changes the ring capacity, clearing any recorded events.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub fn set_capacity(&self, cap: usize) {
        assert!(cap > 0, "span log capacity must be positive");
        if self.is_global() {
            discard_shards();
        }
        let mut ring = self.ring.lock().expect("span log poisoned");
        ring.buf = Vec::with_capacity(cap);
        ring.cap = cap;
        ring.head = 0;
        ring.dropped = 0;
    }

    /// Clears recorded events (including per-thread shards of the global
    /// log) and the drop counter; keeps the capacity.
    pub fn clear(&self) {
        if self.is_global() {
            discard_shards();
        }
        let mut ring = self.ring.lock().expect("span log poisoned");
        ring.buf.clear();
        ring.head = 0;
        ring.dropped = 0;
    }

    pub(crate) fn push(&self, ev: SpanEvent) {
        let mut ring = self.ring.lock().expect("span log poisoned");
        if ring.buf.capacity() < ring.cap {
            let additional = ring.cap - ring.buf.capacity();
            ring.buf.reserve_exact(additional);
        }
        if ring.buf.len() < ring.cap {
            ring.buf.push(ev);
        } else {
            let head = ring.head;
            ring.buf[head] = ev;
            ring.head = (head + 1) % ring.cap;
            ring.dropped += 1;
        }
    }

    /// Recorded events, ordered by start time. Reading the global log
    /// first drains every live thread's shard so concurrent recordings
    /// are never missed.
    pub fn events(&self) -> Vec<SpanEvent> {
        if self.is_global() {
            flush();
        }
        let ring = self.ring.lock().expect("span log poisoned");
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        drop(ring);
        out.sort_by_key(|e| (e.start_ns, e.tid));
        out
    }

    fn is_global(&self) -> bool {
        LOG.get().is_some_and(|l| std::ptr::eq(l, self))
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("span log poisoned").dropped
    }

    /// Per-name aggregates `(name, count, total_dur_ns, total_cycles)`,
    /// sorted by descending total duration.
    pub fn aggregate(&self) -> Vec<SpanAggregate> {
        let mut by_name: std::collections::HashMap<&'static str, SpanAggregate> =
            std::collections::HashMap::new();
        for ev in self.events() {
            let agg = by_name.entry(ev.name).or_insert(SpanAggregate {
                name: ev.name,
                count: 0,
                total_dur_ns: 0,
                total_cycles: 0,
            });
            agg.count += 1;
            agg.total_dur_ns += ev.dur_ns;
            agg.total_cycles += ev.cycles;
        }
        let mut out: Vec<SpanAggregate> = by_name.into_values().collect();
        out.sort_by_key(|a| std::cmp::Reverse(a.total_dur_ns));
        out
    }
}

/// Aggregate view of all spans sharing one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanAggregate {
    /// Span name.
    pub name: &'static str,
    /// Number of completed spans.
    pub count: u64,
    /// Summed wall-clock duration, nanoseconds.
    pub total_dur_ns: u64,
    /// Summed cycle payloads.
    pub total_cycles: u64,
}

static LOG: OnceLock<SpanLog> = OnceLock::new();

/// The process-global span log.
pub fn log() -> &'static SpanLog {
    LOG.get_or_init(SpanLog::new)
}

/// Events buffered per shard before a batch is pushed into the central
/// ring (one ring-lock acquisition per batch, not per span).
const SHARD_FLUSH: usize = 128;

/// One thread's buffered, not-yet-central events. The mutex is almost
/// always uncontended: only the owning thread pushes, and readers touch
/// it only during [`flush`].
struct Shard {
    buf: Mutex<Vec<SpanEvent>>,
}

fn shard_registry() -> &'static Mutex<Vec<Arc<Shard>>> {
    static SHARDS: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();
    SHARDS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Owns a thread's shard registration; on thread exit the remaining
/// events are flushed into the central ring and the shard deregistered.
struct ShardHandle {
    shard: Arc<Shard>,
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        move_to_ring(&mut self.shard.buf.lock().expect("shard poisoned"));
        let mut list = shard_registry().lock().expect("shard registry poisoned");
        list.retain(|s| !Arc::ptr_eq(s, &self.shard));
    }
}

/// Moves a shard's events into the central ring. The caller holds the
/// shard's lock throughout, so a concurrent [`flush`] finds every event
/// either still in the shard or already in the ring, never in between.
fn move_to_ring(buf: &mut Vec<SpanEvent>) {
    for ev in buf.drain(..) {
        log().push(ev);
    }
}

thread_local! {
    static SHARD: ShardHandle = {
        let shard = Arc::new(Shard {
            buf: Mutex::new(Vec::with_capacity(SHARD_FLUSH)),
        });
        shard_registry()
            .lock()
            .expect("shard registry poisoned")
            .push(shard.clone());
        ShardHandle { shard }
    };
}

/// Records one completed span into the calling thread's shard, batching
/// into the central ring. Falls back to a direct ring push if the
/// thread-local shard is already destroyed (recording during thread
/// teardown).
fn record(ev: SpanEvent) {
    let ok = SHARD.try_with(|h| {
        let mut buf = h.shard.buf.lock().expect("shard poisoned");
        buf.push(ev);
        if buf.len() >= SHARD_FLUSH {
            move_to_ring(&mut buf);
        }
    });
    if ok.is_err() {
        log().push(ev);
    }
}

/// Drains every live thread's shard into the central ring. Called
/// automatically when the global log is read; call it directly only when
/// inspecting the ring through other means.
pub fn flush() {
    let shards: Vec<Arc<Shard>> = shard_registry()
        .lock()
        .expect("shard registry poisoned")
        .clone();
    for shard in shards {
        move_to_ring(&mut shard.buf.lock().expect("shard poisoned"));
    }
}

/// Empties every live shard without moving events to the ring (global
/// log clear/resize).
fn discard_shards() {
    let shards: Vec<Arc<Shard>> = shard_registry()
        .lock()
        .expect("shard registry poisoned")
        .clone();
    for shard in shards {
        shard.buf.lock().expect("shard poisoned").clear();
    }
}

/// The telemetry epoch: fixed at first use; all span timestamps are
/// relative to it so trace files start near t=0.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Small dense id for the current thread (1-based, assigned on first use).
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Relaxed);
    }
    TID.with(|t| *t)
}

/// RAII guard for one span. Construct via [`crate::span!`] or
/// [`SpanGuard::enter`]; the event is recorded on drop. A guard created
/// while telemetry is disabled is inert (no clock reads, nothing logged).
#[must_use = "a span records on drop; binding to _ closes it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    cycles: u64,
}

impl SpanGuard {
    /// Opens a span (inert if telemetry is disabled).
    pub fn enter(name: &'static str) -> SpanGuard {
        let start = crate::enabled().then(|| {
            epoch(); // pin the epoch no later than the first span
            Instant::now()
        });
        SpanGuard {
            name,
            start,
            cycles: 0,
        }
    }

    /// Accumulates a modeled-cycle payload onto this span.
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let start_ns = start.duration_since(epoch()).as_nanos() as u64;
        let dur_ns = start.elapsed().as_nanos() as u64;
        record(SpanEvent {
            name: self.name,
            tid: thread_id(),
            start_ns,
            dur_ns,
            cycles: self.cycles,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start_ns: u64) -> SpanEvent {
        SpanEvent {
            name,
            tid: 1,
            start_ns,
            dur_ns: 10,
            cycles: 5,
        }
    }

    #[test]
    fn ring_overflow_overwrites_oldest() {
        let log = SpanLog::new();
        log.set_capacity(4);
        for i in 0..6 {
            log.push(ev("s", i));
        }
        let events = log.events();
        assert_eq!(events.len(), 4);
        // Events 0 and 1 were overwritten; order is oldest-first.
        let starts: Vec<u64> = events.iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, vec![2, 3, 4, 5]);
        assert_eq!(log.dropped(), 2);
        log.clear();
        assert!(log.events().is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn aggregate_sums_by_name() {
        let log = SpanLog::new();
        log.set_capacity(16);
        log.push(ev("a", 0));
        log.push(ev("a", 20));
        log.push(ev("b", 40));
        let agg = log.aggregate();
        let a = agg.iter().find(|x| x.name == "a").unwrap();
        assert_eq!(a.count, 2);
        assert_eq!(a.total_dur_ns, 20);
        assert_eq!(a.total_cycles, 10);
        let b = agg.iter().find(|x| x.name == "b").unwrap();
        assert_eq!(b.count, 1);
    }

    #[test]
    fn thread_ids_dense_and_distinct() {
        let main = thread_id();
        assert_eq!(main, thread_id(), "stable within a thread");
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(main, other);
    }

    #[test]
    fn disabled_guard_is_inert() {
        // Telemetry is disabled in unit tests: the guard must not log.
        let before = log().events().len();
        {
            let mut g = SpanGuard::enter("inert");
            g.add_cycles(1);
        }
        assert_eq!(log().events().len(), before);
    }
}
