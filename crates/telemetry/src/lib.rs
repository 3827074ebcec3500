//! Zero-dependency observability for the CDPU framework.
//!
//! The paper's methodology is measurement all the way down — fleet cycle
//! attribution (§3), per-stage pipeline occupancy and history-SRAM
//! fallback behaviour (§5–6) — so the reproduction needs a way to see
//! *where* its own modeled cycles and wall-clock go. This crate provides
//! that substrate with nothing beyond `std`:
//!
//! - [`metrics`]: named [`metrics::Counter`] / [`metrics::Gauge`] /
//!   [`metrics::Histogram`] handles backed by a process-global,
//!   lock-sharded registry. Handles are registered once (the only point
//!   that takes a lock or allocates) and then updated with single relaxed
//!   atomic operations.
//! - [`mod@span`]: lightweight span tracing. `span!("lz77_decode")` returns an
//!   RAII guard that records wall-time (and an optional user cycle
//!   payload) into a bounded ring buffer when dropped.
//! - [`export`]: a plain-text/markdown snapshot, a JSONL metrics dump, and
//!   Chrome `trace_event` JSON (loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)), conventionally written under
//!   `results/telemetry/`.
//! - [`window`]: tumbling-window metrics — time-resolved log2 histograms,
//!   rate counters and slow-call exemplar capture, keyed on a
//!   caller-supplied timeline (simulated or wall-clock). Unlike the
//!   global registry these are plain owned values, so deterministic
//!   drivers (the serving simulator) get bit-identical timelines.
//!
//! # Overhead model
//!
//! Telemetry is **disabled by default** and gated by one process-global
//! `AtomicBool`. Every hot-path operation first performs a relaxed load of
//! that flag and branches away when it is clear, so a disabled build costs
//! one predictable-not-taken branch per instrumentation site (plus a
//! one-time lazily-initialized handle lookup per call site — a `OnceLock`
//! acquire load). When enabled:
//!
//! - `Counter::add` / `Gauge::set` are one relaxed atomic RMW/store.
//! - `Histogram::record` is three relaxed RMWs (bucket, count, sum) plus
//!   two bounded CAS loops for min/max.
//! - Opening a span reads `Instant::now()`; closing it reads it again and
//!   pushes a fixed-size event under a single `Mutex` (spans are placed at
//!   call/sweep-point granularity, not per byte, so the lock is cool).
//!
//! **No allocation happens after registration**: handles are `Arc`s into
//! the registry, span names are `&'static str`, and the span ring buffer
//! is pre-allocated at its capacity on first use.
//!
//! # Usage
//!
//! ```
//! use cdpu_telemetry as telemetry;
//! telemetry::enable();
//! telemetry::counter!("demo.calls").incr();
//! {
//!     let mut span = telemetry::span!("demo.work");
//!     span.add_cycles(1234);
//! } // span recorded on drop
//! let snapshot = telemetry::export::snapshot_markdown();
//! assert!(snapshot.contains("demo.calls"));
//! telemetry::disable();
//! ```

pub mod export;
pub mod metrics;
pub mod span;
pub mod window;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently recording. Relaxed load: safe to call on
/// the hottest paths.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on (counters accumulate, spans are logged).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off. Already-recorded values are kept until
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// The process-global metric registry.
pub fn registry() -> &'static metrics::Registry {
    static REGISTRY: OnceLock<metrics::Registry> = OnceLock::new();
    REGISTRY.get_or_init(metrics::Registry::new)
}

/// Zeroes every registered metric in place and clears the span log.
///
/// Handles cached at instrumentation sites stay valid (values are zeroed,
/// the registry maps are *not* cleared), so this is safe to call between
/// experiment phases or tests.
pub fn reset() {
    registry().reset_values();
    span::log().clear();
}

/// Looks up (first use: registers) a counter and caches the handle in a
/// per-call-site static. `counter!("name").add(n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Counter> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Looks up (first use: registers) a gauge and caches the handle in a
/// per-call-site static. `gauge!("name").set(v)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Gauge> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Looks up (first use: registers) a histogram and caches the handle in a
/// per-call-site static. `histogram!("name").record(v)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Histogram> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Opens a named RAII span: wall-time (and any cycle payload attached via
/// [`span::SpanGuard::add_cycles`]) is recorded when the guard drops. The
/// name must be a `&'static str`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn disabled_by_default() {
        // No unit test in this binary calls enable(): recording must be
        // off unless explicitly requested.
        assert!(!crate::enabled());
    }
}
