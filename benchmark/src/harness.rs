//! What every workload shares: the trait the window loop drives, the
//! report it fills and the `/proc` reader for peak RSS.

use crate::estimator::Series;
use crate::spans::Recorder;
use std::time::Instant;

/// Threads of the `cdpu-par` pool and shards of the engine: this host's
/// `nproc`.
pub const THREADS: usize = 2;

/// The six end-to-end values a workload measures itself (`setup_s` and
/// `peak_rss_mb` are taken around it by `main`). README, "End-to-end
/// metrics", says what each means on each workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2e {
    pub compress_mb_s: f64,
    pub decompress_mb_s: f64,
    pub ratio: f64,
    pub goodput_mb_s: f64,
    pub call_p50_us: f64,
    pub call_p95_us: f64,
}

/// The outcome of one measurement window.
#[derive(Debug, Clone)]
pub struct Report {
    pub e2e: E2e,
    /// Operations attempted in the window (every public call counts).
    pub attempted: u64,
    /// Round-trip mismatches + errors + shed calls + conservation or
    /// fingerprint violations.
    pub failed: u64,
    /// The per-round series behind the rates, for the printed table.
    pub series: Vec<Series>,
}

/// A fixed, seeded call list that can be executed once per round.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// CPUs the workload runs on: 1 where one caller thread does the work
    /// (the process is pinned to one CPU), [`THREADS`] where the pool or
    /// the shards are what is measured. The binary refuses to run a
    /// workload on fewer.
    const CPUS: usize = 1;

    /// Passes of [`Workload::latency_pass`] run between set-up and the
    /// window.
    const LATENCY_PASSES: u64 = 0;

    /// Builds every input from the seed. `setup_s` times this plus the
    /// first, cold round.
    fn setup(seed: u64) -> Self;

    /// Order-sensitive hash of the generated call list: equal for equal
    /// seeds, printed so two runs can be shown to have measured the same
    /// inputs.
    fn inputs_hash(&self) -> u64;

    /// Where a round cannot time single calls (the engine, whole-grid
    /// sweeps): executes every call of the list on its own, one thread,
    /// keeping each call's fastest time for the latency percentiles.
    fn latency_pass(&mut self, _rec: Option<&mut Recorder>) {}

    /// Executes the call list once. Only the public calls are inside
    /// `Instant` pairs; verification and bookkeeping are outside. Returns
    /// the seconds spent inside public calls this round.
    fn round(&mut self, rec: Option<&mut Recorder>) -> f64;

    /// Computes the metrics from the rounds run so far.
    fn report(&self) -> Report;
}

/// Repeats rounds for `seconds` of wall clock, verification included
/// (set-up has already run the first round).
pub fn run_window<W: Workload>(w: &mut W, seconds: f64) {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        w.round(None);
    }
}

/// `VmHWM` of this process in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Seconds and nanoseconds since `start`.
pub fn lap(start: Instant) -> (f64, u64) {
    let d = start.elapsed();
    (d.as_secs_f64(), d.as_nanos() as u64)
}
