//! HyperCompressBench: hyperscale-representative (de)compression
//! benchmarks (Section 4).
//!
//! The paper's generator privately ingests fleet profiling metrics and
//! publicly emits benchmark files assembled from open-corpus chunks so
//! that, per algorithm/direction suite, the distributions of call size,
//! compression ratio, level and window size match the fleet's. This crate
//! rebuilds that pipeline end to end:
//!
//! 1. **[`bank`]**: corpus files (synthetic stand-ins, see `cdpu-corpus`)
//!    are split into fixed-size chunks; every chunk is compressed under
//!    every supported algorithm/parameter combination and indexed by the
//!    achieved compression ratio.
//! 2. **[`generate_suite`]**: per suite, target parameters are sampled from the
//!    fleet model (`cdpu-fleet`); chunks with the nearest ratio are
//!    greedily appended until the target call size is reached, with
//!    periodic re-evaluation of the assembled file's *actual* ratio to
//!    steer the target, and random jitter to avoid pathological sequences.
//! 3. **[`validate`]**: the generated suites are checked against the fleet
//!    distributions (Figure 7 call-size CDFs; aggregate ratios within the
//!    paper's 5–10% window).
//!
//! The paper generates 8,000–10,000 files per suite with calls up to
//! 64 MiB; the suites here are scaled down (hundreds of files, capped call
//! sizes) so the full pipeline runs in seconds — the scaling is
//! configuration, not code (crank [`SuiteConfig::files`] and
//! [`SuiteConfig::max_call_bytes`] to paper scale if you have the time
//! budget).

pub mod bank;
pub mod validate;

use bank::{ChunkBank, Combo};
use cdpu_fleet::{callsizes, levels, ratios, windows, Algorithm, AlgoOp};
use cdpu_util::hist::Log2Histogram;
use cdpu_util::rng::Xoshiro256;

/// One generated benchmark file.
#[derive(Debug, Clone)]
pub struct BenchmarkFile {
    /// File name within the suite, e.g. `Snappy-C-00042`.
    pub name: String,
    /// Algorithm/direction this file targets.
    pub op: AlgoOp,
    /// The uncompressed content (for decompression benchmarks the harness
    /// compresses this and measures decompression of the result).
    pub data: Vec<u8>,
    /// ZStd level to apply when used (sampled from Figure 2b's
    /// distribution); `None` for Snappy.
    pub level: Option<i32>,
    /// ZStd window log to apply when used (sampled from Figure 5);
    /// `None` for Snappy.
    pub window_log: Option<u32>,
    /// The per-call compression-ratio target the generator aimed for.
    pub target_ratio: f64,
}

/// A generated suite: all benchmark files for one algorithm/direction.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Algorithm/direction.
    pub op: AlgoOp,
    /// The files.
    pub files: Vec<BenchmarkFile>,
}

impl Suite {
    /// Total uncompressed bytes across the suite.
    pub fn total_uncompressed(&self) -> u64 {
        self.files.iter().map(|f| f.data.len() as u64).sum()
    }

    /// Call-size histogram (each file = one call; unit weight per file
    /// because call sizes were drawn from the byte-weighted fleet CDF).
    pub fn call_size_histogram(&self) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for f in &self.files {
            h.record(f.data.len() as u64, 1.0);
        }
        h
    }

    /// Aggregate achieved compression ratio, measured by actually running
    /// the suite's algorithm (total uncompressed / total compressed).
    /// Files compress independently across the thread pool; the integer
    /// sums are order-independent.
    pub fn aggregate_ratio(&self) -> f64 {
        let sizes = cdpu_par::par_map(&self.files, |f| {
            (f.data.len() as u64, compressed_len(f) as u64)
        });
        let unc: u64 = sizes.iter().map(|&(u, _)| u).sum();
        let comp: u64 = sizes.iter().map(|&(_, c)| c).sum();
        if comp == 0 {
            1.0
        } else {
            unc as f64 / comp as f64
        }
    }
}

/// Compressed size of one benchmark file under its own parameters.
pub fn compressed_len(f: &BenchmarkFile) -> usize {
    match f.op.algo {
        Algorithm::Snappy => cdpu_snappy::compress(&f.data).len(),
        Algorithm::Zstd => {
            let mut cfg = cdpu_zstd::ZstdConfig::with_level(f.level.unwrap_or(3));
            if let Some(w) = f.window_log {
                cfg = cfg.window_log(w.clamp(10, 24));
            }
            cdpu_zstd::compress_with(&f.data, &cfg).len()
        }
        _ => unreachable!("suites exist only for Snappy/ZStd"),
    }
}

/// Configuration for one suite generation run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Algorithm/direction to generate for.
    pub op: AlgoOp,
    /// Number of benchmark files (paper: 8,000–10,000).
    pub files: usize,
    /// Cap on per-call uncompressed size (paper: 64 MiB).
    pub max_call_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Per-call ratio-target spread: calls differ in content, so individual
/// targets scatter around the fleet aggregate in log space.
const RATIO_SPREAD_LOG: f64 = 0.30;

/// Generates one suite from a chunk bank.
///
/// Every file draws from its own RNG derived from the master seed, so
/// files are mutually independent and generation fans out across the
/// thread pool with output bit-identical to a serial (`--jobs 1`) run.
///
/// # Panics
///
/// Panics if `cfg.op` is not a Snappy/ZStd pair (the instrumented set) or
/// `cfg.files == 0`.
pub fn generate_suite(bank: &ChunkBank, cfg: &SuiteConfig) -> Suite {
    assert!(cfg.files > 0, "need at least one file");
    assert!(
        matches!(cfg.op.algo, Algorithm::Snappy | Algorithm::Zstd),
        "suites exist only for the instrumented algorithms"
    );
    let master = cfg.seed ^ 0x4843_4245_4e43_4821;
    let size_cdf = callsizes::call_size_cdf(cfg.op);
    let level_weights = levels::level_weights();
    let level_dist = cdpu_util::hist::Categorical::new(
        &level_weights.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
    )
    .expect("level weights");

    let aggregate_target = match cfg.op.algo {
        Algorithm::Snappy => ratios::fleet_ratio(ratios::RatioBin::Snappy),
        Algorithm::Zstd => ratios::fleet_ratio(ratios::RatioBin::ZstdLow),
        _ => unreachable!(),
    };

    // Sample call sizes from the fleet CDF *conditioned below the cap*
    // (truncate-and-renormalize, like the paper's finite file samples clip
    // the rare giant-call tail) rather than clamping, which would pile
    // spurious mass at the cap.
    let cap_mass = size_cdf.eval(cfg.max_call_bytes as f64);

    let files = cdpu_par::par_map_indexed(cfg.files, |i| {
        let mut rng = Xoshiro256::seed_from(
            cdpu_util::rng::mix64(master).wrapping_add(
                cdpu_util::rng::mix64((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ master),
            ),
        );
        let call_size = (size_cdf.quantile(rng.next_f64() * cap_mass) as u64)
            .clamp(callsizes::MIN_CALL, cfg.max_call_bytes) as usize;
        let (level, window_log) = if cfg.op.algo == Algorithm::Zstd {
            let level = level_weights[level_dist.sample(&mut rng)].0;
            (Some(level), Some(windows::sample_window_log(cfg.op.dir, &mut rng)))
        } else {
            (None, None)
        };
        // Scatter per-call targets log-normally around the aggregate.
        let jitter = (rng.next_f64() * 2.0 - 1.0) * RATIO_SPREAD_LOG;
        let target_ratio = (aggregate_target.ln() + jitter).exp();

        let combo = match cfg.op.algo {
            Algorithm::Snappy => Combo::Snappy,
            Algorithm::Zstd => Combo::Zstd {
                level: bank.nearest_bank_level(level.unwrap_or(3)),
            },
            _ => unreachable!(),
        };
        let data = assemble_file(bank, combo, call_size, target_ratio, &mut rng);
        BenchmarkFile {
            name: format!("{}-{:05}", cfg.op.label(), i),
            op: cfg.op,
            data,
            level,
            window_log,
            target_ratio,
        }
    });
    Suite { op: cfg.op, files }
}

/// Assembles one benchmark file: greedily append the bank chunk whose
/// ratio is nearest the running requirement, re-aiming as the assembled
/// average drifts, with random choice among near ties (the paper's
/// anti-pathology shuffles).
fn assemble_file(
    bank: &ChunkBank,
    combo: Combo,
    call_size: usize,
    target_ratio: f64,
    rng: &mut Xoshiro256,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(call_size);
    // Running ratio estimate of the assembled file, from per-chunk ratios
    // (harmonic accumulation: ratios combine by compressed size). The
    // estimate misses cross-chunk redundancy, so it is periodically
    // replaced by a *measured* ratio of the assembled prefix — the paper's
    // "evaluates the file assembled so far and adjusts the target".
    let mut est_unc = 0.0f64;
    let mut est_comp = 0.0f64;
    let mut used = std::collections::HashSet::new();
    let mut next_measure = 16 * 4096usize;
    while out.len() < call_size {
        let needed = if est_comp == 0.0 {
            target_ratio
        } else {
            // Steer so the blended ratio returns to target: if the file so
            // far is under target, ask for more compressible chunks.
            let current = est_unc / est_comp;
            (target_ratio * target_ratio / current).clamp(1.0, 40.0)
        };
        let (chunk, ratio, idx) = bank.pick_near(combo, needed, rng, &used);
        used.insert(idx);
        let take = chunk.len().min(call_size - out.len());
        out.extend_from_slice(&chunk[..take]);
        est_unc += take as f64;
        est_comp += take as f64 / ratio;
        if out.len() >= next_measure && out.len() < call_size {
            let measured = measure_ratio(&out, combo);
            est_unc = out.len() as f64;
            est_comp = out.len() as f64 / measured;
            next_measure = out.len() * 2;
        }
    }
    out
}

/// Measures the assembled prefix's real ratio under the combo's codec.
fn measure_ratio(data: &[u8], combo: Combo) -> f64 {
    let compressed = match combo {
        Combo::Snappy => cdpu_snappy::compress(data).len(),
        Combo::Zstd { level } => {
            cdpu_zstd::compress_with(data, &cdpu_zstd::ZstdConfig::with_level(level)).len()
        }
    };
    data.len() as f64 / compressed.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bank::BankConfig;
    use cdpu_fleet::Direction;

    fn tiny_bank() -> ChunkBank {
        ChunkBank::build(&BankConfig {
            chunk_size: 4096,
            per_kind_bytes: 128 * 1024,
            zstd_levels: vec![-5, 1, 3, 9],
            seed: 99,
        })
    }

    fn tiny_cfg(op: AlgoOp) -> SuiteConfig {
        SuiteConfig {
            op,
            files: 24,
            max_call_bytes: 128 * 1024,
            seed: 5,
        }
    }

    #[test]
    fn suite_generation_deterministic() {
        let bank = tiny_bank();
        let op = AlgoOp::new(Algorithm::Snappy, Direction::Compress);
        let a = generate_suite(&bank, &tiny_cfg(op));
        let b = generate_suite(&bank, &tiny_cfg(op));
        assert_eq!(a.files.len(), b.files.len());
        for (x, y) in a.files.iter().zip(&b.files) {
            assert_eq!(x.data, y.data);
            assert_eq!(x.level, y.level);
        }
    }

    #[test]
    fn parallel_generation_matches_serial_bit_for_bit() {
        let bank = tiny_bank();
        let op = AlgoOp::new(Algorithm::Zstd, Direction::Compress);
        cdpu_par::set_threads(1);
        let serial = generate_suite(&bank, &tiny_cfg(op));
        cdpu_par::set_threads(4);
        let parallel = generate_suite(&bank, &tiny_cfg(op));
        cdpu_par::set_threads(0);
        assert_eq!(serial.files.len(), parallel.files.len());
        for (x, y) in serial.files.iter().zip(&parallel.files) {
            assert_eq!(x.data, y.data);
            assert_eq!(x.name, y.name);
            assert_eq!(x.level, y.level);
            assert_eq!(x.window_log, y.window_log);
            assert_eq!(x.target_ratio.to_bits(), y.target_ratio.to_bits());
        }
    }

    #[test]
    fn suite_respects_config() {
        let bank = tiny_bank();
        for op in callsizes::instrumented_ops() {
            let suite = generate_suite(&bank, &tiny_cfg(op));
            assert_eq!(suite.files.len(), 24);
            for f in &suite.files {
                assert!(f.data.len() as u64 <= 128 * 1024);
                assert!(f.data.len() as u64 >= callsizes::MIN_CALL);
                match op.algo {
                    Algorithm::Zstd => {
                        assert!(f.level.is_some() && f.window_log.is_some())
                    }
                    _ => assert!(f.level.is_none() && f.window_log.is_none()),
                }
            }
        }
    }

    #[test]
    fn files_roundtrip_through_their_codec() {
        let bank = tiny_bank();
        for op in callsizes::instrumented_ops() {
            let suite = generate_suite(&bank, &tiny_cfg(op));
            let f = &suite.files[0];
            match op.algo {
                Algorithm::Snappy => {
                    let c = cdpu_snappy::compress(&f.data);
                    assert_eq!(cdpu_snappy::decompress(&c).unwrap(), f.data);
                }
                Algorithm::Zstd => {
                    let cfg = cdpu_zstd::ZstdConfig::with_level(f.level.unwrap())
                        .window_log(f.window_log.unwrap().clamp(10, 24));
                    let c = cdpu_zstd::compress_with(&f.data, &cfg);
                    assert_eq!(cdpu_zstd::decompress(&c).unwrap(), f.data);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn aggregate_ratio_lands_near_target() {
        let bank = tiny_bank();
        let op = AlgoOp::new(Algorithm::Snappy, Direction::Compress);
        let mut cfg = tiny_cfg(op);
        cfg.files = 60;
        let suite = generate_suite(&bank, &cfg);
        let achieved = suite.aggregate_ratio();
        let target = ratios::fleet_ratio(ratios::RatioBin::Snappy);
        let err = (achieved - target).abs() / target;
        // The paper reports 5–10% agreement; the scaled-down suite allows a
        // little more slack.
        assert!(err < 0.25, "achieved {achieved:.2} vs target {target:.2}");
    }

    #[test]
    fn unsupported_algorithm_panics() {
        let bank = tiny_bank();
        let cfg = SuiteConfig {
            op: AlgoOp::new(Algorithm::Flate, Direction::Compress),
            files: 1,
            max_call_bytes: 4096,
            seed: 1,
        };
        assert!(std::panic::catch_unwind(|| generate_suite(&bank, &cfg)).is_err());
    }
}
