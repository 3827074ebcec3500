//! Per-call service-time model for the serving tier.
//!
//! The serving simulator (`cdpu-serve`) prices hundreds of thousands of
//! sampled fleet calls per load point; running the real codecs (or even
//! the real matcher) per call is orders of magnitude too slow and, worse,
//! would require synthesizing payload bytes for every call. Instead this
//! module builds a **synthetic structural profile** for a call — a
//! [`CallProfile`] whose counts (literal/match split, sequence density,
//! block structure, offset distribution) are fixed by the algorithm class
//! and size, calibrated so the default RoCC configuration reproduces the
//! paper's absolute throughputs — and prices it through the one dispatch
//! every other figure uses, [`crate::stages()`] / [`crate::simulate`].
//!
//! The result is a *pure function* of `(op, bytes, level, params)`: no
//! RNG, no payload, deterministic across platforms, ~100 ns per call. The
//! six fleet algorithms share the three modeled pipeline classes
//! (Section 5.1 generates Snappy/ZStd/Flate-class hardware): Gipfeli and
//! LZO are priced as Snappy, Brotli as ZStd.

use crate::params::{CdpuParams, MemParams};
use crate::profile::CallProfile;
use crate::stages::StageCycles;
use crate::Pipeline;
use cdpu_fleet::{AlgoOp, CallRecord};

/// Snappy-class calibration: achieved ratio, literal fraction of
/// uncompressed bytes, and mean match length. The implied writer
/// occupancy lands the default RoCC config at ~12.5 GB/s Snappy-D
/// (paper: 11.4 GB/s, Section 6.2).
const SNAPPY_RATIO: f64 = 2.1;
const SNAPPY_LIT_FRAC: f64 = 0.35;
const SNAPPY_MEAN_MATCH: f64 = 16.0;

/// ZStd-class calibration. Fast levels (≤ 3) achieve the fleet-aggregate
/// ~3.07× ratio, high levels ~4.14× (Fig. 2c shape); 80% of blocks
/// Huffman-code their literals. The implied Huffman-expander occupancy
/// lands the default RoCC config at ~3.4 GB/s ZStd-D (paper: 3.95 GB/s).
const ZSTD_RATIO_FAST: f64 = 3.07;
const ZSTD_RATIO_HIGH: f64 = 4.14;
const ZSTD_LIT_FRAC: f64 = 0.25;
const ZSTD_MEAN_MATCH: f64 = 24.0;
const ZSTD_HUFF_BLOCK_FRAC: f64 = 0.8;
/// ZStd frame blocks are up to 128 KiB.
const ZSTD_BLOCK_BYTES: u64 = 128 * 1024;

/// Flate-class calibration (zlib/gzip-era defaults).
const FLATE_RATIO: f64 = 3.0;
const FLATE_LIT_FRAC: f64 = 0.30;
const FLATE_MEAN_MATCH: f64 = 20.0;
/// Flate blocks at the simulator's 64 KiB granularity.
const FLATE_BLOCK_BYTES: u64 = 64 * 1024;

/// Copy-offset distribution: match bytes decay geometrically per
/// `ceil(log2(offset))` bin from 64 B up to the software window (64 KiB —
/// Snappy's fixed window, and where the fleet's ZStd density
/// concentrates per Fig. 5). With everything ≤ 64 KiB, the default
/// full-size history SRAM sees no fallbacks, matching `profile_snappy`'s
/// behavior on real payloads.
const OFFSET_DECAY: f64 = 0.62;
const MIN_OFFSET_BIN: u32 = 6;
const MAX_OFFSET_BIN: u32 = 16;

/// Spreads `match_bytes` over the offset bins with geometric decay,
/// conserving the total exactly (remainder lands in the smallest bin).
fn fill_offsets(profile: &mut CallProfile) {
    if profile.match_bytes == 0 {
        return;
    }
    let top = cdpu_util::ceil_log2(profile.uncompressed.max(2))
        .clamp(MIN_OFFSET_BIN, MAX_OFFSET_BIN);
    let weight = |bin: u32| OFFSET_DECAY.powi((bin - MIN_OFFSET_BIN) as i32);
    let total: f64 = (MIN_OFFSET_BIN..=top).map(weight).sum();
    let mut assigned = 0u64;
    for bin in MIN_OFFSET_BIN + 1..=top {
        let share = (profile.match_bytes as f64 * weight(bin) / total).floor() as u64;
        profile.offset_bytes[bin as usize] = share;
        assigned += share;
    }
    profile.offset_bytes[MIN_OFFSET_BIN as usize] = profile.match_bytes - assigned;
}

/// Builds the synthetic structural profile for one call: a pure function
/// of `(op, uncompressed, level)` with no RNG and no payload bytes.
///
/// `level` matters only for ZStd-class compression ratio (fast vs high
/// levels); pass the sampled fleet level (or `None` for non-ZStd).
pub fn synthetic_profile(op: AlgoOp, uncompressed: u64, level: Option<i32>) -> CallProfile {
    let (ratio, lit_frac, mean_match, block_bytes, huff_frac) = match Pipeline::of(op.algo) {
        Pipeline::Snappy => (SNAPPY_RATIO, SNAPPY_LIT_FRAC, SNAPPY_MEAN_MATCH, 0, 0.0),
        Pipeline::Zstd => {
            let ratio = if level.unwrap_or(3) <= 3 {
                ZSTD_RATIO_FAST
            } else {
                ZSTD_RATIO_HIGH
            };
            (ratio, ZSTD_LIT_FRAC, ZSTD_MEAN_MATCH, ZSTD_BLOCK_BYTES, ZSTD_HUFF_BLOCK_FRAC)
        }
        Pipeline::Flate => (FLATE_RATIO, FLATE_LIT_FRAC, FLATE_MEAN_MATCH, FLATE_BLOCK_BYTES, 1.0),
    };
    let literal_bytes = (uncompressed as f64 * lit_frac).round() as u64;
    let match_bytes = uncompressed - literal_bytes.min(uncompressed);
    let seqs = (match_bytes as f64 / mean_match).round() as u64;
    let blocks = if block_bytes == 0 {
        1
    } else {
        uncompressed.div_ceil(block_bytes).max(1)
    };
    let huffman_blocks = (blocks as f64 * huff_frac).round() as u64;
    let compressed = ((uncompressed as f64 / ratio).round() as u64).max(1);
    // Entropy-stream split of the compressed size: literals dominate.
    let huffman_stream_bytes = if huff_frac > 0.0 {
        (compressed as f64 * 0.6).round() as u64
    } else {
        0
    };
    let fse_stream_bytes = if Pipeline::of(op.algo) == Pipeline::Zstd {
        (compressed as f64 * 0.2).round() as u64
    } else {
        0
    };
    let mut profile = CallProfile {
        uncompressed,
        compressed,
        seqs,
        literal_bytes,
        match_bytes,
        blocks,
        huffman_blocks,
        huffman_stream_bytes,
        fse_stream_bytes,
        ..Default::default()
    };
    fill_offsets(&mut profile);
    profile
}

/// Accelerator-resident cycles for one fleet call (dispatch to
/// completion): [`crate::simulate`] of the call's synthetic profile. This
/// is the entry point the serving simulator prices every job with.
pub fn service_cycles(call: &CallRecord, p: &CdpuParams, mem: &MemParams) -> u64 {
    let profile = synthetic_profile(call.op, call.uncompressed_bytes, call.level);
    crate::simulate(call.op, &profile, p, mem).cycles
}

/// Per-stage cycle breakdown for one fleet call — the attribution behind
/// [`service_cycles`]: `service_stages(c, p, mem).total()` is exactly the
/// cycles the serving simulator prices the call at. The observability
/// layer uses this to explain *why* a retained slow-call exemplar was
/// slow (which pipeline stage bounded it), without re-running anything.
pub fn service_stages(call: &CallRecord, p: &CdpuParams, mem: &MemParams) -> StageCycles {
    let profile = synthetic_profile(call.op, call.uncompressed_bytes, call.level);
    crate::stages(call.op, &profile, p, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Placement;
    use crate::decomp;
    use crate::SimResult;
    use cdpu_fleet::{Algorithm, AlgoOp, Direction};

    fn simulate_call(call: &CallRecord, p: &CdpuParams, mem: &MemParams) -> SimResult {
        let profile = synthetic_profile(call.op, call.uncompressed_bytes, call.level);
        crate::simulate(call.op, &profile, p, mem)
    }

    fn call(algo: Algorithm, dir: Direction, bytes: u64, level: Option<i32>) -> CallRecord {
        CallRecord {
            op: AlgoOp::new(algo, dir),
            uncompressed_bytes: bytes,
            level,
            window_log: None,
            caller: "test",
        }
    }

    #[test]
    fn pure_function_is_deterministic() {
        let c = call(Algorithm::Zstd, Direction::Decompress, 1 << 20, Some(3));
        let p = CdpuParams::default();
        let mem = MemParams::default();
        assert_eq!(simulate_call(&c, &p, &mem), simulate_call(&c, &p, &mem));
    }

    #[test]
    fn profile_conserves_bytes_and_offsets() {
        for op in [
            AlgoOp::new(Algorithm::Snappy, Direction::Decompress),
            AlgoOp::new(Algorithm::Zstd, Direction::Decompress),
            AlgoOp::new(Algorithm::Flate, Direction::Compress),
        ] {
            let prof = synthetic_profile(op, 256 * 1024, Some(3));
            assert_eq!(prof.literal_bytes + prof.match_bytes, prof.uncompressed);
            let spread: u64 = prof.offset_bytes.iter().sum();
            assert_eq!(spread, prof.match_bytes, "{op}: offsets conserve matches");
            // Every offset fits the 64 KiB software window: the default
            // full-size history SRAM never falls back.
            assert_eq!(prof.fallback_bytes(64 * 1024), 0, "{op}");
            assert!(prof.fallback_bytes(2048) > 0, "{op}: small SRAM must fall back");
        }
    }

    #[test]
    fn calibration_lands_on_paper_throughputs() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        let sd = simulate_call(
            &call(Algorithm::Snappy, Direction::Decompress, 1 << 20, None),
            &p,
            &mem,
        )
        .output_gbps();
        assert!((9.0..=15.0).contains(&sd), "snappy-d {sd} GB/s (paper 11.4)");
        let zd = simulate_call(
            &call(Algorithm::Zstd, Direction::Decompress, 1 << 20, Some(3)),
            &p,
            &mem,
        )
        .output_gbps();
        assert!((2.5..=4.5).contains(&zd), "zstd-d {zd} GB/s (paper 3.95)");
    }

    #[test]
    fn cycles_monotone_in_size() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        for algo in Algorithm::ALL {
            for dir in Direction::ALL {
                let mut prev = 0u64;
                for bytes in [4 * 1024u64, 64 * 1024, 1 << 20, 8 << 20] {
                    let c = service_cycles(&call(algo, dir, bytes, Some(3)), &p, &mem);
                    assert!(c > prev, "{algo:?}/{dir:?}: {bytes} B not slower");
                    prev = c;
                }
            }
        }
    }

    #[test]
    fn all_twelve_ops_priced() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        for op in AlgoOp::all() {
            let c = call(op.algo, op.dir, 64 * 1024, Some(3));
            assert!(service_cycles(&c, &p, &mem) > decomp::DISPATCH_CYCLES, "{op}");
        }
    }

    #[test]
    fn placement_ordering_holds() {
        let mem = MemParams::default();
        let c = call(Algorithm::Snappy, Direction::Decompress, 256 * 1024, None);
        let t = |pl| service_cycles(&c, &CdpuParams::full_size(pl), &mem);
        let rocc = t(Placement::Rocc);
        let chiplet = t(Placement::Chiplet);
        let pcie = t(Placement::PcieNoCache);
        assert!(rocc <= chiplet && chiplet < pcie, "{rocc} {chiplet} {pcie}");
    }

    #[test]
    fn zstd_slower_and_denser_than_snappy() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        let s = simulate_call(&call(Algorithm::Snappy, Direction::Decompress, 1 << 20, None), &p, &mem);
        let z = simulate_call(&call(Algorithm::Zstd, Direction::Decompress, 1 << 20, Some(3)), &p, &mem);
        assert!(z.cycles > s.cycles, "entropy stages cost cycles");
        assert!(z.input_bytes < s.input_bytes, "zstd compresses harder");
    }

    #[test]
    fn high_levels_compress_harder() {
        let fast = synthetic_profile(AlgoOp::new(Algorithm::Zstd, Direction::Compress), 1 << 20, Some(1));
        let high = synthetic_profile(AlgoOp::new(Algorithm::Zstd, Direction::Compress), 1 << 20, Some(12));
        assert!(high.compressed < fast.compressed);
    }

    #[test]
    fn stage_breakdown_totals_match_service_cycles() {
        // The exemplar attribution path must agree exactly with the
        // pricing path: for every op and a spread of sizes, the stage
        // breakdown's total is the priced cycle count, and the parts are
        // internally consistent.
        let p = CdpuParams::default();
        let mem = MemParams::default();
        for op in AlgoOp::all() {
            for bytes in [1024u64, 64 * 1024, 1 << 20, 4 << 20] {
                let c = call(op.algo, op.dir, bytes, Some(3));
                let stages = service_stages(&c, &p, &mem);
                assert_eq!(
                    stages.total(),
                    service_cycles(&c, &p, &mem),
                    "{op} {bytes} B: breakdown disagrees with pricing"
                );
                assert!(stages.dispatch > 0, "{op}: dispatch always charged");
                assert!(
                    ["input", "compute", "output"].contains(&stages.bound()),
                    "{op}"
                );
            }
        }
    }

    #[test]
    fn class_aliases_share_pipelines() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        let snappy = service_cycles(&call(Algorithm::Snappy, Direction::Decompress, 1 << 20, None), &p, &mem);
        let lzo = service_cycles(&call(Algorithm::Lzo, Direction::Decompress, 1 << 20, None), &p, &mem);
        let gipfeli = service_cycles(&call(Algorithm::Gipfeli, Direction::Decompress, 1 << 20, None), &p, &mem);
        assert_eq!(snappy, lzo);
        assert_eq!(snappy, gipfeli);
        let zstd = service_cycles(&call(Algorithm::Zstd, Direction::Decompress, 1 << 20, Some(3)), &p, &mem);
        let brotli = service_cycles(&call(Algorithm::Brotli, Direction::Decompress, 1 << 20, Some(3)), &p, &mem);
        assert_eq!(zstd, brotli);
    }
}
