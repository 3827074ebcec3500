//! Silicon area model (16nm-class), calibrated to Section 6's reported
//! figures.
//!
//! The model is `logic + Σ SRAM macros`, with one SRAM density constant;
//! the per-pipeline logic constants are solved from the paper's absolute
//! numbers:
//!
//! | Paper datum (16nm)                         | Model check |
//! |--------------------------------------------|-------------|
//! | Snappy-D 64K = 0.431 mm²; 2K = −38%        | 0.431 / −40% |
//! | Snappy-C 64K+2¹⁴HT = 0.851 mm²; 2K = −20%  | 0.851 / −20% |
//! | Snappy-C 2K+2⁹HT = 34% of full             | ~40% of full |
//! | ZStd-D 64K spec16 = 1.9 mm²; 2K = −8.6%    | 1.90 / −9%  |
//! | ZStd-D spec32 = +18%; spec4 = −10%         | +16% / −12% |
//! | ZStd-C 64K+2¹⁴HT = 3.48 mm²                | 3.48        |
//! | Xeon core tile = 17.98 mm² (14nm, ref. \[63\]) | constant |

use crate::params::CdpuParams;
use crate::Pipeline;
use cdpu_fleet::{Algorithm, AlgoOp, Direction};

/// SRAM density including periphery, mm² per byte (16nm-class, solved
/// from the paper's Snappy-D 64K→2K delta).
pub const SRAM_MM2_PER_BYTE: f64 = 2.7e-6;

/// Bytes per hash-table entry (tag + position + replacement state).
pub const HASH_ENTRY_BYTES: f64 = 8.0;

/// Area of a modern Xeon core tile, mm² (Skylake-server, 14nm — the
/// paper's reference \[63\]).
pub const XEON_CORE_TILE_MM2: f64 = 17.98;

/// Fixed logic area of the Snappy decompressor pipeline, mm².
const SNAPPY_D_LOGIC: f64 = 0.254;
/// Fixed logic area of the Snappy compressor pipeline, mm².
const SNAPPY_C_LOGIC: f64 = 0.320;
/// Fixed logic of the ZStd decompressor excluding the Huffman expander's
/// speculation lanes, mm².
const ZSTD_D_LOGIC: f64 = 1.419;
/// Incremental area per Huffman speculation lane, mm² (decode-table
/// read ports + lane datapath).
const SPEC_LANE_MM2: f64 = 0.019;
/// Fixed logic area of the ZStd compressor pipeline, mm².
const ZSTD_C_LOGIC: f64 = 2.949;

/// Area of the FSE expander block (table builder + SRAM + reader), mm² —
/// the module a Flate decompressor gains when it becomes a ZStd
/// decompressor (Section 3.4).
pub const FSE_EXPANDER_MM2: f64 = 0.55;

/// Area of the FSE compressor blocks (three dictionary builders + encoder
/// + SeqToCode converter), mm².
pub const FSE_COMPRESSOR_MM2: f64 = 1.10;

/// Area of one `op` pipeline instance, mm². A pipeline is its logic plus
/// its SRAM macros: the history buffer, and for compressors the hash
/// table; the ZStd decompressor adds one lane per Huffman speculation way.
/// A Flate pipeline is the ZStd one minus its FSE blocks (Section 3.4).
pub fn mm2(op: AlgoOp, p: &CdpuParams) -> f64 {
    let history = p.history_bytes as f64;
    let hash_table = (1u64 << p.hash_entries_log) as f64 * HASH_ENTRY_BYTES;
    match (Pipeline::of(op.algo), op.dir) {
        (Pipeline::Snappy, Direction::Decompress) => SNAPPY_D_LOGIC + history * SRAM_MM2_PER_BYTE,
        (Pipeline::Snappy, Direction::Compress) => {
            SNAPPY_C_LOGIC + (history + hash_table) * SRAM_MM2_PER_BYTE
        }
        (Pipeline::Zstd, Direction::Decompress) => {
            ZSTD_D_LOGIC + SPEC_LANE_MM2 * p.spec_ways as f64 + history * SRAM_MM2_PER_BYTE
        }
        (Pipeline::Zstd, Direction::Compress) => {
            ZSTD_C_LOGIC + (history + hash_table) * SRAM_MM2_PER_BYTE
        }
        (Pipeline::Flate, Direction::Decompress) => {
            mm2(AlgoOp::new(Algorithm::Zstd, op.dir), p) - FSE_EXPANDER_MM2
        }
        (Pipeline::Flate, Direction::Compress) => {
            mm2(AlgoOp::new(Algorithm::Zstd, op.dir), p) - FSE_COMPRESSOR_MM2
        }
    }
}

/// Fraction of a Xeon core tile an area consumes (the paper's headline
/// "2.4% to 4.7% of the area" comparisons).
pub fn fraction_of_xeon_core(mm2: f64) -> f64 {
    mm2 / XEON_CORE_TILE_MM2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snappy_d(p: &CdpuParams) -> f64 {
        mm2(AlgoOp::new(Algorithm::Snappy, Direction::Decompress), p)
    }
    fn snappy_c(p: &CdpuParams) -> f64 {
        mm2(AlgoOp::new(Algorithm::Snappy, Direction::Compress), p)
    }
    fn zstd_d(p: &CdpuParams) -> f64 {
        mm2(AlgoOp::new(Algorithm::Zstd, Direction::Decompress), p)
    }
    fn zstd_c(p: &CdpuParams) -> f64 {
        mm2(AlgoOp::new(Algorithm::Zstd, Direction::Compress), p)
    }
    fn flate_d(p: &CdpuParams) -> f64 {
        mm2(AlgoOp::new(Algorithm::Flate, Direction::Decompress), p)
    }
    fn flate_c(p: &CdpuParams) -> f64 {
        mm2(AlgoOp::new(Algorithm::Flate, Direction::Compress), p)
    }

    fn full() -> CdpuParams {
        CdpuParams::default()
    }

    fn with_history(h: usize) -> CdpuParams {
        CdpuParams::default().with_history(h)
    }

    #[test]
    fn snappy_decompressor_absolute() {
        let a = snappy_d(&full());
        assert!((a - 0.431).abs() < 0.01, "{a}");
        // Paper: 2.4% of a Xeon core.
        let frac = fraction_of_xeon_core(a);
        assert!((0.020..0.028).contains(&frac), "{frac}");
    }

    #[test]
    fn snappy_decompressor_2k_saves_around_38_percent() {
        let full_a = snappy_d(&full());
        let small = snappy_d(&with_history(2048));
        let saving = 1.0 - small / full_a;
        assert!((0.32..0.45).contains(&saving), "saving {saving}");
    }

    #[test]
    fn snappy_compressor_absolute() {
        let a = snappy_c(&full());
        assert!((a - 0.851).abs() < 0.01, "{a}");
    }

    #[test]
    fn snappy_compressor_sweeps() {
        let full_a = snappy_c(&full());
        // 2K history, full hash table: ~20% smaller.
        let small_hist = snappy_c(&with_history(2048));
        let s1 = 1.0 - small_hist / full_a;
        assert!((0.15..0.25).contains(&s1), "history saving {s1}");
        // 2K history + 2^9 hash table: the paper's 34%-of-full design.
        let tiny = snappy_c(&with_history(2048).with_hash_entries_log(9));
        let frac = tiny / full_a;
        assert!((0.30..0.45).contains(&frac), "tiny fraction {frac}");
        // And ~1.6% of a Xeon core.
        let xeon = fraction_of_xeon_core(tiny);
        assert!((0.013..0.022).contains(&xeon), "{xeon}");
    }

    #[test]
    fn zstd_decompressor_absolute_and_sweeps() {
        let a = zstd_d(&full());
        assert!((a - 1.90).abs() < 0.02, "{a}");
        // 2K history saves only ~8.6% (logic dominates).
        let small = zstd_d(&with_history(2048));
        let saving = 1.0 - small / a;
        assert!((0.06..0.11).contains(&saving), "saving {saving}");
        // Speculation sweep: +18% for 32, −10% for 4 (approximately).
        let s32 = zstd_d(&full().with_spec(32));
        let s4 = zstd_d(&full().with_spec(4));
        assert!(((s32 / a) - 1.16).abs() < 0.05, "spec32 {}", s32 / a);
        assert!((1.0 - (s4 / a) - 0.12).abs() < 0.05, "spec4 {}", s4 / a);
    }

    #[test]
    fn zstd_compressor_absolute() {
        let a = zstd_c(&full());
        assert!((a - 3.48).abs() < 0.02, "{a}");
    }

    #[test]
    fn pipeline_totals_match_related_work_comparison() {
        // Section 7: "our design consuming around 1.3 mm² (Snappy) or
        // 5.7 mm² (ZStd) in a 16nm process".
        let snappy = snappy_d(&full()) + snappy_c(&full());
        assert!((1.1..1.5).contains(&snappy), "snappy pipeline {snappy}");
        let zstd = zstd_d(&full()) + zstd_c(&full());
        assert!((5.0..6.0).contains(&zstd), "zstd pipeline {zstd}");
    }

    #[test]
    fn flate_to_zstd_is_the_fse_module() {
        // Section 3.4: "transitioning from Flate to ZStd would mostly
        // entail adding an FSE module" — the area deltas are exactly the
        // FSE blocks, and they are a minority of the pipeline.
        let p = full();
        let d_delta = zstd_d(&p) - flate_d(&p);
        assert!((d_delta - FSE_EXPANDER_MM2).abs() < 1e-12);
        let c_delta = zstd_c(&p) - flate_c(&p);
        assert!((c_delta - FSE_COMPRESSOR_MM2).abs() < 1e-12);
        let pipeline = zstd_d(&p) + zstd_c(&p);
        assert!((d_delta + c_delta) / pipeline < 0.4);
    }

    #[test]
    fn area_monotone_in_every_knob() {
        let base = full();
        assert!(snappy_d(&with_history(4096)) < snappy_d(&base));
        assert!(
            snappy_c(&base.with_hash_entries_log(10))
                < snappy_c(&base)
        );
        assert!(zstd_d(&base.with_spec(8)) < zstd_d(&base));
    }
}
