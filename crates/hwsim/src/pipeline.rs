//! Stage-pipelined streaming model: intra-call stage overlap.
//!
//! The streaming core (`cdpu_util::stream` + each codec's `stream`
//! module) processes one large call as a sequence of ≤ 128 KiB blocks.
//! Executed naively, each block runs its three streaming stages — input
//! streaming, compute, output streaming — back to back, so the call costs
//! the *sum* of every stage of every block. A stage-pipelined execution
//! overlaps the stages of consecutive blocks instead: while block *i*
//! entropy-codes, block *i + 1* is already being parsed and block
//! *i − 1* written out. No software path runs this overlap; it is a
//! model result.
//!
//! This module prices both executions with the same per-block
//! [`StageCycles`](crate::stages::StageCycles) the rest of the simulator
//! uses ([`service_stages`] on a block-sized call), keeping the classic
//! pipeline shape:
//!
//! - **serial**: `dispatch + n · (input + compute + output)` — no
//!   overlap, every stage of every block on the critical path;
//! - **pipelined**: `dispatch + (input + compute + output) +
//!   (n − 1) · max(input, compute, output)` — one block's fill/drain
//!   plus the bottleneck stage per steady-state block.
//!
//! Like [`crate::chunked`], the model is a pure function of its inputs —
//! no RNG, no wall clocks — so its `streaming_pipeline_speedup` (the
//! minimum over classes and directions of a 4 MiB call) is deterministic
//! and host-independent.

use crate::params::{CdpuParams, MemParams};
use crate::service::service_stages;
use cdpu_fleet::CallRecord;

/// Cycle accounting for one stage-pipelined streaming execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineCycles {
    /// The call priced block-serially (no stage overlap).
    pub serial_cycles: u64,
    /// The call priced with stage overlap (fill + bottleneck per block).
    pub pipelined_cycles: u64,
    /// Number of streaming blocks in the call.
    pub blocks: u64,
    /// Steady-state bottleneck: cycles of the slowest stage of one block.
    pub bottleneck_cycles: u64,
}

impl PipelineCycles {
    /// Modeled speedup of stage-pipelined over block-serial execution
    /// (>1 is a win; 1.0 exactly for single-block calls, which have no
    /// cross-block overlap to exploit).
    pub fn speedup(&self) -> f64 {
        self.serial_cycles as f64 / self.pipelined_cycles as f64
    }
}

/// Prices `call` executed through the streaming core in
/// `block_bytes`-sized blocks, with and without stage overlap.
///
/// Per-block stage cycles come from
/// [`service_stages`] on a block-sized
/// call (same algorithm, direction and level), so the per-block fixed
/// costs — dispatch aside, which is charged once per call — match the
/// rest of the simulator. The tail block is priced at its true size.
///
/// # Panics
///
/// Panics if `block_bytes` is zero or `p` fails validation.
pub fn pipelined_cycles(
    call: &CallRecord,
    block_bytes: u64,
    p: &CdpuParams,
    mem: &MemParams,
) -> PipelineCycles {
    assert!(block_bytes > 0, "block size must be positive");
    let total = call.uncompressed_bytes;
    let blocks = total.div_ceil(block_bytes).max(1);
    let tail = total - (blocks - 1) * block_bytes;

    let stages_for = |bytes: u64| {
        let block_call = CallRecord { uncompressed_bytes: bytes.max(1), ..*call };
        service_stages(&block_call, p, mem)
    };
    let full = stages_for(block_bytes.min(total.max(1)));
    let dispatch = full.dispatch;
    let sum_of = |s: &crate::stages::StageCycles| s.input_stream + s.compute() + s.output_stream;
    let bottleneck_of =
        |s: &crate::stages::StageCycles| s.input_stream.max(s.compute()).max(s.output_stream);

    let (mut serial, mut fill, mut steady) = (0u64, 0u64, 0u64);
    let mut bottleneck = 0u64;
    for i in 0..blocks {
        let s = if i + 1 == blocks { stages_for(tail) } else { full };
        serial += sum_of(&s);
        if i == 0 {
            fill = sum_of(&s);
        } else {
            steady += bottleneck_of(&s);
        }
        bottleneck = bottleneck.max(bottleneck_of(&s));
    }
    PipelineCycles {
        serial_cycles: dispatch + serial,
        pipelined_cycles: dispatch + fill + steady,
        blocks,
        bottleneck_cycles: bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_fleet::{AlgoOp, Algorithm, Direction};

    fn call(algo: Algorithm, dir: Direction, bytes: u64) -> CallRecord {
        CallRecord {
            op: AlgoOp::new(algo, dir),
            uncompressed_bytes: bytes,
            level: Some(3),
            window_log: None,
            caller: "pipeline-test",
        }
    }

    fn params() -> (CdpuParams, MemParams) {
        (CdpuParams::default(), MemParams::default())
    }

    #[test]
    fn multi_block_calls_speed_up() {
        let (p, mem) = params();
        for algo in [Algorithm::Snappy, Algorithm::Zstd, Algorithm::Flate] {
            for dir in [Direction::Compress, Direction::Decompress] {
                let res = pipelined_cycles(&call(algo, dir, 4 << 20), 128 * 1024, &p, &mem);
                assert_eq!(res.blocks, 32);
                assert!(
                    res.speedup() > 1.0,
                    "{algo:?} {dir:?}: {} vs {}",
                    res.serial_cycles,
                    res.pipelined_cycles
                );
                // Overlap can never beat the bottleneck-stage bound.
                assert!(res.pipelined_cycles >= res.blocks * res.bottleneck_cycles);
            }
        }
    }

    #[test]
    fn single_block_call_has_no_overlap_win() {
        let (p, mem) = params();
        let res = pipelined_cycles(&call(Algorithm::Zstd, Direction::Compress, 64 * 1024), 128 * 1024, &p, &mem);
        assert_eq!(res.blocks, 1);
        assert_eq!(res.serial_cycles, res.pipelined_cycles);
        assert_eq!(res.speedup(), 1.0);
    }

    #[test]
    fn model_is_deterministic() {
        let (p, mem) = params();
        let c = call(Algorithm::Flate, Direction::Decompress, 1 << 20);
        assert_eq!(
            pipelined_cycles(&c, 128 * 1024, &p, &mem),
            pipelined_cycles(&c, 128 * 1024, &p, &mem)
        );
    }

    #[test]
    fn more_blocks_monotonically_increase_both_costs() {
        let (p, mem) = params();
        let mut prev = (0u64, 0u64);
        for mib in [1u64, 2, 4, 8] {
            let res = pipelined_cycles(
                &call(Algorithm::Snappy, Direction::Decompress, mib << 20),
                128 * 1024,
                &p,
                &mem,
            );
            assert!(res.serial_cycles > prev.0 && res.pipelined_cycles > prev.1, "{mib} MiB");
            prev = (res.serial_cycles, res.pipelined_cycles);
        }
    }

    #[test]
    fn speedup_approaches_stage_count_for_balanced_stages() {
        // With many blocks the speedup tends to serial/bottleneck ∈ (1, 3];
        // assert it lands strictly inside and grows with block count.
        let (p, mem) = params();
        let few = pipelined_cycles(&call(Algorithm::Zstd, Direction::Decompress, 512 * 1024), 128 * 1024, &p, &mem);
        let many = pipelined_cycles(&call(Algorithm::Zstd, Direction::Decompress, 16 << 20), 128 * 1024, &p, &mem);
        assert!(many.speedup() >= few.speedup());
        assert!(many.speedup() <= 3.0 + f64::EPSILON);
    }

    /// Every class and direction of a 4 MiB call in 128 KiB blocks,
    /// exactly. The minimum over them, flate-class decompress at 1.091, is
    /// `streaming_pipeline_speedup`.
    #[test]
    fn four_mib_call_in_128_kib_blocks_is_pinned() {
        use Algorithm::{Flate, Snappy, Zstd};
        use Direction::{Compress, Decompress};
        let (p, mem) = params();
        let mut min = f64::INFINITY;
        for (algo, level, dir, serial, pipelined, speedup) in [
            (Snappy, None, Compress, 1_901_948, 1_430_841, "1.329"),
            (Snappy, None, Decompress, 1_157_468, 686_361, "1.686"),
            (Zstd, Some(3), Compress, 2_441_244, 2_017_908, "1.210"),
            (Zstd, Some(3), Decompress, 3_601_084, 3_177_748, "1.133"),
            (Flate, Some(6), Compress, 2_734_140, 2_308_386, "1.184"),
            (Flate, Some(6), Decompress, 5_093_660, 4_667_906, "1.091"),
        ] {
            let c = CallRecord {
                level,
                ..call(algo, dir, 4 << 20)
            };
            let res = pipelined_cycles(&c, 128 * 1024, &p, &mem);
            let what = format!("{algo:?} {dir:?}");
            assert_eq!(res.serial_cycles, serial, "{what}");
            assert_eq!(res.pipelined_cycles, pipelined, "{what}");
            assert_eq!(format!("{:.3}", res.speedup()), speedup, "{what}");
            min = min.min(res.speedup());
        }
        assert_eq!(format!("{min:.3}"), "1.091");
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_rejected() {
        let (p, mem) = params();
        pipelined_cycles(&call(Algorithm::Snappy, Direction::Compress, 1 << 20), 0, &p, &mem);
    }
}
