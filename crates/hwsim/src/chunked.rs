//! Chunked-frame stage model: intra-call data parallelism.
//!
//! A chunked frame (see `cdpu_util::frame`) splits one large call into
//! independently decodable chunks, so `k` CDPU lanes can work on a single
//! call at once — the CODAG-style parallel-decode placement. This module
//! prices that execution against the same per-call pipeline models the
//! rest of the simulator uses:
//!
//! - each chunk is priced as its own call through
//!   [`service_cycles`] (so per-chunk
//!   fixed costs — RoCC dispatch, entropy table builds — are charged per
//!   chunk, which is exactly the ratio/overhead tax chunking pays);
//! - the frame layer adds a serial per-chunk descriptor walk up front
//!   ([`FRAME_DISPATCH_CYCLES`]) and per-chunk completion/merge
//!   bookkeeping ([`FRAME_MERGE_CYCLES`]);
//! - chunks are assigned to lanes round-robin (chunks are equal-sized by
//!   construction except the tail, so list scheduling is within one chunk
//!   of optimal) and the makespan is the slowest lane.
//!
//! The model is a pure function of its inputs, so DSE sweeps can vary
//! chunk size, lane count, and placement ([`crate::params::Placement`]
//! arrives via `CdpuParams`, as everywhere else).

use crate::params::{CdpuParams, MemParams};
use crate::service::service_cycles;
use cdpu_fleet::CallRecord;

/// Serial frame-level cost per chunk before decode can start: chunk-table
/// walk plus scatter descriptor issue for the chunk's output slice.
pub const FRAME_DISPATCH_CYCLES: u64 = 32;

/// Frame-level cost per chunk at completion: status collection and merge
/// bookkeeping on the control processor.
pub const FRAME_MERGE_CYCLES: u64 = 24;

/// Cycle accounting for one chunked-frame execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedCycles {
    /// The same call priced unchunked through one pipeline.
    pub serial_cycles: u64,
    /// Makespan of the chunked execution (dispatch + slowest lane + merge).
    pub chunked_cycles: u64,
    /// Number of chunks in the frame.
    pub chunks: u64,
    /// Lanes decoding in parallel.
    pub workers: u32,
}

impl ChunkedCycles {
    /// Modeled speedup of chunked over serial execution (>1 is a win).
    pub fn speedup(&self) -> f64 {
        self.serial_cycles as f64 / self.chunked_cycles as f64
    }
}

/// Prices `call` executed as a chunked frame of `chunk_bytes`-sized chunks
/// across `workers` parallel lanes, against the unchunked single-pipeline
/// execution. Works for both directions: a compress call models parallel
/// chunk compression, a decompress call the parallel decode path.
///
/// `workers == 0` is clamped to 1; a call no larger than one chunk still
/// pays the frame overhead for its single chunk.
///
/// # Panics
///
/// Panics if `chunk_bytes == 0`.
pub fn chunked_cycles(
    call: &CallRecord,
    chunk_bytes: u64,
    workers: u32,
    p: &CdpuParams,
    mem: &MemParams,
) -> ChunkedCycles {
    assert!(chunk_bytes > 0, "chunk_bytes must be positive");
    let workers = workers.max(1);
    let serial = service_cycles(call, p, mem);
    let total = call.uncompressed_bytes;
    let n = total.div_ceil(chunk_bytes).max(1);

    // Every chunk covers chunk_bytes except the tail.
    let chunk_call = |bytes: u64| -> u64 {
        let mut c = call.clone();
        c.uncompressed_bytes = bytes;
        service_cycles(&c, p, mem)
    };
    let full = chunk_call(total.min(chunk_bytes));
    let tail_bytes = total - (n - 1) * chunk_bytes.min(total);
    let tail = if tail_bytes == total.min(chunk_bytes) {
        full
    } else {
        chunk_call(tail_bytes)
    };

    // Round-robin lane assignment; the tail chunk is the last index.
    let mut lane_load = vec![0u64; workers as usize];
    for i in 0..n {
        let cycles = if i == n - 1 { tail } else { full };
        lane_load[(i % workers as u64) as usize] += cycles;
    }
    let slowest = lane_load.into_iter().max().unwrap_or(0);
    let chunked = n * FRAME_DISPATCH_CYCLES + slowest + n * FRAME_MERGE_CYCLES;
    ChunkedCycles {
        serial_cycles: serial,
        chunked_cycles: chunked,
        chunks: n,
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_fleet::{AlgoOp, Algorithm, Direction};

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
    fn four_workers_double_throughput_on_large_calls() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        for (algo, level) in [
            (Algorithm::Snappy, None),
            (Algorithm::Lzo, None),
            (Algorithm::Zstd, Some(3)),
        ] {
            let c = call(algo, Direction::Decompress, 1 << 20, level);
            let r = chunked_cycles(&c, 64 * 1024, 4, &p, &mem);
            assert_eq!(r.chunks, 16);
            assert!(
                r.speedup() >= 2.0,
                "{algo:?}: {:.2}x at 4 workers",
                r.speedup()
            );
        }
    }

    #[test]
    fn speedup_monotone_in_workers() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        let c = call(Algorithm::Snappy, Direction::Decompress, 1 << 20, None);
        let mut prev = 0.0;
        for k in [1u32, 2, 4, 8] {
            let s = chunked_cycles(&c, 64 * 1024, k, &p, &mem).speedup();
            assert!(s >= prev, "speedup fell from {prev:.2} to {s:.2} at k={k}");
            prev = s;
        }
    }

    #[test]
    fn single_chunk_pays_only_frame_overhead() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        let c = call(Algorithm::Snappy, Direction::Decompress, 30_000, None);
        let r = chunked_cycles(&c, 1 << 20, 4, &p, &mem);
        assert_eq!(r.chunks, 1);
        assert_eq!(
            r.chunked_cycles,
            r.serial_cycles + FRAME_DISPATCH_CYCLES + FRAME_MERGE_CYCLES
        );
        assert!(r.speedup() < 1.0);
    }

    #[test]
    fn one_worker_is_serial_plus_per_chunk_overheads() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        let c = call(Algorithm::Snappy, Direction::Decompress, 1 << 20, None);
        let r = chunked_cycles(&c, 64 * 1024, 1, &p, &mem);
        // One lane decodes every chunk back to back; per-chunk fixed costs
        // make this strictly slower than the unchunked call.
        assert!(r.chunked_cycles > r.serial_cycles);
        assert!(r.speedup() < 1.0);
    }

    #[test]
    fn compress_direction_models_too() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        let c = call(Algorithm::Snappy, Direction::Compress, 1 << 20, None);
        let r = chunked_cycles(&c, 64 * 1024, 4, &p, &mem);
        assert!(r.speedup() >= 2.0, "compress {:.2}x", r.speedup());
    }

    /// The chunked-frame ratios of a 1 MiB Snappy call at 64 KiB chunks
    /// on 4 lanes, exactly: `chunked_compress_speedup` 3.950 and
    /// `chunked_decode_speedup` 3.896. A change to the per-call pipeline
    /// models or the frame overheads moves them.
    #[test]
    fn one_mib_snappy_call_on_four_lanes_is_pinned() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        for (dir, serial, chunked, speedup) in [
            (Direction::Compress, 353_954, 89_608, "3.950"),
            (Direction::Decompress, 167_832, 43_076, "3.896"),
        ] {
            let c = call(Algorithm::Snappy, dir, 1 << 20, None);
            let r = chunked_cycles(&c, 64 * 1024, 4, &p, &mem);
            assert_eq!(r.chunks, 16, "{dir:?}");
            assert_eq!(r.serial_cycles, serial, "{dir:?}");
            assert_eq!(r.chunked_cycles, chunked, "{dir:?}");
            assert_eq!(format!("{:.3}", r.speedup()), speedup, "{dir:?}");
        }
    }

    #[test]
    fn deterministic() {
        let p = CdpuParams::default();
        let mem = MemParams::default();
        let c = call(Algorithm::Zstd, Direction::Decompress, 3 << 20, Some(3));
        let a = chunked_cycles(&c, 128 * 1024, 4, &p, &mem);
        let b = chunked_cycles(&c, 128 * 1024, 4, &p, &mem);
        assert_eq!(a, b);
    }
}
