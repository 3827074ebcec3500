//! Real codec execution for the serving engine: turns a scheduled call
//! into actual compress/decompress work over corpus-bank bytes.
//!
//! The engine's contract (mirroring the paper's CDPU prototype serving
//! stack) is that every dispatched call runs a *real* kernel — the same
//! `cdpu-snappy`/`cdpu-zstd`/`cdpu-flate`/`cdpu-lite` code paths the
//! benchmarks measure — never an analytic shortcut. Two input families
//! keep that cheap and deterministic:
//!
//! - **Compression** calls slice an exact-length window out of a *tape*:
//!   the corpus bank's chunks concatenated in build order (shuffled across
//!   kinds, so consecutive windows mix content types the way fleet
//!   payloads do). The window offset is a hash of the call's salt, so the
//!   byte content of every call is a pure function of `(seed, salt)`.
//! - **Decompression** calls pull a pre-compressed payload from a lazily
//!   built *ladder*: tape windows compressed once per (algorithm, level
//!   bucket, size step) and cached. Sizes snap to quarter-octave steps
//!   (≤ ~11% rounding, documented in EXPERIMENTS.md as a deviation
//!   source) and ZStd levels to the {1, 3, 9} buckets, bounding the
//!   ladder to a few dozen cached payloads per algorithm.
//!
//! Which codec crate runs an algorithm is the `kernel` module's table
//! (Brotli calls execute on the Flate kernel). Decode scratch buffers are
//! thread-local, so steady-state execution on a worker shard is
//! allocation-free for decompression and outputs are identical regardless
//! of which shard ran the call.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdpu_fleet::{AlgoOp, Algorithm, Direction};
use cdpu_hcbench::bank::{BankConfig, ChunkBank};
use cdpu_lz77::window::DecoderScratch;
use cdpu_util::rng::mix64;

use crate::kernel::{kernel, Kernel};

/// Smallest call the workload will execute (codecs accept less, but a
/// sub-16-byte "call" prices below measurement noise).
pub const MIN_CALL_BYTES: u64 = 16;

/// ZStd ladder level buckets: lightweight / default / heavy, matching the
/// bank's own precompute levels.
const ZSTD_BUCKETS: [i32; 3] = [1, 3, 9];

/// How the serving engine generates call payloads.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Seed for the corpus bank and window-offset hashing.
    pub seed: u64,
    /// Total tape bytes (split evenly across the corpus kinds).
    pub tape_bytes: usize,
    /// Calls larger than this clamp down to it (must be ≤ half the tape).
    pub max_call_bytes: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0xC0FFEE,
            tape_bytes: 2 << 20,
            max_call_bytes: 512 * 1024,
        }
    }
}

impl WorkloadConfig {
    /// A small config for CI smokes: ~0.5 MiB tape, 64 KiB call cap.
    pub fn tiny() -> Self {
        WorkloadConfig {
            seed: 0xC0FFEE,
            tape_bytes: 512 * 1024,
            max_call_bytes: 64 * 1024,
        }
    }
}

/// One executable call: what the engine stores per admitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCall {
    /// Algorithm and direction.
    pub op: AlgoOp,
    /// Requested uncompressed bytes (already clamped by the engine).
    pub bytes: u64,
    /// ZStd level (bucketed at execution time).
    pub level: Option<i32>,
    /// Per-call salt (the job id) — selects the tape window.
    pub salt: u64,
}

/// What actually happened when a call executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOutcome {
    /// Uncompressed bytes processed (input for C, output for D).
    pub uncompressed_bytes: u64,
    /// Compressed bytes (output for C, input for D).
    pub compressed_bytes: u64,
    /// Strided FNV fold of the produced bytes — proves real execution and
    /// lets determinism tests compare outputs across runs cheaply.
    pub check: u64,
}

/// Key of one cached decompression payload.
type LadderKey = (Algorithm, i32, u32);

/// The payload generator shared by every engine run (and every shard).
#[derive(Debug)]
pub struct Workload {
    tape: Vec<u8>,
    max_call_bytes: u64,
    ladder: Mutex<HashMap<LadderKey, Arc<Vec<u8>>>>,
}

thread_local! {
    /// Per-shard decode scratch: reused across every call a shard runs.
    static SCRATCH: RefCell<DecoderScratch> = const { RefCell::new(DecoderScratch::new()) };
}

impl Workload {
    /// Builds the tape from a corpus bank. The bank build itself is the
    /// expensive part (it pre-compresses chunks for its ratio tables);
    /// everything after is concatenation.
    pub fn build(cfg: &WorkloadConfig) -> Self {
        let kinds = cdpu_corpus::ALL_KINDS.len();
        let per_kind = (cfg.tape_bytes / kinds).max(4096);
        let bank = ChunkBank::build(&BankConfig {
            chunk_size: 4096,
            per_kind_bytes: per_kind,
            zstd_levels: vec![1, 3, 9],
            seed: cfg.seed ^ 0x5345_5256_4544, // "SERVED"
        });
        let mut tape = Vec::with_capacity(bank.len() * 4096);
        for i in 0..bank.len() {
            tape.extend_from_slice(bank.chunk(i));
        }
        let max_call = cfg.max_call_bytes.min(tape.len() as u64 / 2).max(MIN_CALL_BYTES);
        Workload {
            tape,
            max_call_bytes: max_call,
            ladder: Mutex::new(HashMap::new()),
        }
    }

    /// Largest call this workload will execute.
    pub fn max_call_bytes(&self) -> u64 {
        self.max_call_bytes
    }

    /// Clamps a sampled fleet call size into the executable range.
    pub fn clamp_bytes(&self, bytes: u64) -> u64 {
        bytes.clamp(MIN_CALL_BYTES, self.max_call_bytes)
    }

    /// Executes a batch of calls on the calling thread (the engine invokes
    /// this from a worker shard), returning per-call outcomes plus the
    /// measured wall-clock nanoseconds for the whole batch.
    pub fn execute_all(&self, calls: &[EngineCall]) -> (Vec<ExecOutcome>, u64) {
        SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            let start = Instant::now();
            let outcomes = calls.iter().map(|c| self.execute(c, scratch)).collect();
            let measured_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            (outcomes, measured_ns)
        })
    }

    /// Executes one call with an explicit scratch (tests use this; the
    /// engine goes through [`execute_all`](Self::execute_all)).
    pub fn execute(&self, call: &EngineCall, scratch: &mut DecoderScratch) -> ExecOutcome {
        match call.op.dir {
            Direction::Compress => self.execute_compress(call),
            Direction::Decompress => self.execute_decompress(call, scratch),
        }
    }

    fn execute_compress(&self, call: &EngineCall) -> ExecOutcome {
        let bytes = self.clamp_bytes(call.bytes);
        let input = self.tape_window(call.salt, bytes as usize);
        let out = (kernel(call.op.algo).compress)(input, zstd_bucket(call.level));
        ExecOutcome {
            uncompressed_bytes: bytes,
            compressed_bytes: out.len() as u64,
            check: fold(&out),
        }
    }

    fn execute_decompress(&self, call: &EngineCall, scratch: &mut DecoderScratch) -> ExecOutcome {
        let bytes = self.clamp_bytes(call.bytes);
        let k = kernel(call.op.algo);
        let payload = self.ladder_payload(k, zstd_bucket(call.level), step_of(bytes));
        let out = (k.decompress_into)(&payload, scratch).expect("ladder payload is self-compressed");
        ExecOutcome {
            uncompressed_bytes: out.len() as u64,
            compressed_bytes: payload.len() as u64,
            check: fold(out),
        }
    }

    /// An exact-length window into the tape at a salt-hashed offset.
    fn tape_window(&self, salt: u64, len: usize) -> &[u8] {
        let len = len.min(self.tape.len());
        let span = (self.tape.len() - len) as u64 + 1;
        let off = (mix64(salt ^ 0x5741_4C4C) % span) as usize;
        &self.tape[off..off + len]
    }

    /// The cached compressed payload whose decompressed size is the given
    /// ladder step. Built on first use; payload content depends only on
    /// the tape and the key, never on which call or shard asked first.
    fn ladder_payload(&self, k: &Kernel, level: i32, step: u32) -> Arc<Vec<u8>> {
        let step = step.min(step_of(self.max_call_bytes));
        let key = (k.algo, level, step);
        if let Some(p) = self.ladder.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return Arc::clone(p);
        }
        // Build outside the lock: a racing builder produces identical
        // bytes (the input window is a pure function of the key), so
        // whichever insert wins is interchangeable.
        let size = step_bytes(step).min(self.max_call_bytes) as usize;
        let salt = mix64(
            0x4C41_4444_4552 ^ ((key.0 as u64) << 40) ^ ((level as u64 & 0xFF) << 32) ^ step as u64,
        );
        let arc = Arc::new((k.compress)(self.tape_window(salt, size), level));
        let mut guard = self.ladder.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(guard.entry(key).or_insert(arc))
    }
}

/// Snaps a ZStd level to the nearest ladder bucket; non-ZStd levels and
/// `None` collapse to the middle bucket (ignored by those codecs anyway).
fn zstd_bucket(level: Option<i32>) -> i32 {
    let l = level.unwrap_or(3);
    *ZSTD_BUCKETS
        .iter()
        .min_by_key(|&&b| (b - l).abs())
        .expect("non-empty buckets")
}

/// Quarter-octave size step index: step `4o + j` covers sizes near
/// `2^o · (4+j)/4`. Rounds to the nearest step (≤ ~11% deviation).
pub fn step_of(bytes: u64) -> u32 {
    let b = bytes.max(MIN_CALL_BYTES);
    let o = 63 - b.leading_zeros(); // o ≥ 4
    // Position within the octave in eighths, rounded to quarters.
    let eighths = ((b - (1u64 << o)) * 8) >> o; // 0..8
    let j = eighths.div_ceil(2); // 0..=4
    if j == 4 {
        (o + 1) * 4
    } else {
        o * 4 + j as u32
    }
}

/// Decompressed size of a ladder step (inverse of [`step_of`]).
pub fn step_bytes(step: u32) -> u64 {
    let o = step / 4;
    let j = (step % 4) as u64;
    ((4 + j) << o) >> 2
}

/// Strided FNV-1a fold: samples ≤ 4096 positions so the checksum cost is
/// bounded regardless of payload size, while still covering the buffer.
fn fold(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let stride = (bytes.len() / 4096).max(1);
    let mut h = FNV_OFFSET ^ bytes.len() as u64;
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u64).wrapping_mul(FNV_PRIME);
        i += stride;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_fleet::Direction;

    fn tiny_workload() -> Workload {
        Workload::build(&WorkloadConfig {
            seed: 7,
            tape_bytes: 128 * 1024,
            max_call_bytes: 32 * 1024,
        })
    }

    fn call(algo: Algorithm, dir: Direction, bytes: u64, level: Option<i32>) -> EngineCall {
        EngineCall {
            op: AlgoOp::new(algo, dir),
            bytes,
            level,
            salt: bytes ^ 0x9E37,
        }
    }

    #[test]
    fn step_roundtrip_deviation_bounded() {
        for bytes in [16u64, 100, 4096, 5000, 65536, 100_000, 512 * 1024] {
            let step = step_of(bytes);
            let snapped = step_bytes(step);
            let dev = (snapped as f64 - bytes as f64).abs() / bytes as f64;
            assert!(dev <= 0.125, "{bytes} → step {step} → {snapped} ({dev:.3})");
        }
        // Exact powers of two and quarter points are fixed points.
        for step in 16..40 {
            assert_eq!(step_of(step_bytes(step)), step);
        }
    }

    #[test]
    fn every_algorithm_executes_both_directions() {
        let wl = tiny_workload();
        let mut scratch = DecoderScratch::new();
        for algo in Algorithm::ALL {
            for dir in Direction::ALL {
                let c = call(algo, dir, 8192, Some(3));
                let out = wl.execute(&c, &mut scratch);
                assert!(out.uncompressed_bytes > 0, "{algo:?} {dir:?}");
                assert!(out.compressed_bytes > 0, "{algo:?} {dir:?}");
                assert!(
                    out.compressed_bytes <= 2 * out.uncompressed_bytes + 64,
                    "{algo:?} {dir:?} implausible sizes"
                );
            }
        }
    }

    /// Every kernel the serving tier can reach, both directions, folded
    /// into one digest: a change to which codec, level or payload a call
    /// runs on moves it, whatever happens to the dispatch code.
    #[test]
    fn execute_outcomes_are_pinned() {
        let wl = tiny_workload();
        let mut scratch = DecoderScratch::new();
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for algo in Algorithm::ALL {
            for dir in Direction::ALL {
                for (bytes, level) in [(4 * 1024, 1), (32 * 1024, 9)] {
                    let out = wl.execute(&call(algo, dir, bytes, Some(level)), &mut scratch);
                    for word in [out.uncompressed_bytes, out.compressed_bytes, out.check] {
                        for b in word.to_le_bytes() {
                            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
                        }
                    }
                }
            }
        }
        assert_eq!(h, 0x9FAE_0871_8312_AD34, "serving outcomes moved: got {h:#018X}");
    }

    #[test]
    fn execution_is_deterministic_per_salt() {
        let wl = tiny_workload();
        let mut scratch = DecoderScratch::new();
        let c = call(Algorithm::Zstd, Direction::Compress, 10_000, Some(9));
        let a = wl.execute(&c, &mut scratch);
        let b = wl.execute(&c, &mut scratch);
        assert_eq!(a, b);
        // Different salts see different tape windows.
        let mut c2 = c;
        c2.salt ^= 1;
        let d = wl.execute(&c2, &mut scratch);
        assert_ne!(a.check, d.check, "distinct windows should fold differently");
    }

    #[test]
    fn decompress_size_snaps_to_ladder_step() {
        let wl = tiny_workload();
        let mut scratch = DecoderScratch::new();
        let c = call(Algorithm::Snappy, Direction::Decompress, 5000, None);
        let out = wl.execute(&c, &mut scratch);
        assert_eq!(out.uncompressed_bytes, step_bytes(step_of(5000)));
    }

    #[test]
    fn oversized_calls_clamp_to_max() {
        let wl = tiny_workload();
        assert_eq!(wl.clamp_bytes(1 << 30), wl.max_call_bytes());
        assert_eq!(wl.clamp_bytes(0), MIN_CALL_BYTES);
        let mut scratch = DecoderScratch::new();
        let c = call(Algorithm::Lzo, Direction::Compress, 1 << 30, None);
        let out = wl.execute(&c, &mut scratch);
        assert_eq!(out.uncompressed_bytes, wl.max_call_bytes());
    }

    #[test]
    fn brotli_shares_flate_ladder() {
        let wl = tiny_workload();
        let mut scratch = DecoderScratch::new();
        let b = call(Algorithm::Brotli, Direction::Decompress, 4096, None);
        let f = call(Algorithm::Flate, Direction::Decompress, 4096, None);
        assert_eq!(wl.execute(&b, &mut scratch), wl.execute(&f, &mut scratch));
    }
}
