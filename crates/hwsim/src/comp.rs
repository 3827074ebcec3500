//! Compressor cycle models (the Figure 10 pipeline).
//!
//! Compression differs from decompression in two structural ways the
//! paper's results hinge on:
//!
//! 1. The history check is *serial within the matcher* — offsets beyond
//!    the on-accelerator window simply cannot be found, so shrinking SRAM
//!    costs **ratio**, not fallback latency (Section 6.3: "large offset
//!    matching does not fall back to the L2 cache since history checking
//!    is necessarily serial in compression"). The simulator therefore
//!    *runs the real matcher* under the CDPU's restricted window/hash
//!    parameters and measures the achieved compressed size.
//! 2. Speed is nearly placement-insensitive (Figure 12/15) because the
//!    input stream is the only large transfer; smaller configurations lose
//!    speed "only because of the increased amount of data they must
//!    write" — which falls out of the measured ratio.

use cdpu_fleet::{Algorithm, AlgoOp, Direction};
use cdpu_lz77::hash::HashFn;
use cdpu_lz77::matcher::{HashTableMatcher, MatcherConfig};
use cdpu_lz77::Parse;
use cdpu_util::floor_log2;

use crate::decomp::DISPATCH_CYCLES;
use crate::params::{CdpuParams, MemParams};
use crate::profile::CallProfile;
use crate::stages::StageCycles;
use crate::{Pipeline, SimResult};

/// LZ77 encoder: literal positions probed per cycle (hash pipeline).
const PROBE_BPC: f64 = 2.0;
/// LZ77 encoder: matched bytes skipped/ingested per cycle.
const MATCH_SKIP_BPC: f64 = 8.0;
/// Cycles per emitted sequence.
const SEQ_CYCLES: f64 = 2.0;
/// ZStd compressor's matcher runs slower per probe than Snappy's (the
/// SeqToCode conversion and deeper pipeline).
const ZSTD_PROBE_BPC: f64 = 0.85;
/// Huffman encoder throughput, literal bytes per cycle.
const HUFF_ENC_BPC: f64 = 4.0;
/// FSE encoder throughput, sequences per cycle.
const FSE_ENC_SEQS_PER_CYCLE: f64 = 1.0;
/// Serial dictionary-build cycles per block for the Huffman dict builder.
const HUFF_DICT_BUILD: u64 = 1200;
/// Serial dictionary-build cycles per block for the three FSE builders.
const FSE_DICT_BUILD: u64 = 2400;

/// One compression-call simulation result, including the achieved output
/// size under the CDPU's restricted matcher (the ratio series of
/// Figures 12, 13 and 15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressSim {
    /// Timing/throughput result.
    pub sim: SimResult,
    /// Compressed bytes the hardware configuration achieves.
    pub compressed_bytes: u64,
}

impl CompressSim {
    /// Achieved compression ratio.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.sim.input_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// The matcher configuration implied by CDPU parameters: window bounded by
/// the history SRAM, hash table per parameters, no software skip
/// (Section 6.3's hardware-vs-software distinction).
pub fn hw_matcher_config(p: &CdpuParams) -> MatcherConfig {
    MatcherConfig {
        window_log: floor_log2(p.history_bytes as u64) as u32,
        entries_log: p.hash_entries_log,
        ways: p.hash_ways,
        hash_fn: HashFn::Multiplicative,
        min_match: cdpu_lz77::MIN_MATCH,
        skip: false,
    }
}

/// Per-stage breakdown of one compression call on pipeline `class`, from
/// the call's counts: the matcher charges probes, skipped match bytes and
/// emitted sequences; the ZStd class adds statistics collection, Huffman
/// and FSE encode and their per-block dictionary builds; the Flate class
/// drops the FSE stages and its Huffman encoder carries literals plus two
/// coded symbols per sequence.
pub(crate) fn stages(
    class: Pipeline,
    profile: &CallProfile,
    p: &CdpuParams,
    mem: &MemParams,
) -> StageCycles {
    let io = p.placement.io_injection_cycles(mem.freq_ghz);
    let lit = profile.literal_bytes as f64;
    let probe_bpc = if class == Pipeline::Snappy { PROBE_BPC } else { ZSTD_PROBE_BPC };
    let s = StageCycles {
        dispatch: DISPATCH_CYCLES,
        input_stream: mem.stream_cycles(profile.uncompressed, io),
        matcher: (lit / probe_bpc
            + profile.match_bytes as f64 / MATCH_SKIP_BPC
            + profile.seqs as f64 * SEQ_CYCLES)
            .round() as u64,
        output_stream: mem.stream_cycles(profile.compressed, io),
        ..Default::default()
    };
    match class {
        Pipeline::Snappy => s,
        Pipeline::Zstd => StageCycles {
            stats: (lit / p.stats_bytes_per_cycle as f64).round() as u64,
            huffman: (lit / HUFF_ENC_BPC).round() as u64,
            fse: (profile.seqs as f64 / FSE_ENC_SEQS_PER_CYCLE).round() as u64,
            table_build: profile.huffman_blocks * HUFF_DICT_BUILD
                + profile.blocks * FSE_DICT_BUILD,
            ..s
        },
        Pipeline::Flate => StageCycles {
            huffman: ((lit + 2.0 * profile.seqs as f64) / HUFF_ENC_BPC).round() as u64,
            table_build: profile.blocks * 2 * HUFF_DICT_BUILD,
            ..s
        },
    }
}

/// The count-only profile of one compression call on live data under the
/// CDPU's parameters: runs the hardware matcher once, with the window the
/// history SRAM allows capped at the format's own (Snappy 64 KiB, Flate
/// 32 KiB, ZStd uncapped), and measures the achieved size by encoding that
/// parse into `compressed`. It prices and records nothing.
///
/// The ZStd-class hardware re-uses the Snappy-configured LZ77 encoder
/// block (Section 6.5), so every class runs the same greedy hash-table
/// matcher; only the entropy stages priced on top differ. The parse reads
/// the history SRAM and the hash table of `p`, never its placement, so one
/// profile prices a call at every placement.
///
/// # Panics
///
/// Panics if `p` is structurally invalid (see [`CdpuParams::validate`]).
pub fn hw_profile(algo: Algorithm, data: &[u8], p: &CdpuParams) -> CallProfile {
    p.validate();
    let class = Pipeline::of(algo);
    let cfg = hw_matcher_config(p);
    let window_log = match class {
        Pipeline::Snappy => cfg.window_log.min(16),
        Pipeline::Flate => cfg.window_log.min(15),
        Pipeline::Zstd => cfg.window_log,
    };
    let parse = HashTableMatcher::new(MatcherConfig { window_log, ..cfg }).parse(data);
    let (compressed, blocks, huffman_blocks) = match class {
        Pipeline::Snappy => (cdpu_snappy::compress_parse(data, &parse).len() as u64, 1, 0),
        Pipeline::Zstd => encode_hw_frame(data, &parse),
        Pipeline::Flate => {
            let stream = cdpu_flate::compress_parse(data, &parse, &Default::default());
            let blocks = data.len().div_ceil(cdpu_flate::MAX_BLOCK_SIZE).max(1) as u64;
            (stream.len() as u64, blocks, 0)
        }
    };
    CallProfile {
        uncompressed: data.len() as u64,
        compressed,
        seqs: parse.seqs.len() as u64,
        literal_bytes: parse.literal_len() as u64,
        match_bytes: parse.matched_len() as u64,
        blocks,
        huffman_blocks,
        ..Default::default()
    }
}

/// Simulates one compression call on live data under the CDPU's
/// parameters: [`hw_profile`] priced through [`crate::simulate`].
pub fn compress(algo: Algorithm, data: &[u8], p: &CdpuParams, mem: &MemParams) -> CompressSim {
    let profile = hw_profile(algo, data, p);
    CompressSim {
        sim: crate::simulate(AlgoOp::new(algo, Direction::Compress), &profile, p, mem),
        compressed_bytes: profile.compressed,
    }
}

/// [`compress`] on the Snappy pipeline.
pub fn snappy_compress(data: &[u8], p: &CdpuParams, mem: &MemParams) -> CompressSim {
    compress(Algorithm::Snappy, data, p, mem)
}

/// [`compress`] on the ZStd pipeline.
pub fn zstd_compress(data: &[u8], p: &CdpuParams, mem: &MemParams) -> CompressSim {
    compress(Algorithm::Zstd, data, p, mem)
}

/// Encodes the hardware parse through the real ZStd-class block coder and
/// returns `(compressed_bytes, blocks, huffman_blocks)`.
fn encode_hw_frame(data: &[u8], parse: &Parse) -> (u64, u64, u64) {
    // Frame assembly mirrors the software codec's framing so sizes are
    // comparable; the parse (and therefore the ratio) is the hardware's.
    let mut total = 4 + 1 + 10u64; // magic + window byte + size varint bound
    let mut blocks = 0u64;
    let mut huff_blocks = 0u64;
    let mut pos = 0usize;
    for chunk in split_seqs(parse, cdpu_zstd::MAX_BLOCK_SIZE) {
        let len = chunk.total_len();
        let slice = &data[pos..pos + len];
        let mut payload = Vec::new();
        match cdpu_zstd::block::encode_block(slice, &chunk, &mut payload) {
            Ok(stats) if payload.len() < len => {
                total += payload.len() as u64 + 6;
                blocks += 1;
                if stats.huffman_literals {
                    huff_blocks += 1;
                }
            }
            _ => {
                total += len as u64 + 6;
                blocks += 1;
            }
        }
        pos += len;
    }
    (total, blocks.max(1), huff_blocks)
}

/// Splits a parse into ≤ `target`-byte sub-parses at sequence granularity
/// (simplified version of the codec's splitter; hardware parses come from
/// a ≤ 64 KiB window so no single sequence exceeds a block).
fn split_seqs(parse: &Parse, target: usize) -> Vec<Parse> {
    let mut out = Vec::new();
    let mut cur = Parse::default();
    let mut cur_len = 0usize;
    for s in &parse.seqs {
        let len = (s.lit_len + s.match_len) as usize;
        if cur_len + len > target && cur_len > 0 {
            out.push(std::mem::take(&mut cur));
            cur_len = 0;
        }
        cur.seqs.push(*s);
        cur_len += len;
    }
    cur.last_literals = parse.last_literals;
    cur_len += parse.last_literals as usize;
    if cur_len > 0 || !cur.seqs.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Placement;
    use cdpu_util::rng::Xoshiro256;

    fn sample(len: usize) -> Vec<u8> {
        let mut rng = Xoshiro256::seed_from(21);
        let mut data = Vec::new();
        while data.len() < len {
            data.extend_from_slice(
                format!("log line {:06} status={} latency={}us\n",
                    rng.index(100_000), 200 + rng.index(4) * 100, rng.index(90_000))
                .as_bytes(),
            );
        }
        data.truncate(len);
        data
    }

    #[test]
    fn snappy_compress_throughput_band() {
        let data = sample(256 * 1024);
        let r = snappy_compress(&data, &CdpuParams::default(), &MemParams::default());
        let gbps = r.sim.input_gbps();
        assert!((3.0..=9.0).contains(&gbps), "snappy-c {gbps} GB/s");
        assert!(r.ratio() > 1.5);
    }

    #[test]
    fn compression_placement_insensitive_vs_decompression() {
        // Figures 12/15: compression tolerates PCIe much better than
        // decompression does (≥ 6.6× of 16× retained, i.e. ≥ 40%).
        let data = sample(256 * 1024);
        let mem = MemParams::default();
        let rocc = snappy_compress(&data, &CdpuParams::full_size(Placement::Rocc), &mem);
        let pcie = snappy_compress(&data, &CdpuParams::full_size(Placement::PcieNoCache), &mem);
        let retained = rocc.sim.cycles as f64 / pcie.sim.cycles as f64;
        assert!(retained > 0.30, "pcie retains {retained} of rocc speed");
        // Ratio is placement-independent.
        assert_eq!(rocc.compressed_bytes, pcie.compressed_bytes);
    }

    #[test]
    fn smaller_history_costs_ratio_not_correctness() {
        let data = sample(512 * 1024);
        let mem = MemParams::default();
        let big = snappy_compress(&data, &CdpuParams::default(), &mem);
        let small = snappy_compress(&data, &CdpuParams::default().with_history(2048), &mem);
        assert!(small.ratio() <= big.ratio(), "2K window cannot beat 64K");
    }

    #[test]
    fn smaller_hash_table_costs_ratio() {
        // Figure 13 vs 12: 2^9 entries lose ratio vs 2^14.
        let data = sample(512 * 1024);
        let mem = MemParams::default();
        let big = snappy_compress(&data, &CdpuParams::default(), &mem);
        let small = snappy_compress(
            &data,
            &CdpuParams::default().with_hash_entries_log(9),
            &mem,
        );
        assert!(small.ratio() <= big.ratio());
    }

    #[test]
    fn zstd_compress_beats_snappy_ratio_but_not_speed() {
        let data = sample(256 * 1024);
        let mem = MemParams::default();
        let s = snappy_compress(&data, &CdpuParams::default(), &mem);
        let z = zstd_compress(&data, &CdpuParams::default(), &mem);
        assert!(z.ratio() > s.ratio(), "zstd {:.2} vs snappy {:.2}", z.ratio(), s.ratio());
        assert!(z.sim.cycles >= s.sim.cycles, "entropy stages cost cycles");
    }

    #[test]
    fn zstd_compress_throughput_band() {
        let data = sample(512 * 1024);
        let r = zstd_compress(&data, &CdpuParams::default(), &MemParams::default());
        let gbps = r.sim.input_gbps();
        assert!((1.5..=7.0).contains(&gbps), "zstd-c {gbps} GB/s");
    }

    #[test]
    fn flate_compress_sane() {
        let data = sample(256 * 1024);
        let r = compress(Algorithm::Flate, &data, &CdpuParams::default(), &MemParams::default());
        assert!(r.ratio() > 1.5, "ratio {}", r.ratio());
        let gbps = r.sim.input_gbps();
        assert!((1.0..=8.0).contains(&gbps), "flate-c {gbps} GB/s");
    }

    #[test]
    fn empty_input() {
        // An empty call still pays dispatch plus the write of the empty
        // frame (a handful of header bytes), nothing more.
        let r = snappy_compress(b"", &CdpuParams::default(), &MemParams::default());
        assert!(r.sim.cycles < 200, "{}", r.sim.cycles);
        let z = zstd_compress(b"", &CdpuParams::default(), &MemParams::default());
        assert!(z.sim.cycles >= DISPATCH_CYCLES);
    }

    #[test]
    fn profiled_compress_tracks_real_matcher() {
        // The analytic path charges the same stages from profile counts;
        // on a profile extracted from real data it must land near the
        // live-matcher simulation (same window, same constants).
        let data = sample(256 * 1024);
        let mem = MemParams::default();
        let p = CdpuParams::default();
        let real = snappy_compress(&data, &p, &mem);
        let prof = crate::profile::profile_snappy(&data);
        let analytic = crate::simulate(AlgoOp::new(Algorithm::Snappy, Direction::Compress), &prof, &p, &mem);
        let ratio = analytic.cycles as f64 / real.sim.cycles as f64;
        assert!((0.5..=2.0).contains(&ratio), "analytic/real {ratio}");
        assert_eq!(analytic.output_bytes, prof.compressed);

        let zprof = crate::profile::profile_zstd(&data, 3, None);
        let zreal = zstd_compress(&data, &p, &mem);
        let zana = crate::simulate(AlgoOp::new(Algorithm::Zstd, Direction::Compress), &zprof, &p, &mem);
        let zratio = zana.cycles as f64 / zreal.sim.cycles as f64;
        assert!((0.4..=2.5).contains(&zratio), "zstd analytic/real {zratio}");
    }

    #[test]
    fn flate_profiled_between_calls() {
        let data = sample(128 * 1024);
        let prof = crate::profile::profile_flate(&data, 6);
        let op = AlgoOp::new(Algorithm::Flate, Direction::Compress);
        let r = crate::simulate(op, &prof, &CdpuParams::default(), &MemParams::default());
        assert!(r.cycles > DISPATCH_CYCLES);
        assert_eq!(r.input_bytes, prof.uncompressed);
    }

    #[test]
    fn hw_profile_is_placement_independent() {
        // The DSE prices every placement from one profile per history:
        // a profile taken at another placement must price exactly as the
        // live call does, compressed bytes included.
        let data = sample(80 * 1024);
        let mem = MemParams::default();
        for algo in [Algorithm::Snappy, Algorithm::Zstd, Algorithm::Flate] {
            let op = AlgoOp::new(algo, Direction::Compress);
            for (i, placement) in Placement::ALL.into_iter().enumerate() {
                let other = Placement::ALL[(i + 1) % Placement::ALL.len()];
                for history in [2 << 10, 32 << 10, 64 << 10, 1 << 20] {
                    for hash_log in [9, 14] {
                        let at = |pl| {
                            CdpuParams::full_size(pl)
                                .with_history(history)
                                .with_hash_entries_log(hash_log)
                        };
                        let p = at(placement);
                        let prof = hw_profile(algo, &data, &at(other));
                        let priced = CompressSim {
                            sim: crate::simulate(op, &prof, &p, &mem),
                            compressed_bytes: prof.compressed,
                        };
                        assert_eq!(
                            compress(algo, &data, &p, &mem),
                            priced,
                            "{algo:?} at {placement} from {other}, {history} B, 2^{hash_log}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hw_matcher_has_no_skip() {
        let cfg = hw_matcher_config(&CdpuParams::default());
        assert!(!cfg.skip);
        assert_eq!(cfg.window_log, 16);
        assert_eq!(cfg.entries_log, 14);
    }
}
