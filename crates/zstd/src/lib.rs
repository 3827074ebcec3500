//! A ZStd-class compression codec built from the paper's hardware blocks.
//!
//! ZStd is the paper's representative *heavyweight* algorithm (Section
//! 2.2): LZ77 dictionary coding, Huffman-coded literals, FSE-coded
//! sequences, tunable compression levels and window sizes. This crate
//! implements a frame format with exactly that architecture — every block
//! in the paper's compressor/decompressor diagrams (Figures 9 and 10) has a
//! software counterpart here:
//!
//! | Paper block (Fig. 9/10)      | Here                                  |
//! |------------------------------|---------------------------------------|
//! | LZ77 Hash Matcher            | `cdpu_lz77::matcher`                  |
//! | Huff Dict Builder / Encoder  | `cdpu_entropy::huffman` via [`block`] |
//! | FSE Dict Builders ×3 / Enc.  | `cdpu_entropy::fse` via [`block`]     |
//! | SeqToCode Converter          | [`codes`]                             |
//! | LZ77 Loader / Writer, window | `cdpu_lz77::window` + frame decoder   |
//! | FSE/Huff Table Build+Read    | table (de)serialization in [`block`]  |
//!
//! Bit-exact RFC 8878 compatibility is a non-goal (see DESIGN.md); the
//! sequence code tables, FSE construction, interleaved-backward bitstream,
//! block structure and window semantics are faithful, which is what the
//! hardware model needs.
//!
//! ```
//! let data = b"heavyweight compression pays cycles for ratio".repeat(20);
//! let c = cdpu_zstd::compress(&data);
//! assert!(c.len() < data.len() / 3);
//! assert_eq!(cdpu_zstd::decompress(&c).unwrap(), data);
//! ```

use cdpu_lz77::block::{BlockCoder, BlockFrameWriter, SplitRule, Written};
use cdpu_lz77::matcher::{ChainConfig, HashChainMatcher, HashTableMatcher, MatcherConfig};
use cdpu_lz77::{Lz77Error, Parse, Seq};
use cdpu_util::stream::{BlockFrameReader, BlockFrameSpec, HistBuf};
use cdpu_util::varint;

pub mod block;
pub mod codes;
pub mod dict;
pub mod reference;
pub mod stream;

pub use block::BlockStats;

/// Frame magic: `CDPU` (this codec is deliberately not RFC 8878 bit-
/// compatible, so it must not claim zstd's magic).
pub const MAGIC: [u8; 4] = *b"CDPU";

/// Maximum uncompressed bytes per block (ZStd's 128 KiB).
pub const MAX_BLOCK_SIZE: usize = 128 * 1024;

/// Largest block length the decoders accept: half again
/// [`MAX_BLOCK_SIZE`].
const BLOCK_CAP: usize = MAX_BLOCK_SIZE + MAX_BLOCK_SIZE / 2;

/// Block types, bits 1–2 of a block's flags byte.
const BLOCK_RAW: u8 = 0;
const BLOCK_RLE: u8 = 1;
const BLOCK_COMPRESSED: u8 = 2;

/// This codec's block-frame container, written by every encoder entry and
/// read by every decoder entry.
pub(crate) static FRAME: BlockFrameSpec<ZstdError> = BlockFrameSpec {
    magic: MAGIC,
    window_logs: 10..=31,
    block_cap: BLOCK_CAP,
    raw: BLOCK_RAW,
    rle: Some(BLOCK_RLE),
    coded: BLOCK_COMPRESSED,
    bad_magic: ZstdError::BadMagic,
    bad_header: ZstdError::BadHeader,
    truncated: ZstdError::Truncated,
    bad_block: ZstdError::BadBlock,
    length_mismatch: |expected, actual| ZstdError::LengthMismatch { expected, actual },
};

/// Fastest negative level accepted (ZStd advertises down to −infinity but
/// implements a small finite set; fleet data in Figure 2b bins at −5).
pub const MIN_LEVEL: i32 = -7;
/// Highest supported level (ZStd's 22).
pub const MAX_LEVEL: i32 = 22;

/// Errors from frame parsing and decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZstdError {
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// Malformed frame header.
    BadHeader,
    /// Input ended unexpectedly.
    Truncated,
    /// A malformed block (reason attached).
    BadBlock(&'static str),
    /// Huffman table/stream error inside a literals section.
    Huffman(cdpu_entropy::huffman::HuffmanError),
    /// FSE table/stream error inside a sequences section.
    Fse(cdpu_entropy::fse::FseError),
    /// Sequence application failed (bad copy offset).
    Lz77(cdpu_lz77::Lz77Error),
    /// A copy reached farther back than the frame's declared window.
    WindowViolation {
        /// The offending offset.
        offset: u32,
        /// The declared window size.
        window: u32,
    },
    /// Decoded length disagrees with the frame header.
    LengthMismatch {
        /// Length the header promised.
        expected: u64,
        /// Length actually produced.
        actual: u64,
    },
}

impl std::fmt::Display for ZstdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZstdError::BadMagic => write!(f, "bad frame magic"),
            ZstdError::BadHeader => write!(f, "malformed frame header"),
            ZstdError::Truncated => write!(f, "frame truncated"),
            ZstdError::BadBlock(why) => write!(f, "malformed block: {why}"),
            ZstdError::Huffman(e) => write!(f, "literals section: {e}"),
            ZstdError::Fse(e) => write!(f, "sequences section: {e}"),
            ZstdError::Lz77(e) => write!(f, "sequence execution: {e}"),
            ZstdError::WindowViolation { offset, window } => {
                write!(f, "offset {offset} exceeds window {window}")
            }
            ZstdError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} bytes, produced {actual}")
            }
        }
    }
}

impl std::error::Error for ZstdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ZstdError::Huffman(e) => Some(e),
            ZstdError::Fse(e) => Some(e),
            ZstdError::Lz77(e) => Some(e),
            _ => None,
        }
    }
}

/// Entropy backend for the literals section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LitBackend {
    /// Canonical Huffman (the seed codec's literals coder).
    #[default]
    Huffman,
    /// Byte-wise-renormalizing rANS (`cdpu_entropy::rans`): one multiply
    /// per symbol instead of one table lookup, and interleaving needs no
    /// per-stream framing.
    Rans,
}

/// Entropy-stage knobs: which literals backend to use and how many
/// interleaved streams each coded section carries. The default
/// (`Huffman`, 1, 1) reproduces the seed format byte for byte; anything
/// else emits the additive literal/sequence modes, which older decoders
/// reject as an unknown mode rather than misread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntropyConfig {
    /// Literals coder.
    pub lit_backend: LitBackend,
    /// Interleaved streams in the literals section, `1..=8`. With K > 1
    /// the decoder keeps K dependency chains in flight (ZStd's 4-stream
    /// literal trick).
    pub lit_streams: u8,
    /// Interleaved bitstreams in the sequences section, `1..=8`. Each
    /// stream carries the LL/ML/OF triple for its round-robin share of the
    /// sequences, against shared FSE tables.
    pub seq_streams: u8,
}

impl Default for EntropyConfig {
    fn default() -> Self {
        EntropyConfig {
            lit_backend: LitBackend::Huffman,
            lit_streams: 1,
            seq_streams: 1,
        }
    }
}

/// Compression configuration: the two user-facing parameters the fleet
/// profiling studies (Figures 2b and 5) — level and window size — plus the
/// entropy-stage knobs ([`EntropyConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZstdConfig {
    /// Compression level in `[MIN_LEVEL, MAX_LEVEL]`; higher levels spend
    /// more search effort (deeper hash chains, lazy matching).
    pub level: i32,
    /// Window log. `None` picks the level's default (like ZStd's
    /// level-dependent defaults); `Some(w)` pins it (like
    /// `ZSTD_c_windowLog`).
    pub window_log: Option<u32>,
    /// Entropy-stage configuration. Defaults to the seed format
    /// (single-stream Huffman literals).
    pub entropy: EntropyConfig,
}

impl Default for ZstdConfig {
    fn default() -> Self {
        ZstdConfig {
            level: 3, // the fleet's dominant level (Figure 2b)
            window_log: None,
            entropy: EntropyConfig::default(),
        }
    }
}

impl ZstdConfig {
    /// Config for a level with the default window.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[MIN_LEVEL, MAX_LEVEL]`.
    pub fn with_level(level: i32) -> Self {
        assert!((MIN_LEVEL..=MAX_LEVEL).contains(&level), "level {level} out of range");
        ZstdConfig {
            level,
            window_log: None,
            entropy: EntropyConfig::default(),
        }
    }

    /// Sets the number of interleaved literal streams (1, 2, 4 or 8).
    ///
    /// # Panics
    ///
    /// Panics if `streams` is not one of 1, 2, 4, 8.
    pub fn lit_streams(mut self, streams: u8) -> Self {
        assert!(
            matches!(streams, 1 | 2 | 4 | 8),
            "lit_streams {streams} unsupported"
        );
        self.entropy.lit_streams = streams;
        self
    }

    /// Sets the number of interleaved sequence bitstreams (`1..=8`).
    ///
    /// # Panics
    ///
    /// Panics if `streams` is outside `1..=8`.
    pub fn seq_streams(mut self, streams: u8) -> Self {
        assert!(
            (1..=8).contains(&streams),
            "seq_streams {streams} unsupported"
        );
        self.entropy.seq_streams = streams;
        self
    }

    /// Selects the rANS literals backend.
    pub fn rans_literals(mut self) -> Self {
        self.entropy.lit_backend = LitBackend::Rans;
        self
    }

    /// Pins the window log (10..=24 supported).
    ///
    /// # Panics
    ///
    /// Panics if `window_log` is outside `10..=24`.
    pub fn window_log(mut self, window_log: u32) -> Self {
        assert!((10..=24).contains(&window_log), "window_log {window_log} out of range");
        self.window_log = Some(window_log);
        self
    }

    /// The effective window log after level defaults.
    pub fn effective_window_log(&self) -> u32 {
        self.window_log.unwrap_or(match self.level {
            i32::MIN..=2 => 16,
            3..=6 => 17,
            7..=12 => 21,
            13..=16 => 22,
            _ => 23,
        })
    }

    /// Search effort for this level, mapped onto the matcher knobs.
    ///
    /// Public so benchmarks and baseline comparisons can parse with
    /// exactly the matcher configuration [`parse_with`] uses.
    pub fn search_params(&self) -> SearchParams {
        let wlog = self.effective_window_log();
        if self.level <= 0 {
            // Negative/zero levels: hash-table greedy matcher with a table
            // that shrinks as the level drops (ZStd's "targetLength"
            // degradation).
            let entries_log = (13 + self.level).clamp(8, 13) as u32;
            SearchParams::Greedy(MatcherConfig {
                window_log: wlog,
                entries_log,
                ways: 1,
                hash_fn: cdpu_lz77::hash::HashFn::Multiplicative,
                min_match: cdpu_lz77::MIN_MATCH,
                skip: true,
            })
        } else {
            let (max_chain, lazy) = match self.level {
                1 => (2, false),
                2 => (4, false),
                3 => (8, false),
                4..=6 => (16, true),
                7..=9 => (32, true),
                10..=12 => (64, true),
                13..=15 => (128, true),
                16..=18 => (384, true),
                _ => (1024, true),
            };
            SearchParams::Chain(ChainConfig {
                window_log: wlog,
                hash_log: 17.min(wlog),
                max_chain,
                lazy,
                min_match: cdpu_lz77::MIN_MATCH,
            })
        }
    }
}

/// The match-finder a [`ZstdConfig`] level maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchParams {
    /// Negative/zero levels: single-probe greedy hash-table matcher.
    Greedy(MatcherConfig),
    /// Positive levels: hash-chain matcher with level-scaled depth.
    Chain(ChainConfig),
}

/// Frame metadata readable without decompressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Uncompressed content size.
    pub content_size: u64,
    /// Window log the decoder must honour.
    pub window_log: u32,
}

/// Whole-call compression statistics (summed block stats plus frame info),
/// consumed by the hardware simulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ZstdStats {
    /// Per-block statistics for compressed blocks.
    pub blocks: Vec<BlockStats>,
    /// Number of raw (stored) blocks.
    pub raw_blocks: usize,
    /// Number of RLE blocks.
    pub rle_blocks: usize,
    /// Total compressed frame size in bytes.
    pub compressed_size: usize,
    /// Total uncompressed size in bytes.
    pub uncompressed_size: usize,
}

impl ZstdStats {
    /// Total LZ77 sequences across compressed blocks.
    pub fn total_sequences(&self) -> usize {
        self.blocks.iter().map(|b| b.sequences).sum()
    }

    /// Achieved compression ratio (uncompressed / compressed).
    pub fn ratio(&self) -> f64 {
        if self.compressed_size == 0 {
            1.0
        } else {
            self.uncompressed_size as f64 / self.compressed_size as f64
        }
    }
}

/// Runs only the dictionary-coding stage for a configuration, returning
/// the whole-input LZ77 parse (before block splitting). The hardware
/// simulator uses this to profile sequence/offset structure exactly as the
/// codec will encode it.
pub fn parse_with(data: &[u8], cfg: &ZstdConfig) -> Parse {
    match cfg.search_params() {
        SearchParams::Greedy(m) => HashTableMatcher::new(m).parse(data),
        SearchParams::Chain(c) => HashChainMatcher::new(c).parse(data),
    }
}

/// Compresses at the default level (3 — the fleet's dominant level).
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with(data, &ZstdConfig::default())
}

/// Compresses with an explicit configuration.
pub fn compress_with(data: &[u8], cfg: &ZstdConfig) -> Vec<u8> {
    compress_with_stats(data, cfg).0
}

/// Compresses and reports the per-block statistics the hardware model
/// charges cycles from.
pub fn compress_with_stats(data: &[u8], cfg: &ZstdConfig) -> (Vec<u8>, ZstdStats) {
    // One whole-input parse (the window spans block boundaries, as in
    // ZStd), then encode from it.
    let parse = parse_with(data, cfg);
    compress_parse_with_stats(data, &parse, cfg)
}

/// Encodes a frame from a precomputed dictionary-stage parse, skipping
/// the (dominant) LZ77 matching cost. `parse` must be a parse of exactly
/// `data` at this configuration — i.e. the value [`parse_with`] returns —
/// in which case the output is byte-identical to
/// [`compress_with_stats`]'s. Callers that already ran the dictionary
/// stage (the hardware simulator's profiler, ratio studies) use this to
/// parse each input exactly once.
///
/// # Panics
///
/// Panics if `parse` does not cover `data` exactly.
pub fn compress_parse_with_stats(
    data: &[u8],
    parse: &Parse,
    cfg: &ZstdConfig,
) -> (Vec<u8>, ZstdStats) {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    let mut stats = ZstdStats {
        uncompressed_size: data.len(),
        ..Default::default()
    };
    frame_writer(cfg, data.len(), &mut out).write_parse(data, parse, &mut out, |block| match block {
        Written::Raw => stats.raw_blocks += 1,
        Written::Rle => stats.rle_blocks += 1,
        Written::Coded(b) => stats.blocks.push(b),
    });
    stats.compressed_size = out.len();
    (out, stats)
}

/// How this codec's blocks cut the parse: 128 KiB blocks, no match-length
/// cap, and a 3-byte match kept whole.
const SPLIT: SplitRule = SplitRule {
    block: MAX_BLOCK_SIZE,
    max_match: None,
    short_as_literals: false,
    back_off_whole: false,
};

/// This codec's block payload: Huffman or rANS literals and FSE sequences.
#[derive(Debug)]
pub(crate) struct Blocks(EntropyConfig);

impl BlockCoder for Blocks {
    type Stats = BlockStats;

    fn code(&mut self, data: &[u8], parse: &Parse, payload: &mut Vec<u8>) -> Option<BlockStats> {
        block::encode_block_with(data, parse, payload, &self.0).ok()
    }
}

/// The frame writer for `total` bytes at `cfg`, after it wrote the frame
/// header into `out`.
pub(crate) fn frame_writer(
    cfg: &ZstdConfig,
    total: usize,
    out: &mut Vec<u8>,
) -> BlockFrameWriter<ZstdError, Blocks> {
    let wlog = cfg.effective_window_log();
    BlockFrameWriter::new(&FRAME, SPLIT, wlog, total, Blocks(cfg.entropy), out)
}

/// Reads frame metadata without decompressing.
///
/// # Errors
///
/// [`ZstdError::BadMagic`] / [`ZstdError::BadHeader`] on malformed frames.
pub fn frame_info(frame: &[u8]) -> Result<FrameInfo, ZstdError> {
    if frame.len() < 5 {
        return Err(ZstdError::BadMagic);
    }
    if frame[..4] != MAGIC {
        return Err(ZstdError::BadMagic);
    }
    let window_log = frame[4] as u32;
    if !FRAME.window_logs.contains(&window_log) {
        return Err(ZstdError::BadHeader);
    }
    let (content_size, _) = varint::read_u64(&frame[5..]).map_err(|_| ZstdError::BadHeader)?;
    Ok(FrameInfo {
        content_size,
        window_log,
    })
}

/// Decompresses a frame.
///
/// # Errors
///
/// Any [`ZstdError`]: malformed framing, entropy-stream corruption, window
/// or length violations.
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, ZstdError> {
    let mut out = Vec::new();
    let mut lits = Vec::new();
    let mut seqs = Vec::new();
    decompress_impl(frame, &mut out, &mut lits, &mut seqs)?;
    Ok(out)
}

/// Decompresses a frame into caller-held scratch buffers (output plus the
/// per-block literal/sequence staging), so steady-state decode performs no
/// allocation once the scratch has warmed up. The returned slice borrows
/// the scratch and is valid until its next use; output bytes and errors
/// are identical to [`decompress`].
///
/// # Errors
///
/// Any [`ZstdError`], exactly as [`decompress`] reports them.
pub fn decompress_into<'a>(
    frame: &[u8],
    scratch: &'a mut cdpu_lz77::window::DecoderScratch,
) -> Result<&'a [u8], ZstdError> {
    let (out, lits, seqs) = scratch.buffers();
    decompress_impl(frame, out, lits, seqs)?;
    Ok(out)
}

fn decompress_impl(
    frame: &[u8],
    out: &mut Vec<u8>,
    lits: &mut Vec<u8>,
    seqs: &mut Vec<Seq>,
) -> Result<(), ZstdError> {
    BlockFrameReader::new(&FRAME).decode_whole(frame, out, |payload, hist, window, len| {
        decode_compressed(payload, hist, window, len, lits, seqs)
    })
}

/// Decodes one compressed block onto `hist`: the per-block call every
/// decoder entry hands the frame reader. A `BadOffset` counts the history
/// compacted away before the block back in, so its `produced` field is the
/// one-shot decoder's whatever the push sizes.
pub(crate) fn decode_compressed(
    payload: &[u8],
    hist: &mut HistBuf,
    window: u32,
    block_len: usize,
    lits: &mut Vec<u8>,
    seqs: &mut Vec<Seq>,
) -> Result<(), ZstdError> {
    // Constant while the block decodes: nothing drains mid-block.
    let dropped = (hist.produced() - hist.retained() as u64) as usize;
    let res = block::decode_block_with(payload, hist.sink(), window, block_len, lits, seqs);
    res.map_err(|e| match e {
        ZstdError::Lz77(Lz77Error::BadOffset { offset, produced }) => {
            ZstdError::Lz77(Lz77Error::BadOffset { offset, produced: produced + dropped })
        }
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_util::rng::Xoshiro256;

    fn roundtrip(data: &[u8], cfg: &ZstdConfig) -> usize {
        let c = compress_with(data, cfg);
        assert_eq!(decompress(&c).unwrap(), data, "level {}", cfg.level);
        c.len()
    }

    #[test]
    fn empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abcd", b"aaaa"] {
            roundtrip(data, &ZstdConfig::default());
        }
    }

    #[test]
    fn text_roundtrip_all_levels() {
        let data = b"The ZStandard algorithm combines LZ77, Huffman and FSE. ".repeat(200);
        let mut sizes = Vec::new();
        for level in [-5, -1, 1, 3, 6, 9, 12, 16, 19, 22] {
            sizes.push((level, roundtrip(&data, &ZstdConfig::with_level(level))));
        }
        // Positive levels must compress this text well.
        let l3 = sizes.iter().find(|s| s.0 == 3).unwrap().1;
        assert!(l3 < data.len() / 5, "level 3 got {l3} of {}", data.len());
    }

    #[test]
    fn higher_levels_do_not_regress_much() {
        // Monotonicity is not guaranteed sequence-by-sequence, but level 19
        // should be no worse than level -5 by a clear margin on redundant
        // structured data.
        let mut rng = Xoshiro256::seed_from(5);
        let mut data = Vec::new();
        for _ in 0..3000 {
            data.extend_from_slice(
                format!("record|{:06}|{:03}|payload\n", rng.index(500), rng.index(64)).as_bytes(),
            );
        }
        let fast = compress_with(&data, &ZstdConfig::with_level(-5)).len();
        let slow = compress_with(&data, &ZstdConfig::with_level(19)).len();
        assert!(slow as f64 <= fast as f64 * 0.95, "slow {slow} fast {fast}");
    }

    #[test]
    fn random_data_stays_near_raw() {
        let mut rng = Xoshiro256::seed_from(6);
        let mut data = vec![0u8; 300_000];
        rng.fill_bytes(&mut data);
        let c = compress(&data);
        assert!(c.len() <= data.len() + 64, "incompressible data must not blow up");
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn multi_block_inputs() {
        // > 128 KiB forces multiple blocks; repetition spans block
        // boundaries so the window must too.
        let data = b"0123456789abcdefghijklmnopqrstuv".repeat(20_000); // 640 KB
        let (c, stats) = compress_with_stats(&data, &ZstdConfig::default());
        assert!(stats.blocks.len() + stats.raw_blocks + stats.rle_blocks > 1);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn rle_block_for_uniform_data() {
        let data = vec![0u8; 400_000];
        let (c, stats) = compress_with_stats(&data, &ZstdConfig::default());
        assert!(stats.rle_blocks > 0 || c.len() < 1000);
        assert!(c.len() < 200, "uniform data should be ~free: {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn window_log_in_frame_header() {
        let data = b"window".repeat(100);
        let c = compress_with(&data, &ZstdConfig::with_level(3).window_log(12));
        assert_eq!(frame_info(&c).unwrap().window_log, 12);
        assert_eq!(frame_info(&c).unwrap().content_size, data.len() as u64);
    }

    #[test]
    fn smaller_window_weakens_ratio() {
        // 32 KiB period: visible at window_log 16, invisible at 12.
        let mut rng = Xoshiro256::seed_from(8);
        let mut period = vec![0u8; 32 * 1024];
        rng.fill_bytes(&mut period);
        let mut data = Vec::new();
        for _ in 0..6 {
            data.extend_from_slice(&period);
        }
        let big = compress_with(&data, &ZstdConfig::with_level(3).window_log(16)).len();
        let small = compress_with(&data, &ZstdConfig::with_level(3).window_log(12)).len();
        assert!(big < small / 2, "big-window {big} vs small-window {small}");
        // Both must still decode.
        for wl in [12u32, 16] {
            let c = compress_with(&data, &ZstdConfig::with_level(3).window_log(wl));
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn stats_account_for_everything() {
        let data = b"statistics drive the hardware model ".repeat(500);
        let (c, stats) = compress_with_stats(&data, &ZstdConfig::default());
        assert_eq!(stats.uncompressed_size, data.len());
        assert_eq!(stats.compressed_size, c.len());
        assert!(stats.total_sequences() > 0);
        assert!(stats.ratio() > 3.0);
        let covered: usize = stats.blocks.iter().map(|b| b.input_bytes).sum();
        assert_eq!(covered, data.len(), "every byte in some compressed block");
    }

    #[test]
    fn zstd_beats_snappy_on_text() {
        // The heavyweight-vs-lightweight ratio gap from Figure 2c.
        let mut rng = Xoshiro256::seed_from(10);
        let mut data = Vec::new();
        for _ in 0..2000 {
            data.extend_from_slice(
                format!(
                    "{{\"user\":\"u{:05}\",\"event\":\"click\",\"ts\":1688{:06}}}\n",
                    rng.index(10_000),
                    rng.index(999_999)
                )
                .as_bytes(),
            );
        }
        let z = compress_with(&data, &ZstdConfig::with_level(3)).len();
        let s = cdpu_snappy_len(&data);
        assert!(z < s, "zstd {z} should beat snappy-style {s}");
    }

    // Local snappy-size helper without a cyclic dev-dependency: greedy
    // hash-table parse with tag overhead approximated by Snappy's framing.
    fn cdpu_snappy_len(data: &[u8]) -> usize {
        use cdpu_lz77::matcher::{HashTableMatcher, MatcherConfig};
        let parse = HashTableMatcher::new(MatcherConfig::snappy_sw()).parse(data);
        // 1-2 tag bytes + offset bytes per op, literals verbatim.
        parse.literal_len() + parse.seqs.len() * 3 + 8
    }

    #[test]
    fn truncation_detected_everywhere() {
        let data = b"truncation resilience ".repeat(300);
        let c = compress(&data);
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..40 {
            let cut = rng.index(c.len());
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corruption_detected_or_length_checked() {
        // Flipping bytes must never panic; it either errors or (in literal
        // regions) still satisfies framing. We only assert no panic and
        // that magic/window corruption errors.
        let data = b"corruption ".repeat(200);
        let c = compress(&data);
        let mut bad = c.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decompress(&bad).unwrap_err(), ZstdError::BadMagic);
        let mut bad = c.clone();
        bad[4] = 200; // absurd window log
        assert_eq!(decompress(&bad).unwrap_err(), ZstdError::BadHeader);
        let mut rng = Xoshiro256::seed_from(4);
        for _ in 0..60 {
            let mut bad = c.clone();
            let i = rng.index(bad.len());
            bad[i] ^= 1 << rng.index(8);
            let _ = decompress(&bad); // must not panic
        }
    }

    #[test]
    fn level_bounds_enforced() {
        assert!(std::panic::catch_unwind(|| ZstdConfig::with_level(23)).is_err());
        assert!(std::panic::catch_unwind(|| ZstdConfig::with_level(-8)).is_err());
        assert!(std::panic::catch_unwind(|| ZstdConfig::with_level(3).window_log(9)).is_err());
    }

    #[test]
    fn frame_info_rejects_garbage() {
        assert_eq!(frame_info(b"").unwrap_err(), ZstdError::BadMagic);
        assert_eq!(frame_info(b"CDP").unwrap_err(), ZstdError::BadMagic);
        assert_eq!(frame_info(b"XXXXXXXX").unwrap_err(), ZstdError::BadMagic);
    }
}
