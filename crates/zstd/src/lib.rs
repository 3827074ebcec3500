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

use cdpu_lz77::matcher::{ChainConfig, HashChainMatcher, HashTableMatcher, MatcherConfig};
use cdpu_lz77::{Parse, Seq};
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

    /// Total literal bytes across compressed blocks.
    pub fn total_literals(&self) -> usize {
        self.blocks.iter().map(|b| b.literal_bytes).sum()
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
    assert_eq!(parse.total_len(), data.len(), "parse must cover the input");
    let wlog = cfg.effective_window_log();
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    out.extend_from_slice(&MAGIC);
    out.push(wlog as u8);
    varint::write_u64(&mut out, data.len() as u64);

    let mut stats = ZstdStats {
        uncompressed_size: data.len(),
        ..Default::default()
    };

    // Split at sequence granularity into <= 128 KiB blocks; one payload
    // scratch buffer serves every block of the frame.
    let chunks = split_parse(parse, MAX_BLOCK_SIZE);
    let mut payload = Vec::new();

    let mut pos = 0usize;
    for (i, chunk) in chunks.iter().enumerate() {
        let last = i + 1 == chunks.len();
        let len = chunk.total_len();
        let data_slice = &data[pos..pos + len];
        emit_block(data_slice, chunk, last, &mut out, &mut stats, &mut payload, &cfg.entropy);
        pos += len;
    }
    if chunks.is_empty() {
        // Zero-length content still needs a terminating block.
        emit_block(b"", &Parse::default(), true, &mut out, &mut stats, &mut payload, &cfg.entropy);
    }
    stats.compressed_size = out.len();
    (out, stats)
}

/// Splits a whole-input parse into per-block parses of at most
/// `block_target` bytes each.
///
/// Long matches are split into back-to-back matches at the *same* offset —
/// valid because an LZ77 copy of length `L1+L2` from offset `O` produces
/// identical output to copies of `L1` then `L2` from `O` (the second copy
/// continues from the same relative source). This keeps every block within
/// the size target and every match within the match-length code range.
pub(crate) fn split_parse(parse: &Parse, block_target: usize) -> Vec<Parse> {
    let mut s = Splitter::new(block_target);
    for seq in &parse.seqs {
        s.add_literals(seq.lit_len as usize);
        s.add_match(seq.match_len as usize, seq.offset);
    }
    s.add_literals(parse.last_literals as usize);
    s.close();
    s.chunks
}

/// Incremental block splitter: accumulates parse events (literal runs,
/// matches) and closes a [`Parse`] chunk whenever `target` bytes are
/// covered. `split_parse` is one whole-parse drive of this; the streaming
/// encoder feeds it straight from `cdpu_lz77::stream::StreamParser`, which
/// yields byte-identical chunking because both literal-run splitting and
/// match splitting are additive (see `add_match`).
pub(crate) struct Splitter {
    /// Closed chunks, ready to encode. Drained by the streaming encoder.
    pub(crate) chunks: Vec<Parse>,
    cur: Parse,
    cur_len: usize,
    target: usize,
}

impl Splitter {
    pub(crate) fn new(target: usize) -> Self {
        assert!(target >= 8);
        Splitter {
            chunks: Vec::new(),
            cur: Parse::default(),
            cur_len: 0,
            target,
        }
    }

    pub(crate) fn close(&mut self) {
        if self.cur_len > 0 || !self.cur.seqs.is_empty() {
            self.chunks.push(std::mem::take(&mut self.cur));
            self.cur_len = 0;
        }
    }

    /// Accumulates literal bytes, splitting across chunks as needed. They
    /// sit in `cur.last_literals` until a match converts them into a
    /// sequence's `lit_len`. Additive: feeding a run as several calls
    /// produces the same chunking as one call.
    pub(crate) fn add_literals(&mut self, mut n: usize) {
        while n > 0 {
            if self.cur_len == self.target {
                self.close();
            }
            let take = n.min(self.target - self.cur_len);
            self.cur.last_literals += take as u32;
            self.cur_len += take;
            n -= take;
        }
    }

    /// Adds a match of `len` bytes at `offset`, splitting so that no chunk
    /// exceeds the target and every piece stays ≥ 4 bytes (codeable).
    pub(crate) fn add_match(&mut self, mut len: usize, offset: u32) {
        const MIN_PIECE: usize = 4;
        while len > 0 {
            let space = self.target - self.cur_len;
            let mut piece = len.min(space);
            if piece < len {
                // Splitting: keep the remainder codeable.
                if len - piece < MIN_PIECE {
                    piece = len.saturating_sub(MIN_PIECE);
                }
                if piece < MIN_PIECE {
                    // Not enough room for a valid piece here; start fresh.
                    self.close();
                    continue;
                }
            }
            let lit_len = std::mem::take(&mut self.cur.last_literals);
            self.cur.seqs.push(Seq {
                lit_len,
                match_len: piece as u32,
                offset,
            });
            self.cur_len += piece;
            len -= piece;
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_block(
    data: &[u8],
    parse: &Parse,
    last: bool,
    out: &mut Vec<u8>,
    stats: &mut ZstdStats,
    payload: &mut Vec<u8>,
    entropy: &EntropyConfig,
) {
    let last_bit = if last { 1u8 } else { 0 };
    // RLE block: uniform content.
    if data.len() >= 16 && data.iter().all(|&b| b == data[0]) {
        out.push(last_bit | (1 << 1));
        varint::write_u64(out, data.len() as u64);
        out.push(data[0]);
        stats.rle_blocks += 1;
        return;
    }
    // Try a compressed block; fall back to raw when it does not pay. The
    // payload scratch is caller-owned so one allocation serves the frame.
    payload.clear();
    match block::encode_block_with(data, parse, payload, entropy) {
        Ok(bstats) if payload.len() < data.len() => {
            out.push(last_bit | (2 << 1));
            varint::write_u64(out, data.len() as u64);
            varint::write_u64(out, payload.len() as u64);
            out.extend_from_slice(payload);
            stats.blocks.push(bstats);
        }
        _ => {
            out.push(last_bit);
            varint::write_u64(out, data.len() as u64);
            out.extend_from_slice(data);
            stats.raw_blocks += 1;
        }
    }
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
    if !(10..=31).contains(&window_log) {
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
    seqs: &mut Vec<cdpu_lz77::Seq>,
) -> Result<(), ZstdError> {
    let info = frame_info(frame)?;
    let mut pos = 4 + 1;
    let (_, n) = varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::BadHeader)?;
    pos += n;

    let window = 1u64.checked_shl(info.window_log).unwrap_or(u64::MAX) as u32;
    // Reserve conservatively: the declared size is untrusted input, so cap
    // the up-front allocation and let the vector grow if the data is real.
    out.reserve((info.content_size as usize).min(MAX_BLOCK_SIZE));
    let mut saw_last = false;
    while !saw_last {
        if pos >= frame.len() {
            return Err(ZstdError::Truncated);
        }
        let flags = frame[pos];
        pos += 1;
        saw_last = flags & 1 != 0;
        let btype = (flags >> 1) & 0b11;
        let (usize_, n) = varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::Truncated)?;
        pos += n;
        let block_len = usize_ as usize;
        if block_len > MAX_BLOCK_SIZE + MAX_BLOCK_SIZE / 2 {
            return Err(ZstdError::BadBlock("block exceeds size limit"));
        }
        match btype {
            0 => {
                if pos + block_len > frame.len() {
                    return Err(ZstdError::Truncated);
                }
                out.extend_from_slice(&frame[pos..pos + block_len]);
                pos += block_len;
            }
            1 => {
                if pos >= frame.len() {
                    return Err(ZstdError::Truncated);
                }
                let b = frame[pos];
                pos += 1;
                out.extend(std::iter::repeat_n(b, block_len));
            }
            2 => {
                let (payload_len, n) =
                    varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::Truncated)?;
                pos += n;
                let payload_len = payload_len as usize;
                if payload_len > frame.len() - pos {
                    return Err(ZstdError::Truncated);
                }
                let before = out.len();
                block::decode_block_with(
                    &frame[pos..pos + payload_len],
                    out,
                    window,
                    block_len,
                    lits,
                    seqs,
                )?;
                if out.len() - before != block_len {
                    return Err(ZstdError::BadBlock("block length mismatch"));
                }
                pos += payload_len;
            }
            _ => return Err(ZstdError::BadBlock("unknown block type")),
        }
        if out.len() as u64 > info.content_size {
            return Err(ZstdError::LengthMismatch {
                expected: info.content_size,
                actual: out.len() as u64,
            });
        }
    }
    if out.len() as u64 != info.content_size {
        return Err(ZstdError::LengthMismatch {
            expected: info.content_size,
            actual: out.len() as u64,
        });
    }
    Ok(())
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
    fn split_parse_respects_target() {
        let parse = Parse {
            seqs: (0..100)
                .map(|_| Seq { lit_len: 1000, match_len: 500, offset: 7 })
                .collect(),
            last_literals: 3000,
        };
        let chunks = split_parse(&parse, 10_000);
        let total: usize = chunks.iter().map(|c| c.total_len()).sum();
        assert_eq!(total, parse.total_len());
        for c in &chunks {
            assert!(c.total_len() <= 10_000 + 1500, "chunk {} too big", c.total_len());
        }
    }

    #[test]
    fn split_parse_giant_literal_run() {
        let parse = Parse {
            seqs: vec![Seq { lit_len: 50_000, match_len: 4, offset: 1 }],
            last_literals: 0,
        };
        let chunks = split_parse(&parse, 10_000);
        let total: usize = chunks.iter().map(|c| c.total_len()).sum();
        assert_eq!(total, parse.total_len());
    }

    #[test]
    fn frame_info_rejects_garbage() {
        assert_eq!(frame_info(b"").unwrap_err(), ZstdError::BadMagic);
        assert_eq!(frame_info(b"CDP").unwrap_err(), ZstdError::BadMagic);
        assert_eq!(frame_info(b"XXXXXXXX").unwrap_err(), ZstdError::BadMagic);
    }
}
