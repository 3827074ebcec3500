//! A Flate-class codec: LZ77 + Huffman, in DEFLATE's shape.
//!
//! Flate (zlib/gzip's algorithm) is the paper's second heavyweight
//! algorithm (Section 2.2) and its *ancestor story* for the CDPU
//! generator: "transitioning from Flate to ZStd would mostly entail adding
//! an FSE module" (Section 3.4). This crate makes that sentence literal in
//! code — it is `cdpu-zstd` minus the FSE stage:
//!
//! - the same LZ77 hash-chain dictionary coder (`cdpu-lz77`);
//! - the same canonical length-limited Huffman coder (`cdpu-entropy`);
//! - DEFLATE's symbol structure: one *literal/length* alphabet mixing
//!   literal bytes (0–255), end-of-block (256) and length codes (257–284
//!   with extra bits), plus a separate *distance* alphabet (0–29 with
//!   extra bits).
//!
//! Like the ZStd-class codec, framing is our own (magic `CDPF`) rather
//! than RFC 1951 bit-exact; the block structure, alphabets and extra-bit
//! tables follow DEFLATE.
//!
//! ```
//! let data = b"flate is zstd without the fse stage ".repeat(50);
//! let c = cdpu_flate::compress(&data);
//! assert!(c.len() < data.len() / 2);
//! assert_eq!(cdpu_flate::decompress(&c).unwrap(), data);
//! ```

use cdpu_entropy::huffman::{HuffmanError, HuffmanTable};
use cdpu_lz77::matcher::{ChainConfig, HashChainMatcher};
use cdpu_lz77::window::DecoderScratch;
use cdpu_lz77::{Parse, Seq};
use cdpu_util::bits::MsbBitWriter;
use cdpu_util::varint;

pub mod codes;
mod decode;
pub mod reference;
pub mod stream;

pub(crate) use decode::{apply_huff_ops, decode_huff_entropy};

/// Frame magic (`CDPF`): deliberately distinct from gzip/zlib headers.
pub const MAGIC: [u8; 4] = *b"CDPF";

/// Maximum uncompressed bytes per block (DEFLATE has no hard block limit;
/// we reuse the framework's 128 KiB blocking for bounded buffering).
pub const MAX_BLOCK_SIZE: usize = 128 * 1024;

/// DEFLATE's maximum match length.
pub const MAX_MATCH: u32 = 258;
/// DEFLATE's window ceiling (32 KiB).
pub const MAX_WINDOW_LOG: u32 = 15;

/// Errors from Flate decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlateError {
    /// Missing/incorrect magic.
    BadMagic,
    /// Malformed frame header.
    BadHeader,
    /// Input ended unexpectedly.
    Truncated,
    /// A malformed block.
    BadBlock(&'static str),
    /// Huffman table or stream error.
    Huffman(HuffmanError),
    /// A copy reached before the start of output or beyond the window.
    BadDistance,
    /// Output length disagrees with the header.
    LengthMismatch {
        /// Promised length.
        expected: u64,
        /// Produced length.
        actual: u64,
    },
}

impl std::fmt::Display for FlateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlateError::BadMagic => write!(f, "bad frame magic"),
            FlateError::BadHeader => write!(f, "malformed frame header"),
            FlateError::Truncated => write!(f, "frame truncated"),
            FlateError::BadBlock(why) => write!(f, "malformed block: {why}"),
            FlateError::Huffman(e) => write!(f, "huffman: {e}"),
            FlateError::BadDistance => write!(f, "copy distance out of range"),
            FlateError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} bytes, produced {actual}")
            }
        }
    }
}

impl std::error::Error for FlateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlateError::Huffman(e) => Some(e),
            _ => None,
        }
    }
}

/// Compression configuration: level (chain depth / lazy matching) and an
/// optional window log capped at DEFLATE's 32 KiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlateConfig {
    /// Level 1..=9, zlib-style.
    pub level: u32,
    /// Window log ≤ 15.
    pub window_log: u32,
}

impl Default for FlateConfig {
    fn default() -> Self {
        FlateConfig {
            level: 6,
            window_log: MAX_WINDOW_LOG,
        }
    }
}

impl FlateConfig {
    /// Config for a zlib-style level.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= level <= 9`.
    pub fn with_level(level: u32) -> Self {
        assert!((1..=9).contains(&level), "flate levels are 1..=9");
        FlateConfig {
            level,
            window_log: MAX_WINDOW_LOG,
        }
    }

    /// The hash-chain matcher configuration this level maps to.
    ///
    /// Public so benchmarks and baseline comparisons can parse with
    /// exactly the matcher configuration [`parse_with`] uses.
    pub fn chain_config(&self) -> ChainConfig {
        let (max_chain, lazy) = match self.level {
            1 => (1, false),
            2 => (4, false),
            3 => (8, false),
            4 => (16, false),
            5 => (16, true),
            6 => (32, true),
            7 => (64, true),
            8 => (128, true),
            _ => (512, true),
        };
        ChainConfig {
            window_log: self.window_log.min(MAX_WINDOW_LOG),
            hash_log: 15,
            max_chain,
            lazy,
            min_match: cdpu_lz77::MIN_MATCH,
        }
    }
}

/// Runs only the dictionary-coding stage, returning the whole-input LZ77
/// parse (used by the hardware simulator's call profiler).
pub fn parse_with(data: &[u8], cfg: &FlateConfig) -> Parse {
    HashChainMatcher::new(cfg.chain_config()).parse(data)
}

/// Compresses at the default level (6, zlib's default).
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with(data, &FlateConfig::default())
}

/// Compresses with an explicit configuration.
pub fn compress_with(data: &[u8], cfg: &FlateConfig) -> Vec<u8> {
    let parse = parse_with(data, cfg);
    compress_parse(data, &parse, cfg)
}

/// Encodes a frame from a precomputed dictionary-stage parse, skipping the
/// (dominant) LZ77 matching cost. `parse` must be a parse of exactly `data`
/// at this configuration — i.e. the value [`parse_with`] returns — in which
/// case the output is byte-identical to [`compress_with`]'s. The hardware
/// simulator's call profiler uses this to parse each input exactly once.
///
/// # Panics
///
/// Panics if `parse` does not cover `data` exactly.
pub fn compress_parse(data: &[u8], parse: &Parse, cfg: &FlateConfig) -> Vec<u8> {
    assert_eq!(parse.total_len(), data.len(), "parse must cover the input");
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    out.extend_from_slice(&MAGIC);
    out.push(cfg.window_log.min(MAX_WINDOW_LOG) as u8);
    varint::write_u64(&mut out, data.len() as u64);

    // One payload scratch buffer serves every block of the frame.
    let chunks = split_parse(parse, MAX_BLOCK_SIZE);
    let mut payload = Vec::new();
    let mut pos = 0usize;
    for (i, chunk) in chunks.iter().enumerate() {
        let last = i + 1 == chunks.len();
        let len = chunk.total_len();
        emit_block(&data[pos..pos + len], chunk, last, &mut out, &mut payload);
        pos += len;
    }
    if chunks.is_empty() {
        emit_block(b"", &Parse::default(), true, &mut out, &mut payload);
    }
    out
}

/// Splits a parse into ≤ `target` blocks, also capping matches at
/// DEFLATE's 258-byte maximum (longer matches become back-to-back copies
/// at the same distance).
fn split_parse(parse: &Parse, target: usize) -> Vec<Parse> {
    let mut s = Splitter::new(target);
    for seq in &parse.seqs {
        s.add_literals(seq.lit_len as usize);
        s.add_match(seq.match_len, seq.offset);
    }
    s.add_literals(parse.last_literals as usize);
    s.close();
    s.chunks
}

/// Incremental block splitter: accepts dictionary-stage events one at a
/// time (so the streaming encoder can drive it without a whole-input
/// parse) and accumulates closed ≤ `target`-byte chunks, capping matches
/// at DEFLATE's 258-byte maximum. Feeding a parse event-by-event produces
/// the same chunks as [`split_parse`] because literal runs are additive:
/// `add_literals(a); add_literals(b)` ≡ `add_literals(a + b)`.
pub(crate) struct Splitter {
    /// Chunks closed so far, in input order. Drained by the caller.
    pub(crate) chunks: Vec<Parse>,
    cur: Parse,
    cur_len: usize,
    target: usize,
}

impl Splitter {
    pub(crate) fn new(target: usize) -> Self {
        assert!(target >= cdpu_lz77::MIN_MATCH * 2, "target too small to split matches");
        Splitter { chunks: Vec::new(), cur: Parse::default(), cur_len: 0, target }
    }

    fn flush(&mut self) {
        if self.cur_len > 0 || !self.cur.seqs.is_empty() {
            self.chunks.push(std::mem::take(&mut self.cur));
            self.cur_len = 0;
        }
    }

    /// Closes the trailing partial chunk (end of input).
    pub(crate) fn close(&mut self) {
        self.flush();
    }

    pub(crate) fn add_literals(&mut self, mut n: usize) {
        while n > 0 {
            if self.cur_len == self.target {
                self.flush();
            }
            let take = n.min(self.target - self.cur_len);
            self.cur.last_literals += take as u32;
            self.cur_len += take;
            n -= take;
        }
    }

    pub(crate) fn add_match(&mut self, mut rem: u32, offset: u32) {
        if rem < cdpu_lz77::MIN_MATCH as u32 {
            // No length code exists below MIN_MATCH and no matcher emits
            // one; a hand-built parse's short match goes out as literals.
            self.add_literals(rem as usize);
            return;
        }
        while rem > 0 {
            if self.cur_len == self.target {
                self.flush();
            }
            let space = (self.target - self.cur_len) as u32;
            let mut piece = rem.min(MAX_MATCH).min(space);
            if piece < rem && rem - piece < cdpu_lz77::MIN_MATCH as u32 {
                piece = piece.saturating_sub(cdpu_lz77::MIN_MATCH as u32);
            }
            if piece < cdpu_lz77::MIN_MATCH as u32 {
                self.flush();
                continue;
            }
            let lit_len = std::mem::take(&mut self.cur.last_literals);
            self.cur.seqs.push(Seq {
                lit_len,
                match_len: piece,
                offset,
            });
            self.cur_len += piece as usize;
            rem -= piece;
        }
    }
}

const BLOCK_RAW: u8 = 0;
const BLOCK_HUFF: u8 = 1;

pub(crate) fn emit_block(
    data: &[u8],
    parse: &Parse,
    last: bool,
    out: &mut Vec<u8>,
    payload: &mut Vec<u8>,
) {
    let last_bit = if last { 1u8 } else { 0 };
    // The payload scratch is caller-owned so one allocation serves the frame.
    payload.clear();
    match encode_huff_block(data, parse, payload) {
        Ok(()) if payload.len() < data.len() => {
            out.push(last_bit | (BLOCK_HUFF << 1));
            varint::write_u64(out, data.len() as u64);
            varint::write_u64(out, payload.len() as u64);
            out.extend_from_slice(payload);
        }
        _ => {
            out.push(last_bit | (BLOCK_RAW << 1));
            varint::write_u64(out, data.len() as u64);
            out.extend_from_slice(data);
        }
    }
}

/// Encodes one Huffman block: the DEFLATE symbol stream (literal/length +
/// distance alphabets) with dynamic tables.
fn encode_huff_block(data: &[u8], parse: &Parse, out: &mut Vec<u8>) -> Result<(), FlateError> {
    // Build the symbol stream and frequency tables.
    let mut litlen_freq = vec![0u32; codes::LITLEN_SYMBOLS];
    let mut dist_freq = vec![0u32; codes::DIST_SYMBOLS];
    litlen_freq[codes::END_OF_BLOCK as usize] = 1;

    let mut pos = 0usize;
    for s in &parse.seqs {
        for &b in &data[pos..pos + s.lit_len as usize] {
            litlen_freq[b as usize] += 1;
        }
        pos += (s.lit_len + s.match_len) as usize;
        let lc = codes::length_code(s.match_len).map_err(|_| FlateError::BadBlock("length"))?;
        litlen_freq[lc.code as usize] += 1;
        let dc = codes::dist_code(s.offset).map_err(|_| FlateError::BadBlock("distance"))?;
        dist_freq[dc.code as usize] += 1;
    }
    for &b in &data[pos..pos + parse.last_literals as usize] {
        litlen_freq[b as usize] += 1;
    }

    let litlen = HuffmanTable::from_frequencies_limited(&litlen_freq, 15)
        .map_err(FlateError::Huffman)?;
    // The distance alphabet may be empty (no matches): write a 1-symbol
    // placeholder table.
    let has_dists = dist_freq.iter().any(|&c| c > 0);
    if !has_dists {
        dist_freq[0] = 1;
    }
    let dist =
        HuffmanTable::from_frequencies_limited(&dist_freq, 15).map_err(FlateError::Huffman)?;

    litlen.serialize(out);
    dist.serialize(out);

    // Bit stream: literals/lengths/distances with extra bits, terminated
    // by END_OF_BLOCK.
    let mut w = MsbBitWriter::new();
    let mut pos = 0usize;
    for s in &parse.seqs {
        for &b in &data[pos..pos + s.lit_len as usize] {
            litlen.encode_symbol(b as u16, &mut w).map_err(FlateError::Huffman)?;
        }
        pos += (s.lit_len + s.match_len) as usize;
        let lc = codes::length_code(s.match_len).expect("validated above");
        litlen.encode_symbol(lc.code, &mut w).map_err(FlateError::Huffman)?;
        w.write_bits(lc.extra as u64, lc.extra_bits as u32);
        let dc = codes::dist_code(s.offset).expect("validated above");
        dist.encode_symbol(dc.code, &mut w).map_err(FlateError::Huffman)?;
        w.write_bits(dc.extra as u64, dc.extra_bits as u32);
    }
    for &b in &data[pos..pos + parse.last_literals as usize] {
        litlen.encode_symbol(b as u16, &mut w).map_err(FlateError::Huffman)?;
    }
    litlen
        .encode_symbol(codes::END_OF_BLOCK, &mut w)
        .map_err(FlateError::Huffman)?;
    let (bits, bit_len) = w.finish();
    varint::write_u64(out, bit_len as u64);
    out.extend_from_slice(&bits);
    if cdpu_telemetry::enabled() {
        use cdpu_telemetry::counter;
        counter!("flate.entropy.blocks").incr();
        counter!("flate.entropy.sequences").add(parse.seqs.len() as u64);
        counter!("flate.entropy.payload_bits").add(bit_len as u64);
    }
    Ok(())
}

/// Decompresses a Flate-class frame.
///
/// # Errors
///
/// Any [`FlateError`]: malformed framing, Huffman corruption, bad
/// distances, or length mismatches.
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, FlateError> {
    let mut out = Vec::new();
    decompress_impl(frame, &mut out, &mut Vec::new(), &mut Vec::new())?;
    Ok(out)
}

/// Decompresses into caller-provided scratch buffers, so steady-state
/// decode allocates nothing once the scratch has warmed up. Output bytes
/// and error behaviour are identical to [`decompress`]; the returned slice
/// borrows the scratch and is valid until its next use.
///
/// # Errors
///
/// Any [`FlateError`], identically to [`decompress`].
pub fn decompress_into<'a>(
    frame: &[u8],
    scratch: &'a mut DecoderScratch,
) -> Result<&'a [u8], FlateError> {
    let (out, lits, seqs) = scratch.buffers();
    decompress_impl(frame, out, lits, seqs)?;
    Ok(out)
}

/// The frame walk behind both one-shot entries; each Huffman block goes
/// through the [`decode_huff_entropy`] / [`apply_huff_ops`] pair the
/// streaming decoder uses, staged in `lits`/`seqs`.
fn decompress_impl(
    frame: &[u8],
    out: &mut Vec<u8>,
    lits: &mut Vec<u8>,
    seqs: &mut Vec<Seq>,
) -> Result<(), FlateError> {
    if frame.len() < 5 || frame[..4] != MAGIC {
        return Err(FlateError::BadMagic);
    }
    let window_log = frame[4] as u32;
    if window_log > MAX_WINDOW_LOG {
        return Err(FlateError::BadHeader);
    }
    let mut pos = 5usize;
    let (expected, n) = varint::read_u64(&frame[pos..]).map_err(|_| FlateError::BadHeader)?;
    pos += n;
    let window = 1u32 << window_log;

    // Reserve conservatively: the declared size is untrusted input, so cap
    // the up-front allocation and let the vector grow if the data is real.
    out.reserve((expected as usize).min(MAX_BLOCK_SIZE));
    let mut saw_last = false;
    while !saw_last {
        if pos >= frame.len() {
            return Err(FlateError::Truncated);
        }
        let flags = frame[pos];
        pos += 1;
        saw_last = flags & 1 != 0;
        let (block_len, n) =
            varint::read_u64(&frame[pos..]).map_err(|_| FlateError::Truncated)?;
        pos += n;
        let block_len = block_len as usize;
        if block_len > MAX_BLOCK_SIZE {
            return Err(FlateError::BadBlock("block exceeds size limit"));
        }
        match (flags >> 1) & 0b11 {
            BLOCK_RAW => {
                if pos + block_len > frame.len() {
                    return Err(FlateError::Truncated);
                }
                out.extend_from_slice(&frame[pos..pos + block_len]);
                pos += block_len;
            }
            BLOCK_HUFF => {
                let (payload_len, n) =
                    varint::read_u64(&frame[pos..]).map_err(|_| FlateError::Truncated)?;
                pos += n;
                let payload_len = payload_len as usize;
                if payload_len > frame.len() - pos {
                    return Err(FlateError::Truncated);
                }
                let before = out.len();
                let (tail, deferred) =
                    decode_huff_entropy(&frame[pos..pos + payload_len], block_len, lits, seqs);
                apply_huff_ops(lits, seqs, tail, deferred, out, window, block_len)?;
                if out.len() - before != block_len {
                    return Err(FlateError::BadBlock("block length mismatch"));
                }
                pos += payload_len;
            }
            _ => return Err(FlateError::BadBlock("unknown block type")),
        }
        if out.len() as u64 > expected {
            return Err(FlateError::LengthMismatch {
                expected,
                actual: out.len() as u64,
            });
        }
    }
    if out.len() as u64 != expected {
        return Err(FlateError::LengthMismatch {
            expected,
            actual: out.len() as u64,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_util::rng::Xoshiro256;

    fn roundtrip(data: &[u8], cfg: &FlateConfig) -> usize {
        let c = compress_with(data, cfg);
        assert_eq!(decompress(&c).unwrap(), data, "level {}", cfg.level);
        c.len()
    }

    #[test]
    fn empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abcd", b"aaaaaaaa"] {
            roundtrip(data, &FlateConfig::default());
        }
    }

    #[test]
    fn text_all_levels() {
        let data = b"Flate pairs LZ77 with Huffman coding and nothing else. ".repeat(150);
        for level in 1..=9 {
            let n = roundtrip(&data, &FlateConfig::with_level(level));
            assert!(n < data.len() / 3, "level {level}: {n}");
        }
    }

    #[test]
    fn random_data_stays_near_raw() {
        let mut rng = Xoshiro256::seed_from(1);
        let mut data = vec![0u8; 200_000];
        rng.fill_bytes(&mut data);
        let c = compress(&data);
        assert!(c.len() <= data.len() + 64);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn splitter_emits_short_matches_as_literals() {
        // A caller-supplied parse may carry a match no matcher would emit;
        // the splitter must terminate and the frame must still decode.
        let data = b"abcdabcdabcdabcdabcd";
        for short in 1..cdpu_lz77::MIN_MATCH as u32 {
            let parse = Parse {
                seqs: vec![
                    Seq { lit_len: 4, match_len: short, offset: 4 },
                    Seq { lit_len: 0, match_len: 8, offset: 4 },
                ],
                last_literals: data.len() as u32 - 12 - short,
            };
            let c = compress_parse(data, &parse, &FlateConfig::default());
            assert_eq!(decompress(&c).unwrap(), data, "match_len {short}");
        }
    }

    #[test]
    fn long_runs_split_matches_at_258() {
        // DEFLATE caps matches at 258; megabyte runs exercise the split.
        let data = vec![b'r'; 1 << 20];
        let c = compress(&data);
        assert!(c.len() < 6000, "run should compress hard: {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn multi_block_with_cross_block_matches() {
        let data = b"0123456789abcdef".repeat(20_000); // 320 KB
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn window_is_32k_max() {
        // Period of 40 KiB exceeds the 32 KiB window: second period cannot
        // reference the first.
        let mut rng = Xoshiro256::seed_from(5);
        let mut period = vec![0u8; 40 * 1024];
        rng.fill_bytes(&mut period);
        let mut data = period.clone();
        data.extend_from_slice(&period);
        let c = compress(&data);
        assert!(c.len() > data.len() / 2, "window must not see 40 KiB back");
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn sits_between_snappy_and_zstd_conceptually() {
        // On entropy-skewed data Flate (entropy coding) must beat a parse
        // without entropy coding; this is the heavyweight/lightweight gap.
        let mut rng = Xoshiro256::seed_from(8);
        let mut data = Vec::new();
        for _ in 0..4000 {
            data.extend_from_slice(
                format!("evt={} lvl={} ok\n", rng.index(30), rng.index(4)).as_bytes(),
            );
        }
        let flate_len = compress(&data).len();
        // Literal-heavy baseline: raw parse size is data length.
        assert!(flate_len * 3 < data.len(), "flate {flate_len} on {}", data.len());
    }

    #[test]
    fn truncation_and_corruption_detected() {
        let data = b"robustness ".repeat(500);
        let c = compress(&data);
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..30 {
            let cut = rng.index(c.len());
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = c.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decompress(&bad).unwrap_err(), FlateError::BadMagic);
        for _ in 0..40 {
            let mut bad = c.clone();
            let i = rng.index(bad.len());
            bad[i] ^= 1 << rng.index(8);
            let _ = decompress(&bad); // must not panic
        }
    }

    #[test]
    fn level_bounds() {
        assert!(std::panic::catch_unwind(|| FlateConfig::with_level(0)).is_err());
        assert!(std::panic::catch_unwind(|| FlateConfig::with_level(10)).is_err());
    }

    #[test]
    fn higher_level_compresses_no_worse() {
        let mut rng = Xoshiro256::seed_from(11);
        let mut data = Vec::new();
        for _ in 0..3000 {
            data.extend_from_slice(format!("row|{:05}|{:03}\n", rng.index(800), rng.index(50)).as_bytes());
        }
        let l1 = compress_with(&data, &FlateConfig::with_level(1)).len();
        let l9 = compress_with(&data, &FlateConfig::with_level(9)).len();
        assert!(l9 <= l1, "l9 {l9} vs l1 {l1}");
    }
}
