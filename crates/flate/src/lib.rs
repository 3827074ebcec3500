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
use cdpu_lz77::block::{BlockCoder, BlockFrameWriter, SplitRule};
use cdpu_lz77::matcher::{ChainConfig, HashChainMatcher};
use cdpu_lz77::window::DecoderScratch;
use cdpu_lz77::{Parse, Seq};
use cdpu_util::bits::MsbBitWriter;
use cdpu_util::stream::{BlockFrameReader, BlockFrameSpec, HistBuf};
use cdpu_util::varint;

pub mod codes;
mod decode;
pub mod reference;
pub mod stream;

use decode::{apply_huff_ops, decode_huff_entropy};

/// Frame magic (`CDPF`): deliberately distinct from gzip/zlib headers.
pub const MAGIC: [u8; 4] = *b"CDPF";

/// Maximum uncompressed bytes per block (DEFLATE has no hard block limit;
/// we reuse the framework's 128 KiB blocking for bounded buffering).
pub const MAX_BLOCK_SIZE: usize = 128 * 1024;

/// DEFLATE's maximum match length.
pub const MAX_MATCH: u32 = 258;
/// DEFLATE's window ceiling (32 KiB).
pub const MAX_WINDOW_LOG: u32 = 15;

/// Block types, bits 1–2 of a block's flags byte.
const BLOCK_RAW: u8 = 0;
const BLOCK_HUFF: u8 = 1;

/// This codec's block-frame container, written by every encoder entry and
/// read by every decoder entry.
pub(crate) static FRAME: BlockFrameSpec<FlateError> = BlockFrameSpec {
    magic: MAGIC,
    window_logs: 0..=MAX_WINDOW_LOG,
    block_cap: MAX_BLOCK_SIZE,
    raw: BLOCK_RAW,
    rle: None,
    coded: BLOCK_HUFF,
    bad_magic: FlateError::BadMagic,
    bad_header: FlateError::BadHeader,
    truncated: FlateError::Truncated,
    bad_block: FlateError::BadBlock,
    length_mismatch: |expected, actual| FlateError::LengthMismatch { expected, actual },
};

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
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    frame_writer(cfg, data.len(), &mut out).write_parse(data, parse, &mut out, |_| {});
    out
}

/// How this codec's blocks cut the parse: 128 KiB blocks and DEFLATE's
/// 258-byte match cap (longer matches become back-to-back copies at the
/// same distance). No length code exists below `MIN_MATCH` and no matcher
/// emits one, so a hand-built parse's short match goes out as literals.
const SPLIT: SplitRule = SplitRule {
    block: MAX_BLOCK_SIZE,
    max_match: Some(MAX_MATCH),
    short_as_literals: true,
    back_off_whole: true,
};

/// This codec's block payload: one Huffman block.
#[derive(Debug)]
pub(crate) struct Blocks;

impl BlockCoder for Blocks {
    type Stats = ();

    fn code(&mut self, data: &[u8], parse: &Parse, payload: &mut Vec<u8>) -> Option<()> {
        encode_huff_block(data, parse, payload)
    }
}

/// The frame writer for `total` bytes at `cfg`, after it wrote the frame
/// header into `out`.
pub(crate) fn frame_writer(
    cfg: &FlateConfig,
    total: usize,
    out: &mut Vec<u8>,
) -> BlockFrameWriter<FlateError, Blocks> {
    BlockFrameWriter::new(&FRAME, SPLIT, cfg.window_log.min(MAX_WINDOW_LOG), total, Blocks, out)
}

/// Relative margin [`min_coded_bits`] keeps under the Shannon bound: the
/// f64 sum is within 1e-10 of the bound, relative (DESIGN.md, "Entropy
/// pay tests"), so the result never exceeds the true bound.
const SHANNON_MARGIN: f64 = 1e-6;

/// A lower bound on the bits any prefix code, a Huffman table built from
/// `hist` among them, spends on the symbols `hist` counts.
fn min_coded_bits(hist: &[u32]) -> u64 {
    let total: u64 = hist.iter().map(|&c| c as u64).sum();
    (cdpu_entropy::shannon_entropy(hist) * total as f64 * (1.0 - SHANNON_MARGIN)) as u64
}

/// The bits a table with code `lengths` spends on the symbols `hist`
/// counts.
fn coded_bits(lengths: &[u8], hist: &[u32]) -> u64 {
    lengths.iter().zip(hist).map(|(&len, &count)| len as u64 * count as u64).sum()
}

/// Bytes [`HuffmanTable::serialize`] writes for a table built from `hist`:
/// the symbol count, then a nibble per symbol up to the last used one.
fn table_bytes(hist: &[u32]) -> usize {
    2 + hist.iter().rposition(|&c| c > 0).map_or(0, |last| last + 1).div_ceil(2)
}

/// One block's symbol counts: what its tables are built from and what its
/// pay test reads.
struct BlockSymbols {
    litlen: [u32; codes::LITLEN_SYMBOLS],
    dist: [u32; codes::DIST_SYMBOLS],
    /// Length and distance extra bits, which no table changes.
    extra_bits: u64,
    /// Whether the distance table codes any symbol; without matches it is
    /// a 1-symbol placeholder.
    has_dists: bool,
}

impl BlockSymbols {
    /// Counts the block's symbols; `None` for a match no code covers.
    fn count(data: &[u8], parse: &Parse) -> Option<Self> {
        let mut litlen = [0u32; codes::LITLEN_SYMBOLS];
        let mut dist = [0u32; codes::DIST_SYMBOLS];
        litlen[codes::END_OF_BLOCK as usize] = 1;
        let mut extra_bits = 0u64;
        let mut pos = 0usize;
        for s in &parse.seqs {
            for &b in &data[pos..pos + s.lit_len as usize] {
                litlen[b as usize] += 1;
            }
            pos += (s.lit_len + s.match_len) as usize;
            let lc = codes::length_code(s.match_len).ok()?;
            let dc = codes::dist_code(s.offset).ok()?;
            litlen[lc.code as usize] += 1;
            dist[dc.code as usize] += 1;
            extra_bits += (lc.extra_bits + dc.extra_bits) as u64;
        }
        for &b in &data[pos..pos + parse.last_literals as usize] {
            litlen[b as usize] += 1;
        }
        let has_dists = !parse.seqs.is_empty();
        if !has_dists {
            dist[0] = 1;
        }
        Some(BlockSymbols { litlen, dist, extra_bits, has_dists })
    }

    /// Whether a payload of both tables and `bits` stream bits comes in
    /// under `raw` bytes, the raw block's.
    fn pays(&self, bits: u64, raw: usize) -> bool {
        let bit_len_bytes = (bits.max(1).ilog2() / 7 + 1) as usize;
        let headers = table_bytes(&self.litlen) + table_bytes(&self.dist);
        headers + bit_len_bytes + (bits.div_ceil(8) as usize) < raw
    }

    /// A lower bound on the stream bits of any tables.
    fn min_bits(&self) -> u64 {
        min_coded_bits(&self.litlen) + min_coded_bits(&self.dist) + self.extra_bits
    }

    /// The stream bits of the tables `litlen` and `dist`.
    fn bits(&self, litlen: &HuffmanTable, dist: &HuffmanTable) -> u64 {
        let dist_bits = if self.has_dists { coded_bits(dist.lengths(), &self.dist) } else { 0 };
        coded_bits(litlen.lengths(), &self.litlen) + dist_bits + self.extra_bits
    }
}

/// Encodes one Huffman block: the DEFLATE symbol stream (literal/length +
/// distance alphabets) with dynamic tables. `None` when the block cannot
/// be coded or its payload would not come in under the raw block's
/// `data.len()` bytes, which the writer then stores: the bound on the
/// symbol bits proves most such blocks before a table is built, the built
/// tables' exact bit count the rest before any bit is written.
fn encode_huff_block(data: &[u8], parse: &Parse, out: &mut Vec<u8>) -> Option<()> {
    let symbols = BlockSymbols::count(data, parse)?;
    if !symbols.pays(symbols.min_bits(), data.len()) {
        return None;
    }
    let litlen = HuffmanTable::from_frequencies_limited(&symbols.litlen, 15).ok()?;
    let dist = HuffmanTable::from_frequencies_limited(&symbols.dist, 15).ok()?;
    let bit_len = symbols.bits(&litlen, &dist);
    if !symbols.pays(bit_len, data.len()) {
        return None;
    }
    litlen.serialize(out);
    dist.serialize(out);

    // Bit stream: literals/lengths/distances with extra bits, terminated
    // by END_OF_BLOCK. Each symbol is one load of a packed `code << 8 |
    // len` entry; a match is one write of its length code, length extra
    // bits, distance code and distance extra bits (at most 15 + 5 + 15 +
    // 13 bits).
    let litlen_codes = litlen.packed_codes::<{ codes::LITLEN_SYMBOLS }>();
    let dist_codes = dist.packed_codes::<{ codes::DIST_SYMBOLS }>();
    let mut w = MsbBitWriter::new();
    let put = |w: &mut MsbBitWriter, entry: u32| w.write_bits((entry >> 8) as u64, entry & 0xFF);
    let mut pos = 0usize;
    for s in &parse.seqs {
        for &b in &data[pos..pos + s.lit_len as usize] {
            put(&mut w, litlen_codes[b as usize]);
        }
        pos += (s.lit_len + s.match_len) as usize;
        let lc = codes::length_code(s.match_len).expect("validated above");
        let dc = codes::dist_code(s.offset).expect("validated above");
        let (l, d) = (litlen_codes[lc.code as usize], dist_codes[dc.code as usize]);
        let mut field = (l >> 8) as u64;
        field = field << lc.extra_bits | lc.extra as u64;
        field = field << (d & 0xFF) | (d >> 8) as u64;
        field = field << dc.extra_bits | dc.extra as u64;
        w.write_bits(field, (l & 0xFF) + lc.extra_bits as u32 + (d & 0xFF) + dc.extra_bits as u32);
    }
    for &b in &data[pos..pos + parse.last_literals as usize] {
        put(&mut w, litlen_codes[b as usize]);
    }
    put(&mut w, litlen_codes[codes::END_OF_BLOCK as usize]);
    let (bits, written) = w.finish();
    debug_assert_eq!(written as u64, bit_len);
    varint::write_u64(out, bit_len);
    out.extend_from_slice(&bits);
    if cdpu_telemetry::enabled() {
        use cdpu_telemetry::counter;
        counter!("flate.entropy.blocks").incr();
        counter!("flate.entropy.sequences").add(parse.seqs.len() as u64);
        counter!("flate.entropy.payload_bits").add(bit_len);
    }
    Some(())
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

fn decompress_impl(
    frame: &[u8],
    out: &mut Vec<u8>,
    lits: &mut Vec<u8>,
    seqs: &mut Vec<Seq>,
) -> Result<(), FlateError> {
    BlockFrameReader::new(&FRAME).decode_whole(frame, out, |payload, hist, window, len| {
        decode_huff_block(payload, hist, window, len, lits, seqs)
    })
}

/// Decodes one Huffman block onto `hist`, staged in `lits`/`seqs`: the
/// per-block call every decoder entry hands the frame reader. The
/// [`decode_huff_entropy`] / [`apply_huff_ops`] split keeps the
/// interleaved reference decoder's first-error order.
pub(crate) fn decode_huff_block(
    payload: &[u8],
    hist: &mut HistBuf,
    window: u32,
    block_len: usize,
    lits: &mut Vec<u8>,
    seqs: &mut Vec<Seq>,
) -> Result<(), FlateError> {
    let (tail, deferred) = decode_huff_entropy(payload, block_len, lits, seqs);
    apply_huff_ops(lits, seqs, tail, deferred, hist.sink(), window, block_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_util::rng::Xoshiro256;

    /// The payload bytes of a Huffman block coded the full way: both
    /// tables built and serialized, every symbol written one at a time.
    fn full_payload_len(data: &[u8], parse: &Parse, symbols: &BlockSymbols) -> usize {
        let litlen = HuffmanTable::from_frequencies_limited(&symbols.litlen, 15).unwrap();
        let dist = HuffmanTable::from_frequencies_limited(&symbols.dist, 15).unwrap();
        let mut payload = Vec::new();
        litlen.serialize(&mut payload);
        dist.serialize(&mut payload);
        let mut w = MsbBitWriter::new();
        let mut pos = 0usize;
        for s in &parse.seqs {
            for &b in &data[pos..pos + s.lit_len as usize] {
                litlen.encode_symbol(b as u16, &mut w).unwrap();
            }
            pos += (s.lit_len + s.match_len) as usize;
            let lc = codes::length_code(s.match_len).unwrap();
            litlen.encode_symbol(lc.code, &mut w).unwrap();
            w.write_bits(lc.extra as u64, lc.extra_bits as u32);
            let dc = codes::dist_code(s.offset).unwrap();
            dist.encode_symbol(dc.code, &mut w).unwrap();
            w.write_bits(dc.extra as u64, dc.extra_bits as u32);
        }
        for &b in &data[pos..] {
            litlen.encode_symbol(b as u16, &mut w).unwrap();
        }
        litlen.encode_symbol(codes::END_OF_BLOCK, &mut w).unwrap();
        let (bits, bit_len) = w.finish();
        varint::write_u64(&mut payload, bit_len as u64);
        payload.len() + bits.len()
    }

    /// Whenever the bound says a block does not pay, the full path — build
    /// both tables, serialize them, encode, compare sizes — agrees; and the
    /// exact count a built block is tested with is the full path's.
    #[test]
    fn raw_precheck_is_sound() {
        let mut rng = Xoshiro256::seed_from(0xF1A7);
        let (mut proven, mut near) = (0, 0);
        for case in 0..3000 {
            let len = 8usize << rng.index(12);
            let len = len + rng.index(len);
            let (sixty_fourths, alphabet) = (rng.index(65), 1 + rng.index(26));
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.index(64) < sixty_fourths {
                        rng.next_u64() as u8
                    } else {
                        b'a' + rng.index(alphabet) as u8
                    }
                })
                .collect();
            let parse = if case % 2 == 0 {
                // The matcher's parse, matches cut to DEFLATE's 258 bytes.
                let mut parse = parse_with(&data, &FlateConfig::default());
                let mut seqs = Vec::new();
                for &Seq { mut lit_len, mut match_len, offset } in &parse.seqs {
                    while match_len > MAX_MATCH {
                        let take = if match_len - MAX_MATCH >= 3 { MAX_MATCH } else { match_len - 3 };
                        seqs.push(Seq { lit_len, match_len: take, offset });
                        (lit_len, match_len) = (0, match_len - take);
                    }
                    seqs.push(Seq { lit_len, match_len, offset });
                }
                parse.seqs = seqs;
                parse
            } else {
                Parse { seqs: Vec::new(), last_literals: len as u32 }
            };
            let symbols = BlockSymbols::count(&data, &parse).unwrap();
            let full = full_payload_len(&data, &parse, &symbols);
            let litlen = HuffmanTable::from_frequencies_limited(&symbols.litlen, 15).unwrap();
            let dist = HuffmanTable::from_frequencies_limited(&symbols.dist, 15).unwrap();
            assert_eq!(symbols.pays(symbols.bits(&litlen, &dist), len), full < len, "case {case}");
            if !symbols.pays(symbols.min_bits(), len) {
                assert!(full >= len, "case {case}: {len} bytes proven raw but code in {full}");
                proven += 1;
            }
            near += (full.abs_diff(len) * 100 <= len) as usize;
        }
        // Both sides of the test are reached, and many blocks sit within 1 %
        // of it.
        assert!(proven > 500 && near > 100, "proven {proven}, near {near}");
    }

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
