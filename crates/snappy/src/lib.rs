//! A complete implementation of the Snappy block format.
//!
//! Snappy is the paper's representative *lightweight* algorithm (Section
//! 2.2): LZ77-inspired dictionary coding, **no entropy coding**, a fixed
//! 64 KiB window, and no compression levels. It handles the largest share
//! of compressed bytes in Google's fleet (Figure 2a), which is why two of
//! the four CDPU pipelines evaluated in Section 6 implement it.
//!
//! The wire format follows the published format description
//! (`format_description.txt` in google/snappy):
//!
//! - a varint preamble carrying the uncompressed length, then
//! - tagged elements: literals (tag `00`), copies with 1-byte (`01`),
//!   2-byte (`10`) or 4-byte (`11`) offsets.
//!
//! [`compress`] uses the hardware-shaped greedy hash-table matcher from
//! `cdpu-lz77`; [`compress_with`] exposes the matcher configuration so the
//! design-space exploration can sweep history window and hash-table sizes
//! and measure the resulting ratio — the software-vs-hardware ratio deltas
//! of Figure 12 come from exactly these knobs.
//!
//! ```
//! let data = b"Snappy trades ratio for speed; hyperscalers use it everywhere.".to_vec();
//! let c = cdpu_snappy::compress(&data);
//! assert_eq!(cdpu_snappy::decompress(&c).unwrap(), data);
//! ```

pub mod frame;
pub mod reference;
pub mod stream;

use cdpu_lz77::matcher::{HashTableMatcher, MatcherConfig};
use cdpu_lz77::window::{apply_copy, DecoderScratch};
use cdpu_lz77::Parse;
use cdpu_util::varint;

/// Snappy's fixed history window: 64 KiB for both directions (Section 3.6).
pub const WINDOW_SIZE: usize = 64 * 1024;

/// Maximum bytes a single copy element can represent.
const MAX_COPY_LEN: u32 = 64;
/// Maximum bytes a single literal element can represent.
const MAX_LITERAL_LEN: usize = 1 << 24; // 3-byte length encoding is plenty

/// Errors from Snappy decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnappyError {
    /// The length preamble was missing or malformed.
    BadPreamble,
    /// The element stream ended unexpectedly.
    Truncated,
    /// A copy referenced bytes before the beginning of the output.
    BadOffset,
    /// Output did not match the preamble's length.
    LengthMismatch {
        /// Length the preamble promised.
        expected: u64,
        /// Length actually produced.
        actual: u64,
    },
    /// A literal's declared length overran the input buffer.
    BadLiteral,
}

impl std::fmt::Display for SnappyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnappyError::BadPreamble => write!(f, "bad length preamble"),
            SnappyError::Truncated => write!(f, "compressed stream truncated"),
            SnappyError::BadOffset => write!(f, "copy offset out of range"),
            SnappyError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} bytes, produced {actual}")
            }
            SnappyError::BadLiteral => write!(f, "literal length overruns input"),
        }
    }
}

impl std::error::Error for SnappyError {}

/// Upper bound on the compressed size of `len` input bytes
/// (mirrors snappy's `MaxCompressedLength`: worst case is all literals).
pub fn max_compressed_len(len: usize) -> usize {
    32 + len + len / 6
}

/// Reads the uncompressed length from a compressed buffer without
/// decompressing.
///
/// # Errors
///
/// [`SnappyError::BadPreamble`] if the varint is malformed or exceeds
/// `u32::MAX` (the format's limit).
pub fn decompressed_len(compressed: &[u8]) -> Result<u64, SnappyError> {
    let (len, _) = varint::read_u32(compressed).map_err(|_| SnappyError::BadPreamble)?;
    Ok(len as u64)
}

/// Compresses with the default (software-Snappy-shaped) matcher.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with(data, &MatcherConfig::snappy_sw())
}

/// Compresses with an explicit matcher configuration.
///
/// The window log is clamped to Snappy's 64 KiB ceiling because the format
/// was designed around that window (the paper sweeps *smaller* windows to
/// save accelerator SRAM, never larger).
///
/// # Panics
///
/// Panics if `data` exceeds the format's 4 GiB limit or the configuration
/// is structurally invalid.
pub fn compress_with(data: &[u8], cfg: &MatcherConfig) -> Vec<u8> {
    let parse = parse_with(data, cfg);
    compress_parse(data, &parse)
}

/// Runs only the dictionary-coding stage (with the format's 64 KiB window
/// clamp applied), returning the whole-input LZ77 parse. Feed the result to
/// [`compress_parse`] to finish encoding without re-parsing.
///
/// # Panics
///
/// Panics if `data` exceeds the format's 4 GiB limit or the configuration
/// is structurally invalid.
pub fn parse_with(data: &[u8], cfg: &MatcherConfig) -> Parse {
    assert!(data.len() <= u32::MAX as usize, "snappy caps input at 4 GiB");
    let cfg = MatcherConfig {
        window_log: cfg.window_log.min(16),
        ..*cfg
    };
    HashTableMatcher::new(cfg).parse(data)
}

/// Encodes the element stream from a precomputed dictionary-stage parse,
/// skipping the (dominant) LZ77 matching cost. `parse` must be a parse of
/// exactly `data` — i.e. the value [`parse_with`] returns — in which case
/// the output is byte-identical to [`compress_with`]'s. The hardware
/// simulator's call profiler uses this to parse each input exactly once.
///
/// # Panics
///
/// Panics if `parse` does not cover `data` exactly.
pub fn compress_parse(data: &[u8], parse: &Parse) -> Vec<u8> {
    assert_eq!(parse.total_len(), data.len(), "parse must cover the input");
    let mut out = Vec::with_capacity(max_compressed_len(data.len()));
    varint::write_u64(&mut out, data.len() as u64);

    let mut pos = 0usize;
    for seq in &parse.seqs {
        emit_literals(&mut out, &data[pos..pos + seq.lit_len as usize]);
        pos += seq.lit_len as usize;
        emit_copy(&mut out, seq.offset, seq.match_len);
        pos += seq.match_len as usize;
    }
    emit_literals(&mut out, &data[pos..pos + parse.last_literals as usize]);
    out
}

pub(crate) fn emit_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let chunk = lits.len().min(MAX_LITERAL_LEN);
        let n = chunk - 1;
        if n < 60 {
            out.push((n as u8) << 2);
        } else if n < (1 << 8) {
            out.push(60 << 2);
            out.push(n as u8);
        } else if n < (1 << 16) {
            out.push(61 << 2);
            out.extend_from_slice(&(n as u16).to_le_bytes());
        } else {
            out.push(62 << 2);
            out.extend_from_slice(&(n as u32).to_le_bytes()[..3]);
        }
        out.extend_from_slice(&lits[..chunk]);
        lits = &lits[chunk..];
    }
}

pub(crate) fn emit_copy(out: &mut Vec<u8>, offset: u32, mut len: u32) {
    debug_assert!(offset >= 1 && offset as usize <= WINDOW_SIZE);
    // Long matches split into <= 64-byte copies. Avoid a trailing copy
    // shorter than 4 (inexpressible as type-01 when the offset is small and
    // wasteful as type-10): if the remainder would be 1..4, emit 60 now so
    // the tail stays >= 4.
    while len > MAX_COPY_LEN {
        let take = if len - MAX_COPY_LEN < 4 { 60 } else { MAX_COPY_LEN };
        emit_one_copy(out, offset, take);
        len -= take;
    }
    emit_one_copy(out, offset, len);
}

fn emit_one_copy(out: &mut Vec<u8>, offset: u32, len: u32) {
    debug_assert!((1..=MAX_COPY_LEN).contains(&len));
    if (4..=11).contains(&len) && offset < (1 << 11) {
        // Type 01: 3-bit length-4, 11-bit offset.
        let tag = 0b01 | (((len - 4) as u8) << 2) | (((offset >> 8) as u8) << 5);
        out.push(tag);
        out.push((offset & 0xFF) as u8);
    } else if offset < (1 << 16) {
        // Type 10: 6-bit length-1, 16-bit offset.
        out.push(0b10 | (((len - 1) as u8) << 2));
        out.extend_from_slice(&(offset as u16).to_le_bytes());
    } else {
        // Type 11: 6-bit length-1, 32-bit offset (unreachable with the
        // 64 KiB window, kept for format completeness).
        out.push(0b11 | (((len - 1) as u8) << 2));
        out.extend_from_slice(&offset.to_le_bytes());
    }
}

/// Decompresses a Snappy block.
///
/// # Errors
///
/// Any [`SnappyError`]: malformed preamble, truncated elements, invalid
/// copy offsets, or a final length that disagrees with the preamble.
pub fn decompress(compressed: &[u8]) -> Result<Vec<u8>, SnappyError> {
    let mut out = Vec::new();
    decompress_impl(compressed, &mut out)?;
    Ok(out)
}

/// Decompresses a Snappy block into caller-held scratch buffers, so
/// steady-state decode performs no allocation once the scratch has warmed
/// up. The returned slice borrows the scratch and is valid until its next
/// use; output bytes and errors are identical to [`decompress`].
///
/// # Errors
///
/// Any [`SnappyError`], exactly as [`decompress`] reports them.
pub fn decompress_into<'a>(
    compressed: &[u8],
    scratch: &'a mut DecoderScratch,
) -> Result<&'a [u8], SnappyError> {
    let (out, _, _) = scratch.buffers();
    decompress_impl(compressed, out)?;
    Ok(out)
}

fn decompress_impl(compressed: &[u8], out: &mut Vec<u8>) -> Result<(), SnappyError> {
    let (expected, pos) =
        varint::read_u32(compressed).map_err(|_| SnappyError::BadPreamble)?;
    let expected = expected as u64;
    // The declared size is untrusted input, so cross-check it against what
    // the element stream could possibly expand to before reserving: the
    // densest element is a 3-byte type-10 copy producing 64 output bytes,
    // and literal elements produce at most one output byte per input byte,
    // so `payload` element bytes can never yield more than
    // `(payload / 3 + 1) * 64 + payload` output bytes. Reserving
    // `min(expected, bound)` both avoids the hostile-preamble
    // overallocation and — unlike the former fixed 1 MiB cap — never
    // regrows mid-decode for honest streams of any size.
    let payload = (compressed.len() - pos) as u64;
    let bound = (payload / 3 + 1) * 64 + payload;
    out.reserve(expected.min(bound) as usize);
    let elements = &compressed[pos..];
    let (used, lit_left) = decode_elements(elements, out, 0, expected, usize::MAX)?;
    end_of_input(elements.len() - used, lit_left, out.len() as u64, expected)
}

/// The element loop under both decoders: applies `input`'s elements to
/// `out` until the input ends inside one, or `out` holds `high_water`
/// bytes. `out` holds the output from byte `base` on, and the stream
/// declared `expected` bytes in all. Returns the input bytes consumed and
/// the payload bytes a literal the input ended inside still owes (the ones
/// present are applied, and all of the input is consumed).
///
/// # Errors
///
/// A [`SnappyError`] at the first element that is invalid whatever
/// follows it.
#[inline]
pub(crate) fn decode_elements(
    input: &[u8],
    out: &mut Vec<u8>,
    base: u64,
    expected: u64,
    high_water: usize,
) -> Result<(usize, u64), SnappyError> {
    let mut pos = 0;
    while pos < input.len() && out.len() < high_water {
        let tag = input[pos];
        match tag & 0b11 {
            0b00 => {
                let n6 = (tag >> 2) as usize;
                let (len, start) = if n6 < 60 {
                    (n6 + 1, pos + 1)
                } else {
                    let extra = n6 - 59; // 1..=4 extra length bytes
                    let Some(ext) = input.get(pos + 1..pos + 1 + extra) else { break };
                    let v = ext.iter().rev().fold(0usize, |v, &b| v << 8 | b as usize);
                    (v + 1, pos + 1 + extra)
                };
                let avail = input.len() - start;
                if len > avail {
                    out.extend_from_slice(&input[start..]);
                    return Ok((input.len(), (len - avail) as u64));
                }
                extend_literals(out, &input[start..], len);
                pos = start + len;
            }
            0b01 => {
                let Some(&low) = input.get(pos + 1) else { break };
                let len = 4 + ((tag >> 2) & 0b111) as u32;
                let offset = (((tag >> 5) as u32) << 8) | low as u32;
                apply_copy(out, offset, len).map_err(|_| SnappyError::BadOffset)?;
                pos += 2;
            }
            0b10 => {
                let Some(&[b0, b1]) = input.get(pos + 1..pos + 3) else { break };
                let len = 1 + (tag >> 2) as u32;
                let offset = u16::from_le_bytes([b0, b1]) as u32;
                apply_copy(out, offset, len).map_err(|_| SnappyError::BadOffset)?;
                pos += 3;
            }
            _ => {
                let Some(&[b0, b1, b2, b3]) = input.get(pos + 1..pos + 5) else { break };
                let len = 1 + (tag >> 2) as u32;
                let offset = u32::from_le_bytes([b0, b1, b2, b3]);
                apply_copy(out, offset, len).map_err(|_| SnappyError::BadOffset)?;
                pos += 5;
            }
        }
        let produced = base + out.len() as u64;
        if produced > expected {
            return Err(SnappyError::LengthMismatch { expected, actual: produced });
        }
    }
    Ok((pos, 0))
}

/// Appends `input[..len]` to `out`. A run of up to 16 bytes, with 16 in
/// `input` and room for 16 in `out`, moves as one fixed-size copy and is
/// cut back to `len`, instead of a length-dispatched `memcpy`.
#[inline(always)]
fn extend_literals(out: &mut Vec<u8>, input: &[u8], len: usize) {
    if len <= 16 && input.len() >= 16 && out.capacity() - out.len() >= 16 {
        let end = out.len() + len;
        out.extend_from_slice(&input[..16]);
        out.truncate(end);
    } else {
        out.extend_from_slice(&input[..len]);
    }
}

/// What a stream whose elements ended where [`decode_elements`] stopped —
/// `rest` bytes short of their end, `lit_left` payload bytes short of a
/// literal's — reports: `BadLiteral` for a cut-off literal payload,
/// `Truncated` for any other cut-off element, else `LengthMismatch` unless
/// it produced exactly what it declared.
pub(crate) fn end_of_input(
    rest: usize,
    lit_left: u64,
    produced: u64,
    expected: u64,
) -> Result<(), SnappyError> {
    if lit_left > 0 {
        return Err(SnappyError::BadLiteral);
    }
    if rest > 0 {
        return Err(SnappyError::Truncated);
    }
    if produced != expected {
        return Err(SnappyError::LengthMismatch { expected, actual: produced });
    }
    Ok(())
}

/// Compression ratio achieved on `data` (uncompressed / compressed), the
/// metric the paper reports throughout.
pub fn compression_ratio(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    data.len() as f64 / compress(data).len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_util::rng::Xoshiro256;

    #[test]
    fn handcrafted_stream_decodes() {
        // "abcabcab": literal "abc" then copy(offset=3, len=5) as type 01.
        let stream = [0x08, 0x08, b'a', b'b', b'c', 0x05, 0x03];
        assert_eq!(decompress(&stream).unwrap(), b"abcabcab");
    }

    #[test]
    fn handcrafted_two_byte_copy() {
        // literal "ab", copy(offset=2, len=13) type 10 (len-1=12 -> tag 0x32).
        let stream = [0x0F, 0x04, b'a', b'b', 0x32, 0x02, 0x00];
        assert_eq!(decompress(&stream).unwrap(), b"abababababababa");
    }

    #[test]
    fn empty_input() {
        let c = compress(b"");
        assert_eq!(c, [0x00]);
        assert_eq!(decompress(&c).unwrap(), b"");
    }

    #[test]
    fn single_byte() {
        let c = compress(b"x");
        assert_eq!(decompress(&c).unwrap(), b"x");
    }

    #[test]
    fn roundtrip_text() {
        let data = b"Snappy aims for very high speeds and reasonable compression. ".repeat(100);
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "repetitive text should compress 4x+");
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..20 {
            let len = rng.index(100_000);
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let c = compress(&data);
            assert!(c.len() <= max_compressed_len(len));
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_runs_and_overlaps() {
        // Long runs exercise overlapping copies (offset 1) and copy
        // splitting (> 64-byte matches).
        for run in [1usize, 3, 63, 64, 65, 67, 127, 128, 129, 1000, 65_537] {
            let data = vec![b'z'; run];
            assert_eq!(decompress(&compress(&data)).unwrap(), data, "run {run}");
        }
    }

    #[test]
    fn roundtrip_structured() {
        let mut rng = Xoshiro256::seed_from(7);
        let mut data = Vec::new();
        for i in 0..2000 {
            data.extend_from_slice(
                format!("key{:04}=value{:06};", i % 50, rng.index(100)).as_bytes(),
            );
        }
        let c = compress(&data);
        assert!(c.len() < data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_literals_use_extended_lengths() {
        // Incompressible block > 60 bytes forces multi-byte literal lengths.
        let mut rng = Xoshiro256::seed_from(3);
        for len in [61usize, 256, 257, 65_536, 70_000] {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            assert_eq!(decompress(&compress(&data)).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn decompressed_len_reads_preamble() {
        let data = vec![7u8; 12345];
        let c = compress(&data);
        assert_eq!(decompressed_len(&c).unwrap(), 12345);
    }

    #[test]
    fn window_respected_by_far_matches() {
        // Duplicate block 128 KiB apart: beyond Snappy's window, so the
        // second copy of the block cannot reference the first; decode must
        // still work and offsets stay in range.
        let mut rng = Xoshiro256::seed_from(9);
        let mut block = vec![0u8; 4096];
        rng.fill_bytes(&mut block);
        let mut data = block.clone();
        data.extend(std::iter::repeat_n(0u8, 128 * 1024));
        data.extend_from_slice(&block);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncation_errors() {
        let data = b"hello hello hello hello".repeat(10);
        let c = compress(&data);
        for cut in [0, 1, 2, c.len() / 2, c.len() - 1] {
            let r = decompress(&c[..cut]);
            assert!(r.is_err(), "cut {cut} should fail");
        }
    }

    #[test]
    fn bad_offset_rejected() {
        // Preamble 4, copy type 01 with offset 5 but nothing produced yet.
        let stream = [0x04, 0x05, 0x05];
        assert_eq!(decompress(&stream).unwrap_err(), SnappyError::BadOffset);
    }

    #[test]
    fn length_mismatch_rejected() {
        // Preamble says 10 but only a 3-byte literal follows.
        let stream = [0x0A, 0x08, b'a', b'b', b'c'];
        assert!(matches!(
            decompress(&stream).unwrap_err(),
            SnappyError::LengthMismatch { expected: 10, actual: 3 }
        ));
    }

    #[test]
    fn overrun_output_rejected() {
        // Preamble says 2 but a 3-byte literal follows.
        let stream = [0x02, 0x08, b'a', b'b', b'c'];
        assert!(matches!(
            decompress(&stream).unwrap_err(),
            SnappyError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn hw_matcher_ratio_at_least_sw() {
        // The hardware config (no skip) must never compress worse than the
        // software config on mixed data — the effect behind the paper's
        // "+1.1% ratio vs software" observation (Section 6.3).
        let mut rng = Xoshiro256::seed_from(11);
        let mut data = vec![0u8; 32 * 1024];
        rng.fill_bytes(&mut data);
        data.extend(b"abcdefghij".repeat(3000));
        let sw = compress_with(&data, &MatcherConfig::snappy_sw()).len();
        let hw = compress_with(&data, &MatcherConfig::snappy_hw()).len();
        assert!(hw <= sw, "hw {hw} vs sw {sw}");
    }

    #[test]
    fn smaller_window_weakens_ratio() {
        // Periodic data with an 8 KiB period: visible to a 64 KiB window,
        // invisible to a 4 KiB window.
        let mut rng = Xoshiro256::seed_from(13);
        let mut period = vec![0u8; 8 * 1024];
        rng.fill_bytes(&mut period);
        let mut data = Vec::new();
        for _ in 0..8 {
            data.extend_from_slice(&period);
        }
        let big = compress_with(&data, &MatcherConfig::snappy_hw()).len();
        let small = compress_with(
            &data,
            &MatcherConfig {
                window_log: 12,
                ..MatcherConfig::snappy_hw()
            },
        )
        .len();
        assert!(big < small, "64K window {big} should beat 4K window {small}");
    }

    #[test]
    fn garbage_preamble_rejected() {
        assert_eq!(decompress(&[]).unwrap_err(), SnappyError::BadPreamble);
        // 6-byte varint overflows u32.
        assert_eq!(
            decompress(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]).unwrap_err(),
            SnappyError::BadPreamble
        );
    }

    #[test]
    fn ratio_metric() {
        assert_eq!(compression_ratio(b""), 1.0);
        let data = b"abc".repeat(1000);
        assert!(compression_ratio(&data) > 5.0);
        let mut rng = Xoshiro256::seed_from(2);
        let mut noise = vec![0u8; 10_000];
        rng.fill_bytes(&mut noise);
        assert!(compression_ratio(&noise) <= 1.0);
    }
}
