//! An LZO-class codec: byte-oriented LZ77, no entropy coding, levels.
//!
//! LZO's design point (Section 2.2): decode speed above all — every field
//! is byte-aligned, matches carry 16-bit offsets, and the only tunable is
//! how hard the *compressor* searches. Levels 1–9 scale the hash table of
//! the greedy matcher, mirroring how LZO's levels change effort without
//! changing the format.
//!
//! Format: varint uncompressed length, then tokens:
//!
//! - literal run: `0x00..=0x7F` = run length − 1 (0x7F chains with a
//!   varint extension), followed by the bytes;
//! - match: `0x80 | (len - 4)` for lengths 4–130 (one varint extension
//!   byte for longer), followed by a 2-byte little-endian offset.

use crate::{extend_literals, matcher_for_level, read_ext, Stop};
use cdpu_lz77::matcher::HashTableMatcher;
use cdpu_lz77::window::{apply_copy, DecoderScratch};
use cdpu_util::varint;

/// Maximum offset the 16-bit field expresses (also the window size).
pub const MAX_OFFSET: u32 = 65535;

/// Errors from LZO-class decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzoError {
    /// Bad or missing length preamble.
    BadPreamble,
    /// Token stream ended unexpectedly.
    Truncated,
    /// A match referenced data before the output start.
    BadOffset,
    /// Output length disagrees with the preamble.
    LengthMismatch {
        /// Promised length.
        expected: u64,
        /// Produced length.
        actual: u64,
    },
}

impl std::fmt::Display for LzoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzoError::BadPreamble => write!(f, "bad length preamble"),
            LzoError::Truncated => write!(f, "token stream truncated"),
            LzoError::BadOffset => write!(f, "match offset out of range"),
            LzoError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} bytes, produced {actual}")
            }
        }
    }
}

impl std::error::Error for LzoError {}

/// Compresses at the default level (3).
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with_level(data, 3)
}

/// Compresses at a level 1..=9.
///
/// # Panics
///
/// Panics for levels outside 1..=9.
pub fn compress_with_level(data: &[u8], level: u32) -> Vec<u8> {
    assert!((1..=9).contains(&level), "lzo levels are 1..=9");
    let mut parse = HashTableMatcher::new(matcher_for_level(level)).parse(data);
    // The matcher's 64 KiB window admits offsets up to 65536, one past
    // what the 16-bit field expresses; demote boundary matches to
    // literals rather than truncating the offset on encode.
    parse.fold_matches_beyond(MAX_OFFSET);
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    varint::write_u64(&mut out, data.len() as u64);
    let mut pos = 0usize;
    for s in &parse.seqs {
        emit_literals(&mut out, &data[pos..pos + s.lit_len as usize]);
        pos += s.lit_len as usize;
        emit_match(&mut out, s.offset, s.match_len);
        pos += s.match_len as usize;
    }
    emit_literals(&mut out, &data[pos..pos + parse.last_literals as usize]);
    out
}

pub(crate) fn emit_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if lits.is_empty() {
        return;
    }
    let n = lits.len() - 1;
    if n < 0x7F {
        out.push(n as u8);
    } else {
        out.push(0x7F);
        varint::write_u64(out, (n - 0x7F) as u64);
    }
    out.extend_from_slice(lits);
}

pub(crate) fn emit_match(out: &mut Vec<u8>, offset: u32, len: u32) {
    debug_assert!((1..=MAX_OFFSET).contains(&offset));
    debug_assert!(len >= 4);
    // Two tiers, like LZO's M2/M3 forms: a 2-byte token for short, near
    // matches and a 3+-byte token for the rest.
    if (4..=11).contains(&len) && offset < (1 << 11) {
        out.push(0x80 | (((len - 4) as u8) << 3) | ((offset >> 8) as u8));
        out.push((offset & 0xFF) as u8);
        return;
    }
    let n = len - 4;
    if n < 0x3F {
        out.push(0xC0 | n as u8);
    } else {
        out.push(0xC0 | 0x3F);
        varint::write_u64(out, (n - 0x3F) as u64);
    }
    out.extend_from_slice(&(offset as u16).to_le_bytes());
}

/// Decompresses an LZO-class stream.
///
/// # Errors
///
/// Any [`LzoError`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, LzoError> {
    let mut out = Vec::new();
    decompress_impl(input, &mut out)?;
    Ok(out)
}

/// Decompresses into caller-provided scratch buffers, so steady-state
/// decode allocates nothing once the scratch has warmed up. Output bytes
/// and error behaviour are identical to [`decompress`]; the returned slice
/// borrows the scratch and is valid until its next use.
///
/// # Errors
///
/// Any [`LzoError`], identically to [`decompress`].
pub fn decompress_into<'a>(
    input: &[u8],
    scratch: &'a mut DecoderScratch,
) -> Result<&'a [u8], LzoError> {
    let (out, _, _) = scratch.buffers();
    decompress_impl(input, out)?;
    Ok(out)
}

fn decompress_impl(input: &[u8], out: &mut Vec<u8>) -> Result<(), LzoError> {
    let (expected, pos) = varint::read_u64(input).map_err(|_| LzoError::BadPreamble)?;
    // Reserve conservatively: the declared size is untrusted input, so cap
    // the up-front allocation and let the vector grow if the data is real.
    out.reserve((expected as usize).min(1 << 20));
    let tokens = &input[pos..];
    let stop = decode_tokens(tokens, out, 0, expected, usize::MAX)?;
    end_of_input(&stop, tokens.len(), out.len() as u64, expected)
}

/// The token loop under both LZO decoders: applies `input`'s tokens to
/// `out` until the input ends inside one, or `out` holds `high_water`
/// bytes. `out` holds the output from byte `base` on, and the stream
/// declared `expected` bytes in all.
///
/// # Errors
///
/// An [`LzoError`] at the first token that is invalid whatever follows it.
#[inline]
pub(crate) fn decode_tokens(
    input: &[u8],
    out: &mut Vec<u8>,
    base: u64,
    expected: u64,
    high_water: usize,
) -> Result<Stop, LzoError> {
    let produced = |out: &Vec<u8>| base + out.len() as u64;
    let ext = |input: &[u8]| read_ext(input).map_err(|_| LzoError::Truncated);
    let mut pos = 0;
    while pos < input.len() && out.len() < high_water {
        let token = input[pos];
        if token & 0x80 == 0 {
            // Literal run, varint-extended count. The extension is
            // untrusted, so length arithmetic stays in checked u64,
            // bounded against the remaining input before the cast.
            let mut n = (token & 0x7F) as u64;
            let mut p = pos + 1;
            if n == 0x7F {
                let Some((e, used)) = ext(&input[p..])? else { break };
                p += used;
                n = n.checked_add(e).ok_or(LzoError::Truncated)?;
            }
            let len = n.checked_add(1).ok_or(LzoError::Truncated)?;
            let avail = (input.len() - p) as u64;
            if len > avail {
                out.extend_from_slice(&input[p..]);
                return Ok(Stop { pos: input.len(), lit_left: len - avail, resume: None });
            }
            extend_literals(out, &input[p..], len as usize);
            pos = p + len as usize;
        } else if token & 0x40 == 0 {
            // Short match: 3-bit length, 11-bit offset.
            let Some(&low) = input.get(pos + 1) else { break };
            let len = 4 + ((token >> 3) & 0x7) as u32;
            let offset = (((token & 0x7) as u32) << 8) | low as u32;
            apply_copy(out, offset, len).map_err(|_| LzoError::BadOffset)?;
            pos += 2;
        } else {
            // Long match: 6-bit length (varint-extended), 16-bit offset.
            let mut n = (token & 0x3F) as u64;
            let mut p = pos + 1;
            if n == 0x3F {
                let Some((e, used)) = ext(&input[p..])? else { break };
                p += used;
                n = n.checked_add(e).ok_or(LzoError::Truncated)?;
            }
            let Some(&[lo, hi]) = input.get(p..p + 2) else { break };
            let offset = u16::from_le_bytes([lo, hi]) as u32;
            // Guard before copying: a hostile length must not balloon the
            // output past the declared size, and must fit the u32 copy
            // width rather than silently truncating.
            let copy = n.checked_add(4).ok_or(LzoError::Truncated)?;
            if copy > expected.saturating_sub(produced(out)) {
                return Err(LzoError::LengthMismatch {
                    expected,
                    actual: produced(out).saturating_add(copy),
                });
            }
            if copy > u32::MAX as u64 {
                return Err(LzoError::Truncated);
            }
            apply_copy(out, offset, copy as u32).map_err(|_| LzoError::BadOffset)?;
            pos = p + 2;
        }
        if produced(out) > expected {
            return Err(LzoError::LengthMismatch { expected, actual: produced(out) });
        }
    }
    Ok(Stop { pos, lit_left: 0, resume: None })
}

/// What a stream whose tokens (`len` bytes of them) ended where
/// [`decode_tokens`] stopped reports: `Truncated` for a cut-off token,
/// else `LengthMismatch` unless it produced exactly what it declared.
pub(crate) fn end_of_input(
    stop: &Stop,
    len: usize,
    produced: u64,
    expected: u64,
) -> Result<(), LzoError> {
    if stop.lit_left > 0 || stop.pos < len {
        return Err(LzoError::Truncated);
    }
    if produced != expected {
        return Err(LzoError::LengthMismatch { expected, actual: produced });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_util::rng::Xoshiro256;

    #[test]
    fn empty_and_tiny() {
        for data in [&b""[..], b"a", b"abcd", b"aaaaaaaaaa"] {
            let c = compress(data);
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_structured() {
        let data = b"lzo is byte-oriented and fast to decode ".repeat(400);
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_random_and_runs() {
        let mut rng = Xoshiro256::seed_from(1);
        let mut data = vec![0u8; 50_000];
        rng.fill_bytes(&mut data);
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
        let runs = vec![9u8; 300_000];
        assert_eq!(decompress(&compress(&runs)).unwrap(), runs);
    }

    #[test]
    fn long_literal_runs_chain() {
        let mut rng = Xoshiro256::seed_from(2);
        // Incompressible run > 127 bytes forces the varint extension.
        let mut data = vec![0u8; 5000];
        rng.fill_bytes(&mut data);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn levels_monotone_enough() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut data = Vec::new();
        for _ in 0..4000 {
            data.extend_from_slice(format!("k{:04}=v{:03};", rng.index(900), rng.index(40)).as_bytes());
        }
        let l1 = compress_with_level(&data, 1).len();
        let l9 = compress_with_level(&data, 9).len();
        assert!(l9 <= l1, "l9 {l9} vs l1 {l1}");
    }

    #[test]
    fn errors_detected() {
        let data = b"robust ".repeat(100);
        let c = compress(&data);
        assert!(decompress(&c[..c.len() / 2]).is_err());
        assert_eq!(decompress(&[]).unwrap_err(), LzoError::BadPreamble);
        // Preamble 8, match token with offset 9 before any output.
        let bad = [0x08, 0x80, 0x09, 0x00];
        assert_eq!(decompress(&bad).unwrap_err(), LzoError::BadOffset);
    }

    #[test]
    fn level_bounds() {
        assert!(std::panic::catch_unwind(|| compress_with_level(b"x", 0)).is_err());
        assert!(std::panic::catch_unwind(|| compress_with_level(b"x", 10)).is_err());
    }
}
