//! An LZ4-class codec: token-per-sequence byte-aligned LZ77, no entropy
//! coding, levels.
//!
//! LZ4 is the throughput-regime design point the CDPU paper's serving
//! numbers lean on: one token byte carries both the literal-run length and
//! the match length (a nibble each), so the decoder's hot loop is a single
//! branch on a byte it has already loaded. Like our LZO class, every field
//! is byte-aligned, matches carry 16-bit offsets, and levels 1–9 only
//! change how hard the compressor searches — the format never changes.
//!
//! Format: varint uncompressed length, then sequences:
//!
//! - token byte: high nibble = literal-run length (15 chains with a varint
//!   extension), low nibble = match length − 4 (15 chains likewise);
//! - the literal bytes;
//! - a 2-byte little-endian match offset, then the match-length extension
//!   if the low nibble was 15.
//!
//! The final sequence is literals-only: the stream ends after its literal
//! bytes, so it carries no offset (its match nibble is 0).

use crate::{matcher_for_level, read_ext};
use cdpu_lz77::matcher::HashTableMatcher;
use cdpu_lz77::stream::{Elements, Stop};
use cdpu_lz77::window::{apply_copy, extend_literals, DecoderScratch};
use cdpu_util::varint;

/// Maximum offset the 16-bit field expresses (also the window size).
pub const MAX_OFFSET: u32 = 65535;

/// Errors from LZ4-class decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lz4Error {
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

impl std::fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz4Error::BadPreamble => write!(f, "bad length preamble"),
            Lz4Error::Truncated => write!(f, "token stream truncated"),
            Lz4Error::BadOffset => write!(f, "match offset out of range"),
            Lz4Error::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} bytes, produced {actual}")
            }
        }
    }
}

impl std::error::Error for Lz4Error {}

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
    assert!((1..=9).contains(&level), "lz4 levels are 1..=9");
    let mut parse = HashTableMatcher::new(matcher_for_level(level)).parse(data);
    // The matcher's 64 KiB window admits offsets up to 65536, one past
    // what the 16-bit field expresses; demote boundary matches to
    // literals rather than truncating the offset on encode.
    parse.fold_matches_beyond(MAX_OFFSET);
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    varint::write_u64(&mut out, data.len() as u64);
    Elements::write_parse(data, &parse, &mut out, emit_sequence);
    out
}

pub(crate) fn emit_sequence(out: &mut Vec<u8>, lits: &[u8], m: Option<(u32, u32)>) {
    let ll = lits.len();
    let mlen = m.map_or(0, |(_, len)| {
        debug_assert!(len >= 4);
        (len - 4) as usize
    });
    out.push(((ll.min(15) as u8) << 4) | mlen.min(15) as u8);
    if ll >= 15 {
        varint::write_u64(out, (ll - 15) as u64);
    }
    out.extend_from_slice(lits);
    if let Some((offset, _)) = m {
        debug_assert!((1..=MAX_OFFSET).contains(&offset));
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if mlen >= 15 {
            varint::write_u64(out, (mlen - 15) as u64);
        }
    }
}

/// Decompresses an LZ4-class stream.
///
/// # Errors
///
/// Any [`Lz4Error`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, Lz4Error> {
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
/// Any [`Lz4Error`], identically to [`decompress`].
pub fn decompress_into<'a>(
    input: &[u8],
    scratch: &'a mut DecoderScratch,
) -> Result<&'a [u8], Lz4Error> {
    let (out, _, _) = scratch.buffers();
    decompress_impl(input, out)?;
    Ok(out)
}

fn decompress_impl(input: &[u8], out: &mut Vec<u8>) -> Result<(), Lz4Error> {
    let (expected, pos) = varint::read_u64(input).map_err(|_| Lz4Error::BadPreamble)?;
    // Reserve conservatively: the declared size is untrusted input, so cap
    // the up-front allocation and let the vector grow if the data is real.
    out.reserve((expected as usize).min(1 << 20));
    let seqs = &input[pos..];
    let stop = decode_sequences(seqs, out, 0, expected, usize::MAX)?;
    end_of_input(&stop, seqs.len(), out.len() as u64, expected)
}

/// The sequence loop under both LZ4 decoders: applies `input`'s sequences
/// to `out` until the input ends inside one, or `out` holds `high_water`
/// bytes. `out` holds the output from byte `base` on, and the stream
/// declared `expected` bytes in all. A sequence whose literals are in but
/// whose match is not stops with [`Stop::resume`] set after the literals.
///
/// # Errors
///
/// An [`Lz4Error`] at the first sequence that is invalid whatever follows.
#[inline]
pub(crate) fn decode_sequences(
    input: &[u8],
    out: &mut Vec<u8>,
    base: u64,
    expected: u64,
    high_water: usize,
) -> Result<Stop, Lz4Error> {
    let produced = |out: &Vec<u8>| base + out.len() as u64;
    let ext = |input: &[u8]| read_ext(input).map_err(|_| Lz4Error::Truncated);
    let mut pos = 0;
    while pos < input.len() && out.len() < high_water {
        let token = input[pos];
        // Literal run, varint-extended past a full nibble. The extension
        // is untrusted and can be anything up to u64::MAX, so all length
        // arithmetic stays in checked u64 and is bounded against the
        // remaining input before the cast to usize.
        let mut ll = (token >> 4) as u64;
        let mut p = pos + 1;
        if ll == 15 {
            let Some((e, used)) = ext(&input[p..])? else { break };
            p += used;
            ll = ll.checked_add(e).ok_or(Lz4Error::Truncated)?;
        }
        let resume = Some(token & 0x0F);
        let avail = (input.len() - p) as u64;
        if ll > avail {
            out.extend_from_slice(&input[p..]);
            return Ok(Stop { pos: input.len(), lit_left: ll - avail, resume });
        }
        extend_literals(out, &input[p..], ll as usize);
        p += ll as usize;
        if produced(out) > expected {
            return Err(Lz4Error::LengthMismatch { expected, actual: produced(out) });
        }
        // The match: a 2-byte offset, then the length's extension. A
        // stream may end before it (the final, literals-only sequence).
        let Some(&[lo, hi]) = input.get(p..p + 2) else {
            return Ok(Stop { pos: p, lit_left: 0, resume });
        };
        let offset = u16::from_le_bytes([lo, hi]) as u32;
        let mut q = p + 2;
        let mut n = (token & 0x0F) as u64;
        if n == 15 {
            let Some((e, used)) = ext(&input[q..])? else {
                return Ok(Stop { pos: p, lit_left: 0, resume });
            };
            q += used;
            n = n.checked_add(e).ok_or(Lz4Error::Truncated)?;
        }
        // Guard before copying: a hostile length must not balloon the
        // output past the declared size, and must fit the u32 copy width
        // rather than silently truncating.
        let copy = n.checked_add(4).ok_or(Lz4Error::Truncated)?;
        if copy > expected.saturating_sub(produced(out)) {
            return Err(Lz4Error::LengthMismatch {
                expected,
                actual: produced(out).saturating_add(copy),
            });
        }
        if copy > u32::MAX as u64 {
            return Err(Lz4Error::Truncated);
        }
        apply_copy(out, offset, copy as u32).map_err(|_| Lz4Error::BadOffset)?;
        pos = q;
    }
    Ok(Stop { pos, lit_left: 0, resume: None })
}

/// What a stream whose sequences (`len` bytes of them) ended where
/// [`decode_sequences`] stopped reports: `Truncated` for a cut-off
/// sequence — one whose literals are all in may end there — else
/// `LengthMismatch` unless it produced exactly what it declared.
pub(crate) fn end_of_input(
    stop: &Stop,
    len: usize,
    produced: u64,
    expected: u64,
) -> Result<(), Lz4Error> {
    if stop.lit_left > 0 || stop.pos < len {
        return Err(Lz4Error::Truncated);
    }
    if produced != expected {
        return Err(Lz4Error::LengthMismatch { expected, actual: produced });
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
        let data = b"lz4 packs both lengths into one token byte ".repeat(400);
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
    fn nibble_extensions_chain() {
        let mut rng = Xoshiro256::seed_from(2);
        // Incompressible run > 14 bytes forces the literal extension; a
        // long repeated tail forces the match extension.
        let mut data = vec![0u8; 5000];
        rng.fill_bytes(&mut data);
        data.extend(std::iter::repeat_n(7u8, 4000));
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
        assert_eq!(decompress(&[]).unwrap_err(), Lz4Error::BadPreamble);
        // Preamble 8, token: 0 literals + match len 4, offset 9 before any
        // output.
        let bad = [0x08, 0x00, 0x09, 0x00, 0x00];
        assert_eq!(decompress(&bad).unwrap_err(), Lz4Error::BadOffset);
        // Hostile match length must not balloon the output: preamble 8,
        // 4 literals, then a chained match length far past the promise.
        let bad = [0x08, 0x4F, b'a', b'b', b'c', b'd', 0x01, 0x00, 0xFF, 0x7F];
        assert!(matches!(
            decompress(&bad).unwrap_err(),
            Lz4Error::LengthMismatch { expected: 8, .. }
        ));
    }

    #[test]
    fn level_bounds() {
        assert!(std::panic::catch_unwind(|| compress_with_level(b"x", 0)).is_err());
        assert!(std::panic::catch_unwind(|| compress_with_level(b"x", 10)).is_err());
    }
}
