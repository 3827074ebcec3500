//! A Gipfeli-class codec: LZ77 plus *simple* entropy coding.
//!
//! Gipfeli (Lenhardt & Alakuijala, DCC'12) sits between Snappy and the
//! heavyweights: it keeps Snappy's fixed 64 KiB window and greedy matching
//! but entropy-codes the literal stream with a **fixed-layout code** — no
//! Huffman tree construction, just a histogram-ranked split of the byte
//! alphabet into "frequent" (short code) and "everything else" (long
//! code). That captures most of the entropy win on text at a fraction of
//! Huffman's table cost, which is why the paper classifies it lightweight.
//!
//! Our layout: the 32 most frequent literal bytes are sent as
//! `0b0 + 5 bits` (6 bits); every other byte as `0b1 + 8 bits` (9 bits).
//! The 32-entry rank table travels in the header.
//!
//! Format: varint uncompressed length, 32-byte rank table, varint op-
//! section length, Snappy-style op tokens (with literal *counts* only —
//! the literal bytes live in the trailing bitstream), then the coded
//! literal bitstream.

use cdpu_lz77::matcher::{HashTableMatcher, MatcherConfig};
use cdpu_lz77::window::{apply_copy, DecoderScratch};
use cdpu_util::bits::{BitBuf, MsbBitReader, MsbBitWriter};
use cdpu_util::varint;

/// Number of short-coded frequent symbols.
pub const FREQUENT: usize = 32;

/// Maximum offset the 16-bit long-match field expresses.
pub const MAX_OFFSET: u32 = 65535;

/// Errors from Gipfeli-class decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GipfeliError {
    /// Bad or missing preamble/header.
    BadHeader,
    /// Stream ended unexpectedly.
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

impl std::fmt::Display for GipfeliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GipfeliError::BadHeader => write!(f, "bad header"),
            GipfeliError::Truncated => write!(f, "stream truncated"),
            GipfeliError::BadOffset => write!(f, "match offset out of range"),
            GipfeliError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} bytes, produced {actual}")
            }
        }
    }
}

impl std::error::Error for GipfeliError {}

/// Compresses with Gipfeli's fixed parameters (64 KiB window, no levels —
/// Section 2.2).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut parse = HashTableMatcher::new(MatcherConfig::snappy_sw()).parse(data);
    // The matcher's 64 KiB window admits offsets up to 65536, one past
    // what the 16-bit field expresses; demote boundary matches to
    // literals rather than truncating the offset on encode.
    parse.fold_matches_beyond(MAX_OFFSET);
    let literals = parse.literal_bytes(data);

    // Rank the literal alphabet; the top 32 get short codes.
    let mut hist = [0u64; 256];
    for &b in &literals {
        hist[b as usize] += 1;
    }
    let mut ranked: Vec<u8> = (0..=255u8).collect();
    ranked.sort_by_key(|&b| std::cmp::Reverse(hist[b as usize]));
    let table: [u8; FREQUENT] = ranked[..FREQUENT].try_into().expect("32 entries");
    // Each byte's whole code as one field: `1 ‖ byte` in 9 bits, or
    // `0 ‖ rank` in 6 for the frequent ones.
    let mut codes: [(u16, u32); 256] = std::array::from_fn(|b| (0x100 | b as u16, 9));
    for (rank, &b) in table.iter().enumerate() {
        codes[b as usize] = (rank as u16, 6);
    }

    // Ops section: literal counts + matches, Snappy-token-like.
    let mut ops = Vec::new();
    for s in &parse.seqs {
        if s.lit_len > 0 {
            push_literal_count(&mut ops, s.lit_len);
        }
        push_match(&mut ops, s.offset, s.match_len);
    }
    if parse.last_literals > 0 {
        push_literal_count(&mut ops, parse.last_literals);
    }

    // Literal bitstream.
    let mut w = MsbBitWriter::new();
    for &b in &literals {
        let (code, len) = codes[b as usize];
        w.write_bits(code as u64, len);
    }
    let (bits, bit_len) = w.finish();

    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    varint::write_u64(&mut out, data.len() as u64);
    out.extend_from_slice(&table);
    varint::write_u64(&mut out, ops.len() as u64);
    out.extend_from_slice(&ops);
    varint::write_u64(&mut out, bit_len as u64);
    out.extend_from_slice(&bits);
    out
}

fn push_literal_count(ops: &mut Vec<u8>, n: u32) {
    // 0b0 Lxxxxxx (0x00..=0x7F): literal count token, varint-extended.
    let v = n - 1;
    if v < 0x7F {
        ops.push(v as u8);
    } else {
        ops.push(0x7F);
        varint::write_u64(ops, (v - 0x7F) as u64);
    }
}

fn push_match(ops: &mut Vec<u8>, offset: u32, len: u32) {
    // Two match tiers, mirroring Snappy's cost structure:
    // 0b10 LLL OOO + 1 byte: len 4..=11, offset < 2048 (2 bytes total);
    // 0b11 LLLLLL + 2-byte offset: len 4..=66 (63 = varint extension).
    if (4..=11).contains(&len) && offset < (1 << 11) {
        ops.push(0x80 | (((len - 4) as u8) << 3) | ((offset >> 8) as u8));
        ops.push((offset & 0xFF) as u8);
        return;
    }
    let v = len - 4;
    if v < 0x3F {
        ops.push(0xC0 | v as u8);
    } else {
        ops.push(0xC0 | 0x3F);
        varint::write_u64(ops, (v - 0x3F) as u64);
    }
    ops.extend_from_slice(&(offset as u16).to_le_bytes());
}


/// Rejects an op whose output would exceed the declared size (hostile
/// lengths must fail before allocating, not after).
fn check_room(out: &[u8], add: u64, expected: u64) -> Result<(), GipfeliError> {
    if add > expected.saturating_sub(out.len() as u64) {
        return Err(GipfeliError::LengthMismatch {
            expected,
            actual: (out.len() as u64).saturating_add(add),
        });
    }
    Ok(())
}

/// Literals decoded per window refill: six 9-bit codes are 54 bits, inside
/// the 57 a refill guarantees.
const LITS_PER_REFILL: usize = 6;

/// The literal bitstream's decoder. Every code fits a 9-bit window: its
/// first bit is the flag that sets its length (`0 ‖ rank` is 6 bits, `1 ‖
/// byte` 9), and one table entry per window gives the byte. While 64 bits
/// remain the codes come from a cached [`BitBuf`] window, six per refill;
/// the tail goes through [`MsbBitReader`], which zero-fills past the
/// stream's end and checks each code against what remains.
struct Literals<'a> {
    fast: BitBuf<'a>,
    tail: MsbBitReader<'a>,
    /// The literal byte of every 9-bit window.
    bytes: [u8; 512],
}

/// Length of the code a 9-bit window starts with.
#[inline(always)]
fn code_len(window: u64) -> u32 {
    6 + 3 * (window >> 8) as u32
}

impl<'a> Literals<'a> {
    fn new(bits: &'a [u8], bit_len: usize, rank: &[u8; FREQUENT]) -> Self {
        let mut bytes = [0u8; 512];
        for (window, byte) in bytes.iter_mut().enumerate() {
            *byte = if window < 256 { rank[window >> 3] } else { window as u8 };
        }
        Literals { fast: BitBuf::new(bits, bit_len), tail: MsbBitReader::new(bits, bit_len), bytes }
    }

    /// Appends the next `n` literals to `out`.
    ///
    /// # Errors
    ///
    /// [`GipfeliError::Truncated`] if the bitstream ends first.
    fn decode(&mut self, mut n: u64, out: &mut Vec<u8>) -> Result<(), GipfeliError> {
        let Literals { fast, tail, bytes } = self;
        while n > 0 && fast.remaining() >= 64 {
            fast.refill();
            let take = n.min(LITS_PER_REFILL as u64) as usize;
            let mut run = [0u8; LITS_PER_REFILL];
            for lit in &mut run[..take] {
                let window = fast.peek(9);
                fast.consume(code_len(window));
                *lit = bytes[window as usize];
            }
            out.extend_from_slice(&run[..take]);
            n -= take as u64;
        }
        if n == 0 {
            return Ok(());
        }
        // The window stops for good under 64 bits; the tail reader takes
        // over from it once and from itself after that.
        if tail.position() < fast.position() {
            tail.seek(fast.position());
        }
        for _ in 0..n {
            let window = tail.peek_bits(9);
            let len = code_len(window);
            if tail.remaining() < len as usize {
                return Err(GipfeliError::Truncated);
            }
            tail.consume(len);
            out.push(bytes[window as usize]);
        }
        Ok(())
    }
}

/// Decompresses a Gipfeli-class stream.
///
/// # Errors
///
/// Any [`GipfeliError`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, GipfeliError> {
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
/// Any [`GipfeliError`], identically to [`decompress`].
pub fn decompress_into<'a>(
    input: &[u8],
    scratch: &'a mut DecoderScratch,
) -> Result<&'a [u8], GipfeliError> {
    let (out, _, _) = scratch.buffers();
    decompress_impl(input, out)?;
    Ok(out)
}

fn decompress_impl(input: &[u8], out: &mut Vec<u8>) -> Result<(), GipfeliError> {
    let (expected, mut pos) = varint::read_u64(input).map_err(|_| GipfeliError::BadHeader)?;
    if pos + FREQUENT > input.len() {
        return Err(GipfeliError::Truncated);
    }
    let table: [u8; FREQUENT] = input[pos..pos + FREQUENT].try_into().expect("sized");
    pos += FREQUENT;
    let (ops_len, n) = varint::read_u64(&input[pos..]).map_err(|_| GipfeliError::BadHeader)?;
    pos += n;
    // Untrusted section lengths: bound in u64 against the remaining input
    // before casting to usize.
    if ops_len > (input.len() - pos) as u64 {
        return Err(GipfeliError::Truncated);
    }
    let ops_len = ops_len as usize;
    let ops = &input[pos..pos + ops_len];
    pos += ops_len;
    let (bit_len, n) = varint::read_u64(&input[pos..]).map_err(|_| GipfeliError::BadHeader)?;
    pos += n;
    let bit_bytes = bit_len.div_ceil(8);
    if bit_bytes > (input.len() - pos) as u64 {
        return Err(GipfeliError::Truncated);
    }
    let bit_bytes = bit_bytes as usize;
    let mut lits = Literals::new(&input[pos..pos + bit_bytes], bit_len as usize, &table);

    // Reserve conservatively: the declared size is untrusted input, so cap
    // the up-front allocation and let the vector grow if the data is real.
    out.reserve((expected as usize).min(1 << 20));
    let mut op_pos = 0usize;
    while op_pos < ops.len() {
        let token = ops[op_pos];
        op_pos += 1;
        if token & 0x80 == 0 {
            // Literal count, varint-extended; the extension is untrusted,
            // so the count stays in checked u64 (the loop itself is
            // bounded by the bit section, which was validated above). A
            // run of u64::MAX + 1 saturates: the bit section holds fewer
            // than 2^61 codes, so either count ends in `Truncated`.
            let mut v = (token & 0x7F) as u64;
            if v == 0x7F {
                let (ext, used) =
                    varint::read_u64(&ops[op_pos..]).map_err(|_| GipfeliError::Truncated)?;
                op_pos += used;
                v = v.checked_add(ext).ok_or(GipfeliError::Truncated)?;
            }
            lits.decode(v.saturating_add(1), out)?;
        } else if token & 0x40 == 0 {
            // Short match: 3-bit length, 11-bit offset.
            if op_pos + 1 > ops.len() {
                return Err(GipfeliError::Truncated);
            }
            let len = 4 + ((token >> 3) & 0x7) as u32;
            let offset = (((token & 0x7) as u32) << 8) | ops[op_pos] as u32;
            op_pos += 1;
            check_room(out, len as u64, expected)?;
            apply_copy(out, offset, len).map_err(|_| GipfeliError::BadOffset)?;
        } else {
            // Long match: 6-bit length (varint-extended), 16-bit offset.
            let mut v = (token & 0x3F) as u64;
            if v == 0x3F {
                let (ext, used) =
                    varint::read_u64(&ops[op_pos..]).map_err(|_| GipfeliError::Truncated)?;
                op_pos += used;
                v = v.checked_add(ext).ok_or(GipfeliError::Truncated)?;
            }
            if op_pos + 2 > ops.len() {
                return Err(GipfeliError::Truncated);
            }
            let offset = u16::from_le_bytes([ops[op_pos], ops[op_pos + 1]]) as u32;
            op_pos += 2;
            let copy = v.checked_add(4).ok_or(GipfeliError::Truncated)?;
            check_room(out, copy, expected)?;
            if copy > u32::MAX as u64 {
                return Err(GipfeliError::Truncated);
            }
            apply_copy(out, offset, copy as u32).map_err(|_| GipfeliError::BadOffset)?;
        }
        if out.len() as u64 > expected {
            return Err(GipfeliError::LengthMismatch {
                expected,
                actual: out.len() as u64,
            });
        }
    }
    if out.len() as u64 != expected {
        return Err(GipfeliError::LengthMismatch {
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

    #[test]
    fn empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"aaaaaaaaaaaa"] {
            assert_eq!(decompress(&compress(data)).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_text() {
        let data = b"gipfeli adds cheap entropy coding to a snappy-like core ".repeat(300);
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = Xoshiro256::seed_from(1);
        for len in [100usize, 5000, 80_000] {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            assert_eq!(decompress(&compress(&data)).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn entropy_coding_helps_on_skewed_literals() {
        // Uniform random letters: the matcher finds almost nothing, the
        // alphabet fits the 6-bit short code, so gipfeli's literal stream
        // runs ~3/4 the size of snappy's raw literals.
        let mut rng = Xoshiro256::seed_from(2);
        let data: Vec<u8> = (0..60_000).map(|_| b'a' + rng.index(26) as u8).collect();
        let gip = compress(&data).len();
        let snappy = cdpu_snappy::compress(&data).len();
        assert!(
            (gip as f64) < snappy as f64 * 0.95,
            "gipfeli {gip} vs snappy {snappy}"
        );
    }

    #[test]
    fn errors_detected() {
        let data = b"robust gipfeli ".repeat(200);
        let c = compress(&data);
        let mut rng = Xoshiro256::seed_from(4);
        for _ in 0..20 {
            let cut = rng.index(c.len());
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
        assert_eq!(decompress(&[]).unwrap_err(), GipfeliError::BadHeader);
    }

    #[test]
    fn corruption_never_panics() {
        let data = b"no panics allowed ".repeat(300);
        let c = compress(&data);
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..60 {
            let mut bad = c.clone();
            let i = rng.index(bad.len());
            bad[i] ^= 1 << rng.index(8);
            let _ = decompress(&bad);
        }
    }
}
