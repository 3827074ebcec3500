//! Retained seed decoder, kept as an executable specification.
//!
//! [`decompress`] here is the original allocate-per-call Flate-class frame
//! decoder: the DEFLATE symbol loop with one table probe per symbol and
//! byte-at-a-time copies via [`cdpu_lz77::reference::apply_copy`]. The
//! optimized [`crate::decompress`] / [`crate::decompress_into`] must
//! produce the **identical** output bytes and error variants on every
//! input — the `decode_equivalence` test suite asserts exactly that across
//! random roundtrips and hostile streams.
//!
//! Not for production use: it runs slower than the fast path and allocates
//! a fresh output vector for every call.

use cdpu_entropy::huffman::HuffmanTable;
use cdpu_lz77::reference::apply_copy;
use cdpu_util::bits::MsbBitReader;
use cdpu_util::varint;

use crate::{codes, FlateError, MAGIC, MAX_BLOCK_SIZE, MAX_WINDOW_LOG};

const BLOCK_RAW: u8 = 0;
const BLOCK_HUFF: u8 = 1;

/// The seed Huffman-block decoder (per-symbol table probes, byte-wise
/// copies).
fn decode_huff_block(
    payload: &[u8],
    out: &mut Vec<u8>,
    window: u32,
    max_len: usize,
) -> Result<(), FlateError> {
    let mut pos = 0usize;
    let (litlen, n) = HuffmanTable::deserialize(&payload[pos..]).map_err(FlateError::Huffman)?;
    pos += n;
    let (dist, n) = HuffmanTable::deserialize(&payload[pos..]).map_err(FlateError::Huffman)?;
    pos += n;
    let (bit_len, n) =
        varint::read_u64(&payload[pos..]).map_err(|_| FlateError::BadBlock("bit length"))?;
    pos += n;
    let nbytes = (bit_len as usize).div_ceil(8);
    if pos + nbytes > payload.len() {
        return Err(FlateError::Truncated);
    }
    let mut r = MsbBitReader::new(&payload[pos..pos + nbytes], bit_len as usize);

    let start = out.len();
    loop {
        let sym = litlen.decode_symbol(&mut r).map_err(FlateError::Huffman)?;
        if sym == codes::END_OF_BLOCK {
            break;
        }
        if sym < 256 {
            out.push(sym as u8);
        } else {
            let extra_bits = codes::length_extra_bits(sym)
                .ok_or(FlateError::BadBlock("length code"))?;
            let extra = r
                .read_bits(extra_bits as u32)
                .map_err(|_| FlateError::Truncated)? as u32;
            let len = codes::length_value(sym, extra)
                .map_err(|_| FlateError::BadBlock("length code"))?;
            let dsym = dist.decode_symbol(&mut r).map_err(FlateError::Huffman)?;
            let dbits = codes::dist_extra_bits(dsym)
                .ok_or(FlateError::BadBlock("distance code"))?;
            let dextra = r
                .read_bits(dbits as u32)
                .map_err(|_| FlateError::Truncated)? as u32;
            let distance = codes::dist_value(dsym, dextra)
                .map_err(|_| FlateError::BadBlock("distance code"))?;
            if distance > window {
                return Err(FlateError::BadDistance);
            }
            apply_copy(out, distance, len).map_err(|_| FlateError::BadDistance)?;
        }
        if out.len() - start > max_len {
            return Err(FlateError::BadBlock("block output overruns declared size"));
        }
    }
    Ok(())
}

/// The original (seed) Flate-class frame decoder.
///
/// # Errors
///
/// Any [`FlateError`], identically to [`crate::decompress`].
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, FlateError> {
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

    let mut out = Vec::with_capacity((expected as usize).min(MAX_BLOCK_SIZE));
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
                decode_huff_block(&frame[pos..pos + payload_len], &mut out, window, block_len)?;
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
    Ok(out)
}
