//! Retained seed decoder, kept as an executable specification.
//!
//! [`decompress`] here is the original allocate-per-call Snappy decoder
//! (1 MiB-capped speculative reserve, byte-at-a-time copies via
//! [`cdpu_lz77::reference::apply_copy`]). The optimized
//! [`crate::decompress`] / [`crate::decompress_into`] must produce the
//! **identical** output bytes and error variants on every input — the
//! `decode_equivalence` test suite asserts exactly that across random
//! roundtrips and hostile streams.
//!
//! Not for production use: it runs several times slower than the fast
//! path and regrows its output for large inputs.

use cdpu_lz77::reference::apply_copy;
use cdpu_util::varint;

use crate::SnappyError;

/// The original (seed) Snappy block decoder.
///
/// # Errors
///
/// Any [`SnappyError`], identically to [`crate::decompress`].
pub fn decompress(compressed: &[u8]) -> Result<Vec<u8>, SnappyError> {
    let (expected, mut pos) =
        varint::read_u32(compressed).map_err(|_| SnappyError::BadPreamble)?;
    let expected = expected as u64;
    // Reserve conservatively: the declared size is untrusted input, so cap
    // the up-front allocation and let the vector grow if the data is real.
    let mut out: Vec<u8> = Vec::with_capacity((expected as usize).min(1 << 20));

    while pos < compressed.len() {
        let tag = compressed[pos];
        pos += 1;
        match tag & 0b11 {
            0b00 => {
                let n6 = (tag >> 2) as usize;
                let len = if n6 < 60 {
                    n6 + 1
                } else {
                    let extra = n6 - 59; // 1..=4 extra length bytes
                    if pos + extra > compressed.len() {
                        return Err(SnappyError::Truncated);
                    }
                    let mut v = 0usize;
                    for i in 0..extra {
                        v |= (compressed[pos + i] as usize) << (8 * i);
                    }
                    pos += extra;
                    v + 1
                };
                if pos + len > compressed.len() {
                    return Err(SnappyError::BadLiteral);
                }
                out.extend_from_slice(&compressed[pos..pos + len]);
                pos += len;
            }
            0b01 => {
                if pos + 1 > compressed.len() {
                    return Err(SnappyError::Truncated);
                }
                let len = 4 + ((tag >> 2) & 0b111) as u32;
                let offset = (((tag >> 5) as u32) << 8) | compressed[pos] as u32;
                pos += 1;
                apply_copy(&mut out, offset, len).map_err(|_| SnappyError::BadOffset)?;
            }
            0b10 => {
                if pos + 2 > compressed.len() {
                    return Err(SnappyError::Truncated);
                }
                let len = 1 + (tag >> 2) as u32;
                let offset =
                    u16::from_le_bytes([compressed[pos], compressed[pos + 1]]) as u32;
                pos += 2;
                apply_copy(&mut out, offset, len).map_err(|_| SnappyError::BadOffset)?;
            }
            _ => {
                if pos + 4 > compressed.len() {
                    return Err(SnappyError::Truncated);
                }
                let len = 1 + (tag >> 2) as u32;
                let offset = u32::from_le_bytes([
                    compressed[pos],
                    compressed[pos + 1],
                    compressed[pos + 2],
                    compressed[pos + 3],
                ]);
                pos += 4;
                apply_copy(&mut out, offset, len).map_err(|_| SnappyError::BadOffset)?;
            }
        }
        if out.len() as u64 > expected {
            return Err(SnappyError::LengthMismatch {
                expected,
                actual: out.len() as u64,
            });
        }
    }

    if out.len() as u64 != expected {
        return Err(SnappyError::LengthMismatch {
            expected,
            actual: out.len() as u64,
        });
    }
    Ok(out)
}
