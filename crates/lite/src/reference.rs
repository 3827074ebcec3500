//! Retained seed decoders, kept as executable specifications.
//!
//! [`lzo::decompress`] and [`gipfeli::decompress`] here are the original
//! allocate-per-call token-loop decoders with byte-at-a-time copies via
//! [`cdpu_lz77::reference::apply_copy`]. The optimized crate decoders
//! must produce the **identical** output bytes and error variants on
//! every input — the `decode_equivalence` test suite asserts exactly
//! that across random roundtrips and hostile streams.
//!
//! Not for production use: they run slower than the fast paths and
//! allocate a fresh output vector for every call.

/// Seed LZO-class decoder.
pub mod lzo {
    use cdpu_lz77::reference::apply_copy;
    use cdpu_util::varint;

    use crate::lzo::LzoError;

    /// The original (seed) LZO-class decoder.
    ///
    /// # Errors
    ///
    /// Any [`LzoError`], identically to [`crate::lzo::decompress`].
    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, LzoError> {
        let (expected, mut pos) = varint::read_u64(input).map_err(|_| LzoError::BadPreamble)?;
        let mut out = Vec::with_capacity((expected as usize).min(1 << 20));
        while pos < input.len() {
            let token = input[pos];
            pos += 1;
            if token & 0x80 == 0 {
                // Literal run, varint-extended count. The extension is
                // untrusted, so length arithmetic stays in checked u64,
                // bounded against the remaining input before the cast.
                let mut n = (token & 0x7F) as u64;
                if n == 0x7F {
                    let (ext, used) =
                        varint::read_u64(&input[pos..]).map_err(|_| LzoError::Truncated)?;
                    pos += used;
                    n = n.checked_add(ext).ok_or(LzoError::Truncated)?;
                }
                let len = n.checked_add(1).ok_or(LzoError::Truncated)?;
                if len > (input.len() - pos) as u64 {
                    return Err(LzoError::Truncated);
                }
                let len = len as usize;
                out.extend_from_slice(&input[pos..pos + len]);
                pos += len;
            } else if token & 0x40 == 0 {
                // Short match: 3-bit length, 11-bit offset.
                if pos + 1 > input.len() {
                    return Err(LzoError::Truncated);
                }
                let len = 4 + ((token >> 3) & 0x7) as u32;
                let offset = (((token & 0x7) as u32) << 8) | input[pos] as u32;
                pos += 1;
                apply_copy(&mut out, offset, len).map_err(|_| LzoError::BadOffset)?;
            } else {
                // Long match: 6-bit length (varint-extended), 16-bit offset.
                let mut n = (token & 0x3F) as u64;
                if n == 0x3F {
                    let (ext, used) =
                        varint::read_u64(&input[pos..]).map_err(|_| LzoError::Truncated)?;
                    pos += used;
                    n = n.checked_add(ext).ok_or(LzoError::Truncated)?;
                }
                if pos + 2 > input.len() {
                    return Err(LzoError::Truncated);
                }
                let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as u32;
                pos += 2;
                // Guard before copying: a hostile length must not balloon
                // the output past the declared size, and must fit the u32
                // copy width rather than silently truncating.
                let copy = n.checked_add(4).ok_or(LzoError::Truncated)?;
                if copy > expected.saturating_sub(out.len() as u64) {
                    return Err(LzoError::LengthMismatch {
                        expected,
                        actual: (out.len() as u64).saturating_add(copy),
                    });
                }
                if copy > u32::MAX as u64 {
                    return Err(LzoError::Truncated);
                }
                apply_copy(&mut out, offset, copy as u32).map_err(|_| LzoError::BadOffset)?;
            }
            if out.len() as u64 > expected {
                return Err(LzoError::LengthMismatch {
                    expected,
                    actual: out.len() as u64,
                });
            }
        }
        if out.len() as u64 != expected {
            return Err(LzoError::LengthMismatch {
                expected,
                actual: out.len() as u64,
            });
        }
        Ok(out)
    }
}

/// Seed LZ4-class decoder.
pub mod lz4 {
    use cdpu_lz77::reference::apply_copy;
    use cdpu_util::varint;

    use crate::lz4::Lz4Error;

    /// The original (seed) LZ4-class decoder.
    ///
    /// # Errors
    ///
    /// Any [`Lz4Error`], identically to [`crate::lz4::decompress`].
    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, Lz4Error> {
        let (expected, mut pos) = varint::read_u64(input).map_err(|_| Lz4Error::BadPreamble)?;
        let mut out = Vec::with_capacity((expected as usize).min(1 << 20));
        while pos < input.len() {
            let token = input[pos];
            pos += 1;
            // Literal run, varint-extended past a full nibble. The
            // extension is untrusted, so length arithmetic stays in
            // checked u64, bounded against the remaining input before the
            // cast to usize.
            let mut ll = (token >> 4) as u64;
            if ll == 15 {
                let (ext, used) =
                    varint::read_u64(&input[pos..]).map_err(|_| Lz4Error::Truncated)?;
                pos += used;
                ll = ll.checked_add(ext).ok_or(Lz4Error::Truncated)?;
            }
            if ll > (input.len() - pos) as u64 {
                return Err(Lz4Error::Truncated);
            }
            let lits = ll as usize;
            out.extend_from_slice(&input[pos..pos + lits]);
            pos += lits;
            if out.len() as u64 > expected {
                return Err(Lz4Error::LengthMismatch {
                    expected,
                    actual: out.len() as u64,
                });
            }
            if pos == input.len() {
                // Final literals-only sequence: no offset follows.
                break;
            }
            if pos + 2 > input.len() {
                return Err(Lz4Error::Truncated);
            }
            let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as u32;
            pos += 2;
            let mut n = (token & 0x0F) as u64;
            if n == 15 {
                let (ext, used) =
                    varint::read_u64(&input[pos..]).map_err(|_| Lz4Error::Truncated)?;
                pos += used;
                n = n.checked_add(ext).ok_or(Lz4Error::Truncated)?;
            }
            // Guard before copying: a hostile length must not balloon the
            // output past the declared size, and must fit the u32 copy
            // width rather than silently truncating.
            let copy = n.checked_add(4).ok_or(Lz4Error::Truncated)?;
            if copy > expected.saturating_sub(out.len() as u64) {
                return Err(Lz4Error::LengthMismatch {
                    expected,
                    actual: (out.len() as u64).saturating_add(copy),
                });
            }
            if copy > u32::MAX as u64 {
                return Err(Lz4Error::Truncated);
            }
            apply_copy(&mut out, offset, copy as u32).map_err(|_| Lz4Error::BadOffset)?;
        }
        if out.len() as u64 != expected {
            return Err(Lz4Error::LengthMismatch {
                expected,
                actual: out.len() as u64,
            });
        }
        Ok(out)
    }
}

/// Seed Gipfeli-class decoder.
pub mod gipfeli {
    use cdpu_lz77::reference::apply_copy;
    use cdpu_util::bits::MsbBitReader;
    use cdpu_util::varint;

    use crate::gipfeli::{GipfeliError, FREQUENT};

    fn check_room(out: &[u8], add: u64, expected: u64) -> Result<(), GipfeliError> {
        if add > expected.saturating_sub(out.len() as u64) {
            return Err(GipfeliError::LengthMismatch {
                expected,
                actual: (out.len() as u64).saturating_add(add),
            });
        }
        Ok(())
    }

    /// The original (seed) Gipfeli-class decoder.
    ///
    /// # Errors
    ///
    /// Any [`GipfeliError`], identically to [`crate::gipfeli::decompress`].
    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, GipfeliError> {
        let (expected, mut pos) =
            varint::read_u64(input).map_err(|_| GipfeliError::BadHeader)?;
        if pos + FREQUENT > input.len() {
            return Err(GipfeliError::Truncated);
        }
        let table: [u8; FREQUENT] = input[pos..pos + FREQUENT].try_into().expect("sized");
        pos += FREQUENT;
        let (ops_len, n) = varint::read_u64(&input[pos..]).map_err(|_| GipfeliError::BadHeader)?;
        pos += n;
        // Untrusted section lengths: bound in u64 against the remaining
        // input before casting to usize.
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
        let mut bits = MsbBitReader::new(&input[pos..pos + bit_bytes], bit_len as usize);

        let mut read_literal = |out: &mut Vec<u8>| -> Result<(), GipfeliError> {
            let flag = bits.read_bits(1).map_err(|_| GipfeliError::Truncated)?;
            let b = if flag == 0 {
                let idx = bits.read_bits(5).map_err(|_| GipfeliError::Truncated)? as usize;
                table[idx]
            } else {
                bits.read_bits(8).map_err(|_| GipfeliError::Truncated)? as u8
            };
            out.push(b);
            Ok(())
        };

        let mut out = Vec::with_capacity((expected as usize).min(1 << 20));
        let mut op_pos = 0usize;
        while op_pos < ops.len() {
            let token = ops[op_pos];
            op_pos += 1;
            if token & 0x80 == 0 {
                // Literal count, varint-extended; the extension is
                // untrusted, so the count stays in checked u64 (the loop
                // itself is bounded by the bit section, validated above).
                let mut v = (token & 0x7F) as u64;
                if v == 0x7F {
                    let (ext, used) =
                        varint::read_u64(&ops[op_pos..]).map_err(|_| GipfeliError::Truncated)?;
                    op_pos += used;
                    v = v.checked_add(ext).ok_or(GipfeliError::Truncated)?;
                }
                for _ in 0..=v {
                    read_literal(&mut out)?;
                }
            } else if token & 0x40 == 0 {
                // Short match: 3-bit length, 11-bit offset.
                if op_pos + 1 > ops.len() {
                    return Err(GipfeliError::Truncated);
                }
                let len = 4 + ((token >> 3) & 0x7) as u32;
                let offset = (((token & 0x7) as u32) << 8) | ops[op_pos] as u32;
                op_pos += 1;
                check_room(&out, len as u64, expected)?;
                apply_copy(&mut out, offset, len).map_err(|_| GipfeliError::BadOffset)?;
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
                check_room(&out, copy, expected)?;
                if copy > u32::MAX as u64 {
                    return Err(GipfeliError::Truncated);
                }
                apply_copy(&mut out, offset, copy as u32)
                    .map_err(|_| GipfeliError::BadOffset)?;
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
        Ok(out)
    }
}
