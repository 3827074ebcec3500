//! DEFLATE's length and distance code tables (RFC 1951 §3.2.5).
//!
//! Length codes 257–284 map match lengths 3–257 with 0–5 extra bits, plus
//! code 285 for the exact length 258; distance codes 0–29 map distances
//! 1–32768 with 0–13 extra bits.

/// Literal/length alphabet size (0–255 literals, 256 EOB, 257–285 lengths).
pub const LITLEN_SYMBOLS: usize = 286;
/// Distance alphabet size.
pub const DIST_SYMBOLS: usize = 30;
/// End-of-block symbol.
pub const END_OF_BLOCK: u16 = 256;

/// `(base_length, extra_bits)` for length codes 257..=285.
const LENGTH_TABLE: [(u32, u8); 29] = [
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1),
    (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3),
    (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance codes 0..=29.
const DIST_TABLE: [(u32, u8); 30] = [
    (1, 0), (2, 0), (3, 0), (4, 0),
    (5, 1), (7, 1),
    (9, 2), (13, 2),
    (17, 3), (25, 3),
    (33, 4), (49, 4),
    (65, 5), (97, 5),
    (129, 6), (193, 6),
    (257, 7), (385, 7),
    (513, 8), (769, 8),
    (1025, 9), (1537, 9),
    (2049, 10), (3073, 10),
    (4097, 11), (6145, 11),
    (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
];

/// Index into [`LENGTH_TABLE`] of every length 3..=258, from `len - 3`.
const LENGTH_CODES: [u8; 256] = {
    let mut codes = [0u8; 256];
    let (mut len, mut idx) = (3u32, 0usize);
    while len <= 258 {
        while idx + 1 < LENGTH_TABLE.len() && LENGTH_TABLE[idx + 1].0 <= len {
            idx += 1;
        }
        codes[len as usize - 3] = idx as u8;
        len += 1;
    }
    codes
};

/// A coded field: symbol + extra bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coded {
    /// The Huffman symbol.
    pub code: u16,
    /// Extra-bit count.
    pub extra_bits: u8,
    /// Extra-bit payload.
    pub extra: u32,
}

/// Value out of a table's range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange(pub u32);

impl std::fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "value {} out of deflate code range", self.0)
    }
}

impl std::error::Error for OutOfRange {}

/// Splits a match length (3..=258) into its length code.
///
/// # Errors
///
/// [`OutOfRange`] outside 3..=258.
pub fn length_code(len: u32) -> Result<Coded, OutOfRange> {
    if !(3..=258).contains(&len) {
        return Err(OutOfRange(len));
    }
    let idx = LENGTH_CODES[len as usize - 3] as usize;
    let (base, bits) = LENGTH_TABLE[idx];
    Ok(Coded {
        code: 257 + idx as u16,
        extra_bits: bits,
        extra: len - base,
    })
}

/// Reconstructs a match length from code + extra.
///
/// # Errors
///
/// [`OutOfRange`] for codes outside 257..=285.
pub fn length_value(code: u16, extra: u32) -> Result<u32, OutOfRange> {
    let idx = code.checked_sub(257).ok_or(OutOfRange(code as u32))? as usize;
    if idx >= LENGTH_TABLE.len() {
        return Err(OutOfRange(code as u32));
    }
    Ok(LENGTH_TABLE[idx].0 + extra)
}

/// Extra-bit count for a length code; `None` for non-length symbols.
pub fn length_extra_bits(code: u16) -> Option<u8> {
    let idx = code.checked_sub(257)? as usize;
    LENGTH_TABLE.get(idx).map(|&(_, b)| b)
}

/// Splits a distance (1..=32768) into its distance code.
///
/// # Errors
///
/// [`OutOfRange`] outside 1..=32768.
pub fn dist_code(dist: u32) -> Result<Coded, OutOfRange> {
    if !(1..=32768).contains(&dist) {
        return Err(OutOfRange(dist));
    }
    // Codes 0–3 are distances 1–4; from there two codes per power of two
    // of `dist - 1`, split by the bit below its top bit.
    let d = dist - 1;
    let idx = if d < 4 {
        d as usize
    } else {
        let top = d.ilog2();
        (2 * top + ((d >> (top - 1)) & 1)) as usize
    };
    let (base, bits) = DIST_TABLE[idx];
    Ok(Coded {
        code: idx as u16,
        extra_bits: bits,
        extra: dist - base,
    })
}

/// Reconstructs a distance from code + extra.
///
/// # Errors
///
/// [`OutOfRange`] for codes ≥ 30.
pub fn dist_value(code: u16, extra: u32) -> Result<u32, OutOfRange> {
    let idx = code as usize;
    if idx >= DIST_TABLE.len() {
        return Err(OutOfRange(code as u32));
    }
    Ok(DIST_TABLE[idx].0 + extra)
}

/// Extra-bit count for a distance code; `None` for codes ≥ 30.
pub fn dist_extra_bits(code: u16) -> Option<u8> {
    DIST_TABLE.get(code as usize).map(|&(_, b)| b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The base walks `length_code` and `dist_code` were first written as,
    /// kept as their oracle.
    fn length_code_oracle(len: u32) -> Result<Coded, OutOfRange> {
        if !(3..=258).contains(&len) {
            return Err(OutOfRange(len));
        }
        if len == 258 {
            return Ok(Coded { code: 285, extra_bits: 0, extra: 0 });
        }
        let idx = LENGTH_TABLE[..28].partition_point(|&(b, _)| b <= len) - 1;
        let (base, bits) = LENGTH_TABLE[idx];
        Ok(Coded { code: 257 + idx as u16, extra_bits: bits, extra: len - base })
    }

    fn dist_code_oracle(dist: u32) -> Result<Coded, OutOfRange> {
        if !(1..=32768).contains(&dist) {
            return Err(OutOfRange(dist));
        }
        let idx = DIST_TABLE.partition_point(|&(b, _)| b <= dist) - 1;
        let (base, bits) = DIST_TABLE[idx];
        Ok(Coded { code: idx as u16, extra_bits: bits, extra: dist - base })
    }

    #[test]
    fn table_mappers_match_the_base_walk() {
        let wide = || (15..32).flat_map(|k| [(1u32 << k) - 1, 1 << k, (1 << k) + 1]).chain([u32::MAX]);
        for len in (0..=1024).chain(wide()) {
            assert_eq!(length_code(len), length_code_oracle(len), "length {len}");
        }
        for dist in (0..=100_000).chain(wide()) {
            assert_eq!(dist_code(dist), dist_code_oracle(dist), "distance {dist}");
        }
    }

    #[test]
    fn length_roundtrip_exhaustive() {
        for len in 3u32..=258 {
            let c = length_code(len).unwrap();
            assert!((257..=285).contains(&c.code), "len {len}");
            assert_eq!(length_extra_bits(c.code), Some(c.extra_bits));
            assert_eq!(length_value(c.code, c.extra).unwrap(), len);
        }
        assert!(length_code(2).is_err());
        assert!(length_code(259).is_err());
    }

    #[test]
    fn rfc_length_anchors() {
        // Spot values straight from RFC 1951's table.
        assert_eq!(length_code(3).unwrap().code, 257);
        assert_eq!(length_code(10).unwrap().code, 264);
        let c = length_code(11).unwrap();
        assert_eq!((c.code, c.extra_bits, c.extra), (265, 1, 0));
        let c = length_code(130).unwrap();
        assert_eq!((c.code, c.extra_bits, c.extra), (280, 4, 15));
        assert_eq!(length_code(258).unwrap().code, 285);
    }

    #[test]
    fn dist_roundtrip_exhaustive() {
        for dist in 1u32..=32768 {
            let c = dist_code(dist).unwrap();
            assert!(c.code < 30);
            assert_eq!(dist_extra_bits(c.code), Some(c.extra_bits));
            assert_eq!(dist_value(c.code, c.extra).unwrap(), dist);
        }
        assert!(dist_code(0).is_err());
        assert!(dist_code(32769).is_err());
    }

    #[test]
    fn rfc_dist_anchors() {
        assert_eq!(dist_code(1).unwrap().code, 0);
        assert_eq!(dist_code(4).unwrap().code, 3);
        let c = dist_code(5).unwrap();
        assert_eq!((c.code, c.extra_bits), (4, 1));
        let c = dist_code(24577).unwrap();
        assert_eq!((c.code, c.extra_bits, c.extra), (29, 13, 0));
        let c = dist_code(32768).unwrap();
        assert_eq!((c.code, c.extra), (29, 8191));
    }

    #[test]
    fn bad_codes_rejected() {
        assert!(length_value(256, 0).is_err());
        assert!(length_value(286, 0).is_err());
        assert!(dist_value(30, 0).is_err());
        assert_eq!(length_extra_bits(100), None);
        assert_eq!(dist_extra_bits(30), None);
    }
}
