//! Sequence code tables: literal-length, match-length and offset codes.
//!
//! ZStandard entropy-codes each sequence field as a small *code* (FSE
//! symbol) plus a run of verbatim extra bits. The tables here follow RFC
//! 8878's codes exactly (minus the repeat-offset codes, which this codec
//! does not use): the FSE tables stay tiny (≤ 36/53/32 symbols) while the
//! fields themselves can span the full value ranges.

/// Number of literal-length codes.
pub const LL_CODES: usize = 36;
/// Number of match-length codes.
pub const ML_CODES: usize = 53;
/// Number of offset codes (`floor(log2(offset))` up to 31).
pub const OF_CODES: usize = 32;

/// Baseline values for literal-length codes 16..35 (codes 0..15 are the
/// literal values themselves with zero extra bits).
const LL_BASES: [(u32, u8); 20] = [
    (16, 1),
    (18, 1),
    (20, 1),
    (22, 1),
    (24, 2),
    (28, 2),
    (32, 3),
    (40, 3),
    (48, 4),
    (64, 6),
    (128, 7),
    (256, 8),
    (512, 9),
    (1024, 10),
    (2048, 11),
    (4096, 12),
    (8192, 13),
    (16384, 14),
    (32768, 15),
    (65536, 16),
];

/// Baseline values for match-length codes 32..52 (codes 0..31 map to match
/// lengths 3..34 with zero extra bits).
const ML_BASES: [(u32, u8); 21] = [
    (35, 1),
    (37, 1),
    (39, 1),
    (41, 1),
    (43, 2),
    (47, 2),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 5),
    (131, 7),
    (259, 8),
    (515, 9),
    (1027, 10),
    (2051, 11),
    (4099, 12),
    (8195, 13),
    (16387, 14),
    (32771, 15),
    (65539, 16),
];

/// Minimum match length expressible by the match-length code table.
pub const MIN_MATCH_LEN: u32 = 3;

/// A field split into its FSE code and verbatim extra bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodedField {
    /// The FSE symbol.
    pub code: u16,
    /// Number of extra bits that follow.
    pub extra_bits: u8,
    /// The extra-bit payload (`value - baseline`).
    pub extra: u32,
}

/// Error for values outside a code table's range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueOutOfRange {
    /// Which table rejected the value.
    pub table: &'static str,
    /// The offending value.
    pub value: u32,
}

impl std::fmt::Display for ValueOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} value {} out of range", self.table, self.value)
    }
}

impl std::error::Error for ValueOutOfRange {}

/// `(baseline, extra_bits)` of every code of a table whose first
/// `direct` codes carry the values `first..first + direct` verbatim and
/// whose remaining codes are `bases`.
const fn code_fields<const N: usize>(direct: usize, first: u32, bases: &[(u32, u8)]) -> [(u32, u8); N] {
    let mut fields = [(0u32, 0u8); N];
    let mut code = 0;
    while code < N {
        fields[code] = if code < direct { (first + code as u32, 0) } else { bases[code - direct] };
        code += 1;
    }
    fields
}

/// The code of every value below `N + first`: the last code whose
/// baseline does not exceed it.
const fn low_codes<const N: usize>(fields: &[(u32, u8)], first: u32) -> [u8; N] {
    let mut codes = [0u8; N];
    let (mut value, mut code) = (0, 0);
    while value < N {
        while code + 1 < fields.len() && fields[code + 1].0 <= value as u32 + first {
            code += 1;
        }
        codes[value] = code as u8;
        value += 1;
    }
    codes
}

/// `(baseline, extra_bits)` of every literal-length code.
const LL_FIELDS: [(u32, u8); LL_CODES] = code_fields(16, 0, &LL_BASES);
/// `(baseline, extra_bits)` of every match-length code.
const ML_FIELDS: [(u32, u8); ML_CODES] = code_fields(32, MIN_MATCH_LEN, &ML_BASES);

/// Literal-length codes of lengths below 64; from 64 on, code 19 plus the
/// length's top bit (code 25 spans 64..128, each next code doubles).
const LL_LOW_CODES: [u8; 64] = low_codes(&LL_FIELDS, 0);
/// Match-length codes of lengths 3..131; from 131 on, code 36 plus the top
/// bit of `length - 3`.
const ML_LOW_CODES: [u8; 128] = low_codes(&ML_FIELDS, MIN_MATCH_LEN);

/// The field of `value` under `code` of `fields`, or `None` past the table.
#[inline(always)]
fn field(fields: &[(u32, u8)], code: usize, value: u32) -> Option<CodedField> {
    let &(base, bits) = fields.get(code)?;
    Some(CodedField {
        code: code as u16,
        extra_bits: bits,
        extra: value - base,
    })
}

/// Splits a literal length into `(code, extra)`.
///
/// # Errors
///
/// [`ValueOutOfRange`] for lengths above 131071 (code 35's range end).
pub fn ll_code(lit_len: u32) -> Result<CodedField, ValueOutOfRange> {
    let code = match LL_LOW_CODES.get(lit_len as usize) {
        Some(&code) => code as usize,
        None => lit_len.ilog2() as usize + 19,
    };
    field(&LL_FIELDS, code, lit_len).ok_or(ValueOutOfRange {
        table: "literal-length",
        value: lit_len,
    })
}

/// Reconstructs a literal length from its code and extra bits.
///
/// # Errors
///
/// [`ValueOutOfRange`] for codes ≥ [`LL_CODES`].
pub fn ll_value(code: u16, extra: u32) -> Result<u32, ValueOutOfRange> {
    if code < 16 {
        return Ok(code as u32);
    }
    let idx = code as usize - 16;
    if idx >= LL_BASES.len() {
        return Err(ValueOutOfRange {
            table: "literal-length",
            value: code as u32,
        });
    }
    Ok(LL_BASES[idx].0 + extra)
}

/// Number of extra bits carried by a literal-length code.
pub fn ll_extra_bits(code: u16) -> u8 {
    LL_FIELDS.get(code as usize).map_or(0, |&(_, bits)| bits)
}

/// Splits a match length (≥ 3) into `(code, extra)`.
///
/// # Errors
///
/// [`ValueOutOfRange`] for lengths below 3 or above 131074.
pub fn ml_code(match_len: u32) -> Result<CodedField, ValueOutOfRange> {
    if match_len < MIN_MATCH_LEN {
        return Err(ValueOutOfRange {
            table: "match-length",
            value: match_len,
        });
    }
    let above = match_len - MIN_MATCH_LEN;
    let code = match ML_LOW_CODES.get(above as usize) {
        Some(&code) => code as usize,
        None => above.ilog2() as usize + 36,
    };
    field(&ML_FIELDS, code, match_len).ok_or(ValueOutOfRange {
        table: "match-length",
        value: match_len,
    })
}

/// Reconstructs a match length from its code and extra bits.
///
/// # Errors
///
/// [`ValueOutOfRange`] for codes ≥ [`ML_CODES`].
pub fn ml_value(code: u16, extra: u32) -> Result<u32, ValueOutOfRange> {
    if code < 32 {
        return Ok(code as u32 + 3);
    }
    let idx = code as usize - 32;
    if idx >= ML_BASES.len() {
        return Err(ValueOutOfRange {
            table: "match-length",
            value: code as u32,
        });
    }
    Ok(ML_BASES[idx].0 + extra)
}

/// Number of extra bits carried by a match-length code.
pub fn ml_extra_bits(code: u16) -> u8 {
    ML_FIELDS.get(code as usize).map_or(0, |&(_, bits)| bits)
}

/// Splits an offset (≥ 1) into `(code, extra)`:
/// `code = floor(log2(offset))`, `extra = offset - 2^code`.
///
/// # Errors
///
/// [`ValueOutOfRange`] for offset 0.
pub fn of_code(offset: u32) -> Result<CodedField, ValueOutOfRange> {
    if offset == 0 {
        return Err(ValueOutOfRange {
            table: "offset",
            value: 0,
        });
    }
    let code = cdpu_util::floor_log2(offset as u64) as u16;
    Ok(CodedField {
        code,
        extra_bits: code as u8,
        extra: offset - (1u32 << code),
    })
}

/// Reconstructs an offset from its code and extra bits.
///
/// # Errors
///
/// [`ValueOutOfRange`] for codes ≥ [`OF_CODES`].
pub fn of_value(code: u16, extra: u32) -> Result<u32, ValueOutOfRange> {
    if code as usize >= OF_CODES {
        return Err(ValueOutOfRange {
            table: "offset",
            value: code as u32,
        });
    }
    Ok((1u32 << code) + extra)
}

/// Number of extra bits carried by an offset code (equal to the code).
pub fn of_extra_bits(code: u16) -> u8 {
    code as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The base walk `ll_code` and `ml_code` were first written as, kept as
    /// their oracle: the last base not above the value, if its span
    /// reaches the value.
    fn code_from_bases(value: u32, bases: &[(u32, u8)], first_code: u16) -> Option<CodedField> {
        let idx = bases.partition_point(|&(b, _)| b <= value);
        if idx == 0 {
            return None;
        }
        let (base, bits) = bases[idx - 1];
        if value >= base + (1u32 << bits) {
            return None;
        }
        Some(CodedField {
            code: first_code + (idx as u16 - 1),
            extra_bits: bits,
            extra: value - base,
        })
    }

    fn ll_code_oracle(lit_len: u32) -> Result<CodedField, ValueOutOfRange> {
        if lit_len < 16 {
            return Ok(CodedField { code: lit_len as u16, extra_bits: 0, extra: 0 });
        }
        code_from_bases(lit_len, &LL_BASES, 16)
            .ok_or(ValueOutOfRange { table: "literal-length", value: lit_len })
    }

    fn ml_code_oracle(match_len: u32) -> Result<CodedField, ValueOutOfRange> {
        let out_of_range = ValueOutOfRange { table: "match-length", value: match_len };
        if match_len < MIN_MATCH_LEN {
            return Err(out_of_range);
        }
        if match_len < 35 {
            return Ok(CodedField { code: (match_len - 3) as u16, extra_bits: 0, extra: 0 });
        }
        code_from_bases(match_len, &ML_BASES, 32).ok_or(out_of_range)
    }

    /// Every value up to `last_in_range + 70_000`, and every power of two
    /// ±1 above it up to `u32::MAX`.
    fn values_around(last_in_range: u32) -> impl Iterator<Item = u32> {
        let wide = (17..32).flat_map(|k| [(1u32 << k) - 1, 1 << k, (1 << k) + 1]);
        (0..=last_in_range + 70_000).chain(wide).chain([u32::MAX])
    }

    #[test]
    fn table_mappers_match_the_base_walk() {
        for v in values_around(131_071) {
            assert_eq!(ll_code(v), ll_code_oracle(v), "lit_len {v}");
        }
        for v in values_around(131_074) {
            assert_eq!(ml_code(v), ml_code_oracle(v), "match_len {v}");
        }
        assert!(ll_code(131_071).is_ok() && ll_code(131_072).is_err());
        assert!(ml_code(2).is_err() && ml_code(131_074).is_ok() && ml_code(131_075).is_err());
        assert!(of_code(0).is_err());
    }

    #[test]
    fn ll_roundtrip_exhaustive_low() {
        for v in 0u32..=2000 {
            let c = ll_code(v).unwrap();
            assert!((c.code as usize) < LL_CODES);
            assert_eq!(c.extra_bits, ll_extra_bits(c.code));
            assert!(c.extra < (1u32 << c.extra_bits.max(1)) || c.extra_bits == 0 && c.extra == 0);
            assert_eq!(ll_value(c.code, c.extra).unwrap(), v, "v={v}");
        }
    }

    #[test]
    fn ll_roundtrip_boundaries() {
        for v in [
            15u32, 16, 17, 18, 23, 24, 27, 28, 31, 32, 39, 63, 64, 127, 128, 255, 256, 65535,
            65536, 131071,
        ] {
            let c = ll_code(v).unwrap();
            assert_eq!(ll_value(c.code, c.extra).unwrap(), v, "v={v}");
        }
        // Code 35 covers 65536..=131071; beyond is out of range.
        assert!(ll_code(131072).is_err());
    }

    #[test]
    fn ml_roundtrip_exhaustive_low() {
        for v in 3u32..=5000 {
            let c = ml_code(v).unwrap();
            assert!((c.code as usize) < ML_CODES);
            assert_eq!(c.extra_bits, ml_extra_bits(c.code));
            assert_eq!(ml_value(c.code, c.extra).unwrap(), v, "v={v}");
        }
    }

    #[test]
    fn ml_rejects_below_min() {
        assert!(ml_code(0).is_err());
        assert!(ml_code(2).is_err());
        assert!(ml_code(3).is_ok());
    }

    #[test]
    fn ml_roundtrip_boundaries() {
        for v in [34u32, 35, 36, 37, 42, 43, 46, 47, 66, 67, 131, 258, 259, 65538, 65539, 131074] {
            let c = ml_code(v).unwrap();
            assert_eq!(ml_value(c.code, c.extra).unwrap(), v, "v={v}");
        }
        assert!(ml_code(131075).is_err());
    }

    #[test]
    fn of_roundtrip_wide() {
        for v in (1u32..=66_000).step_by(7) {
            let c = of_code(v).unwrap();
            assert!((c.code as usize) < OF_CODES);
            assert_eq!(c.extra_bits, of_extra_bits(c.code));
            assert_eq!(of_value(c.code, c.extra).unwrap(), v, "v={v}");
        }
        for v in [1u32, 2, 3, 4, 1 << 20, (1 << 24) + 12345, u32::MAX / 2] {
            let c = of_code(v).unwrap();
            assert_eq!(of_value(c.code, c.extra).unwrap(), v);
        }
        assert!(of_code(0).is_err());
    }

    #[test]
    fn bad_codes_rejected() {
        assert!(ll_value(36, 0).is_err());
        assert!(ml_value(53, 0).is_err());
        assert!(of_value(32, 0).is_err());
    }

    #[test]
    fn extra_bits_fit_fields() {
        for code in 0..LL_CODES as u16 {
            assert!(ll_extra_bits(code) <= 16);
        }
        for code in 0..ML_CODES as u16 {
            assert!(ml_extra_bits(code) <= 16);
        }
        for code in 0..OF_CODES as u16 {
            assert!(of_extra_bits(code) <= 31);
        }
    }
}
