//! Hash functions for LZ77 match finding.
//!
//! The paper's generator exposes the hash function as a compile-time
//! parameter of the LZ77 encoder (Section 5.8, parameter 8). Two families
//! are implemented; both hash the 4 bytes at the probe position down to
//! `hash_log` bits.

/// Selects the hash function used by a match finder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashFn {
    /// Knuth multiplicative hashing: `(x * 2654435761) >> (32 - hash_log)`.
    /// This is what Snappy and LZ4-class matchers use.
    #[default]
    Multiplicative,
    /// Byte-folding XOR hash with a final avalanche shift. Cheaper in gates
    /// (no multiplier) but clusters similar prefixes; kept to let the DSE
    /// quantify the difference.
    XorFold,
}

/// Hashes the 4-byte group `bytes` to `hash_log` bits (0..=32; zero bits
/// is the one-set table, where every group lands in set 0).
///
/// ```
/// use cdpu_lz77::hash::{hash4, HashFn};
/// let h = hash4([b'a', b'b', b'c', b'd'], HashFn::Multiplicative, 14);
/// assert!(h < (1 << 14));
/// ```
#[inline]
pub fn hash4(bytes: [u8; 4], f: HashFn, hash_log: u32) -> u32 {
    debug_assert!(hash_log <= 32);
    let x = u32::from_le_bytes(bytes);
    // The shift and the mask are taken in 64 bits, where `hash_log` 0 and
    // 32 need no case of their own.
    match f {
        // Multiplicative hashing mixes entropy toward the high bits, so the
        // index is taken from the top.
        HashFn::Multiplicative => ((x.wrapping_mul(2654435761) as u64) >> (32 - hash_log)) as u32,
        // XOR folding keeps entropy in the low bits (no multiplier needed in
        // gates), so the index is taken from the bottom.
        HashFn::XorFold => (x ^ (x >> 13) ^ (x >> 26)) & ((1u64 << hash_log) - 1) as u32,
    }
}

/// The 4-byte group at `pos`, the unit every hash here covers.
#[inline]
pub(crate) fn word_at(data: &[u8], pos: usize) -> [u8; 4] {
    data[pos..pos + 4].try_into().expect("a 4-byte slice")
}

/// Hashes the 4 bytes at `pos` in `data`.
///
/// # Panics
///
/// Panics if fewer than 4 bytes remain at `pos`.
#[inline]
pub fn hash_at(data: &[u8], pos: usize, f: HashFn, hash_log: u32) -> u32 {
    hash4(word_at(data, pos), f, hash_log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_util::rng::Xoshiro256;

    #[test]
    fn respects_hash_log() {
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..1000 {
            let mut b = [0u8; 4];
            rng.fill_bytes(&mut b);
            for log in [0u32, 1, 4, 9, 14, 20, 32] {
                for f in [HashFn::Multiplicative, HashFn::XorFold] {
                    let h = hash4(b, f, log);
                    assert!((h as u64) < (1u64 << log));
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let b = [1, 2, 3, 4];
        assert_eq!(
            hash4(b, HashFn::Multiplicative, 14),
            hash4(b, HashFn::Multiplicative, 14)
        );
    }

    #[test]
    fn distributes_sequential_keys() {
        // Sequential 4-byte groups should not all collide.
        for f in [HashFn::Multiplicative, HashFn::XorFold] {
            let mut seen = std::collections::HashSet::new();
            for i in 0u32..256 {
                seen.insert(hash4(i.to_le_bytes(), f, 9));
            }
            assert!(seen.len() > 64, "{f:?} clusters too much: {}", seen.len());
        }
    }

    #[test]
    fn hash_at_matches_hash4() {
        let data = b"abcdefgh";
        assert_eq!(
            hash_at(data, 2, HashFn::Multiplicative, 10),
            hash4([b'c', b'd', b'e', b'f'], HashFn::Multiplicative, 10)
        );
    }
}
