//! Lightweight codecs: LZO-class, LZ4-class and Gipfeli-class.
//!
//! These complete the paper's six-algorithm taxonomy (Section 2.2) and its
//! throughput-regime extension. All are "LZ77-inspired" fast codecs:
//!
//! - [`lzo`]: byte-oriented dictionary coding with **no entropy coding**
//!   and a level knob that trades hash-table effort for ratio — the shape
//!   of LZO's design point.
//! - [`lz4`]: the decode-throughput design point — one token byte carries
//!   both the literal-run and match lengths (a nibble each), the format
//!   chunked frames wrap for data-parallel decompression.
//! - [`gipfeli`]: dictionary coding plus *simple entropy coding* — a
//!   fixed-layout 6/9-bit literal code built from a first-pass histogram
//!   (no Huffman tree, no per-block table search), which is exactly
//!   Gipfeli's trick for beating Snappy's ratio at near-Snappy speed.
//!
//! As with the other codecs in this workspace, wire formats are our own
//! (these codecs' reference formats are not standardized the way Snappy's
//! is); the algorithmic structure is what the taxonomy needs.

pub mod gipfeli;
pub mod lz4;
pub mod lzo;
pub mod reference;
pub mod stream;

use cdpu_lz77::hash::HashFn;
use cdpu_lz77::matcher::MatcherConfig;
use cdpu_util::varint::{self, VarintError};

/// A varint length extension at the front of `input`, or `None` while the
/// input ends inside it.
///
/// # Errors
///
/// [`VarintError::Overflow`] for an overlong one, whatever follows.
pub(crate) fn read_ext(input: &[u8]) -> Result<Option<(u64, usize)>, VarintError> {
    match varint::read_u64(input) {
        Ok(ext) => Ok(Some(ext)),
        Err(VarintError::Truncated) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The effort ladder shared by the LZO- and LZ4-class compressors:
/// levels scale the greedy matcher's hash table (and disable skipping at
/// high levels) without ever changing the wire format.
pub(crate) fn matcher_for_level(level: u32) -> MatcherConfig {
    let entries_log = (9 + level.min(5)).min(14);
    MatcherConfig {
        window_log: 16,
        entries_log,
        ways: if level >= 7 { 2 } else { 1 },
        hash_fn: HashFn::Multiplicative,
        min_match: cdpu_lz77::MIN_MATCH,
        skip: level <= 3,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn taxonomy_ratio_ordering_on_text() {
        // Gipfeli's entropy coding should beat the no-entropy codecs on
        // entropy-skewed text; LZO and Snappy should be close.
        let data = cdpu_corpus::generate(cdpu_corpus::CorpusKind::MarkovText, 128 * 1024, 3);
        let snappy = cdpu_snappy::compress(&data).len();
        let lzo = crate::lzo::compress(&data).len();
        let gip = crate::gipfeli::compress(&data).len();
        assert!(gip < snappy, "gipfeli {gip} should beat snappy {snappy} on text");
        let lzo_gap = (lzo as f64 / snappy as f64 - 1.0).abs();
        assert!(lzo_gap < 0.25, "lzo {lzo} should track snappy {snappy}");
        // LZ4 pays a flat 3 bytes per match (token + 16-bit offset), so it
        // trails Snappy/LZO on match-dense text — the real codec's profile.
        // It must still land in the same family, not a different regime.
        let lz4 = crate::lz4::compress(&data).len();
        let lz4_gap = (lz4 as f64 / snappy as f64 - 1.0).abs();
        assert!(lz4_gap < 0.40, "lz4 {lz4} should stay near snappy {snappy}");
    }
}
