//! The serving tier's kernel table: the one place that says which codec
//! crate runs a fleet algorithm's calls, ladder payloads and frame chunks.
//!
//! Brotli has no codec crate in this repo; its row is Flate's (both are
//! LZ77+Huffman heavyweights — closest residency proxy), so a Brotli call
//! shares Flate's ladder entries, frame codec id and level.

use cdpu_fleet::Algorithm;
use cdpu_lz77::window::DecoderScratch;

use crate::chunk::{CODEC_FLATE, CODEC_GIPFELI, CODEC_LZO, CODEC_SNAPPY, CODEC_ZSTD};

/// Flate level for every call, ladder payload and framed chunk (zlib's
/// default).
const FLATE_LEVEL: u32 = 6;

/// Scratch-reusing decode: the output borrows the scratch.
pub(crate) type DecompressInto = for<'s> fn(&[u8], &'s mut DecoderScratch) -> Option<&'s [u8]>;

/// One codec crate's entry points, as the serving tier calls them.
pub(crate) struct Kernel {
    /// The algorithm the row belongs to (Flate for a Brotli look-up); keys
    /// the ladder so algorithms sharing a kernel share its payloads.
    pub algo: Algorithm,
    /// Codec-id byte the kernel's frames carry.
    pub codec_id: u8,
    /// One-shot compress at a ZStd level (ignored by the other kernels).
    pub compress: fn(&[u8], i32) -> Vec<u8>,
    /// Allocating decode; `None` on any codec error.
    pub decompress: fn(&[u8]) -> Option<Vec<u8>>,
    /// Scratch-reusing decode; `None` on any codec error.
    pub decompress_into: DecompressInto,
}

/// The kernel that executes a fleet algorithm.
pub(crate) fn kernel(algo: Algorithm) -> &'static Kernel {
    match algo {
        Algorithm::Snappy => &SNAPPY,
        Algorithm::Zstd => &ZSTD,
        Algorithm::Flate | Algorithm::Brotli => &FLATE,
        Algorithm::Gipfeli => &GIPFELI,
        Algorithm::Lzo => &LZO,
    }
}

static SNAPPY: Kernel = Kernel {
    algo: Algorithm::Snappy,
    codec_id: CODEC_SNAPPY,
    compress: |data, _| cdpu_snappy::compress(data),
    decompress: |src| cdpu_snappy::decompress(src).ok(),
    decompress_into: |src, scratch| cdpu_snappy::decompress_into(src, scratch).ok(),
};

static ZSTD: Kernel = Kernel {
    algo: Algorithm::Zstd,
    codec_id: CODEC_ZSTD,
    compress: |data, level| {
        cdpu_zstd::compress_with(data, &cdpu_zstd::ZstdConfig::with_level(level))
    },
    decompress: |src| cdpu_zstd::decompress(src).ok(),
    decompress_into: |src, scratch| cdpu_zstd::decompress_into(src, scratch).ok(),
};

static FLATE: Kernel = Kernel {
    algo: Algorithm::Flate,
    codec_id: CODEC_FLATE,
    compress: |data, _| {
        cdpu_flate::compress_with(data, &cdpu_flate::FlateConfig::with_level(FLATE_LEVEL))
    },
    decompress: |src| cdpu_flate::decompress(src).ok(),
    decompress_into: |src, scratch| cdpu_flate::decompress_into(src, scratch).ok(),
};

static GIPFELI: Kernel = Kernel {
    algo: Algorithm::Gipfeli,
    codec_id: CODEC_GIPFELI,
    compress: |data, _| cdpu_lite::gipfeli::compress(data),
    decompress: |src| cdpu_lite::gipfeli::decompress(src).ok(),
    decompress_into: |src, scratch| cdpu_lite::gipfeli::decompress_into(src, scratch).ok(),
};

static LZO: Kernel = Kernel {
    algo: Algorithm::Lzo,
    codec_id: CODEC_LZO,
    compress: |data, _| cdpu_lite::lzo::compress(data),
    decompress: |src| cdpu_lite::lzo::decompress(src).ok(),
    decompress_into: |src, scratch| cdpu_lite::lzo::decompress_into(src, scratch).ok(),
};
