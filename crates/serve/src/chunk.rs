//! Concrete codec bindings for the chunked frame container.
//!
//! `cdpu_util::frame` sits below every codec crate, so it is generic over
//! compress/decode closures; this module binds it to the serving tier's
//! kernel table (and to the LZ4-class codec the benchmarks exercise). Each
//! fleet algorithm gets a stable codec-id byte, so a frame self-describes
//! which decoder it needs and a mismatched decode fails loudly instead of
//! misparsing.
//!
//! Chunk decode runs across the `cdpu-par` pool into disjoint output
//! slices, with a thread-local [`DecoderScratch`] per worker.

use cdpu_fleet::Algorithm;
use cdpu_lz77::window::DecoderScratch;
use cdpu_util::frame::{self, FrameError};

use crate::kernel::{kernel, DecompressInto};

/// Codec-id bytes stored in the frame header, one per kernel.
pub const CODEC_LZ4: u8 = 1;
/// Snappy kernel.
pub const CODEC_SNAPPY: u8 = 2;
/// ZStd kernel.
pub const CODEC_ZSTD: u8 = 3;
/// Flate kernel (also executes Brotli calls, as in the workload).
pub const CODEC_FLATE: u8 = 4;
/// LZO-class kernel.
pub const CODEC_LZO: u8 = 5;
/// Gipfeli-class kernel.
pub const CODEC_GIPFELI: u8 = 6;

cdpu_util::tls_scratch! {
    /// Per-pool-worker decode scratch for chunk decompression.
    fn with_chunk_scratch, DecoderScratch
}

/// The codec-id byte a fleet algorithm's frames carry.
pub fn codec_id(algo: Algorithm) -> u8 {
    kernel(algo).codec_id
}

/// Frames `data` as `chunk_bytes`-sized chunks compressed independently by
/// the algorithm's kernel (chunks compress in parallel across the pool).
/// `level` is the ZStd level; other kernels ignore it.
pub fn compress_frame(algo: Algorithm, level: i32, data: &[u8], chunk_bytes: usize) -> Vec<u8> {
    let k = kernel(algo);
    frame::compress_with(data, chunk_bytes, k.codec_id, |c| (k.compress)(c, level))
}

/// Decodes one chunk with a kernel's `decompress_into` fast path into its
/// disjoint output slice, via the pool worker's thread-local scratch.
fn decode_chunk(decompress_into: DecompressInto, src: &[u8], dst: &mut [u8]) -> bool {
    with_chunk_scratch(|scratch| match decompress_into(src, scratch) {
        Some(d) if d.len() == dst.len() => {
            dst.copy_from_slice(d);
            true
        }
        _ => false,
    })
}

/// Decompresses a frame produced by [`compress_frame`], chunks in parallel.
///
/// # Errors
///
/// Any [`FrameError`], identically to [`decompress_frame_serial`].
pub fn decompress_frame(algo: Algorithm, framed: &[u8]) -> Result<Vec<u8>, FrameError> {
    let k = kernel(algo);
    frame::decompress_with(framed, k.codec_id, |src, dst| decode_chunk(k.decompress_into, src, dst))
}

/// Serial reference twin of [`decompress_frame`]: one chunk at a time
/// through the allocating `decompress` entry points.
///
/// # Errors
///
/// Any [`FrameError`], identically to [`decompress_frame`].
pub fn decompress_frame_serial(algo: Algorithm, framed: &[u8]) -> Result<Vec<u8>, FrameError> {
    let k = kernel(algo);
    frame::decompress_serial_with(framed, k.codec_id, k.decompress)
}

/// Frames `data` with the LZ4-class codec (the throughput-regime pairing
/// the benchmarks gate on).
pub fn compress_frame_lz4(data: &[u8], chunk_bytes: usize) -> Vec<u8> {
    frame::compress_with(data, chunk_bytes, CODEC_LZ4, cdpu_lite::lz4::compress)
}

/// Parallel decode of an LZ4-class frame.
///
/// # Errors
///
/// Any [`FrameError`], identically to [`decompress_frame_lz4_serial`].
pub fn decompress_frame_lz4(framed: &[u8]) -> Result<Vec<u8>, FrameError> {
    frame::decompress_with(framed, CODEC_LZ4, |src, dst| {
        decode_chunk(|s, scratch| cdpu_lite::lz4::decompress_into(s, scratch).ok(), src, dst)
    })
}

/// Serial reference decode of an LZ4-class frame.
///
/// # Errors
///
/// Any [`FrameError`], identically to [`decompress_frame_lz4`].
pub fn decompress_frame_lz4_serial(framed: &[u8]) -> Result<Vec<u8>, FrameError> {
    frame::decompress_serial_with(framed, CODEC_LZ4, |src| cdpu_lite::lz4::decompress(src).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        cdpu_corpus::generate(cdpu_corpus::CorpusKind::JsonLogs, len, 11)
    }

    #[test]
    fn every_algorithm_roundtrips_framed() {
        let data = sample(100_000);
        for algo in Algorithm::ALL {
            let framed = compress_frame(algo, 3, &data, 16 * 1024);
            let fast = decompress_frame(algo, &framed).expect("parallel decode");
            assert_eq!(fast, data, "{algo:?}");
            let serial = decompress_frame_serial(algo, &framed).expect("serial decode");
            assert_eq!(serial, data, "{algo:?}");
        }
    }

    #[test]
    fn lz4_frame_roundtrips_and_single_chunk_is_verbatim() {
        let data = sample(50_000);
        let framed = compress_frame_lz4(&data, 8 * 1024);
        assert_eq!(decompress_frame_lz4(&framed).unwrap(), data);
        assert_eq!(decompress_frame_lz4_serial(&framed).unwrap(), data);
        // Single-chunk frame: payload section is the plain lz4 stream.
        let one = compress_frame_lz4(&data, 1 << 20);
        let off = frame::payload_offset(&one, CODEC_LZ4).unwrap();
        assert_eq!(&one[off..], &cdpu_lite::lz4::compress(&data)[..]);
    }

    #[test]
    fn codec_mismatch_is_detected() {
        let data = sample(10_000);
        let framed = compress_frame(Algorithm::Snappy, 3, &data, 4096);
        let err = decompress_frame(Algorithm::Lzo, &framed).unwrap_err();
        assert_eq!(
            err,
            FrameError::WrongCodec {
                expected: CODEC_LZO,
                actual: CODEC_SNAPPY
            }
        );
    }

    #[test]
    fn corrupt_chunk_fails_identically_fast_and_serial() {
        let data = sample(60_000);
        let framed = compress_frame(Algorithm::Snappy, 3, &data, 16 * 1024);
        let header = frame::parse_header(&framed, CODEC_SNAPPY).unwrap();
        let mut bad = framed.clone();
        // Corrupt chunk 1's length preamble so its decode can't produce
        // the chunk's declared uncompressed size.
        let (off, _, _) = header.chunks[1];
        bad[off] ^= 0x7F;
        let fast = decompress_frame(Algorithm::Snappy, &bad);
        let serial = decompress_frame_serial(Algorithm::Snappy, &bad);
        assert!(fast.is_err());
        assert_eq!(fast, serial);
    }
}
