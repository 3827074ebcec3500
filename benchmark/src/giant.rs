//! `calls_giant`: one 4 MiB payload (the Snappy-C CDF's 4 MiB step)
//! through the same codecs used differently — the chunked frame container
//! on the 2-thread pool and the streaming state machines. `cdpu-par`,
//! `cdpu_util::frame` and the `stream` drivers do the work the one-shot
//! workloads bypass.

use crate::calls::{Codec, Spec};
use crate::harness::THREADS;
use crate::inputs;
use cdpu_fleet::Algorithm;
use cdpu_lz77::matcher::MatcherConfig;
use cdpu_serve::chunk;
use cdpu_snappy::stream::{SnappyStreamDecoder, SnappyStreamEncoder};
use cdpu_util::stream::{drive_decoder, drive_encoder};
use cdpu_zstd::stream::{ZstdStreamDecoder, ZstdStreamEncoder};
use cdpu_zstd::ZstdConfig;
use std::borrow::Cow;

/// Uncompressed bytes per frame chunk.
pub const CHUNK_BYTES: usize = 256 * 1024;
/// Bytes pushed into a streamer per `push`.
pub const PUSH_BYTES: usize = 64 * 1024;

/// Streams `data` through a fresh ZStd level-3 encoder; returns the frame
/// and the peak scratch `drive_encoder` observed.
pub fn stream_zstd3_compress(data: &[u8]) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    let mut enc = ZstdStreamEncoder::new(data.len(), &ZstdConfig::with_level(3));
    let peak = drive_encoder(&mut enc, data, PUSH_BYTES, &mut out)
        .expect("encoder driven within its contract");
    (out, peak)
}

pub fn stream_zstd3_decompress(frame: &[u8]) -> Option<(Vec<u8>, usize)> {
    let mut out = Vec::new();
    let peak = drive_decoder(&mut ZstdStreamDecoder::new(), frame, PUSH_BYTES, &mut out).ok()?;
    Some((out, peak))
}

pub fn stream_snappy_compress(data: &[u8]) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    let mut enc = SnappyStreamEncoder::new(data.len(), &MatcherConfig::snappy_sw());
    let peak = drive_encoder(&mut enc, data, PUSH_BYTES, &mut out)
        .expect("encoder driven within its contract");
    (out, peak)
}

pub fn stream_snappy_decompress(block: &[u8]) -> Option<(Vec<u8>, usize)> {
    let mut out = Vec::new();
    let peak = drive_decoder(&mut SnappyStreamDecoder::new(), block, PUSH_BYTES, &mut out).ok()?;
    Some((out, peak))
}

pub const FRAME_ZSTD3: Codec = Codec {
    name: "frame.zstd3",
    compress: |d| chunk::compress_frame(Algorithm::Zstd, 3, d, CHUNK_BYTES),
    decompress: |c, _| {
        chunk::decompress_frame(Algorithm::Zstd, c)
            .ok()
            .map(Cow::Owned)
    },
};
pub const FRAME_LZ4: Codec = Codec {
    name: "frame.lz4",
    compress: |d| chunk::compress_frame_lz4(d, CHUNK_BYTES),
    decompress: |c, _| chunk::decompress_frame_lz4(c).ok().map(Cow::Owned),
};
pub const STREAM_ZSTD3: Codec = Codec {
    name: "stream.zstd3",
    compress: |d| stream_zstd3_compress(d).0,
    decompress: |c, _| stream_zstd3_decompress(c).map(|(out, _)| Cow::Owned(out)),
};
pub const STREAM_SNAPPY: Codec = Codec {
    name: "stream.snappy",
    compress: |d| stream_snappy_compress(d).0,
    decompress: |c, _| stream_snappy_decompress(c).map(|(out, _)| Cow::Owned(out)),
};

pub struct Giant;
impl Spec for Giant {
    const NAME: &'static str = "calls_giant";
    /// The frame paths fan out over the pool: what they gain from the
    /// second CPU belongs in the rates.
    const CPUS: usize = THREADS;
    const CODECS: &'static [Codec] = &[FRAME_ZSTD3, FRAME_LZ4, STREAM_ZSTD3, STREAM_SNAPPY];
    fn payloads(seed: u64) -> Vec<Vec<u8>> {
        vec![inputs::giant_payload(seed)]
    }
}
