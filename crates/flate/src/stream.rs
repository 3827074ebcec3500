//! Streaming Flate-class coding: bounded-memory, chunk-resumable
//! encode/decode.
//!
//! The encoder is the shared [`StreamDriver`] (the push/finish contract
//! every parser-fed encoder runs under) with a chain [`StreamParser`],
//! feeding the same [`BlockFrameWriter`] the one-shot
//! [`compress_with`](crate::compress_with) writes its parse through:
//! byte-identical to it for any chunking, while
//! only the open block (≤ 128 KiB of input and its sequences) plus the
//! parser's ≤ 32 KiB window is resident.
//!
//! The decoder is the shared [`BlockStream`] core, the one ZStd decodes
//! under too, over [`FlateFormat`]: the same [`BlockFrameReader`] the
//! one-shot [`decompress`](crate::decompress) runs, fed one push at a
//! time, with the same per-block Huffman decode. It keeps a sliding
//! history window instead of the whole output and stages only a varint or
//! payload that arrives split across pushes, so every output byte and
//! error value matches the one-shot decoder's. A hostile payload length is
//! the one input whose staging is not bounded by the block size: see
//! [`BlockFrameReader`].
//!
//! [`BlockFrameReader`]: cdpu_util::stream::BlockFrameReader

use crate::{decode_huff_block, frame_writer, Blocks, FlateConfig, FlateError, FRAME};
use cdpu_lz77::block::BlockFrameWriter;
use cdpu_lz77::stream::{BlockFormat, BlockStream, StreamDriver, StreamParser};
use cdpu_lz77::Seq;
use cdpu_util::stream::{BlockFrameSpec, HistBuf, StreamEncoder, StreamError, StreamProgress};

/// Streaming Flate-class compressor: the shared [`StreamDriver`] feeding
/// this codec's [`BlockFrameWriter`]. See the module docs.
pub struct FlateStreamEncoder(StreamDriver<BlockFrameWriter<FlateError, Blocks>>);

impl FlateStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes at `cfg`,
    /// byte-identical to [`compress_with`](crate::compress_with).
    ///
    /// # Panics
    ///
    /// Panics if `total` is not less than `u32::MAX` (the parser's input
    /// bound).
    pub fn new(total: usize, cfg: &FlateConfig) -> Self {
        let parser = StreamParser::chain(cfg.chain_config(), total, None);
        FlateStreamEncoder(StreamDriver::new(parser, |out| frame_writer(cfg, total, out)))
    }
}

impl StreamEncoder for FlateStreamEncoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        self.0.push(input, out)
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        self.0.finish(out)
    }

    fn scratch_bytes(&self) -> usize {
        self.0.scratch_bytes()
    }
}

/// The Flate-class block format, for [`BlockStream`]: the frame and
/// the per-block decode its one-shot decoder runs.
pub struct FlateFormat;

impl BlockFormat for FlateFormat {
    type Error = FlateError;
    const FRAME: &'static BlockFrameSpec<FlateError> = &FRAME;
    fn decode_block(
        payload: &[u8],
        hist: &mut HistBuf,
        window: u32,
        len: usize,
        lits: &mut Vec<u8>,
        seqs: &mut Vec<Seq>,
    ) -> Result<(), FlateError> {
        decode_huff_block(payload, hist, window, len, lits, seqs)
    }
}

/// Streaming Flate-class decompressor: the codec's frame reader fed one
/// push at a time. See the module docs for the contract.
pub type FlateStreamDecoder = BlockStream<FlateFormat>;
