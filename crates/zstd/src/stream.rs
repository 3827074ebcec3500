//! Streaming ZStd-class coding: bounded-memory, chunk-resumable
//! encode/decode.
//!
//! The encoder is the shared [`StreamDriver`] (the push/finish contract
//! every parser-fed encoder runs under) with a [`StreamParser`]
//! bit-identical to the one-shot matchers, feeding the same
//! [`BlockFrameWriter`] the one-shot [`compress_with`](crate::compress_with)
//! writes its parse through. Each
//! block goes out as soon as its events are in, so the frame bytes match
//! the one-shot's for any chunking, while only the open block (≤ 128 KiB
//! of input and its sequences) plus the parser's sliding state is
//! resident. The one-shot's per-block statistics are not collected.
//!
//! The decoder is the shared [`BlockStream`] core, the one Flate decodes
//! under too, over [`ZstdFormat`]: the same [`BlockFrameReader`] the
//! one-shot [`decompress`](crate::decompress) runs, fed one push at a
//! time, with the same per-block decode. It keeps a sliding history window
//! instead of the whole output and stages only a varint or payload that
//! arrives split across pushes. Every output byte and error value matches
//! the one-shot decoder's, including the `produced` field of
//! [`Lz77Error::BadOffset`](cdpu_lz77::Lz77Error), which counts
//! compacted-away history back in. A hostile payload length is the one
//! input whose staging is not bounded by the block size: see
//! [`BlockFrameReader`].
//!
//! [`BlockFrameReader`]: cdpu_util::stream::BlockFrameReader

use crate::{decode_compressed, frame_writer, Blocks, ZstdConfig, ZstdError, FRAME};
use cdpu_lz77::block::BlockFrameWriter;
use cdpu_lz77::stream::{BlockFormat, BlockStream, StreamDriver, StreamParser};
use cdpu_lz77::Seq;
use cdpu_util::stream::{BlockFrameSpec, HistBuf, StreamEncoder, StreamError, StreamProgress};

/// Streaming ZStd-class compressor: the shared [`StreamDriver`] feeding
/// this codec's [`BlockFrameWriter`]. See the module docs.
pub struct ZstdStreamEncoder(StreamDriver<BlockFrameWriter<ZstdError, Blocks>>);

impl ZstdStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes at `cfg`,
    /// byte-identical to [`compress_with`](crate::compress_with).
    ///
    /// # Panics
    ///
    /// Panics if `total` is not less than `u32::MAX` (the parser's input
    /// bound).
    pub fn new(total: usize, cfg: &ZstdConfig) -> Self {
        let parser = match cfg.search_params() {
            crate::SearchParams::Greedy(m) => StreamParser::table(m, total, None),
            crate::SearchParams::Chain(c) => StreamParser::chain(c, total, None),
        };
        ZstdStreamEncoder(StreamDriver::new(parser, |out| frame_writer(cfg, total, out)))
    }
}

impl StreamEncoder for ZstdStreamEncoder {
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

/// The ZStd-class block format, for [`BlockStream`]: the frame and
/// the per-block decode its one-shot decoder runs.
pub struct ZstdFormat;

impl BlockFormat for ZstdFormat {
    type Error = ZstdError;
    const FRAME: &'static BlockFrameSpec<ZstdError> = &FRAME;
    fn decode_block(
        payload: &[u8],
        hist: &mut HistBuf,
        window: u32,
        len: usize,
        lits: &mut Vec<u8>,
        seqs: &mut Vec<Seq>,
    ) -> Result<(), ZstdError> {
        decode_compressed(payload, hist, window, len, lits, seqs)
    }
}

/// Streaming ZStd-class decompressor: the codec's frame reader fed one
/// push at a time. See the module docs for the contract.
pub type ZstdStreamDecoder = BlockStream<ZstdFormat>;
