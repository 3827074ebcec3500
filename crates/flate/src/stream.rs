//! Streaming Flate-class coding: bounded-memory, chunk-resumable
//! encode/decode.
//!
//! The encoder drives the incremental [`Splitter`](crate::Splitter) off
//! [`StreamParser`](cdpu_lz77::stream::StreamParser) events and emits
//! closed blocks with [`emit_block`](crate::emit_block), byte-identical
//! to [`compress_with`](crate::compress_with) for any chunking, while only
//! the current block (≤ 128 KiB) plus the parser's ≤ 32 KiB window is
//! resident.
//!
//! The decoder is the same [`BlockFrameReader`] the one-shot
//! [`decompress`](crate::decompress) runs, fed one push at a time, with
//! the same per-block Huffman decode: it keeps a sliding history window
//! instead of the whole output and stages only a varint or payload that
//! arrives split across pushes, so every output byte and error value
//! matches the one-shot decoder's. A hostile payload length is the one
//! input whose staging is not bounded by the block size: see
//! [`BlockFrameReader`].

use crate::{
    decode_huff_block, emit_block, FlateConfig, FlateError, Splitter, FRAME, MAGIC,
    MAX_BLOCK_SIZE, MAX_WINDOW_LOG,
};
use cdpu_lz77::stream::{ParseEvent, StreamParser};
use cdpu_lz77::{Parse, Seq};
use cdpu_util::stream::{
    BlockFrameReader, OutBuf, StreamDecoder, StreamEncoder, StreamError, StreamProgress,
};
use cdpu_util::varint;

/// Stop accepting input while this much output is staged undrained.
const HIGH_WATER: usize = 256 * 1024;
/// Largest slice handed to the parser per push (bounds per-call latency).
const FEED_PIECE: usize = 64 * 1024;

/// Streaming Flate-class compressor. See the module docs for the
/// contract.
pub struct FlateStreamEncoder {
    parser: StreamParser,
    splitter: Splitter,
    /// Fed-but-not-yet-emitted input bytes (the data behind open chunks).
    data: Vec<u8>,
    emitted: usize,
    total: usize,
    out: OutBuf,
    payload: Vec<u8>,
    finished: bool,
}

impl FlateStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes at `cfg`,
    /// byte-identical to [`compress_with`](crate::compress_with).
    ///
    /// # Panics
    ///
    /// Panics if `total` is not less than `u32::MAX` (the parser's input
    /// bound).
    pub fn new(total: usize, cfg: &FlateConfig) -> Self {
        let mut out = OutBuf::new();
        out.sink().extend_from_slice(&MAGIC);
        out.sink().push(cfg.window_log.min(MAX_WINDOW_LOG) as u8);
        varint::write_u64(out.sink(), total as u64);
        FlateStreamEncoder {
            parser: StreamParser::chain(cfg.chain_config(), total, None),
            splitter: Splitter::new(MAX_BLOCK_SIZE),
            data: Vec::new(),
            emitted: 0,
            total,
            out,
            payload: Vec::new(),
            finished: false,
        }
    }

    fn pump(&mut self, piece: &[u8], is_final: bool) {
        self.data.extend_from_slice(piece);
        let Self { parser, splitter, .. } = self;
        let mut sink = |ev: ParseEvent<'_>| match ev {
            ParseEvent::Literals(b) => splitter.add_literals(b.len()),
            ParseEvent::Match { offset, len } => splitter.add_match(len, offset),
        };
        if is_final {
            parser.finish(&mut sink);
            splitter.close();
        } else {
            parser.feed(piece, &mut sink);
        }
        let mut head = 0usize;
        for chunk in std::mem::take(&mut self.splitter.chunks) {
            let len = chunk.total_len();
            let last = self.emitted + len == self.total;
            emit_block(
                &self.data[head..head + len],
                &chunk,
                last,
                self.out.sink(),
                &mut self.payload,
            );
            head += len;
            self.emitted += len;
        }
        if head > 0 {
            self.data.drain(..head);
        }
        if is_final && self.emitted == 0 {
            emit_block(b"", &Parse::default(), true, self.out.sink(), &mut self.payload);
        }
    }
}

impl StreamEncoder for FlateStreamEncoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        if self.finished {
            return Err(StreamError::Api("push after finish"));
        }
        if self.parser.fed() + input.len() > self.parser.total() {
            return Err(StreamError::Api("pushed past the declared total"));
        }
        let mut consumed = 0;
        if self.out.len() < HIGH_WATER && !input.is_empty() {
            consumed = input.len().min(FEED_PIECE);
            self.pump(&input[..consumed], false);
        }
        Ok(StreamProgress { consumed, written: self.out.drain_into(out) })
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        if !self.finished {
            if self.parser.fed() < self.parser.total() {
                return Err(StreamError::Api("finish before all input was pushed"));
            }
            self.pump(&[], true);
            self.finished = true;
        }
        let n = self.out.drain_into(out);
        Ok((n, self.out.is_empty()))
    }

    fn scratch_bytes(&self) -> usize {
        self.parser.scratch_bytes()
            + self.data.capacity()
            + self.out.capacity()
            + self.payload.capacity()
    }
}

/// Streaming Flate-class decompressor: the codec's frame reader fed one
/// push at a time. See the module docs for the contract.
pub struct FlateStreamDecoder {
    frame: BlockFrameReader<FlateError>,
    lits: Vec<u8>,
    seqs: Vec<Seq>,
}

impl Default for FlateStreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlateStreamDecoder {
    /// Creates a decoder positioned at the frame magic.
    pub fn new() -> Self {
        Self { frame: BlockFrameReader::new(&FRAME), lits: Vec::new(), seqs: Vec::new() }
    }

    /// The trait `push` with the codec's error type.
    ///
    /// # Errors
    ///
    /// The [`FlateError`] the one-shot decoder reports at the same point in
    /// the frame; errors are sticky.
    pub fn push_bytes(
        &mut self,
        input: &[u8],
        out: &mut [u8],
    ) -> Result<StreamProgress, FlateError> {
        let Self { frame, lits, seqs } = self;
        frame.push(input, out, |payload, hist, window, len| {
            decode_huff_block(payload, hist, window, len, lits, seqs)
        })
    }

    /// The trait `finish` with the codec's error type.
    ///
    /// # Errors
    ///
    /// The [`FlateError`] the one-shot decoder reports for the same frame.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), FlateError> {
        self.frame.finish(out)
    }
}

impl StreamDecoder for FlateStreamDecoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        self.push_bytes(input, out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        self.finish_bytes(out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn scratch_bytes(&self) -> usize {
        self.frame.scratch_bytes()
            + self.lits.capacity()
            + self.seqs.capacity() * std::mem::size_of::<Seq>()
    }
}
