//! Streaming ZStd-class coding: bounded-memory, chunk-resumable
//! encode/decode.
//!
//! The encoder feeds input windows through
//! [`StreamParser`](cdpu_lz77::stream::StreamParser) (bit-identical to
//! the one-shot matchers), splits the event stream with the same
//! [`Splitter`](crate::Splitter) the one-shot path uses, and emits each
//! closed block eagerly with [`emit_block`](crate::emit_block) — so the
//! frame bytes match [`compress_with`](crate::compress_with) exactly for
//! any chunking, while only the current block (≤ 128 KiB) plus the
//! parser's sliding state is resident.
//!
//! The decoder is the same [`BlockFrameReader`] the one-shot
//! [`decompress`](crate::decompress) runs, fed one push at a time: it
//! keeps a sliding history window instead of the whole output and stages
//! only a varint or payload that arrives split across pushes. Every output
//! byte and error value matches the one-shot decoder's, including the
//! `produced` field of [`Lz77Error::BadOffset`](cdpu_lz77::Lz77Error),
//! which counts compacted-away history back in. A hostile payload length
//! is the one input whose staging is not bounded by the block size: see
//! [`BlockFrameReader`].

use crate::{
    decode_compressed, emit_block, Splitter, ZstdConfig, ZstdError, ZstdStats, FRAME, MAGIC,
    MAX_BLOCK_SIZE,
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

fn stream_parser(cfg: &ZstdConfig, total: usize) -> StreamParser {
    match cfg.search_params() {
        crate::SearchParams::Greedy(m) => StreamParser::table(m, total, None),
        crate::SearchParams::Chain(c) => StreamParser::chain(c, total, None),
    }
}

/// Streaming ZStd-class compressor. See the module docs for the contract.
pub struct ZstdStreamEncoder {
    parser: StreamParser,
    splitter: Splitter,
    /// Fed-but-not-yet-emitted input bytes (the data behind open chunks).
    data: Vec<u8>,
    /// Input bytes already emitted as blocks.
    emitted: usize,
    total: usize,
    out: OutBuf,
    payload: Vec<u8>,
    stats: ZstdStats,
    entropy: crate::EntropyConfig,
    finished: bool,
}

impl ZstdStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes at `cfg`,
    /// byte-identical to [`compress_with`](crate::compress_with).
    ///
    /// # Panics
    ///
    /// Panics if `total` is not less than `u32::MAX` (the parser's input
    /// bound).
    pub fn new(total: usize, cfg: &ZstdConfig) -> Self {
        let mut out = OutBuf::new();
        out.sink().extend_from_slice(&MAGIC);
        out.sink().push(cfg.effective_window_log() as u8);
        varint::write_u64(out.sink(), total as u64);
        ZstdStreamEncoder {
            parser: stream_parser(cfg, total),
            splitter: Splitter::new(MAX_BLOCK_SIZE),
            data: Vec::new(),
            emitted: 0,
            total,
            out,
            payload: Vec::new(),
            stats: ZstdStats::default(),
            entropy: cfg.entropy,
            finished: false,
        }
    }

    /// Feeds `piece` (or finishes) and emits every block the splitter
    /// closes, in frame order.
    fn pump(&mut self, piece: &[u8], is_final: bool) {
        self.data.extend_from_slice(piece);
        let Self { parser, splitter, .. } = self;
        let mut sink = |ev: ParseEvent<'_>| match ev {
            ParseEvent::Literals(b) => splitter.add_literals(b.len()),
            ParseEvent::Match { offset, len } => splitter.add_match(len as usize, offset),
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
            // A chunk closes only over fully-fed bytes, so the slice is
            // always resident. The final chunk is the one completing the
            // declared total — the same block the one-shot path flags.
            let last = self.emitted + len == self.total;
            emit_block(
                &self.data[head..head + len],
                &chunk,
                last,
                self.out.sink(),
                &mut self.stats,
                &mut self.payload,
                &self.entropy,
            );
            head += len;
            self.emitted += len;
        }
        if head > 0 {
            self.data.drain(..head);
        }
        if is_final && self.emitted == 0 {
            // Zero-length content still needs a terminating block.
            emit_block(
                b"",
                &Parse::default(),
                true,
                self.out.sink(),
                &mut self.stats,
                &mut self.payload,
                &self.entropy,
            );
        }
    }
}

impl StreamEncoder for ZstdStreamEncoder {
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

/// Streaming ZStd-class decompressor: the codec's frame reader fed one
/// push at a time. See the module docs for the contract.
pub struct ZstdStreamDecoder {
    frame: BlockFrameReader<ZstdError>,
    lits: Vec<u8>,
    seqs: Vec<Seq>,
}

impl Default for ZstdStreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ZstdStreamDecoder {
    /// Creates a decoder positioned at the frame magic.
    pub fn new() -> Self {
        Self { frame: BlockFrameReader::new(&FRAME), lits: Vec::new(), seqs: Vec::new() }
    }

    /// The trait `push` with the codec's error type.
    ///
    /// # Errors
    ///
    /// The [`ZstdError`] the one-shot decoder reports at the same point in
    /// the frame; errors are sticky.
    pub fn push_bytes(
        &mut self,
        input: &[u8],
        out: &mut [u8],
    ) -> Result<StreamProgress, ZstdError> {
        let Self { frame, lits, seqs } = self;
        frame.push(input, out, |payload, hist, window, len| {
            decode_compressed(payload, hist, window, len, lits, seqs)
        })
    }

    /// The trait `finish` with the codec's error type.
    ///
    /// # Errors
    ///
    /// The [`ZstdError`] the one-shot decoder reports for the same frame.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), ZstdError> {
        self.frame.finish(out)
    }
}

impl StreamDecoder for ZstdStreamDecoder {
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
