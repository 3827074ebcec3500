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
//! The decoder is a resumable frame state machine holding a sliding
//! history window ([`HistBuf`]) instead of the whole output; every error
//! value matches [`decompress`](crate::decompress) (one caveat: the
//! `produced` field of [`Lz77Error::BadOffset`](cdpu_lz77::Lz77Error)
//! counts compacted-away history back in, so even that diagnostic field
//! agrees with the one-shot decoder's).

use crate::{
    block, emit_block, Splitter, ZstdConfig, ZstdError, ZstdStats, MAGIC, MAX_BLOCK_SIZE,
};
use cdpu_lz77::stream::{ParseEvent, StreamParser};
use cdpu_lz77::{Parse, Seq};
use cdpu_util::stream::{
    HistBuf, OutBuf, StreamDecoder, StreamEncoder, StreamError, StreamProgress, VarintAccum,
};
use cdpu_util::varint;

/// Stop accepting input while this much output is staged undrained.
const HIGH_WATER: usize = 256 * 1024;
/// Largest slice handed to the parser per push (bounds per-call latency).
const FEED_PIECE: usize = 64 * 1024;

/// The one-shot decoder's block-length sanity cap.
const BLOCK_LEN_CAP: usize = MAX_BLOCK_SIZE + MAX_BLOCK_SIZE / 2;

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

/// Where the decoder's frame cursor sits between pushes.
enum DecState {
    /// Matching the 4-byte magic.
    Magic { have: usize },
    /// Expecting the window-log byte.
    Wlog,
    /// Reading the content-size varint.
    ContentSize,
    /// At a block boundary, expecting the flags byte.
    BlockFlags,
    /// Reading the block-length varint.
    BlockLen { flags: u8 },
    /// Passing a raw block's bytes through.
    RawBytes { remaining: usize, last: bool },
    /// Expecting an RLE block's fill byte.
    RleByte { block_len: usize, last: bool },
    /// Reading a compressed block's payload-length varint.
    PayloadLen { block_len: usize, last: bool },
    /// Collecting a compressed block's payload.
    Payload { need: usize, block_len: usize, last: bool },
    /// Past the last block; trailing bytes are ignored (as one-shot).
    Done,
}

/// Streaming ZStd-class decompressor. See the module docs for the
/// contract.
pub struct ZstdStreamDecoder {
    state: DecState,
    pre: VarintAccum,
    expected: u64,
    window: u32,
    hist: HistBuf,
    payload: Vec<u8>,
    lits: Vec<u8>,
    seqs: Vec<Seq>,
    err: Option<ZstdError>,
    finished: bool,
}

impl Default for ZstdStreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ZstdStreamDecoder {
    /// Creates a decoder positioned at the frame magic.
    pub fn new() -> Self {
        ZstdStreamDecoder {
            state: DecState::Magic { have: 0 },
            pre: VarintAccum::new(),
            expected: 0,
            window: 0,
            hist: HistBuf::new(0),
            payload: Vec::new(),
            lits: Vec::new(),
            seqs: Vec::new(),
            err: None,
            finished: false,
        }
    }

    /// Post-block accounting, in the one-shot decoder's order: overshoot
    /// after every block, exact match after the last.
    fn post_block(&mut self, last: bool) -> Result<(), ZstdError> {
        let produced = self.hist.produced();
        if produced > self.expected {
            return Err(ZstdError::LengthMismatch { expected: self.expected, actual: produced });
        }
        if last {
            if produced != self.expected {
                return Err(ZstdError::LengthMismatch {
                    expected: self.expected,
                    actual: produced,
                });
            }
            self.state = DecState::Done;
        } else {
            self.state = DecState::BlockFlags;
        }
        Ok(())
    }

    /// Decodes one complete compressed-block payload against the history.
    fn run_payload(&mut self, block_len: usize, last: bool) -> Result<(), ZstdError> {
        // History compacted away before this block; constant while the
        // block decodes (nothing drains mid-block), so it rebases the
        // `produced` diagnostic of any BadOffset to the one-shot value.
        let dropped = (self.hist.produced() - self.hist.retained() as u64) as usize;
        let before = self.hist.produced();
        let Self { hist, payload, lits, seqs, window, .. } = self;
        block::decode_block_with(payload, hist.sink(), *window, block_len, lits, seqs).map_err(
            |e| match e {
                ZstdError::Lz77(cdpu_lz77::Lz77Error::BadOffset { offset, produced }) => {
                    ZstdError::Lz77(cdpu_lz77::Lz77Error::BadOffset {
                        offset,
                        produced: produced + dropped,
                    })
                }
                other => other,
            },
        )?;
        if self.hist.produced() - before != block_len as u64 {
            return Err(ZstdError::BadBlock("block length mismatch"));
        }
        self.post_block(last)
    }

    /// Advances the state machine, consuming at least one byte from
    /// `input[*i..]` (non-empty) unless a zero-byte transition applies.
    fn step(&mut self, input: &[u8], i: &mut usize) -> Result<(), ZstdError> {
        match self.state {
            DecState::Magic { mut have } => {
                while have < 4 && *i < input.len() {
                    if input[*i] != MAGIC[have] {
                        return Err(ZstdError::BadMagic);
                    }
                    have += 1;
                    *i += 1;
                }
                self.state = if have == 4 { DecState::Wlog } else { DecState::Magic { have } };
            }
            DecState::Wlog => {
                let wlog = input[*i] as u32;
                *i += 1;
                if !(10..=31).contains(&wlog) {
                    return Err(ZstdError::BadHeader);
                }
                self.window = 1u64.checked_shl(wlog).unwrap_or(u64::MAX) as u32;
                self.hist = HistBuf::new(self.window as usize);
                self.pre = VarintAccum::new();
                self.state = DecState::ContentSize;
            }
            DecState::ContentSize => {
                let (used, done) = self.pre.feed(&input[*i..]);
                *i += used;
                if let Some(res) = done {
                    self.expected = res.map_err(|_| ZstdError::BadHeader)?;
                    self.state = DecState::BlockFlags;
                }
            }
            DecState::BlockFlags => {
                let flags = input[*i];
                *i += 1;
                self.pre = VarintAccum::new();
                self.state = DecState::BlockLen { flags };
            }
            DecState::BlockLen { flags } => {
                let (used, done) = self.pre.feed(&input[*i..]);
                *i += used;
                if let Some(res) = done {
                    let v = res.map_err(|_| ZstdError::Truncated)?;
                    if v > BLOCK_LEN_CAP as u64 {
                        return Err(ZstdError::BadBlock("block exceeds size limit"));
                    }
                    let block_len = v as usize;
                    let last = flags & 1 != 0;
                    match (flags >> 1) & 0b11 {
                        0 => {
                            if block_len == 0 {
                                self.post_block(last)?;
                            } else {
                                self.state = DecState::RawBytes { remaining: block_len, last };
                            }
                        }
                        1 => self.state = DecState::RleByte { block_len, last },
                        2 => {
                            self.pre = VarintAccum::new();
                            self.state = DecState::PayloadLen { block_len, last };
                        }
                        _ => return Err(ZstdError::BadBlock("unknown block type")),
                    }
                }
            }
            DecState::RawBytes { remaining, last } => {
                let take = remaining.min(input.len() - *i);
                self.hist.sink().extend_from_slice(&input[*i..*i + take]);
                *i += take;
                if remaining == take {
                    self.post_block(last)?;
                } else {
                    self.state = DecState::RawBytes { remaining: remaining - take, last };
                }
            }
            DecState::RleByte { block_len, last } => {
                let b = input[*i];
                *i += 1;
                self.hist.sink().extend(std::iter::repeat_n(b, block_len));
                self.post_block(last)?;
            }
            DecState::PayloadLen { block_len, last } => {
                let (used, done) = self.pre.feed(&input[*i..]);
                *i += used;
                if let Some(res) = done {
                    let need = res.map_err(|_| ZstdError::Truncated)? as usize;
                    self.payload.clear();
                    if need == 0 {
                        self.run_payload(block_len, last)?;
                    } else {
                        self.state = DecState::Payload { need, block_len, last };
                    }
                }
            }
            DecState::Payload { need, block_len, last } => {
                let take = (need - self.payload.len()).min(input.len() - *i);
                self.payload.extend_from_slice(&input[*i..*i + take]);
                *i += take;
                if self.payload.len() == need {
                    self.run_payload(block_len, last)?;
                }
            }
            DecState::Done => {
                // Trailing bytes after the last block are ignored, exactly
                // as the one-shot decoder never reads past it.
                *i = input.len();
            }
        }
        Ok(())
    }

    /// Feeds compressed bytes; identical to the trait `push` but with the
    /// codec's precise error type. Errors are sticky.
    ///
    /// # Errors
    ///
    /// The same [`ZstdError`] values the one-shot decoder reports at the
    /// equivalent point in the frame.
    pub fn push_bytes(
        &mut self,
        input: &[u8],
        out: &mut [u8],
    ) -> Result<StreamProgress, ZstdError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        let mut i = 0;
        while i < input.len() && self.hist.undrained() < HIGH_WATER {
            if let Err(e) = self.step(input, &mut i) {
                self.err = Some(e);
                return Err(e);
            }
        }
        let written = self.hist.drain_into(out);
        Ok(StreamProgress { consumed: i, written })
    }

    /// Declares end-of-input; identical to the trait `finish` but with
    /// the codec's precise error type.
    ///
    /// # Errors
    ///
    /// The same [`ZstdError`] the one-shot decoder reports for the
    /// equivalent truncated frame.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), ZstdError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if !self.finished {
            let end_err = match self.state {
                // One-shot: frames shorter than magic + window log are
                // rejected as BadMagic before anything else is looked at.
                DecState::Magic { .. } | DecState::Wlog => Some(ZstdError::BadMagic),
                // One-shot: truncated content-size varint → BadHeader.
                DecState::ContentSize => Some(ZstdError::BadHeader),
                // One-shot: every mid-block truncation → Truncated.
                DecState::BlockFlags
                | DecState::BlockLen { .. }
                | DecState::RawBytes { .. }
                | DecState::RleByte { .. }
                | DecState::PayloadLen { .. }
                | DecState::Payload { .. } => Some(ZstdError::Truncated),
                DecState::Done => None,
            };
            if let Some(e) = end_err {
                self.err = Some(e);
                return Err(e);
            }
            self.finished = true;
        }
        let n = self.hist.drain_into(out);
        Ok((n, self.hist.undrained() == 0))
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
        self.hist.capacity()
            + self.payload.capacity()
            + self.lits.capacity()
            + self.seqs.capacity() * std::mem::size_of::<Seq>()
    }
}
