//! Streaming Flate-class coding: bounded-memory, chunk-resumable
//! encode/decode plus the stage-pipelined single-call entry points.
//!
//! Mirrors `cdpu_zstd::stream` with DEFLATE's constraints: a ≤ 32 KiB
//! window, no RLE blocks, and a Huffman-only entropy stage. The encoder
//! drives the incremental [`Splitter`](crate::Splitter) off
//! [`StreamParser`](cdpu_lz77::stream::StreamParser) events and emits
//! closed blocks with [`emit_block`](crate::emit_block), byte-identical
//! to [`compress_with`](crate::compress_with) for any chunking. The
//! decoder holds a sliding [`HistBuf`] window and reproduces every
//! one-shot error value; block decode goes through the
//! [`decode_huff_entropy`]/[`apply_huff_ops`] split, whose deferred-error
//! contract reproduces the interleaved decoder's first-error ordering.
//!
//! [`compress_pipelined`]/[`decompress_pipelined`] overlap parse/split
//! with block entropy coding (compress) and entropy decode with LZ77
//! application (decode) through [`cdpu_par::pipeline`]'s bounded
//! two-slot handoff — same bytes, same errors, stage concurrency on one
//! large call.

use crate::{
    apply_huff_ops, decode_huff_entropy, emit_block, FlateConfig, FlateError, Splitter,
    MAGIC, MAX_BLOCK_SIZE, MAX_WINDOW_LOG,
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
    /// Reading a Huffman block's payload-length varint.
    PayloadLen { block_len: usize, last: bool },
    /// Collecting a Huffman block's payload.
    Payload { need: usize, block_len: usize, last: bool },
    /// Past the last block; trailing bytes are ignored (as one-shot).
    Done,
}

/// Streaming Flate-class decompressor. See the module docs for the
/// contract.
pub struct FlateStreamDecoder {
    state: DecState,
    pre: VarintAccum,
    expected: u64,
    window: u32,
    hist: HistBuf,
    payload: Vec<u8>,
    lits: Vec<u8>,
    seqs: Vec<Seq>,
    err: Option<FlateError>,
    finished: bool,
}

impl Default for FlateStreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlateStreamDecoder {
    /// Creates a decoder positioned at the frame magic.
    pub fn new() -> Self {
        FlateStreamDecoder {
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

    /// Post-block accounting, in the one-shot decoder's order.
    fn post_block(&mut self, last: bool) -> Result<(), FlateError> {
        let produced = self.hist.produced();
        if produced > self.expected {
            return Err(FlateError::LengthMismatch { expected: self.expected, actual: produced });
        }
        if last {
            if produced != self.expected {
                return Err(FlateError::LengthMismatch {
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

    /// Decodes one complete Huffman-block payload against the history.
    fn run_payload(&mut self, block_len: usize, last: bool) -> Result<(), FlateError> {
        let before = self.hist.produced();
        let Self { hist, payload, lits, seqs, window, .. } = self;
        let (tail, deferred) = decode_huff_entropy(payload, block_len, lits, seqs);
        apply_huff_ops(lits, seqs, tail, deferred, hist.sink(), *window, block_len)?;
        if self.hist.produced() - before != block_len as u64 {
            return Err(FlateError::BadBlock("block length mismatch"));
        }
        self.post_block(last)
    }

    /// Advances the state machine over `input[*i..]`.
    fn step(&mut self, input: &[u8], i: &mut usize) -> Result<(), FlateError> {
        match self.state {
            DecState::Magic { mut have } => {
                while have < 4 && *i < input.len() {
                    if input[*i] != MAGIC[have] {
                        return Err(FlateError::BadMagic);
                    }
                    have += 1;
                    *i += 1;
                }
                self.state = if have == 4 { DecState::Wlog } else { DecState::Magic { have } };
            }
            DecState::Wlog => {
                let wlog = input[*i] as u32;
                *i += 1;
                if wlog > MAX_WINDOW_LOG {
                    return Err(FlateError::BadHeader);
                }
                self.window = 1u32 << wlog;
                self.hist = HistBuf::new(self.window as usize);
                self.pre = VarintAccum::new();
                self.state = DecState::ContentSize;
            }
            DecState::ContentSize => {
                let (used, done) = self.pre.feed(&input[*i..]);
                *i += used;
                if let Some(res) = done {
                    self.expected = res.map_err(|_| FlateError::BadHeader)?;
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
                    let v = res.map_err(|_| FlateError::Truncated)?;
                    if v > MAX_BLOCK_SIZE as u64 {
                        return Err(FlateError::BadBlock("block exceeds size limit"));
                    }
                    let block_len = v as usize;
                    let last = flags & 1 != 0;
                    match (flags >> 1) & 0b11 {
                        crate::BLOCK_RAW => {
                            if block_len == 0 {
                                self.post_block(last)?;
                            } else {
                                self.state = DecState::RawBytes { remaining: block_len, last };
                            }
                        }
                        crate::BLOCK_HUFF => {
                            self.pre = VarintAccum::new();
                            self.state = DecState::PayloadLen { block_len, last };
                        }
                        _ => return Err(FlateError::BadBlock("unknown block type")),
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
            DecState::PayloadLen { block_len, last } => {
                let (used, done) = self.pre.feed(&input[*i..]);
                *i += used;
                if let Some(res) = done {
                    let need = res.map_err(|_| FlateError::Truncated)? as usize;
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
    /// The same [`FlateError`] values the one-shot decoder reports at the
    /// equivalent point in the frame.
    pub fn push_bytes(
        &mut self,
        input: &[u8],
        out: &mut [u8],
    ) -> Result<StreamProgress, FlateError> {
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
    /// The same [`FlateError`] the one-shot decoder reports for the
    /// equivalent truncated frame.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), FlateError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if !self.finished {
            let end_err = match self.state {
                // One-shot: frames shorter than magic + window log are
                // rejected as BadMagic before anything else is looked at.
                DecState::Magic { .. } | DecState::Wlog => Some(FlateError::BadMagic),
                DecState::ContentSize => Some(FlateError::BadHeader),
                DecState::BlockFlags
                | DecState::BlockLen { .. }
                | DecState::RawBytes { .. }
                | DecState::PayloadLen { .. }
                | DecState::Payload { .. } => Some(FlateError::Truncated),
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

impl StreamDecoder for FlateStreamDecoder {
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

/// One unit of decode work handed from the entropy stage to the LZ77
/// stage by [`decompress_pipelined`].
enum BlockWork<'a> {
    /// Raw stored bytes, passed through.
    Raw { bytes: &'a [u8], last: bool },
    /// Entropy-staged Huffman block awaiting application. `deferred`
    /// carries an entropy error to surface only if the staged operations
    /// apply cleanly (the interleaved decoder's precedence).
    Staged {
        lits: Vec<u8>,
        seqs: Vec<Seq>,
        tail: usize,
        deferred: Option<FlateError>,
        block_len: usize,
        last: bool,
    },
}

/// Compresses one call with parse/split and block entropy coding
/// overlapped as pipeline stages. Byte-identical to
/// [`compress_with`](crate::compress_with).
///
/// # Panics
///
/// Panics if `data.len()` is not less than `u32::MAX`.
pub fn compress_pipelined(data: &[u8], cfg: &FlateConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    out.extend_from_slice(&MAGIC);
    out.push(cfg.window_log.min(MAX_WINDOW_LOG) as u8);
    varint::write_u64(&mut out, data.len() as u64);

    cdpu_par::pipeline::run(
        cdpu_par::pipeline::DEFAULT_DEPTH,
        |tx| {
            let mut parser = StreamParser::chain(cfg.chain_config(), data.len(), None);
            let mut splitter = Splitter::new(MAX_BLOCK_SIZE);
            let mut start = 0usize;
            let flush = |splitter: &mut Splitter, start: &mut usize| {
                for chunk in splitter.chunks.drain(..) {
                    let len = chunk.total_len();
                    let _ = tx.send((*start, chunk));
                    *start += len;
                }
            };
            for piece in data.chunks(FEED_PIECE.max(1)) {
                parser.feed(piece, &mut |ev| match ev {
                    ParseEvent::Literals(b) => splitter.add_literals(b.len()),
                    ParseEvent::Match { offset, len } => splitter.add_match(len, offset),
                });
                flush(&mut splitter, &mut start);
            }
            parser.finish(&mut |ev| match ev {
                ParseEvent::Literals(b) => splitter.add_literals(b.len()),
                ParseEvent::Match { offset, len } => splitter.add_match(len, offset),
            });
            splitter.close();
            flush(&mut splitter, &mut start);
        },
        |rx| {
            let mut payload = Vec::new();
            let mut any = false;
            for (start, chunk) in rx {
                let chunk: Parse = chunk;
                let len = chunk.total_len();
                let last = start + len == data.len();
                emit_block(&data[start..start + len], &chunk, last, &mut out, &mut payload);
                any = true;
            }
            if !any {
                emit_block(b"", &Parse::default(), true, &mut out, &mut payload);
            }
        },
    );
    out
}

/// Decompresses one frame with Huffman entropy decode and LZ77 sequence
/// application overlapped as pipeline stages. Output bytes and error
/// values are identical to [`decompress`](crate::decompress): the channel
/// preserves block order, the deferred-error contract of
/// [`decode_huff_entropy`]/[`apply_huff_ops`] reproduces the interleaved
/// decoder's within-block error precedence, and a consumer-side error at
/// an earlier block always wins over a producer-side error at a later
/// position.
///
/// # Errors
///
/// Any [`FlateError`], exactly as [`decompress`](crate::decompress)
/// reports it.
pub fn decompress_pipelined(frame: &[u8]) -> Result<Vec<u8>, FlateError> {
    if frame.len() < 5 || frame[..4] != MAGIC {
        return Err(FlateError::BadMagic);
    }
    let window_log = frame[4] as u32;
    if window_log > MAX_WINDOW_LOG {
        return Err(FlateError::BadHeader);
    }
    let mut pos = 5usize;
    let (expected, n) = varint::read_u64(&frame[pos..]).map_err(|_| FlateError::BadHeader)?;
    pos += n;
    let window = 1u32 << window_log;

    let (trailing_err, result) = cdpu_par::pipeline::run(
        cdpu_par::pipeline::DEFAULT_DEPTH,
        move |tx| -> Option<FlateError> {
            let mut saw_last = false;
            while !saw_last {
                if pos >= frame.len() {
                    return Some(FlateError::Truncated);
                }
                let flags = frame[pos];
                pos += 1;
                saw_last = flags & 1 != 0;
                let Ok((v, n)) = varint::read_u64(&frame[pos..]) else {
                    return Some(FlateError::Truncated);
                };
                pos += n;
                if v > MAX_BLOCK_SIZE as u64 {
                    return Some(FlateError::BadBlock("block exceeds size limit"));
                }
                let block_len = v as usize;
                let work = match (flags >> 1) & 0b11 {
                    crate::BLOCK_RAW => {
                        if pos + block_len > frame.len() {
                            return Some(FlateError::Truncated);
                        }
                        let bytes = &frame[pos..pos + block_len];
                        pos += block_len;
                        BlockWork::Raw { bytes, last: saw_last }
                    }
                    crate::BLOCK_HUFF => {
                        let Ok((payload_len, n)) = varint::read_u64(&frame[pos..]) else {
                            return Some(FlateError::Truncated);
                        };
                        pos += n;
                        let payload_len = payload_len as usize;
                        if payload_len > frame.len() || pos + payload_len > frame.len() {
                            return Some(FlateError::Truncated);
                        }
                        let mut lits = Vec::new();
                        let mut seqs = Vec::new();
                        let (tail, deferred) = decode_huff_entropy(
                            &frame[pos..pos + payload_len],
                            block_len,
                            &mut lits,
                            &mut seqs,
                        );
                        pos += payload_len;
                        // On a deferred entropy error the serial walk stops
                        // inside this block: ship the partial operations
                        // (application errors take precedence) and halt.
                        let halt = deferred.is_some();
                        let work = BlockWork::Staged {
                            lits,
                            seqs,
                            tail,
                            deferred,
                            block_len,
                            last: saw_last,
                        };
                        if halt {
                            let _ = tx.send(work);
                            return None;
                        }
                        work
                    }
                    _ => return Some(FlateError::BadBlock("unknown block type")),
                };
                if !tx.send(work) {
                    return None;
                }
            }
            None
        },
        |rx| -> Result<Vec<u8>, FlateError> {
            let mut out = Vec::with_capacity((expected as usize).min(MAX_BLOCK_SIZE));
            for work in rx {
                let last = match work {
                    BlockWork::Raw { bytes, last } => {
                        out.extend_from_slice(bytes);
                        last
                    }
                    BlockWork::Staged { lits, seqs, tail, deferred, block_len, last } => {
                        let before = out.len();
                        apply_huff_ops(&lits, &seqs, tail, deferred, &mut out, window, block_len)?;
                        if out.len() - before != block_len {
                            return Err(FlateError::BadBlock("block length mismatch"));
                        }
                        last
                    }
                };
                if out.len() as u64 > expected {
                    return Err(FlateError::LengthMismatch {
                        expected,
                        actual: out.len() as u64,
                    });
                }
                if last && out.len() as u64 != expected {
                    return Err(FlateError::LengthMismatch {
                        expected,
                        actual: out.len() as u64,
                    });
                }
            }
            Ok(out)
        },
    );
    let out = result?;
    match trailing_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}
