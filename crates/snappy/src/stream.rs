//! Streaming Snappy: bounded-memory, chunk-resumable encode/decode that
//! is byte-identical to the one-shot entry points.
//!
//! The encoder feeds input windows into a [`StreamParser`] configured
//! exactly like [`parse_with`](crate::parse_with) (64 KiB window clamp,
//! same matcher knobs) and serializes its events with the same
//! `emit_literals`/`emit_copy` helpers the one-shot path uses, so the
//! element stream — and therefore every output byte — matches
//! [`compress_with`](crate::compress_with) for any chunking of the input.
//!
//! The decoder runs the one-shot decoder's element loop
//! (`decode_elements`) over a sliding [`HistBuf`] window instead of the
//! whole output. Each push hands the loop the new input; the loop applies
//! every whole element and stops at the first one the input cuts off.
//! Between pushes the decoder keeps only that element's front (at most a
//! tag and three of its length or offset bytes), which then takes one
//! input byte at a time until it is whole, and the payload bytes a cut-off
//! literal still owes, which pass straight into the window. At
//! end-of-input it reports what the one-shot decoder reports for a stream
//! ending there (`end_of_input`), so error values match the one-shot
//! decoder for every stream but one documented divergence: a hostile
//! type-11 copy whose offset exceeds the retained 64 KiB history (but not
//! total produced output) reports [`SnappyError::BadOffset`] where the
//! one-shot decoder, which keeps everything, can still serve it. The
//! format's encoder never emits such an offset (the window is clamped to
//! 64 KiB). A literal that overruns the declared length reaches the output
//! before its `LengthMismatch` fires, as the one-shot decoder extends
//! before it checks.
//!
//! Memory bounds: the encoder's scratch is the match table plus the
//! parser's sliding buffer plus staged output; the parser buffer can grow
//! beyond the window only on degenerate inputs (one giant match pinning
//! the parse cursor, or the skip heuristic racing ahead of fed data on
//! incompressible input). The decoder retains at most the 64 KiB format
//! window plus the undrained staged output.

use crate::{decode_elements, emit_copy, emit_literals, end_of_input, SnappyError, WINDOW_SIZE};
use cdpu_lz77::matcher::MatcherConfig;
use cdpu_lz77::stream::{ParseEvent, StreamParser};
use cdpu_util::stream::{HistBuf, OutBuf, StreamDecoder, StreamEncoder, StreamError, StreamProgress};
use cdpu_util::varint::{self, VarintError};

/// Stop accepting input while this much output is staged undrained.
const HIGH_WATER: usize = 256 * 1024;
/// Largest slice handed to the parser per push (bounds per-call latency).
const FEED_PIECE: usize = 64 * 1024;

/// Streaming Snappy compressor. See the module docs for the contract.
pub struct SnappyStreamEncoder {
    parser: StreamParser,
    lits: Vec<u8>,
    out: OutBuf,
    finished: bool,
}

impl SnappyStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes, mirroring
    /// [`compress_with`](crate::compress_with)'s window clamp.
    ///
    /// # Panics
    ///
    /// Panics if `total` exceeds the format's 4 GiB limit or `cfg` is
    /// structurally invalid.
    pub fn new(total: usize, cfg: &MatcherConfig) -> Self {
        assert!(total <= u32::MAX as usize, "snappy caps input at 4 GiB");
        let cfg = MatcherConfig { window_log: cfg.window_log.min(16), ..*cfg };
        let parser = StreamParser::table(cfg, total, None);
        let mut out = OutBuf::new();
        varint::write_u64(out.sink(), total as u64);
        SnappyStreamEncoder { parser, lits: Vec::new(), out, finished: false }
    }

    fn pump(&mut self, input: &[u8], is_final: bool) {
        let Self { parser, lits, out, .. } = self;
        let mut sink = |ev: ParseEvent<'_>| match ev {
            ParseEvent::Literals(b) => lits.extend_from_slice(b),
            ParseEvent::Match { offset, len } => {
                emit_literals(out.sink(), lits);
                lits.clear();
                emit_copy(out.sink(), offset, len);
            }
        };
        if is_final {
            parser.finish(&mut sink);
        } else {
            parser.feed(input, &mut sink);
        }
        if is_final {
            emit_literals(out.sink(), lits);
            lits.clear();
        }
    }
}

impl StreamEncoder for SnappyStreamEncoder {
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
        self.parser.scratch_bytes() + self.lits.capacity() + self.out.capacity()
    }
}

/// Streaming Snappy decompressor: the one-shot element loop over a
/// sliding window. See the module docs for the contract.
pub struct SnappyStreamDecoder {
    /// The declared output length, once the preamble is in.
    expected: Option<u64>,
    /// The front of the preamble, or of an element, that the input so far
    /// cut off.
    carry: Vec<u8>,
    /// Literal payload bytes owed before the next element.
    lit_left: u64,
    hist: HistBuf,
    err: Option<SnappyError>,
    finished: bool,
}

impl Default for SnappyStreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl SnappyStreamDecoder {
    /// Creates a decoder positioned at the length preamble.
    pub fn new() -> Self {
        SnappyStreamDecoder {
            expected: None,
            carry: Vec::new(),
            lit_left: 0,
            hist: HistBuf::new(WINDOW_SIZE),
            err: None,
            finished: false,
        }
    }

    /// Output bytes before the retained window.
    fn base(&self) -> u64 {
        self.hist.produced() - self.hist.retained() as u64
    }

    /// Feeds compressed bytes; identical to the trait `push` but with the
    /// codec's precise error type. Errors are sticky.
    ///
    /// # Errors
    ///
    /// The same [`SnappyError`] values the one-shot decoder reports at
    /// the equivalent point in the element stream.
    pub fn push_bytes(
        &mut self,
        input: &[u8],
        out: &mut [u8],
    ) -> Result<StreamProgress, SnappyError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        let consumed = self.advance(input).inspect_err(|&e| self.err = Some(e))?;
        Ok(StreamProgress { consumed, written: self.hist.drain_into(out) })
    }

    /// Decodes from `input` until it is used up or [`HIGH_WATER`] bytes
    /// wait undrained; returns the bytes consumed.
    fn advance(&mut self, input: &[u8]) -> Result<usize, SnappyError> {
        let mut i = 0;
        while i < input.len() && self.hist.undrained() < HIGH_WATER {
            let Some(expected) = self.expected else {
                self.carry.push(input[i]);
                i += 1;
                match varint::read_u32(&self.carry) {
                    Ok((v, _)) => {
                        self.expected = Some(v as u64);
                        self.carry.clear();
                    }
                    Err(VarintError::Truncated) => {}
                    Err(VarintError::Overflow) => return Err(SnappyError::BadPreamble),
                }
                continue;
            };
            if self.lit_left > 0 {
                let take = self.lit_left.min((input.len() - i) as u64) as usize;
                self.hist.sink().extend_from_slice(&input[i..i + take]);
                i += take;
                self.lit_left -= take as u64;
                let produced = self.hist.produced();
                if self.lit_left == 0 && produced > expected {
                    return Err(SnappyError::LengthMismatch { expected, actual: produced });
                }
                continue;
            }
            let base = self.base();
            let high_water = self.hist.retained() + (HIGH_WATER - self.hist.undrained());
            let Self { carry, hist, lit_left, .. } = self;
            if carry.is_empty() {
                let (used, owed) =
                    decode_elements(&input[i..], hist.sink(), base, expected, high_water)?;
                i += used;
                *lit_left = owed;
                if hist.retained() < high_water {
                    // Cut off by the end of the input, not by the mark.
                    carry.extend_from_slice(&input[i..]);
                    i = input.len();
                }
            } else {
                // A cut-off element takes one byte at a time until whole.
                carry.push(input[i]);
                i += 1;
                let (used, owed) = decode_elements(carry, hist.sink(), base, expected, high_water)?;
                carry.drain(..used);
                *lit_left = owed;
            }
        }
        Ok(i)
    }

    /// Declares end-of-input; identical to the trait `finish` but with
    /// the codec's precise error type.
    ///
    /// # Errors
    ///
    /// The same [`SnappyError`] the one-shot decoder reports for the
    /// equivalent truncated stream, or `LengthMismatch` when the declared
    /// and produced lengths disagree.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), SnappyError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if !self.finished {
            let end = match self.expected {
                None => Err(SnappyError::BadPreamble),
                Some(expected) => {
                    end_of_input(self.carry.len(), self.lit_left, self.hist.produced(), expected)
                }
            };
            end.inspect_err(|&e| self.err = Some(e))?;
            self.finished = true;
        }
        let n = self.hist.drain_into(out);
        Ok((n, self.hist.undrained() == 0))
    }
}

impl StreamDecoder for SnappyStreamDecoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        self.push_bytes(input, out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        self.finish_bytes(out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn scratch_bytes(&self) -> usize {
        self.hist.capacity() + self.carry.capacity()
    }
}
