//! Streaming adapters for the lightweight codecs, byte-identical to the
//! one-shot entry points.
//!
//! The LZO- and LZ4-class coders stream natively. Each encoder is the
//! shared [`StreamDriver`] (the push/finish contract every parser-fed
//! encoder runs under) with a [`StreamParser`] configured by the shared
//! [`matcher_for_level`] ladder (with offsets folded at the 16-bit field
//! ceiling, exactly like the one-shot paths' `fold_matches_beyond`), whose
//! events [`Elements`] writes with the element writer the one-shot path
//! hands [`Elements::write_parse`] (`lzo::emit_element`,
//! `lz4::emit_sequence`).
//!
//! Both decoders are one core, `ElementStream`,
//! over the format's one-shot element loop (`lzo::decode_tokens`,
//! `lz4::decode_sequences`) and a sliding [`HistBuf`] window. Each push
//! hands the loop the new input; the loop applies every whole element and
//! stops at the first one the input cuts off. Between pushes the core
//! keeps only that element's front, which then takes one input byte at a
//! time until it is whole, and the payload bytes a cut-off literal run
//! still owes, which pass straight into the window. An LZ4 sequence cut
//! off after its literals is carried as its match-length nibble, which,
//! read as a token, is the rest of that sequence. At end-of-input the core
//! reports what the one-shot decoder reports for a stream ending there
//! (`end_of_input`), so error values match the one-shot decoders for
//! valid, truncated and hostile streams alike. Both formats cap offsets at
//! 65535, which the retained 64 KiB window always covers — unlike Snappy
//! there is no hostile-offset divergence.
//!
//! The Gipfeli-class coder is *not* streamable: its fixed-layout literal
//! code is built from a histogram over the whole literal stream, and the
//! rank table travels in the header — the first output byte depends on
//! the last input byte. Its adapters therefore buffer (scratch is
//! O(input), the documented exception to the bounded-scratch contract)
//! and run the one-shot path at finish.

use crate::gipfeli::{self, GipfeliError};
use crate::lz4::{self, Lz4Error};
use crate::lzo::{self, LzoError};
use crate::{matcher_for_level, Stop};
use cdpu_lz77::stream::{Elements, StreamDriver, StreamParser};
use cdpu_util::stream::{
    HistBuf, OutBuf, StreamDecoder, StreamEncoder, StreamError, StreamProgress, HIGH_WATER,
};
use cdpu_util::varint::{self, VarintError};
/// Both byte-oriented formats use a 64 KiB history window.
const WINDOW_SIZE: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// The byte-aligned decoders' streaming core
// ---------------------------------------------------------------------------

/// A byte-aligned format as [`ElementStream`] drives it: its element loop
/// and its end-of-input rule, both shared with the one-shot decoder.
trait Format {
    type Error: Copy;
    const BAD_PREAMBLE: Self::Error;
    /// The element loop ([`lzo::decode_tokens`], [`lz4::decode_sequences`]).
    fn decode(
        input: &[u8],
        out: &mut Vec<u8>,
        base: u64,
        expected: u64,
        high_water: usize,
    ) -> Result<Stop, Self::Error>;
    /// What a stream that ends where the loop stopped reports.
    fn end(stop: &Stop, len: usize, produced: u64, expected: u64) -> Result<(), Self::Error>;
    /// The error for `actual` output bytes against `expected`.
    fn length_mismatch(expected: u64, actual: u64) -> Self::Error;
}

struct Lzo;

impl Format for Lzo {
    type Error = LzoError;
    const BAD_PREAMBLE: LzoError = LzoError::BadPreamble;
    fn decode(
        input: &[u8],
        out: &mut Vec<u8>,
        base: u64,
        expected: u64,
        high_water: usize,
    ) -> Result<Stop, LzoError> {
        lzo::decode_tokens(input, out, base, expected, high_water)
    }
    fn end(stop: &Stop, len: usize, produced: u64, expected: u64) -> Result<(), LzoError> {
        lzo::end_of_input(stop, len, produced, expected)
    }
    fn length_mismatch(expected: u64, actual: u64) -> LzoError {
        LzoError::LengthMismatch { expected, actual }
    }
}

struct Lz4;

impl Format for Lz4 {
    type Error = Lz4Error;
    const BAD_PREAMBLE: Lz4Error = Lz4Error::BadPreamble;
    fn decode(
        input: &[u8],
        out: &mut Vec<u8>,
        base: u64,
        expected: u64,
        high_water: usize,
    ) -> Result<Stop, Lz4Error> {
        lz4::decode_sequences(input, out, base, expected, high_water)
    }
    fn end(stop: &Stop, len: usize, produced: u64, expected: u64) -> Result<(), Lz4Error> {
        lz4::end_of_input(stop, len, produced, expected)
    }
    fn length_mismatch(expected: u64, actual: u64) -> Lz4Error {
        Lz4Error::LengthMismatch { expected, actual }
    }
}

/// A streaming decoder: the format's one-shot element loop over a sliding
/// [`HistBuf`] window. Between pushes it keeps only the front of an
/// element the input cut off and the payload bytes a cut-off literal run
/// still owes.
struct ElementStream<F: Format> {
    /// The declared output length, once the preamble is in.
    expected: Option<u64>,
    /// The front of the preamble, or of an element (behind an LZ4
    /// [`Stop::resume`] token), that the input so far cut off.
    carry: Vec<u8>,
    /// Literal payload bytes owed before the next element.
    lit_left: u64,
    hist: HistBuf,
    err: Option<F::Error>,
    finished: bool,
}

impl<F: Format> ElementStream<F> {
    fn new() -> Self {
        ElementStream {
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

    fn push_bytes(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, F::Error> {
        if let Some(e) = self.err {
            return Err(e);
        }
        let consumed = self.advance(input).inspect_err(|&e| self.err = Some(e))?;
        Ok(StreamProgress { consumed, written: self.hist.drain_into(out) })
    }

    /// Decodes from `input` until it is used up or [`HIGH_WATER`] bytes
    /// wait undrained; returns the bytes consumed.
    fn advance(&mut self, input: &[u8]) -> Result<usize, F::Error> {
        let mut i = 0;
        while i < input.len() && self.hist.undrained() < HIGH_WATER {
            let Some(expected) = self.expected else {
                self.carry.push(input[i]);
                i += 1;
                match varint::read_u64(&self.carry) {
                    Ok((v, _)) => {
                        self.expected = Some(v);
                        self.carry.clear();
                    }
                    Err(VarintError::Truncated) => {}
                    Err(VarintError::Overflow) => return Err(F::BAD_PREAMBLE),
                }
                continue;
            };
            if self.lit_left > 0 {
                let take = self.lit_left.min((input.len() - i) as u64) as usize;
                self.hist.sink().extend_from_slice(&input[i..i + take]);
                i += take;
                self.lit_left -= take as u64;
                if self.lit_left == 0 && self.hist.produced() > expected {
                    return Err(F::length_mismatch(expected, self.hist.produced()));
                }
                continue;
            }
            let base = self.base();
            let high_water = self.hist.retained() + (HIGH_WATER - self.hist.undrained());
            let Self { carry, hist, lit_left, .. } = self;
            if carry.is_empty() {
                let stop = F::decode(&input[i..], hist.sink(), base, expected, high_water)?;
                i += stop.pos;
                *lit_left = stop.lit_left;
                carry.extend(stop.resume);
                if hist.retained() < high_water {
                    // Cut off by the end of the input, not by the mark.
                    carry.extend_from_slice(&input[i..]);
                    i = input.len();
                }
            } else {
                // A cut-off element takes one byte at a time until whole.
                carry.push(input[i]);
                i += 1;
                let stop = F::decode(carry, hist.sink(), base, expected, high_water)?;
                carry.drain(..stop.pos);
                *lit_left = stop.lit_left;
                if let Some(token) = stop.resume {
                    carry.insert(0, token);
                }
            }
        }
        Ok(i)
    }

    fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), F::Error> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if !self.finished {
            self.end().inspect_err(|&e| self.err = Some(e))?;
            self.finished = true;
        }
        let n = self.hist.drain_into(out);
        Ok((n, self.hist.undrained() == 0))
    }

    /// The one-shot's verdict on a stream that ends here.
    fn end(&mut self) -> Result<(), F::Error> {
        let expected = self.expected.ok_or(F::BAD_PREAMBLE)?;
        let stop = if self.lit_left > 0 {
            Stop { pos: 0, lit_left: self.lit_left, resume: None }
        } else {
            let base = self.base();
            F::decode(&self.carry, self.hist.sink(), base, expected, usize::MAX)?
        };
        F::end(&stop, self.carry.len(), self.hist.produced(), expected)
    }

    fn scratch_bytes(&self) -> usize {
        self.hist.capacity() + self.carry.capacity()
    }
}

// ---------------------------------------------------------------------------
// LZO-class
// ---------------------------------------------------------------------------

/// Streaming LZO-class compressor; output matches
/// [`lzo::compress_with_level`] for any input chunking.
pub struct LzoStreamEncoder(StreamDriver<Elements>);

impl LzoStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes.
    ///
    /// # Panics
    ///
    /// Panics for levels outside 1..=9 or `total >= u32::MAX` (the
    /// streaming parser's position-width limit).
    pub fn new(total: usize, level: u32) -> Self {
        assert!((1..=9).contains(&level), "lzo levels are 1..=9");
        let parser = StreamParser::table(matcher_for_level(level), total, Some(lzo::MAX_OFFSET));
        LzoStreamEncoder(StreamDriver::new(parser, |out| {
            varint::write_u64(out, total as u64);
            Elements::new(lzo::emit_element)
        }))
    }
}

impl StreamEncoder for LzoStreamEncoder {
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

/// Streaming LZO-class decompressor: [`lzo`]'s token loop over a sliding
/// window; see the module docs for the parity contract.
pub struct LzoStreamDecoder(ElementStream<Lzo>);

impl Default for LzoStreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl LzoStreamDecoder {
    /// Creates a decoder positioned at the length preamble.
    pub fn new() -> Self {
        LzoStreamDecoder(ElementStream::new())
    }

    /// Feeds compressed bytes; the trait `push` with the codec's precise
    /// error type. Errors are sticky.
    ///
    /// # Errors
    ///
    /// The same [`LzoError`] values [`lzo::decompress`] reports at the
    /// equivalent point in the token stream.
    pub fn push_bytes(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, LzoError> {
        self.0.push_bytes(input, out)
    }

    /// Declares end-of-input; the trait `finish` with the codec's precise
    /// error type.
    ///
    /// # Errors
    ///
    /// The same [`LzoError`] [`lzo::decompress`] reports for the
    /// equivalent truncated stream.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), LzoError> {
        self.0.finish_bytes(out)
    }
}

impl StreamDecoder for LzoStreamDecoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        self.push_bytes(input, out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        self.finish_bytes(out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn scratch_bytes(&self) -> usize {
        self.0.scratch_bytes()
    }
}

// ---------------------------------------------------------------------------
// LZ4-class
// ---------------------------------------------------------------------------

/// Streaming LZ4-class compressor; output matches
/// [`lz4::compress_with_level`] for any input chunking.
pub struct Lz4StreamEncoder(StreamDriver<Elements>);

impl Lz4StreamEncoder {
    /// Creates an encoder for exactly `total` input bytes.
    ///
    /// # Panics
    ///
    /// Panics for levels outside 1..=9 or `total >= u32::MAX` (the
    /// streaming parser's position-width limit).
    pub fn new(total: usize, level: u32) -> Self {
        assert!((1..=9).contains(&level), "lz4 levels are 1..=9");
        let parser = StreamParser::table(matcher_for_level(level), total, Some(lz4::MAX_OFFSET));
        Lz4StreamEncoder(StreamDriver::new(parser, |out| {
            varint::write_u64(out, total as u64);
            Elements::new(lz4::emit_sequence)
        }))
    }
}

impl StreamEncoder for Lz4StreamEncoder {
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

/// Streaming LZ4-class decompressor: [`lz4`]'s sequence loop over a sliding
/// window; see the module docs for the parity contract.
pub struct Lz4StreamDecoder(ElementStream<Lz4>);

impl Default for Lz4StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Lz4StreamDecoder {
    /// Creates a decoder positioned at the length preamble.
    pub fn new() -> Self {
        Lz4StreamDecoder(ElementStream::new())
    }

    /// Feeds compressed bytes; the trait `push` with the codec's precise
    /// error type. Errors are sticky.
    ///
    /// # Errors
    ///
    /// The same [`Lz4Error`] values [`lz4::decompress`] reports at the
    /// equivalent point in the sequence stream.
    pub fn push_bytes(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, Lz4Error> {
        self.0.push_bytes(input, out)
    }

    /// Declares end-of-input; the trait `finish` with the codec's precise
    /// error type.
    ///
    /// # Errors
    ///
    /// The same [`Lz4Error`] [`lz4::decompress`] reports for the
    /// equivalent truncated stream.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), Lz4Error> {
        self.0.finish_bytes(out)
    }
}

impl StreamDecoder for Lz4StreamDecoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        self.push_bytes(input, out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        self.finish_bytes(out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn scratch_bytes(&self) -> usize {
        self.0.scratch_bytes()
    }
}

// ---------------------------------------------------------------------------
// Gipfeli-class (buffered adapter)
// ---------------------------------------------------------------------------

/// Streaming facade over the Gipfeli-class coder. The format is not
/// streamable (see the module docs), so this buffers the input and runs
/// [`gipfeli::compress`] at finish; scratch is O(input).
pub struct GipfeliStreamEncoder {
    total: usize,
    data: Vec<u8>,
    out: OutBuf,
    finished: bool,
}

impl GipfeliStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes.
    pub fn new(total: usize) -> Self {
        GipfeliStreamEncoder { total, data: Vec::new(), out: OutBuf::new(), finished: false }
    }
}

impl StreamEncoder for GipfeliStreamEncoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        if self.finished {
            return Err(StreamError::Api("push after finish"));
        }
        if self.data.len() + input.len() > self.total {
            return Err(StreamError::Api("pushed past the declared total"));
        }
        self.data.extend_from_slice(input);
        Ok(StreamProgress { consumed: input.len(), written: self.out.drain_into(out) })
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        if !self.finished {
            if self.data.len() < self.total {
                return Err(StreamError::Api("finish before all input was pushed"));
            }
            let compressed = gipfeli::compress(&self.data);
            self.out.sink().extend_from_slice(&compressed);
            self.data = Vec::new();
            self.finished = true;
        }
        let n = self.out.drain_into(out);
        Ok((n, self.out.is_empty()))
    }

    fn scratch_bytes(&self) -> usize {
        self.data.capacity() + self.out.capacity()
    }
}

/// Streaming facade over the Gipfeli-class decoder; buffers the
/// compressed stream and runs [`gipfeli::decompress`] at finish, with
/// the one-shot error values. Scratch is O(input).
#[derive(Default)]
pub struct GipfeliStreamDecoder {
    comp: Vec<u8>,
    out: OutBuf,
    err: Option<GipfeliError>,
    finished: bool,
}

impl GipfeliStreamDecoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trait `finish` with the codec's precise error type.
    ///
    /// # Errors
    ///
    /// Exactly what [`gipfeli::decompress`] reports for the whole stream.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), GipfeliError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if !self.finished {
            match gipfeli::decompress(&self.comp) {
                Ok(data) => self.out.sink().extend_from_slice(&data),
                Err(e) => {
                    self.err = Some(e);
                    return Err(e);
                }
            }
            self.comp = Vec::new();
            self.finished = true;
        }
        let n = self.out.drain_into(out);
        Ok((n, self.out.is_empty()))
    }
}

impl StreamDecoder for GipfeliStreamDecoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        if let Some(e) = self.err {
            return Err(StreamError::Corrupt(e.to_string()));
        }
        if self.finished {
            return Err(StreamError::Api("push after finish"));
        }
        self.comp.extend_from_slice(input);
        Ok(StreamProgress { consumed: input.len(), written: self.out.drain_into(out) })
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        self.finish_bytes(out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn scratch_bytes(&self) -> usize {
        self.comp.capacity() + self.out.capacity()
    }
}
