//! Streaming adapters for the lightweight codecs, byte-identical to the
//! one-shot entry points.
//!
//! The LZO- and LZ4-class coders stream natively. Each encoder is the
//! shared [`StreamDriver`] (the push/finish contract every parser-fed
//! encoder runs under) with a [`StreamParser`] configured by the shared
//! `matcher_for_level` ladder (with offsets folded at the 16-bit field
//! ceiling, exactly like the one-shot paths' `fold_matches_beyond`), whose
//! events [`Elements`] writes with the element writer the one-shot path
//! hands [`Elements::write_parse`] (`lzo::emit_element`,
//! `lz4::emit_sequence`).
//!
//! Both decoders are the shared [`ElementStream`] core, the one Snappy
//! decodes under too, over [`LzoFormat`] and [`Lz4Format`]: the format's
//! one-shot element loop (`lzo::decode_tokens`, `lz4::decode_sequences`)
//! and end-of-input rule over a sliding 64 KiB window, so error values
//! match the one-shot decoders for valid, truncated and hostile streams
//! alike. An LZ4 sequence cut off after its literals is carried as its
//! match-length nibble ([`Stop::resume`]), which, read as a token, is the
//! rest of that sequence. Both formats cap offsets at 65535, which the
//! retained window always covers — unlike Snappy there is no
//! hostile-offset divergence.
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
use crate::matcher_for_level;
use cdpu_lz77::stream::{ElementFormat, ElementStream, Elements, Stop, StreamDriver, StreamParser};
use cdpu_util::stream::{OutBuf, StreamDecoder, StreamEncoder, StreamError, StreamProgress};
use cdpu_util::varint;

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

/// The LZO-class element format, for [`ElementStream`]: a `u64` preamble,
/// [`lzo`]'s token loop and its end-of-input rule.
pub struct LzoFormat;

impl ElementFormat for LzoFormat {
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
    fn end_of_input(stop: &Stop, len: usize, produced: u64, expected: u64) -> Result<(), LzoError> {
        lzo::end_of_input(stop, len, produced, expected)
    }
    fn length_mismatch(expected: u64, actual: u64) -> LzoError {
        LzoError::LengthMismatch { expected, actual }
    }
}

/// Streaming LZO-class decompressor: [`lzo`]'s token loop over a sliding
/// window; see the module docs for the parity contract.
pub type LzoStreamDecoder = ElementStream<LzoFormat>;

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

/// The LZ4-class element format, for [`ElementStream`]: a `u64` preamble,
/// [`lz4`]'s sequence loop and its end-of-input rule.
pub struct Lz4Format;

impl ElementFormat for Lz4Format {
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
    fn end_of_input(stop: &Stop, len: usize, produced: u64, expected: u64) -> Result<(), Lz4Error> {
        lz4::end_of_input(stop, len, produced, expected)
    }
    fn length_mismatch(expected: u64, actual: u64) -> Lz4Error {
        Lz4Error::LengthMismatch { expected, actual }
    }
}

/// Streaming LZ4-class decompressor: [`lz4`]'s sequence loop over a sliding
/// window; see the module docs for the parity contract.
pub type Lz4StreamDecoder = ElementStream<Lz4Format>;

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
