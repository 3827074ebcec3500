//! Streaming Snappy: bounded-memory, chunk-resumable encode/decode that
//! is byte-identical to the one-shot entry points.
//!
//! The encoder is the shared [`StreamDriver`] (the push/finish contract
//! every parser-fed encoder runs under) with a [`StreamParser`]
//! configured exactly like [`parse_with`](crate::parse_with) (64 KiB
//! window clamp, same matcher knobs), whose events [`Elements`] writes
//! with the element writer the one-shot path hands
//! [`Elements::write_parse`], so the element stream — and therefore every
//! output byte — matches [`compress_with`](crate::compress_with) for any
//! chunking of the input.
//!
//! The decoder is the shared [`ElementStream`] core over [`SnappyFormat`]:
//! the one-shot decoder's element loop (`decode_elements`) over a sliding
//! 64 KiB window instead of the whole output. Between pushes it keeps only
//! the front of an element the input cut off (at most a tag and three of
//! its length or offset bytes) and the payload bytes a cut-off literal
//! still owes. At end-of-input it reports what the one-shot decoder
//! reports for a stream ending there (`end_of_input`), so error values
//! match the one-shot decoder for every stream but one documented
//! divergence: a hostile type-11 copy whose offset exceeds the retained
//! 64 KiB history (but not total produced output) reports
//! [`SnappyError::BadOffset`] where the one-shot decoder, which keeps
//! everything, can still serve it. The format's encoder never emits such
//! an offset (the window is clamped to 64 KiB). A literal that overruns
//! the declared length reaches the output before its `LengthMismatch`
//! fires, as the one-shot decoder extends before it checks.
//!
//! Memory bounds: the encoder's scratch is the match table plus the
//! parser's sliding buffer plus staged output; the parser buffer can grow
//! beyond the window only on degenerate inputs (one giant match pinning
//! the parse cursor, or the skip heuristic racing ahead of fed data on
//! incompressible input). The decoder retains at most the 64 KiB format
//! window plus the undrained staged output.

use crate::{decode_elements, emit_element, end_of_input, SnappyError};
use cdpu_lz77::matcher::MatcherConfig;
use cdpu_lz77::stream::{ElementFormat, ElementStream, Elements, Stop, StreamDriver, StreamParser};
use cdpu_util::stream::{StreamEncoder, StreamError, StreamProgress};
use cdpu_util::varint::{self, VarintError};

/// Streaming Snappy compressor: the shared [`StreamDriver`] writing this
/// format's elements. See the module docs for the contract.
pub struct SnappyStreamEncoder(StreamDriver<Elements>);

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
        SnappyStreamEncoder(StreamDriver::new(parser, |out| {
            varint::write_u64(out, total as u64);
            Elements::new(emit_element)
        }))
    }
}

impl StreamEncoder for SnappyStreamEncoder {
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

/// The Snappy element format, for [`ElementStream`]: a `u32` preamble,
/// `decode_elements` and the one-shot's end-of-input rule.
pub struct SnappyFormat;

impl ElementFormat for SnappyFormat {
    type Error = SnappyError;
    const BAD_PREAMBLE: SnappyError = SnappyError::BadPreamble;
    fn preamble(bytes: &[u8]) -> Result<u64, VarintError> {
        varint::read_u32(bytes).map(|(v, _)| v as u64)
    }
    fn decode(
        input: &[u8],
        out: &mut Vec<u8>,
        base: u64,
        expected: u64,
        high_water: usize,
    ) -> Result<Stop, SnappyError> {
        decode_elements(input, out, base, expected, high_water)
    }
    fn end_of_input(
        stop: &Stop,
        len: usize,
        produced: u64,
        expected: u64,
    ) -> Result<(), SnappyError> {
        end_of_input(stop, len, produced, expected)
    }
    fn length_mismatch(expected: u64, actual: u64) -> SnappyError {
        SnappyError::LengthMismatch { expected, actual }
    }
}

/// Streaming Snappy decompressor: the one-shot element loop over a
/// sliding window. See the module docs for the contract.
pub type SnappyStreamDecoder = ElementStream<SnappyFormat>;
