//! The unified streaming coder interface every codec implements.
//!
//! The paper's hardware pipelines never hold a whole call in memory: input
//! streams through match, entropy, and write stages in bounded on-chip
//! buffers. This module is the software shape of that contract — one
//! chunked, resumable [`StreamEncoder`]/[`StreamDecoder`] trait pair with
//! zero-copy `&[u8]` input windows, caller-owned `&mut [u8]` output
//! windows, and an explicit, repeatable `finish`. Each codec crate
//! implements the pair on top of its existing scratch-backed fast paths.
//!
//! The contract every implementation upholds:
//!
//! - **Bit-identity.** Concatenating everything written into the output
//!   windows yields exactly the bytes the codec's one-shot entry point
//!   produces (encode) or the one-shot decoder's output (decode),
//!   regardless of how the input is sliced into calls.
//! - **Resumability.** `push` may consume any prefix of the given input
//!   (including none, when the internal staging buffer is full) and may
//!   fill any prefix of the output window; callers loop.
//! - **Explicit finish.** After the final input byte, callers invoke
//!   [`finish`](StreamEncoder::finish) repeatedly until it reports
//!   `done`; each call drains more pending output.
//! - **Bounded scratch.** [`scratch_bytes`](StreamEncoder::scratch_bytes)
//!   reports the current internal footprint (tables, sliding windows,
//!   staged output). For realistic data it stays O(window + block), not
//!   O(input); degenerate inputs that defeat the bound are documented
//!   per codec (e.g. one multi-MiB incompressible literal run, whose
//!   format encodes it as a single token that cannot be split).
//!
//! [`drive_encoder`]/[`drive_decoder`] run a whole buffer through a
//! streamer in fixed-size windows — the reference harness the
//! equivalence suites and the constant-memory tests use — and record the
//! observed high-watermark in the `stream.scratch.peak_bytes` gauge.

use cdpu_telemetry::gauge;

/// What one [`StreamEncoder::push`]/[`StreamDecoder::push`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamProgress {
    /// Input bytes consumed from the front of the given window.
    pub consumed: usize,
    /// Output bytes written to the front of the output window.
    pub written: usize,
}

/// Error surfaced through the unified streaming traits.
///
/// Codec streamers also expose inherent `push`/`finish` methods returning
/// their precise per-codec error enums (the parity suites assert those
/// match the one-shot decoders value-for-value); the trait flattens them
/// to the codec error's `Display` rendering so heterogeneous pipelines
/// can hold `dyn` streamers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The input stream is invalid; the payload is the codec error text.
    Corrupt(String),
    /// The caller broke the streaming contract (e.g. pushed more input
    /// than the declared total, or pushed after `finish`).
    Api(&'static str),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            StreamError::Api(msg) => write!(f, "streaming API misuse: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Chunked, resumable compressor.
pub trait StreamEncoder {
    /// Feeds a window of input and drains staged output into `out`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Api`] on contract misuse (input past the declared
    /// total, pushing after finish).
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError>;

    /// Flushes after all input has been pushed. Returns bytes written and
    /// whether the stream is complete; call repeatedly until `done`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Api`] if input is still outstanding.
    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError>;

    /// Current internal memory footprint in bytes (tables + buffers).
    fn scratch_bytes(&self) -> usize;
}

/// Chunked, resumable decompressor.
pub trait StreamDecoder {
    /// Feeds a window of compressed input and drains decoded output.
    ///
    /// # Errors
    ///
    /// [`StreamError::Corrupt`] as soon as the stream is provably invalid
    /// (same error values as the codec's one-shot decoder).
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError>;

    /// Declares end-of-input and drains remaining output; call repeatedly
    /// until `done`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Corrupt`] if the stream was truncated or its
    /// declared length disagrees with what was produced.
    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError>;

    /// Current internal memory footprint in bytes (history + buffers).
    fn scratch_bytes(&self) -> usize;
}

/// Staged-output buffer shared by the codec streamers: producers append
/// at the back, `push`/`finish` drain from the front into the caller's
/// window, and the drained prefix is compacted away lazily so steady
/// state neither reallocates nor memmoves per call.
#[derive(Debug, Default)]
pub struct OutBuf {
    buf: Vec<u8>,
    head: usize,
}

impl OutBuf {
    /// An empty staging buffer.
    pub const fn new() -> Self {
        OutBuf { buf: Vec::new(), head: 0 }
    }

    /// Bytes staged and not yet drained.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Capacity of the backing allocation (for scratch accounting).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The producer-side sink: append freely with `Vec` APIs.
    pub fn sink(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Moves as much staged output as fits into `out`, returning the
    /// count. Compacts the backing buffer once the drained prefix
    /// dominates it, keeping the allocation bounded by the high-watermark
    /// of *staged* (not total) bytes.
    pub fn drain_into(&mut self, out: &mut [u8]) -> usize {
        let n = self.len().min(out.len());
        out[..n].copy_from_slice(&self.buf[self.head..self.head + n]);
        self.head += n;
        if self.head >= self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > 4096 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        n
    }
}

/// Sliding decode-history buffer shared by the streaming decoders: the
/// codec appends produced output at the back, the caller drains from the
/// front, and fully-drained bytes older than the format window are
/// compacted away in bulk — so retained memory is bounded by the window
/// plus the undrained backlog, not the output size.
#[derive(Debug)]
pub struct HistBuf {
    window: usize,
    buf: Vec<u8>,
    drained: usize,
    dropped: u64,
}

impl HistBuf {
    /// A history buffer that always retains at least `window` produced
    /// bytes (once that many exist) for back-references.
    pub fn new(window: usize) -> Self {
        HistBuf { window, buf: Vec::new(), drained: 0, dropped: 0 }
    }

    /// Total output bytes ever produced (including compacted ones).
    pub fn produced(&self) -> u64 {
        self.dropped + self.buf.len() as u64
    }

    /// Bytes currently retained (window + undrained backlog).
    pub fn retained(&self) -> usize {
        self.buf.len()
    }

    /// Bytes produced but not yet drained by the caller.
    pub fn undrained(&self) -> usize {
        self.buf.len() - self.drained
    }

    /// Capacity of the backing allocation (for scratch accounting).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The producer side: append-only access to the retained history.
    /// Codecs extend it with literals and window copies; removing or
    /// reordering bytes would corrupt the drain cursor.
    pub fn sink(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Moves as much undrained output as fits into `out`, compacting
    /// drained history older than the window once >=64 KiB of it has
    /// accumulated (bulk, so steady state doesn't memmove per call).
    pub fn drain_into(&mut self, out: &mut [u8]) -> usize {
        let n = self.undrained().min(out.len());
        out[..n].copy_from_slice(&self.buf[self.drained..self.drained + n]);
        self.drained += n;
        let droppable = self.drained.min(self.buf.len().saturating_sub(self.window));
        if droppable >= 64 * 1024 {
            self.buf.drain(..droppable);
            self.drained -= droppable;
            self.dropped += droppable as u64;
        }
        n
    }
}

/// Accumulates a LEB128 varint that may arrive split across pushes.
///
/// Feed it input windows; once the terminator byte (or a provably
/// overlong encoding) arrives it yields exactly what
/// [`varint::read_u64`](crate::varint::read_u64) would return on the
/// whole buffer, so streaming decoders report the same preamble errors
/// as their one-shot counterparts.
#[derive(Debug, Default)]
pub struct VarintAccum {
    buf: [u8; 11],
    n: usize,
}

impl VarintAccum {
    /// A fresh accumulator.
    pub const fn new() -> Self {
        VarintAccum { buf: [0; 11], n: 0 }
    }

    /// True once at least one byte has been fed.
    pub fn started(&self) -> bool {
        self.n > 0
    }

    /// Consumes bytes from `input` until the varint completes. Returns
    /// the bytes consumed and, when complete, the decode result.
    pub fn feed(
        &mut self,
        input: &[u8],
    ) -> (usize, Option<Result<u64, crate::varint::VarintError>>) {
        let mut used = 0;
        for &b in input {
            self.buf[self.n] = b;
            self.n += 1;
            used += 1;
            if b & 0x80 == 0 || self.n == self.buf.len() {
                return (used, Some(crate::varint::read_u64(&self.buf[..self.n]).map(|(v, _)| v)));
            }
        }
        (used, None)
    }
}

/// Runs `input` through an encoder in `chunk`-sized windows, appending
/// everything produced to `out`. Returns the peak `scratch_bytes`
/// observed, which is also folded into the `stream.scratch.peak_bytes`
/// telemetry gauge.
///
/// # Errors
///
/// Propagates the encoder's error.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn drive_encoder<E: StreamEncoder + ?Sized>(
    enc: &mut E,
    input: &[u8],
    chunk: usize,
    out: &mut Vec<u8>,
) -> Result<usize, StreamError> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut window = vec![0u8; chunk.clamp(64, 64 * 1024)];
    let mut peak = enc.scratch_bytes();
    let mut fed = 0usize;
    loop {
        let end = (fed + chunk).min(input.len());
        let mut piece = &input[fed..end];
        fed = end;
        loop {
            let p = enc.push(piece, &mut window)?;
            out.extend_from_slice(&window[..p.written]);
            peak = peak.max(enc.scratch_bytes());
            piece = &piece[p.consumed..];
            if piece.is_empty() {
                break;
            }
        }
        if fed >= input.len() {
            break;
        }
    }
    loop {
        let (n, done) = enc.finish(&mut window)?;
        out.extend_from_slice(&window[..n]);
        peak = peak.max(enc.scratch_bytes());
        if done {
            break;
        }
    }
    gauge!("stream.scratch.peak_bytes").set_max(peak as i64);
    Ok(peak)
}

/// Runs `input` through a decoder in `chunk`-sized windows, appending
/// everything produced to `out`. Returns the peak `scratch_bytes`
/// observed (also recorded in `stream.scratch.peak_bytes`).
///
/// # Errors
///
/// Propagates the decoder's error.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn drive_decoder<D: StreamDecoder + ?Sized>(
    dec: &mut D,
    input: &[u8],
    chunk: usize,
    out: &mut Vec<u8>,
) -> Result<usize, StreamError> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut window = vec![0u8; chunk.clamp(64, 64 * 1024)];
    let mut peak = dec.scratch_bytes();
    let mut fed = 0usize;
    while fed < input.len() {
        let end = (fed + chunk).min(input.len());
        let mut piece = &input[fed..end];
        fed = end;
        loop {
            let p = dec.push(piece, &mut window)?;
            out.extend_from_slice(&window[..p.written]);
            peak = peak.max(dec.scratch_bytes());
            piece = &piece[p.consumed..];
            if piece.is_empty() {
                break;
            }
        }
    }
    loop {
        let (n, done) = dec.finish(&mut window)?;
        out.extend_from_slice(&window[..n]);
        peak = peak.max(dec.scratch_bytes());
        if done {
            break;
        }
    }
    gauge!("stream.scratch.peak_bytes").set_max(peak as i64);
    Ok(peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy encoder: doubles every byte; finish appends a 0xFF sentinel.
    struct Doubler {
        out: OutBuf,
        finished: bool,
    }

    impl StreamEncoder for Doubler {
        fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
            if self.finished {
                return Err(StreamError::Api("push after finish"));
            }
            // Consume at most a few bytes per call to exercise resumption.
            let take = input.len().min(3);
            for &b in &input[..take] {
                self.out.sink().push(b);
                self.out.sink().push(b);
            }
            let written = self.out.drain_into(out);
            Ok(StreamProgress { consumed: take, written })
        }

        fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
            if !self.finished {
                self.out.sink().push(0xFF);
                self.finished = true;
            }
            let n = self.out.drain_into(out);
            Ok((n, self.out.is_empty()))
        }

        fn scratch_bytes(&self) -> usize {
            self.out.capacity()
        }
    }

    #[test]
    fn drive_encoder_assembles_full_output() {
        for chunk in [1usize, 2, 7, 64] {
            let mut enc = Doubler { out: OutBuf::new(), finished: false };
            let mut got = Vec::new();
            let peak = drive_encoder(&mut enc, b"abc", chunk, &mut got).unwrap();
            assert_eq!(got, b"aabbcc\xff");
            assert!(peak > 0);
        }
    }

    #[test]
    fn drive_encoder_handles_empty_input() {
        let mut enc = Doubler { out: OutBuf::new(), finished: false };
        let mut got = Vec::new();
        drive_encoder(&mut enc, b"", 8, &mut got).unwrap();
        assert_eq!(got, b"\xff");
    }

    #[test]
    fn outbuf_drains_across_small_windows() {
        let mut ob = OutBuf::new();
        ob.sink().extend_from_slice(b"hello world");
        let mut got = Vec::new();
        let mut w = [0u8; 4];
        while !ob.is_empty() {
            let n = ob.drain_into(&mut w);
            got.extend_from_slice(&w[..n]);
        }
        assert_eq!(got, b"hello world");
        assert!(ob.is_empty());
    }

    #[test]
    fn outbuf_compacts_large_drained_prefix() {
        let mut ob = OutBuf::new();
        ob.sink().extend_from_slice(&vec![7u8; 10_000]);
        let mut w = vec![0u8; 6000];
        ob.drain_into(&mut w);
        // Still 4000 staged; the drained 6000-byte prefix was compacted.
        assert_eq!(ob.len(), 4000);
        assert!(ob.head == 0, "compacted");
    }
}
