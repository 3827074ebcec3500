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
//!
//! [`BlockFrameReader`] reads the block-frame container the ZStd-class and
//! Flate-class codecs share, for their one-shot and streaming decoders
//! alike; each codec supplies a [`BlockFrameSpec`] and a per-block decode
//! call. The same spec names the container to its one writer,
//! `cdpu_lz77::block::BlockFrameWriter`, and every parser-fed encoder runs
//! under one push/finish driver, `cdpu_lz77::stream::StreamDriver`.

use std::ops::RangeInclusive;

use cdpu_telemetry::gauge;

use crate::varint::{read_u64, VarintError};

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

/// Staged output at which every streamer stops taking input until the
/// caller drains it: an encoder stops feeding its parser, a decoder stops
/// stepping its frame.
pub const HIGH_WATER: usize = 256 * 1024;
/// Cap on the output reserved for a frame's declared (untrusted) size.
const RESERVE_CAP: usize = 128 * 1024;

/// A codec's per-block call: `(payload, history, window, block_len)`.
type Decode<'a, E> = dyn FnMut(&[u8], &mut HistBuf, u32, usize) -> Result<(), E> + 'a;

/// The constants of one block-frame codec, for [`BlockFrameReader`] and
/// the one writer, `cdpu_lz77::block::BlockFrameWriter`.
///
/// The container is `magic`, a window-log byte, a content-size varint,
/// then blocks: a flags byte (bit 0: last; bits 1–2: type), a
/// block-length varint and a body — a raw block's bytes, an RLE block's
/// fill byte, or a coded block's payload-length varint and payload.
#[derive(Debug)]
pub struct BlockFrameSpec<E> {
    /// Frame magic.
    pub magic: [u8; 4],
    /// Window logs the header may declare (at most 31).
    pub window_logs: RangeInclusive<u32>,
    /// Largest block length a decoder accepts.
    pub block_cap: usize,
    /// Block types: raw, RLE (if the codec has it) and coded.
    pub raw: u8,
    pub rle: Option<u8>,
    pub coded: u8,
    /// Wrong magic, or input that ends before the window-log byte.
    pub bad_magic: E,
    /// Window log out of range, or a malformed content-size varint.
    pub bad_header: E,
    /// Input ends inside a block, or a block varint is malformed.
    pub truncated: E,
    /// A block over the cap, of unknown type, or of the wrong length.
    pub bad_block: fn(&'static str) -> E,
    /// Output length off the content size: `(expected, produced)`.
    pub length_mismatch: fn(u64, u64) -> E,
}

/// Where the frame cursor sits between steps.
#[derive(Debug, Clone, Copy)]
enum At {
    /// Magic bytes matched so far; at 4, the window-log byte is next.
    Magic(usize),
    ContentSize,
    Flags,
    BlockLen { flags: u8 },
    Raw { left: usize, last: bool },
    RleByte { len: usize, last: bool },
    PayloadLen { len: usize, last: bool },
    Payload { need: usize, len: usize, last: bool },
    /// Past the last block; trailing bytes are ignored.
    Done,
}

/// The one reader of the block-frame container ([`BlockFrameSpec`]),
/// which every one-shot and streaming decoder entry of a block-frame codec
/// steps over its input. It owns all of the frame but the decode of a
/// coded block's payload, `decode(payload, history, window, block_len)`.
///
/// A payload wholly inside one step's input reaches `decode` as a
/// sub-slice of it, so a one-shot [`decode_whole`](Self::decode_whole)
/// copies nothing. Only a payload split across pushes is staged, until its
/// declared length arrives. So a hostile payload length split across
/// pushes is buffered until the input ends: the one exception to bounded
/// scratch, kept because the one-shot decode reports `truncated` there.
#[derive(Debug)]
pub struct BlockFrameReader<E: 'static> {
    spec: &'static BlockFrameSpec<E>,
    at: At,
    expected: u64,
    /// Output bytes ahead of the frame's own (a dictionary seed).
    seed: u64,
    hist: HistBuf,
    /// The varint or payload under the cursor, when it spans pushes.
    staged: Vec<u8>,
    err: Option<E>,
}

impl<E: Copy + 'static> BlockFrameReader<E> {
    /// A reader positioned at the frame magic.
    pub fn new(spec: &'static BlockFrameSpec<E>) -> Self {
        let (at, hist) = (At::Magic(0), HistBuf::new(0));
        BlockFrameReader { spec, at, expected: 0, seed: 0, hist, staged: Vec::new(), err: None }
    }

    /// A reader positioned at the first block, for a codec that parsed a
    /// header of its own. `window_log` must be at most 31.
    pub fn at_blocks(spec: &'static BlockFrameSpec<E>, window_log: u32, expected: u64) -> Self {
        let mut r = BlockFrameReader { at: At::Flags, expected, ..Self::new(spec) };
        r.hist.window = 1 << window_log;
        r
    }

    /// One-shot decode of all of `input`, appending to `out`. Bytes
    /// already in `out` are a window seed that copies may reach into and
    /// the content size does not count.
    ///
    /// # Errors
    ///
    /// The spec's error for the first defect, or the decode call's.
    pub fn decode_whole(
        mut self,
        input: &[u8],
        out: &mut Vec<u8>,
        mut decode: impl FnMut(&[u8], &mut HistBuf, u32, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        self.seed = out.len() as u64;
        self.hist.buf = std::mem::take(out);
        let res = self.run(input, usize::MAX, &mut decode).and_then(|_| self.end_of_input());
        *out = std::mem::take(&mut self.hist.buf);
        res
    }

    /// Feeds frame bytes and drains output into `out`, consuming nothing
    /// more while 256 KiB of output waits to be drained.
    ///
    /// # Errors
    ///
    /// The one-shot decode's error at the same point; errors are sticky.
    pub fn push(
        &mut self,
        input: &[u8],
        out: &mut [u8],
        mut decode: impl FnMut(&[u8], &mut HistBuf, u32, usize) -> Result<(), E>,
    ) -> Result<StreamProgress, E> {
        let consumed = self.run(input, HIGH_WATER, &mut decode)?;
        Ok(StreamProgress { consumed, written: self.hist.drain_into(out) })
    }

    /// Declares end of input and drains output; call until `done`.
    ///
    /// # Errors
    ///
    /// The one-shot decode's error for a frame that ends here.
    pub fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), E> {
        match self.err {
            Some(e) => return Err(e),
            None => self.end_of_input().inspect_err(|&e| self.err = Some(e))?,
        }
        let n = self.hist.drain_into(out);
        Ok((n, self.hist.undrained() == 0))
    }

    /// Bytes held: output history plus the staging buffer.
    pub fn scratch_bytes(&self) -> usize {
        self.hist.capacity() + self.staged.capacity()
    }

    fn run(&mut self, input: &[u8], high_water: usize, decode: &mut Decode<E>) -> Result<usize, E> {
        let mut i = 0;
        while self.err.is_none() && i < input.len() && self.hist.undrained() < high_water {
            self.err = self.step(input, &mut i, decode).err();
        }
        self.err.map_or(Ok(i), Err)
    }

    /// Advances the cursor over `input[*i..]` (non-empty).
    fn step(&mut self, input: &[u8], i: &mut usize, decode: &mut Decode<E>) -> Result<(), E> {
        let (spec, rest) = (self.spec, &input[*i..]);
        match self.at {
            At::Magic(4) => {
                *i += 1;
                if !spec.window_logs.contains(&(rest[0] as u32)) {
                    return Err(spec.bad_header);
                }
                self.hist.window = 1 << rest[0];
                self.at = At::ContentSize;
            }
            At::Magic(have) => {
                if rest[0] != spec.magic[have] {
                    return Err(spec.bad_magic);
                }
                *i += 1;
                self.at = At::Magic(have + 1);
            }
            At::ContentSize => {
                if let Some(v) = self.varint(rest, i) {
                    self.expected = v.map_err(|_| spec.bad_header)?;
                    self.hist.buf.reserve((self.expected as usize).min(RESERVE_CAP));
                    self.at = At::Flags;
                }
            }
            At::Flags => {
                *i += 1;
                self.at = At::BlockLen { flags: rest[0] };
            }
            At::BlockLen { flags } => {
                let Some(v) = self.varint(rest, i) else { return Ok(()) };
                let len = v.map_err(|_| spec.truncated)?;
                if len > spec.block_cap as u64 {
                    return Err((spec.bad_block)("block exceeds size limit"));
                }
                let (len, last, kind) = (len as usize, flags & 1 != 0, (flags >> 1) & 0b11);
                self.at = match kind {
                    _ if kind == spec.raw && len == 0 => return self.end_block(last),
                    _ if kind == spec.raw => At::Raw { left: len, last },
                    _ if Some(kind) == spec.rle => At::RleByte { len, last },
                    _ if kind == spec.coded => At::PayloadLen { len, last },
                    _ => return Err((spec.bad_block)("unknown block type")),
                };
            }
            At::Raw { left, last } => {
                let take = left.min(rest.len());
                self.hist.sink().extend_from_slice(&rest[..take]);
                *i += take;
                self.at = At::Raw { left: left - take, last };
                if take == left {
                    self.end_block(last)?;
                }
            }
            At::RleByte { len, last } => {
                *i += 1;
                self.hist.sink().extend(std::iter::repeat_n(rest[0], len));
                self.end_block(last)?;
            }
            At::PayloadLen { len, last } => {
                let Some(v) = self.varint(rest, i) else { return Ok(()) };
                let need = v.map_err(|_| spec.truncated)? as usize;
                let rest = &input[*i..];
                if need <= rest.len() {
                    // Wholly inside this input: decode it where it lies.
                    *i += need;
                    self.coded(&rest[..need], len, last, decode)?;
                } else {
                    self.at = At::Payload { need, len, last };
                }
            }
            At::Payload { need, len, last } => {
                let take = (need - self.staged.len()).min(rest.len());
                self.staged.extend_from_slice(&rest[..take]);
                *i += take;
                if self.staged.len() == need {
                    let mut staged = std::mem::take(&mut self.staged);
                    let res = self.coded(&staged, len, last, decode);
                    staged.clear();
                    self.staged = staged;
                    res?;
                }
            }
            At::Done => *i = input.len(),
        }
        Ok(())
    }

    /// Reads the varint under the cursor: where it lies if it ends inside
    /// `rest`, else from `staged`, which collects it across pushes.
    fn varint(&mut self, rest: &[u8], i: &mut usize) -> Option<Result<u64, VarintError>> {
        // Through the terminator, or through an 11th byte, which no valid
        // varint has.
        let have = self.staged.len();
        let end = rest.iter().position(|&b| b & 0x80 == 0).map_or(rest.len(), |p| p + 1);
        let take = end.min(11 - have);
        *i += take;
        let complete = rest[take - 1] & 0x80 == 0 || have + take == 11;
        if have == 0 && complete {
            return Some(read_u64(&rest[..take]).map(|(v, _)| v));
        }
        self.staged.extend_from_slice(&rest[..take]);
        if !complete {
            return None;
        }
        let v = read_u64(&self.staged).map(|(v, _)| v);
        self.staged.clear();
        Some(v)
    }

    /// Decodes one coded block and checks it produced its block length.
    fn coded(&mut self, block: &[u8], len: usize, last: bool, f: &mut Decode<E>) -> Result<(), E> {
        let (before, window) = (self.hist.retained(), self.hist.window as u32);
        f(block, &mut self.hist, window, len)?;
        if self.hist.retained() - before != len {
            return Err((self.spec.bad_block)("block length mismatch"));
        }
        self.end_block(last)
    }

    /// Content-size accounting after a block: no overshoot after any
    /// block, an exact match after the last.
    fn end_block(&mut self, last: bool) -> Result<(), E> {
        let produced = self.hist.produced() - self.seed;
        if produced > self.expected || (last && produced != self.expected) {
            return Err((self.spec.length_mismatch)(self.expected, produced));
        }
        self.at = if last { At::Done } else { At::Flags };
        Ok(())
    }

    /// The error for input that ends with the cursor where it is.
    fn end_of_input(&self) -> Result<(), E> {
        match self.at {
            At::Magic(_) => Err(self.spec.bad_magic),
            At::ContentSize => Err(self.spec.bad_header),
            At::Done => Ok(()),
            _ => Err(self.spec.truncated),
        }
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

    static TOY: BlockFrameSpec<&str> = BlockFrameSpec {
        magic: *b"TOYF",
        window_logs: 10..=20,
        block_cap: 1000,
        raw: 0,
        rle: Some(1),
        coded: 2,
        bad_magic: "magic",
        bad_header: "header",
        truncated: "truncated",
        bad_block: |why| why,
        length_mismatch: |_, _| "length",
    };

    /// The toy block decode: inverts every payload byte, fails on a
    /// payload that starts with 0xEE, and records whether each payload
    /// lay inside `span`, the input of its step.
    fn toy_decode<'a>(
        span: std::ops::Range<*const u8>,
        inside: &'a mut Vec<bool>,
    ) -> impl FnMut(&[u8], &mut HistBuf, u32, usize) -> Result<(), &'static str> + 'a {
        move |payload, hist, window, len| {
            assert_eq!((window, len), (1 << 12, payload.len()));
            let range = payload.as_ptr_range();
            inside.push(span.start <= range.start && range.end <= span.end);
            if payload[0] == 0xEE {
                return Err("payload");
            }
            hist.sink().extend(payload.iter().map(|b| !b));
            Ok(())
        }
    }

    /// Streams `frame` in `chunk`-byte pushes; returns the outcome and, per
    /// coded block, whether its payload lay inside its push's input.
    fn toy_stream(frame: &[u8], chunk: usize) -> (Result<Vec<u8>, &str>, Vec<bool>) {
        let mut r = BlockFrameReader::new(&TOY);
        let (mut got, mut inside, mut w) = (Vec::new(), Vec::new(), [0u8; 64]);
        let mut run = || {
            for mut piece in frame.chunks(chunk) {
                while !piece.is_empty() {
                    let p = r.push(piece, &mut w, toy_decode(piece.as_ptr_range(), &mut inside))?;
                    got.extend_from_slice(&w[..p.written]);
                    piece = &piece[p.consumed..];
                }
            }
            loop {
                let (n, done) = r.finish(&mut w)?;
                got.extend_from_slice(&w[..n]);
                if done {
                    return Ok(());
                }
            }
        };
        (run().map(|()| got), inside)
    }

    #[test]
    fn payloads_inside_one_push_decode_in_place_and_split_ones_from_staging() {
        for (first, whole) in [(0x11, None), (0xEE, Some("payload"))] {
            // A 200-byte coded block, a raw and an RLE block, and a last
            // 41-byte coded block whose payload starts with `first`.
            let coded: Vec<u8> = (0..200).collect();
            let tail: Vec<u8> = [first].into_iter().chain(50..90).collect();
            let mut frame = b"TOYF\x0c".to_vec();
            crate::varint::write_u64(&mut frame, 275);
            frame.extend_from_slice(&[2 << 1, 200, 1, 200, 1]);
            frame.extend_from_slice(&coded);
            frame.extend_from_slice(&[0, 4, b'r', b'a', b'w', b'!', 1 << 1, 30, 7]);
            frame.extend_from_slice(&[2 << 1 | 1, 41, 41]);
            frame.extend_from_slice(&tail);
            let mut content: Vec<u8> = coded.iter().map(|b| !b).collect();
            content.extend_from_slice(b"raw!");
            content.extend_from_slice(&[7; 30]);
            content.extend(tail.iter().map(|b| !b));
            for cut in 0..=frame.len() {
                let case = &frame[..cut];
                let (mut out, mut inside) = (Vec::new(), Vec::new());
                let decode = toy_decode(case.as_ptr_range(), &mut inside);
                let one_shot = BlockFrameReader::new(&TOY).decode_whole(case, &mut out, decode);
                let one_shot = one_shot.map(|()| out);
                assert!(inside.iter().all(|&x| x), "cut {cut}: one-shot payloads are borrowed");
                let (pushed, inside) = toy_stream(case, cut.max(1));
                assert_eq!(pushed, one_shot, "cut {cut}, one push");
                assert!(inside.iter().all(|&x| x), "cut {cut}: one push stages nothing");
                // Both payloads are longer than a push: they come from staging.
                let (split, inside) = toy_stream(case, 7);
                assert_eq!(split, one_shot, "cut {cut}, 7-byte pushes");
                assert!(inside.iter().all(|&x| !x), "cut {cut}: split payloads are staged");
                let want = match cut {
                    0..=4 => Err("magic"),
                    5 | 6 => Err("header"),
                    _ if cut < frame.len() => Err("truncated"),
                    _ => whole.map_or(Ok(content.clone()), Err),
                };
                assert_eq!(one_shot, want, "cut {cut}");
            }
        }
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
