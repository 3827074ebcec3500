//! Incremental LZ77 parsing over chunked input.
//!
//! [`StreamParser`] reproduces [`HashTableMatcher`]'s and
//! [`HashChainMatcher`]'s parses **bit-identically** while seeing the
//! input as an arbitrary sequence of chunks and retaining only a sliding
//! window of it — the parse half of the streaming coder core. All six
//! codec streamers sit on top of it.
//!
//! # How identity is preserved
//!
//! Neither matcher is reproduced; both are run. `matcher::run_hash_table`
//! and `matcher::run_hash_chain` are the one loops under both the one-shot
//! matchers and this parser, which calls them on the bytes fed so far.
//! The loops take two kinds of decisions that peek past the current
//! position: match extension (a candidate's length is measured up to the
//! end of the *whole* input) and the chain matcher's one-step lazy walk.
//! On bytes that stop short of the total they take the same decisions with
//! the same table state, and **suspend** — returning without mutating any
//! table — whenever a decision could still be changed by bytes not seen:
//!
//! - a probed candidate whose raw match length reaches the end of the
//!   bytes fed so far could keep growing, so the whole probe is retried
//!   once more input arrives (table untouched, so the retry is exact);
//! - a chain walk whose floor (the length a candidate must beat) already
//!   reaches the fed bytes suspends before it reads a candidate;
//! - the lazy walk at `pos + 1` runs after `pos` was inserted; if it must
//!   suspend, the insertion is undone so resumption replays the step;
//! - covered-position insertions that need bytes beyond the fed horizon
//!   (the hash reads 4 bytes) are deferred, in order, until they arrive.
//!
//! Because both matchers only ever start a match at the probe cursor,
//! every byte the cursor has passed is a confirmed literal, which is what
//! lets literals stream out eagerly while the parse is still running.
//!
//! The parser needs the total input length up front (every codec frame
//! in this workspace carries it in its header anyway): the one-shot loop
//! bound and the covered-insert guards read `data.len()`.
//!
//! # Memory
//!
//! The retained input window is `O(window + chunk)` for realistic data.
//! Two degenerate shapes defeat the bound and are accepted: a single
//! match spanning many megabytes keeps the cursor (and so the window's
//! left edge) pinned while bytes accumulate, and a multi-megabyte
//! incompressible stretch under the skip heuristic can push the cursor
//! far ahead of the fed bytes. Both resolve as soon as the region ends.
//!
//! # Encoding
//!
//! [`StreamDriver`] is the one push/finish contract
//! ([`StreamEncoder`]) under every parser-fed stream encoder: the API
//! checks, input fed in pieces of at most 64 KiB while less than
//! [`HIGH_WATER`] output waits, the drain, and `scratch_bytes`. Each codec
//! supplies an [`EventCoder`] that turns the parser's events into output:
//! [`Elements`] for the byte-aligned element formats (Snappy, LZ4, LZO),
//! and the block-frame writer ([`crate::block::BlockFrameWriter`]) for the
//! ZStd-class and Flate-class frames. Their one-shot encoders hand a whole
//! parse to the same writers ([`Elements::write_parse`],
//! [`BlockFrameWriter::write_parse`](crate::block::BlockFrameWriter::write_parse)).
//!
//! # Decoding
//!
//! Two cores are every streaming decoder but Gipfeli's buffered one, one
//! per frame family; each implements [`StreamDecoder`] once, and a codec
//! supplies a zero-sized format type and names the core over it
//! (`SnappyStreamDecoder = ElementStream<SnappyFormat>`).
//!
//! - [`ElementStream`] runs an [`ElementFormat`]'s one-shot element loop
//!   (Snappy, LZO, LZ4) over a sliding [`HistBuf`] window. Each push hands
//!   the loop the new input; the loop applies every whole element and
//!   stops at the first one the input cuts off. Between pushes the core
//!   keeps only that element's front, which then takes one input byte at a
//!   time until it is whole, and the payload bytes a cut-off literal run
//!   still owes, which pass straight into the window. At end-of-input it
//!   reports what the one-shot decoder reports for a stream ending there.
//! - [`BlockStream`] feeds a [`BlockFormat`]'s frame (ZStd-class,
//!   Flate-class) to the [`BlockFrameReader`] its one-shot decoder runs,
//!   one push at a time, with the format's per-block decode and staging.
//!
//! [`HashTableMatcher`]: crate::matcher::HashTableMatcher
//! [`HashChainMatcher`]: crate::matcher::HashChainMatcher

use crate::matcher::{run_hash_chain, run_hash_table, ChainConfig, MatcherConfig, ParseCursor, TableInput};
use crate::{Parse, Seq};
use cdpu_util::stream::{
    BlockFrameReader, BlockFrameSpec, HistBuf, OutBuf, StreamDecoder, StreamEncoder, StreamError,
    StreamProgress, HIGH_WATER,
};
use cdpu_util::varint::{self, VarintError};

/// One parse decision, streamed to the consumer as soon as it is final.
///
/// Literal runs arrive split across arbitrarily many `Literals` events
/// (consumers accumulate them); a `Match` is always whole. Concatenating
/// literal bytes and match regions in event order reproduces the input.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseEvent<'a> {
    /// Confirmed literal bytes (possibly a partial run).
    Literals(&'a [u8]),
    /// A back-reference; `offset` is at most the configured window.
    Match {
        /// Distance back into the already-emitted stream.
        offset: u32,
        /// Match length (≥ the configured minimum match).
        len: u32,
    },
}

/// The matcher whose one-shot loop runs here, stopped at the fed horizon.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Table(MatcherConfig),
    Chain(ChainConfig),
}

/// Incremental LZ77 parser; see the module docs for the contract.
#[derive(Debug)]
pub struct StreamParser {
    kind: Kind,
    window: usize,
    /// Matches farther back than this are emitted as literals — the
    /// streaming form of [`Parse::fold_matches_beyond`], applied at the
    /// moment the match is found so the table updates stay identical.
    ///
    /// [`Parse::fold_matches_beyond`]: crate::Parse::fold_matches_beyond
    max_offset: Option<u32>,
    table: Vec<u32>,
    /// Sliding input retention: `buf[i]` is absolute byte `base + i`.
    buf: Vec<u8>,
    base: usize,
    total: usize,
    fed: usize,
    /// The probe cursor and the covered-position insertions still awaiting
    /// their hash bytes (at most 3, always a suffix of the covered range,
    /// so insertion order is preserved).
    cur: ParseCursor,
    /// Everything before this absolute position has been emitted.
    emitted: usize,
}

impl StreamParser {
    /// A streaming parser equivalent to
    /// [`HashTableMatcher::parse`](crate::matcher::HashTableMatcher::parse)
    /// over `total` bytes. With `max_offset`, the event stream instead
    /// matches that parse followed by
    /// [`fold_matches_beyond`](crate::Parse::fold_matches_beyond).
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid config or `total` ≥ `u32::MAX`.
    pub fn table(cfg: MatcherConfig, total: usize, max_offset: Option<u32>) -> Self {
        cfg.validate();
        assert!((total as u64) < u32::MAX as u64, "streaming parse positions are u32");
        let table = vec![0u32; cfg.sets() * cfg.ways as usize];
        Self::with_kind(Kind::Table(cfg), table, cfg.window_size(), total, max_offset)
    }

    /// A streaming parser equivalent to
    /// [`HashChainMatcher::parse`](crate::matcher::HashChainMatcher::parse)
    /// over `total` bytes (same `max_offset` semantics as
    /// [`StreamParser::table`]).
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid config or `total` ≥ `u32::MAX`.
    pub fn chain(cfg: ChainConfig, total: usize, max_offset: Option<u32>) -> Self {
        cfg.validate();
        assert!((total as u64) < u32::MAX as u64, "streaming parse positions are u32");
        let table = vec![0u32; cfg.table_len(total)];
        Self::with_kind(Kind::Chain(cfg), table, 1 << cfg.window_log, total, max_offset)
    }

    fn with_kind(kind: Kind, table: Vec<u32>, window: usize, total: usize, max_offset: Option<u32>) -> Self {
        StreamParser {
            kind,
            window,
            max_offset,
            table,
            buf: Vec::new(),
            base: 0,
            total,
            fed: 0,
            cur: ParseCursor::new(),
            emitted: 0,
        }
    }

    /// Total input length declared at construction.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Bytes fed so far.
    pub fn fed(&self) -> usize {
        self.fed
    }

    /// Current memory footprint: hash tables plus the retained window.
    pub fn scratch_bytes(&self) -> usize {
        self.table.capacity() * 4 + self.buf.capacity()
    }

    /// Feeds the next chunk, emitting every decision that becomes final.
    ///
    /// # Panics
    ///
    /// Panics if the fed bytes would exceed the declared total.
    pub fn feed(&mut self, chunk: &[u8], sink: &mut dyn FnMut(ParseEvent<'_>)) {
        assert!(self.fed + chunk.len() <= self.total, "fed past the declared total");
        self.buf.extend_from_slice(chunk);
        self.fed += chunk.len();
        self.run(sink);
        // Every byte the cursor has passed is a confirmed literal.
        let lit_end = self.cur.pos.min(self.fed);
        if self.emitted < lit_end {
            sink(ParseEvent::Literals(&self.buf[self.emitted - self.base..lit_end - self.base]));
            self.emitted = lit_end;
        }
        self.compact();
    }

    /// Completes the parse after all `total` bytes were fed, emitting the
    /// remaining matches and the tail literals.
    ///
    /// # Panics
    ///
    /// Panics if input is still outstanding.
    pub fn finish(&mut self, sink: &mut dyn FnMut(ParseEvent<'_>)) {
        assert_eq!(self.fed, self.total, "finish before all input was fed");
        self.run(sink);
        debug_assert!(self.cur.cover.is_empty());
        if self.emitted < self.total {
            sink(ParseEvent::Literals(&self.buf[self.emitted - self.base..self.total - self.base]));
            self.emitted = self.total;
        }
    }

    /// Advances the parse as far as the fed bytes allow.
    fn run(&mut self, sink: &mut dyn FnMut(ParseEvent<'_>)) {
        let StreamParser { kind, table, buf, base, total, cur, emitted, max_offset, .. } = self;
        let buf: &[u8] = buf;
        let input = TableInput { data: buf, base: *base, total: *total };
        let on_match = |at, off, len| emit_match(buf, *base, emitted, *max_offset, (at, off, len), sink);
        // Position `p` is stored as `p + 1` and 0 is empty: the stamp of a
        // table that serves one parse.
        match kind {
            Kind::Table(cfg) => run_hash_table(cfg, table, 1, input, cur, on_match),
            Kind::Chain(cfg) => run_hash_chain(cfg, table, 1, input, cur, on_match),
        }
    }

    /// Drops retained bytes that neither literal emission nor any
    /// in-window candidate can reach again.
    fn compact(&mut self) {
        let keep_from = self.emitted.min(self.cur.pos.saturating_sub(self.window));
        let dead = keep_from.saturating_sub(self.base);
        if dead >= 64 * 1024 && dead * 2 >= self.buf.len() {
            self.buf.drain(..dead);
            self.base = keep_from;
        }
    }
}

/// Emits the match `(at, offset, len)` found at absolute position `at`,
/// the literals before it first, and moves `emitted` past it.
fn emit_match(
    buf: &[u8],
    base: usize,
    emitted: &mut usize,
    max_offset: Option<u32>,
    (at, off, len): (usize, usize, usize),
    sink: &mut dyn FnMut(ParseEvent<'_>),
) {
    if *emitted < at {
        sink(ParseEvent::Literals(&buf[*emitted - base..at - base]));
    }
    let end = at + len;
    if max_offset.is_some_and(|m| off > m as usize) {
        // Out-of-format offset: same table updates, but the region
        // streams out as literals (fold_matches_beyond, applied live).
        sink(ParseEvent::Literals(&buf[at - base..end - base]));
    } else {
        sink(ParseEvent::Match { offset: off as u32, len: len as u32 });
    }
    *emitted = end;
}

/// Largest slice handed to the parser per push (bounds per-call latency).
const FEED_PIECE: usize = 64 * 1024;

/// The codec half of a parser-fed stream encoder: turns the parser's
/// events into output, under [`StreamDriver`].
pub trait EventCoder {
    /// Takes one parse event, appending whatever output it completes to
    /// `out`.
    fn event(&mut self, ev: ParseEvent<'_>, out: &mut Vec<u8>);

    /// Ends a push after the parser took `piece`, or, with `last`, ends
    /// the input after the parser finished (`piece` is then empty):
    /// writes what the piece completed, and at the end everything left.
    fn end_piece(&mut self, piece: &[u8], last: bool, out: &mut Vec<u8>);

    /// Bytes the coder holds.
    fn scratch_bytes(&self) -> usize;
}

/// The one [`StreamEncoder`] contract under every parser-fed encoder: a
/// [`StreamParser`] feeding an [`EventCoder`]. See the module docs.
#[derive(Debug)]
pub struct StreamDriver<C> {
    parser: StreamParser,
    coder: C,
    out: OutBuf,
    finished: bool,
}

impl<C: EventCoder> StreamDriver<C> {
    /// A driver of `parser` into the coder `start` returns, after `start`
    /// wrote the stream's header into the output.
    pub fn new(parser: StreamParser, start: impl FnOnce(&mut Vec<u8>) -> C) -> Self {
        let mut out = OutBuf::new();
        let coder = start(out.sink());
        StreamDriver { parser, coder, out, finished: false }
    }

    /// Feeds `piece` (or, with `last`, finishes the parse) and codes what
    /// it completes.
    fn pump(&mut self, piece: &[u8], last: bool) {
        let Self { parser, coder, out, .. } = self;
        let out = out.sink();
        let mut sink = |ev: ParseEvent<'_>| coder.event(ev, out);
        if last {
            parser.finish(&mut sink);
        } else {
            parser.feed(piece, &mut sink);
        }
        coder.end_piece(piece, last, out);
    }
}

impl<C: EventCoder> StreamEncoder for StreamDriver<C> {
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
        self.parser.scratch_bytes() + self.coder.scratch_bytes() + self.out.capacity()
    }
}

/// An element format's writer of one element: a literal run and the
/// match that ends it, or `None` for the run that ends the input.
pub type EmitElement = fn(&mut Vec<u8>, &[u8], Option<(u32, u32)>);

/// The [`EventCoder`] of a byte-aligned element format: buffers each
/// literal run and hands it to the format's [`EmitElement`] with the match
/// that ends it, and a non-empty last run with `None`.
#[derive(Debug)]
pub struct Elements {
    lits: Vec<u8>,
    emit: EmitElement,
}

impl Elements {
    /// A coder that writes elements with `emit`.
    pub fn new(emit: EmitElement) -> Self {
        Elements { lits: Vec::new(), emit }
    }

    /// Writes `data`, whose parse is `parse`, as the elements a coder of
    /// `emit` streams out for it: the one-shot encoders' element writer.
    pub fn write_parse(
        data: &[u8],
        parse: &Parse,
        out: &mut Vec<u8>,
        emit: impl Fn(&mut Vec<u8>, &[u8], Option<(u32, u32)>),
    ) {
        let mut pos = 0;
        for s in &parse.seqs {
            emit(out, &data[pos..pos + s.lit_len as usize], Some((s.offset, s.match_len)));
            pos += (s.lit_len + s.match_len) as usize;
        }
        if pos < data.len() {
            emit(out, &data[pos..], None);
        }
    }
}

impl EventCoder for Elements {
    fn event(&mut self, ev: ParseEvent<'_>, out: &mut Vec<u8>) {
        match ev {
            ParseEvent::Literals(b) => self.lits.extend_from_slice(b),
            ParseEvent::Match { offset, len } => {
                (self.emit)(out, &self.lits, Some((offset, len)));
                self.lits.clear();
            }
        }
    }

    fn end_piece(&mut self, _piece: &[u8], last: bool, out: &mut Vec<u8>) {
        if last && !self.lits.is_empty() {
            (self.emit)(out, &self.lits, None);
            self.lits.clear();
        }
    }

    fn scratch_bytes(&self) -> usize {
        self.lits.capacity()
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The history every element format's decoder retains: the 64 KiB window
/// its encoders emit offsets within.
const ELEMENT_WINDOW: usize = 64 * 1024;

/// Where an element loop ([`ElementFormat::decode`]) stopped. Every
/// element before `pos` is applied; the input ran out at `pos`, inside the
/// element starting there, or the output reached the caller's high-water
/// mark.
#[derive(Debug)]
pub struct Stop {
    /// Input bytes consumed.
    pub pos: usize,
    /// Payload bytes a literal run still owes when the input ended inside
    /// it; the ones present are applied and `pos` is the input's length.
    pub lit_left: u64,
    /// LZ4: the match-length nibble of a sequence whose literals are
    /// applied and whose match is not. Read back as a token, it is that
    /// sequence's rest: no literals, then the match.
    pub resume: Option<u8>,
}

/// A byte-aligned element format (Snappy, LZO, LZ4) as [`ElementStream`]
/// drives it: its length preamble, and the element loop and end-of-input
/// rule its one-shot decoder runs.
pub trait ElementFormat {
    /// The codec's decode error.
    type Error: Copy + std::fmt::Display;
    /// The error for a preamble that overflows or never ends.
    const BAD_PREAMBLE: Self::Error;

    /// Reads the declared output length at the front of `bytes`; a `u64`
    /// varint unless the format says otherwise.
    ///
    /// # Errors
    ///
    /// [`VarintError::Truncated`] while `bytes` ends inside it.
    fn preamble(bytes: &[u8]) -> Result<u64, VarintError> {
        varint::read_u64(bytes).map(|(v, _)| v)
    }

    /// Applies `input`'s elements to `out` until the input ends inside
    /// one, or `out` holds `high_water` bytes. `out` holds the output from
    /// byte `base` on, and the stream declared `expected` bytes in all.
    ///
    /// # Errors
    ///
    /// The format's error at the first element that is invalid whatever
    /// follows it.
    fn decode(
        input: &[u8],
        out: &mut Vec<u8>,
        base: u64,
        expected: u64,
        high_water: usize,
    ) -> Result<Stop, Self::Error>;

    /// What a stream whose elements (`len` bytes of them) ended where
    /// [`decode`](Self::decode) stopped reports, having produced
    /// `produced` bytes.
    ///
    /// # Errors
    ///
    /// The format's error for a cut-off element or a length mismatch.
    fn end_of_input(
        stop: &Stop,
        len: usize,
        produced: u64,
        expected: u64,
    ) -> Result<(), Self::Error>;

    /// The error for `actual` output bytes against `expected`.
    fn length_mismatch(expected: u64, actual: u64) -> Self::Error;
}

/// The streaming decoder of every element format: its one-shot element
/// loop over a sliding [`HistBuf`] window. See the module docs.
pub struct ElementStream<F: ElementFormat> {
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

impl<F: ElementFormat> Default for ElementStream<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: ElementFormat> ElementStream<F> {
    /// Creates a decoder positioned at the length preamble.
    pub fn new() -> Self {
        ElementStream {
            expected: None,
            carry: Vec::new(),
            lit_left: 0,
            hist: HistBuf::new(ELEMENT_WINDOW),
            err: None,
            finished: false,
        }
    }

    /// Output bytes before the retained window.
    fn base(&self) -> u64 {
        self.hist.produced() - self.hist.retained() as u64
    }

    /// Feeds compressed bytes; the trait `push` with the codec's error
    /// type. Errors are sticky.
    ///
    /// # Errors
    ///
    /// The error the one-shot decoder reports at the equivalent point in
    /// the element stream.
    pub fn push_bytes(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, F::Error> {
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
                match F::preamble(&self.carry) {
                    Ok(v) => {
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

    /// Declares end-of-input; the trait `finish` with the codec's error
    /// type.
    ///
    /// # Errors
    ///
    /// The error the one-shot decoder reports for the equivalent
    /// truncated stream.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), F::Error> {
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
        F::end_of_input(&stop, self.carry.len(), self.hist.produced(), expected)
    }
}

impl<F: ElementFormat> StreamDecoder for ElementStream<F> {
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

/// A block-frame format (ZStd-class, Flate-class) as [`BlockStream`]
/// drives it: its frame constants and the per-block decode its one-shot
/// decoder runs.
pub trait BlockFormat {
    /// The codec's decode error.
    type Error: Copy + std::fmt::Display + 'static;
    /// The frame the one-shot decoder reads.
    const FRAME: &'static BlockFrameSpec<Self::Error>;

    /// Decodes one coded block's `payload` of `len` output bytes into
    /// `hist`, copies reaching at most `window` back, with `lits` and
    /// `seqs` as staging.
    ///
    /// # Errors
    ///
    /// The format's error for a malformed block.
    fn decode_block(
        payload: &[u8],
        hist: &mut HistBuf,
        window: u32,
        len: usize,
        lits: &mut Vec<u8>,
        seqs: &mut Vec<Seq>,
    ) -> Result<(), Self::Error>;
}

/// The streaming decoder of every block-frame format: the
/// [`BlockFrameReader`] its one-shot decoder runs, fed one push at a time,
/// with the per-block staging. See the module docs.
pub struct BlockStream<F: BlockFormat> {
    frame: BlockFrameReader<F::Error>,
    lits: Vec<u8>,
    seqs: Vec<Seq>,
}

impl<F: BlockFormat> Default for BlockStream<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: BlockFormat> BlockStream<F> {
    /// Creates a decoder positioned at the frame magic.
    pub fn new() -> Self {
        BlockStream { frame: BlockFrameReader::new(F::FRAME), lits: Vec::new(), seqs: Vec::new() }
    }

    /// The trait `push` with the codec's error type.
    ///
    /// # Errors
    ///
    /// The error the one-shot decoder reports at the same point in the
    /// frame; errors are sticky.
    pub fn push_bytes(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, F::Error> {
        let Self { frame, lits, seqs } = self;
        frame.push(input, out, |payload, hist, window, len| {
            F::decode_block(payload, hist, window, len, lits, seqs)
        })
    }

    /// The trait `finish` with the codec's error type.
    ///
    /// # Errors
    ///
    /// The error the one-shot decoder reports for the same frame.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), F::Error> {
        self.frame.finish(out)
    }
}

impl<F: BlockFormat> StreamDecoder for BlockStream<F> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockCoder, BlockFrameWriter, SplitRule, Written};
    use crate::window::{apply_copy, extend_literals};
    use cdpu_util::rng::Xoshiro256;

    static SPEC: BlockFrameSpec<()> = BlockFrameSpec {
        magic: *b"TEST",
        window_logs: 10..=16,
        block_cap: 128 * 1024,
        raw: 0,
        rle: None,
        coded: 1,
        bad_magic: (),
        bad_header: (),
        truncated: (),
        bad_block: |_| (),
        length_mismatch: |_, _| (),
    };

    /// Writes every block raw.
    struct Raw;
    impl BlockCoder for Raw {
        type Stats = ();
        fn code(&mut self, _: &[u8], _: &Parse, _: &mut Vec<u8>) -> Option<()> {
            None
        }
    }

    #[test]
    fn scratch_counts_the_open_block() {
        // "abcd" then one pseudo-random byte, over and over: a match every
        // few bytes, all in one open 128 KiB block.
        let (mut data, mut x) = (Vec::new(), 0x2545_F491u32);
        while data.len() < 120_000 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            data.extend_from_slice(b"abcd");
            data.push((x >> 16) as u8);
        }
        let total = data.len() + 1;
        let rule = SplitRule {
            block: 128 * 1024,
            max_match: None,
            short_as_literals: false,
            back_off_whole: false,
        };
        let parser = StreamParser::table(MatcherConfig::snappy_sw(), total, None);
        let mut enc =
            StreamDriver::new(parser, |out| BlockFrameWriter::new(&SPEC, rule, 16, total, Raw, out));
        let mut fed = 0;
        while fed < data.len() {
            fed += enc.push(&data[fed..], &mut []).unwrap().consumed;
        }
        let open = &enc.coder.split.cur.seqs;
        assert!(open.len() > 10_000, "{} sequences in the open block", open.len());
        let open_bytes = open.capacity() * std::mem::size_of::<Seq>();
        let rest = enc.parser.scratch_bytes() + enc.out.capacity();
        assert!(enc.scratch_bytes() >= rest + open_bytes);
    }

    // -- The two decoder cores, each over a toy format --------------------

    /// A toy element format: a `u64` varint preamble, then elements: a tag
    /// `t < 0x80` and `t + 1` literal bytes, or a tag `t >= 0x80` and an
    /// offset byte, copying `(t & 0x7F) + 1` bytes from that far back.
    struct Toy;

    impl ElementFormat for Toy {
        type Error = &'static str;
        const BAD_PREAMBLE: &'static str = "bad preamble";

        fn decode(
            input: &[u8],
            out: &mut Vec<u8>,
            base: u64,
            expected: u64,
            high_water: usize,
        ) -> Result<Stop, &'static str> {
            let mut pos = 0;
            while pos < input.len() && out.len() < high_water {
                let tag = input[pos];
                if tag < 0x80 {
                    let (len, avail) = (tag as usize + 1, input.len() - pos - 1);
                    if len > avail {
                        out.extend_from_slice(&input[pos + 1..]);
                        let lit_left = (len - avail) as u64;
                        return Ok(Stop { pos: input.len(), lit_left, resume: None });
                    }
                    extend_literals(out, &input[pos + 1..], len);
                    pos += 1 + len;
                } else {
                    let Some(&offset) = input.get(pos + 1) else { break };
                    let len = (tag & 0x7F) as u32 + 1;
                    apply_copy(out, offset as u32, len).map_err(|_| "bad offset")?;
                    pos += 2;
                }
                if base + out.len() as u64 > expected {
                    return Err("length mismatch");
                }
            }
            Ok(Stop { pos, lit_left: 0, resume: None })
        }

        fn end_of_input(
            stop: &Stop,
            len: usize,
            produced: u64,
            expected: u64,
        ) -> Result<(), &'static str> {
            if stop.lit_left > 0 {
                Err("cut literal")
            } else if stop.pos < len {
                Err("truncated")
            } else if produced != expected {
                Err("length mismatch")
            } else {
                Ok(())
            }
        }

        fn length_mismatch(_: u64, _: u64) -> &'static str {
            "length mismatch"
        }
    }

    /// The toy format's one-shot decoder.
    fn toy_one_shot(stream: &[u8]) -> Result<Vec<u8>, &'static str> {
        let (expected, n) = varint::read_u64(stream).map_err(|_| Toy::BAD_PREAMBLE)?;
        let mut out = Vec::new();
        let stop = Toy::decode(&stream[n..], &mut out, 0, expected, usize::MAX)?;
        Toy::end_of_input(&stop, stream.len() - n, out.len() as u64, expected)?;
        Ok(out)
    }

    /// A valid toy stream of at least `min` output bytes, literal runs of
    /// pseudo-random bytes and copies up to 255 back, and its output.
    fn toy_stream(min: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let (mut body, mut out) = (Vec::new(), Vec::new());
        while out.len() < min {
            let r = rng.next_u64();
            let len = (r >> 8) as usize % 128 + 1;
            if out.is_empty() || r & 1 == 0 {
                body.push(len as u8 - 1);
                for _ in 0..len {
                    let b = rng.next_u32() as u8;
                    body.push(b);
                    out.push(b);
                }
            } else {
                let offset = (r >> 16) as usize % out.len().min(255) + 1;
                body.extend([0x80 | (len as u8 - 1), offset as u8]);
                for _ in 0..len {
                    out.push(out[out.len() - offset]);
                }
            }
        }
        let mut stream = Vec::new();
        varint::write_u64(&mut stream, out.len() as u64);
        stream.extend_from_slice(&body);
        assert_eq!(toy_one_shot(&stream).as_ref(), Ok(&out), "toy stream");
        (stream, out)
    }

    /// Feeds `stream` to `dec` in `chunk`-byte pushes through a
    /// `window`-byte output window, then finishes. Returns the output and
    /// the peak `scratch_bytes`.
    fn drive(
        dec: &mut dyn StreamDecoder,
        stream: &[u8],
        chunk: usize,
        window: usize,
    ) -> Result<(Vec<u8>, usize), StreamError> {
        let (mut out, mut w, mut peak) = (Vec::new(), vec![0u8; window], 0);
        for mut piece in stream.chunks(chunk) {
            while !piece.is_empty() {
                let p = dec.push(piece, &mut w)?;
                peak = peak.max(dec.scratch_bytes());
                out.extend_from_slice(&w[..p.written]);
                piece = &piece[p.consumed..];
            }
        }
        loop {
            let (n, done) = dec.finish(&mut w)?;
            out.extend_from_slice(&w[..n]);
            if done {
                return Ok((out, peak));
            }
        }
    }

    /// The verdict a stream decoder reports for a codec error `e`.
    fn corrupt(e: &str) -> StreamError {
        StreamError::Corrupt(e.to_string())
    }

    #[test]
    fn element_stream_matches_the_one_shot_at_any_push_size() {
        // Past the high-water mark and many windows long.
        let (stream, data) = toy_stream(700 << 10, 1);
        for (chunk, window) in [(1, 64 << 10), (2, 64 << 10), (129, 1), (4096, 64 << 10)] {
            let mut dec = ElementStream::<Toy>::new();
            let (out, _) = drive(&mut dec, &stream, chunk, window).unwrap();
            assert!(out == data, "{chunk}-byte pushes, {window}-byte window");
        }
        let mut dec = ElementStream::<Toy>::default();
        assert!(drive(&mut dec, &stream, stream.len(), 64 << 10).unwrap().0 == data, "one push");
    }

    #[test]
    fn element_stream_carries_a_cut_element_across_pushes() {
        // Preamble 7, the literals "abcd", then a copy of 3 from 4 back.
        let stream = [7, 3, b'a', b'b', b'c', b'd', 0x82, 4];
        let mut dec = ElementStream::<Toy>::new();
        let mut w = [0u8; 16];
        let p = dec.push_bytes(&stream[..7], &mut w).unwrap();
        assert_eq!((p.consumed, &w[..p.written]), (7, &b"abcd"[..]), "the copy's tag alone");
        let p = dec.push_bytes(&stream[7..], &mut w).unwrap();
        assert_eq!((p.consumed, &w[..p.written]), (1, &b"abc"[..]), "its offset completes it");
        assert_eq!(dec.finish_bytes(&mut w), Ok((0, true)));
    }

    #[test]
    fn element_stream_writes_a_cut_literal_run_as_it_arrives() {
        let (stream, data) = toy_stream(1, 2);
        let mut dec = ElementStream::<Toy>::new();
        let mut w = [0u8; 256];
        // The preamble and the run's tag.
        let head = varint::read_u64(&stream).unwrap().1 + 1;
        assert_eq!(dec.push_bytes(&stream[..head], &mut w).unwrap().written, 0);
        let mut out = Vec::new();
        for piece in stream[head..].chunks(5) {
            let p = dec.push_bytes(piece, &mut w).unwrap();
            assert_eq!((p.consumed, p.written), (piece.len(), piece.len()));
            out.extend_from_slice(&w[..p.written]);
        }
        assert_eq!(out, data);
        assert_eq!(dec.finish_bytes(&mut w), Ok((0, true)));
    }

    #[test]
    fn element_stream_stops_consuming_at_the_high_water_mark() {
        let (stream, data) = toy_stream(700 << 10, 3);
        let mut dec = ElementStream::<Toy>::new();
        let p = dec.push_bytes(&stream, &mut []).unwrap();
        assert!(p.consumed < stream.len() / 2 && p.written == 0, "consumed {}", p.consumed);
        let mut w = [0u8; 1];
        let again = dec.push_bytes(&stream[p.consumed..], &mut w).unwrap();
        assert_eq!((again.consumed, again.written), (0, 1), "output waits: drain only");
        let mut out = w.to_vec();
        let (rest, _) = drive(&mut dec, &stream[p.consumed..], 4096, 64 << 10).unwrap();
        out.extend_from_slice(&rest);
        assert!(out == data);
    }

    #[test]
    fn element_stream_reports_the_one_shot_verdict_at_every_cut() {
        let (stream, _) = toy_stream(2 << 10, 4);
        let mut verdicts = std::collections::BTreeSet::new();
        for cut in 0..=stream.len() {
            let input = &stream[..cut];
            let one_shot = toy_one_shot(input);
            verdicts.insert(one_shot.as_ref().err().copied().unwrap_or("ok"));
            let want = one_shot.map_err(corrupt);
            for chunk in [1, input.len().max(1)] {
                let mut dec = ElementStream::<Toy>::new();
                let got = drive(&mut dec, input, chunk, 64 << 10).map(|(out, _)| out);
                assert_eq!(got, want, "cut at {cut}, {chunk}-byte pushes");
            }
        }
        let every = ["bad preamble", "cut literal", "length mismatch", "ok", "truncated"];
        assert!(verdicts.into_iter().eq(every), "every verdict is reached");
    }

    #[test]
    fn element_stream_rejects_a_preamble_that_overflows() {
        let mut dec = ElementStream::<Toy>::new();
        let mut w = [0u8; 8];
        assert_eq!(dec.push_bytes(&[0xFF; 9], &mut w).unwrap().consumed, 9, "still a prefix");
        assert_eq!(dec.push_bytes(&[0xFF], &mut w).err(), Some("bad preamble"));
        assert_eq!(dec.finish_bytes(&mut w), Err("bad preamble"));
        let mut dec = ElementStream::<Toy>::new();
        assert_eq!(dec.finish_bytes(&mut w), Err("bad preamble"), "no preamble at all");
    }

    #[test]
    fn element_stream_errors_are_sticky() {
        // Literals "ab", then a copy from 3 back: before the output start.
        let stream = [8, 1, b'a', b'b', 0x81, 3, 1, b'c', b'd'];
        let mut dec = ElementStream::<Toy>::new();
        let mut w = [0u8; 16];
        assert_eq!(dec.push(&stream[..6], &mut w), Err(corrupt("bad offset")));
        assert_eq!(dec.push(&stream[6..], &mut w), Err(corrupt("bad offset")));
        assert_eq!(dec.finish(&mut w), Err(corrupt("bad offset")));
        assert_eq!(dec.finish(&mut w), Err(corrupt("bad offset")));
    }

    #[test]
    fn element_stream_rejects_output_past_the_declared_length() {
        // Preamble 5, a literal run of 10, then a copy from offset 0: the
        // run is the error, wherever the pushes cut it.
        let mut stream = vec![5, 9];
        stream.extend_from_slice(b"0123456789\x80\x00");
        assert_eq!(toy_one_shot(&stream), Err("length mismatch"));
        for chunk in [1, 3, stream.len()] {
            let mut dec = ElementStream::<Toy>::new();
            let got = drive(&mut dec, &stream, chunk, 64).map(|(out, _)| out);
            assert_eq!(got, Err(corrupt("length mismatch")), "{chunk}-byte pushes");
        }
    }

    #[test]
    fn element_stream_finish_drains_then_stays_done() {
        let (stream, data) = toy_stream(4 << 10, 5);
        let mut dec = ElementStream::<Toy>::new();
        let p = dec.push_bytes(&stream, &mut []).unwrap();
        assert_eq!((p.consumed, p.written), (stream.len(), 0));
        let (mut out, mut w) = (Vec::new(), [0u8; 1000]);
        loop {
            let (n, done) = dec.finish_bytes(&mut w).unwrap();
            out.extend_from_slice(&w[..n]);
            if done {
                break;
            }
            assert_eq!(n, w.len(), "a window is filled until the last");
        }
        assert_eq!(out, data);
        assert_eq!(dec.finish_bytes(&mut w), Ok((0, true)));
    }

    #[test]
    fn element_stream_scratch_does_not_grow_with_the_stream() {
        // The window and the undrained output, each at most doubled by
        // the buffer's growth: a bound the 2 MiB stream is far above.
        let bound = 2 * (ELEMENT_WINDOW + HIGH_WATER);
        let (stream, data) = toy_stream(2 << 20, 6);
        let mut dec = ElementStream::<Toy>::new();
        let (out, peak) = drive(&mut dec, &stream, 64 << 10, 64 << 10).unwrap();
        assert!(out == data);
        assert!(peak <= bound, "peak scratch {peak} over {bound}");
    }

    /// The toy block frame: raw, RLE and coded blocks.
    static TOY_FRAME: BlockFrameSpec<&str> = BlockFrameSpec {
        magic: *b"TOYB",
        window_logs: 10..=16,
        block_cap: 4096,
        raw: 0,
        rle: Some(1),
        coded: 2,
        bad_magic: "bad magic",
        bad_header: "bad header",
        truncated: "truncated",
        bad_block: |m| m,
        length_mismatch: |_, _| "length mismatch",
    };

    /// Codes a block as `(count, byte)` runs of at most 255.
    struct Runs;

    impl BlockCoder for Runs {
        type Stats = ();
        fn code(&mut self, data: &[u8], _: &Parse, payload: &mut Vec<u8>) -> Option<()> {
            for run in data.chunk_by(|a, b| a == b) {
                for piece in run.chunks(255) {
                    payload.extend([piece.len() as u8, piece[0]]);
                }
            }
            Some(())
        }
    }

    impl BlockFormat for Runs {
        type Error = &'static str;
        const FRAME: &'static BlockFrameSpec<&'static str> = &TOY_FRAME;

        fn decode_block(
            payload: &[u8],
            hist: &mut HistBuf,
            _: u32,
            len: usize,
            _: &mut Vec<u8>,
            _: &mut Vec<Seq>,
        ) -> Result<(), &'static str> {
            let start = hist.retained();
            let out = hist.sink();
            if !payload.len().is_multiple_of(2) {
                return Err("odd payload");
            }
            for pair in payload.chunks(2) {
                out.resize(out.len() + pair[0] as usize, pair[1]);
            }
            if out.len() - start != len {
                return Err("wrong block length");
            }
            Ok(())
        }
    }

    /// A frame of `data` in 4 KiB blocks, and `data`: blocks of one byte,
    /// of pseudo-random bytes and of 40-byte runs, the first three in that
    /// order, so every block type shows.
    fn toy_frame(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut data = Vec::new();
        for i in 0..len.div_ceil(4096) {
            let (r, n) = (rng.next_u64(), (len - data.len()).min(4096));
            match if i < 3 { i as u64 } else { r % 3 } {
                0 => data.resize(data.len() + n, r as u8),
                1 => data.extend((0..n).map(|_| rng.next_u32() as u8)),
                _ => data.extend((0..n).map(|i| (r >> (i / 40 % 8 * 8)) as u8)),
            }
        }
        let rule =
            SplitRule { block: 4096, max_match: None, short_as_literals: false, back_off_whole: false };
        let parse = Parse { seqs: Vec::new(), last_literals: len as u32 };
        let (mut frame, mut kinds) = (Vec::new(), [0; 3]);
        let writer = BlockFrameWriter::new(&TOY_FRAME, rule, 16, len, Runs, &mut frame);
        writer.write_parse(&data, &parse, &mut frame, |w| match w {
            Written::Raw => kinds[0] += 1,
            Written::Rle => kinds[1] += 1,
            Written::Coded(()) => kinds[2] += 1,
        });
        assert!(kinds.iter().all(|&n| n > 0), "raw, RLE and coded blocks: {kinds:?}");
        (frame, data)
    }

    /// The toy block format's one-shot decoder.
    fn block_one_shot(frame: &[u8]) -> Result<Vec<u8>, &'static str> {
        let (mut out, mut lits, mut seqs) = (Vec::new(), Vec::new(), Vec::new());
        BlockFrameReader::new(&TOY_FRAME).decode_whole(frame, &mut out, |p, hist, window, len| {
            Runs::decode_block(p, hist, window, len, &mut lits, &mut seqs)
        })?;
        Ok(out)
    }

    #[test]
    fn block_stream_matches_the_one_shot_at_any_push_size() {
        let (frame, data) = toy_frame(600 << 10, 7);
        assert!(block_one_shot(&frame).as_ref() == Ok(&data), "one-shot");
        for (chunk, window) in [(1, 64 << 10), (7, 1), (4096, 64 << 10), (frame.len(), 64 << 10)] {
            let mut dec = BlockStream::<Runs>::new();
            let (out, _) = drive(&mut dec, &frame, chunk, window).unwrap();
            assert!(out == data, "{chunk}-byte pushes, {window}-byte window");
        }
    }

    #[test]
    fn block_stream_reports_the_one_shot_verdict_at_every_cut() {
        let (frame, _) = toy_frame(20 << 10, 8);
        for cut in 0..=frame.len() {
            let input = &frame[..cut];
            let want = block_one_shot(input).map_err(corrupt);
            for chunk in [1, input.len().max(1)] {
                let mut dec = BlockStream::<Runs>::default();
                let got = drive(&mut dec, input, chunk, 64 << 10).map(|(out, _)| out);
                assert_eq!(got, want, "cut at {cut}, {chunk}-byte pushes");
            }
        }
    }

    #[test]
    fn block_stream_errors_are_sticky() {
        let (mut frame, _) = toy_frame(20 << 10, 9);
        // The first block's flags, after the magic, the window log and the
        // content size: a type the frame does not know.
        let flags = 5 + varint::write_u64(&mut Vec::new(), 20 << 10);
        frame[flags] |= 0b110;
        let want = block_one_shot(&frame).map_err(corrupt);
        assert!(want.is_err());
        let mut dec = BlockStream::<Runs>::new();
        let mut w = [0u8; 64];
        assert_eq!(dec.push(&frame[..100], &mut w).map(|_| ()), want.clone().map(|_| ()));
        assert_eq!(dec.push(&frame[100..], &mut w).map(|_| ()), want.clone().map(|_| ()));
        assert_eq!(dec.finish(&mut w).map(|_| ()), want.map(|_| ()));
    }
}
