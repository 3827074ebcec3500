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
//! [`HashTableMatcher`]: crate::matcher::HashTableMatcher
//! [`HashChainMatcher`]: crate::matcher::HashChainMatcher

use crate::matcher::{run_hash_chain, run_hash_table, ChainConfig, MatcherConfig, ParseCursor, TableInput};
use crate::Parse;
use cdpu_util::stream::{OutBuf, StreamEncoder, StreamError, StreamProgress, HIGH_WATER};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockCoder, BlockFrameWriter, SplitRule};
    use crate::Seq;
    use cdpu_util::stream::BlockFrameSpec;

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
}
