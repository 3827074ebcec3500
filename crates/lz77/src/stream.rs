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
//! The table matcher is not reproduced but run: `matcher::run_hash_table`
//! is the one loop under both the one-shot and this parser, which calls it
//! on the bytes fed so far. The chain matcher is stepped here. Either way,
//! the one-shot matchers take two kinds of decisions that peek past the
//! current position: match extension (a candidate's length is measured up
//! to the end of the *whole* input) and the one-step lazy probe. The
//! streaming parser takes the same decisions with the same table state,
//! and **suspends** — returning without mutating any table — whenever a
//! decision could still be changed by bytes it has not seen:
//!
//! - a probed candidate whose raw match length reaches the end of the
//!   bytes fed so far could keep growing, so the whole probe is retried
//!   once more input arrives (table untouched, so the retry is exact);
//! - the chain matcher's lazy probe at `pos + 1` runs after `pos` was
//!   inserted; if that probe must suspend, the insertion is undone so
//!   resumption replays the step verbatim;
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
//! [`HashTableMatcher`]: crate::matcher::HashTableMatcher
//! [`HashChainMatcher`]: crate::matcher::HashChainMatcher

use crate::hash::{hash_at, HashFn};
use crate::matcher::{
    common_prefix, run_hash_table, ChainConfig, MatcherConfig, ParseCursor, TableInput,
};
use crate::MIN_MATCH;

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

/// Matcher-specific state. The table matcher is the one-shot's own loop
/// (`matcher::run_hash_table`) stopped at the fed horizon, so its config is
/// all it needs; the chain matcher steps here, on the flattened knobs of
/// its one-shot config.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Table(MatcherConfig),
    Chain { hash_log: u32, max_chain: u32, lazy: bool, heads: usize },
}

/// What one parse step did.
enum Step {
    /// Need more input before this position can be decided.
    Suspend,
    /// No match here; the cursor advanced.
    Miss,
    /// A match was found starting at `at`.
    Found { at: usize, off: usize, len: usize },
}

/// Incremental LZ77 parser; see the module docs for the contract.
#[derive(Debug)]
pub struct StreamParser {
    kind: Kind,
    window: usize,
    min_match: usize,
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
        Self::with_kind(
            Kind::Table(cfg),
            vec![0u32; cfg.sets() * cfg.ways as usize],
            cfg.window_size(),
            cfg.min_match,
            total,
            max_offset,
        )
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
        assert!(cfg.window_log >= 2 && cfg.window_log <= 30);
        assert!(cfg.hash_log >= 1 && cfg.hash_log <= 24);
        assert!(cfg.max_chain >= 1);
        assert!(cfg.min_match >= MIN_MATCH);
        assert!((total as u64) < u32::MAX as u64, "streaming parse positions are u32");
        let heads = 1usize << cfg.hash_log;
        let window = 1usize << cfg.window_log;
        Self::with_kind(
            Kind::Chain { hash_log: cfg.hash_log, max_chain: cfg.max_chain, lazy: cfg.lazy, heads },
            vec![0u32; heads + window],
            window,
            cfg.min_match,
            total,
            max_offset,
        )
    }

    fn with_kind(
        kind: Kind,
        table: Vec<u32>,
        window: usize,
        min_match: usize,
        total: usize,
        max_offset: Option<u32>,
    ) -> Self {
        StreamParser {
            kind,
            window,
            min_match,
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
        match self.kind {
            Kind::Table(cfg) => {
                let StreamParser { table, buf, base, total, cur, emitted, max_offset, .. } = self;
                let buf: &[u8] = buf;
                let input = TableInput { data: buf, base: *base, total: *total };
                // Position `p` is stored as `p + 1` and 0 is empty: the
                // stamp of a table that serves one parse.
                run_hash_table(&cfg, table, 1, input, cur, |at, off, len| {
                    emit_match(buf, *base, emitted, *max_offset, (at, off, len), sink)
                });
            }
            Kind::Chain { .. } => loop {
                if !self.insert_covered() {
                    return;
                }
                if self.cur.pos + self.min_match > self.fed {
                    return; // out of input; after the last feed, finish() emits the tail
                }
                match self.step_chain(self.fed == self.total) {
                    Step::Suspend => return,
                    Step::Miss => {}
                    Step::Found { at, off, len } => {
                        let StreamParser { buf, base, emitted, max_offset, .. } = self;
                        emit_match(buf, *base, emitted, *max_offset, (at, off, len), sink);
                        let end = at + len;
                        self.cur.cover = at + 1..end.min(self.total + 1 - self.min_match);
                        self.cur.pos = end;
                    }
                }
            },
        }
    }

    /// Chain matcher: indexes the positions the last match covered, as far
    /// as their hash bytes have arrived. Returns false while any remain
    /// (the cursor cannot probe before they are in).
    fn insert_covered(&mut self) -> bool {
        let Kind::Chain { hash_log, heads, .. } = self.kind else { unreachable!() };
        let wmask = self.window - 1;
        let (head, prev) = self.table.split_at_mut(heads);
        for p in self.cur.take_covered(self.fed) {
            let h = hash_at(&self.buf, p - self.base, HashFn::Multiplicative, hash_log) as usize;
            prev[p & wmask] = head[h];
            head[h] = p as u32 + 1;
        }
        self.cur.cover.is_empty()
    }

    /// One probe of the hash-chain matcher (greedy + optional 1-step lazy)
    /// at the cursor.
    fn step_chain(&mut self, is_final: bool) -> Step {
        let Kind::Chain { hash_log, max_chain, lazy, heads } = self.kind else { unreachable!() };
        let pos = self.cur.pos;
        let wmask = self.window - 1;
        let (head, prev) = self.table.split_at_mut(heads);
        let probe = ChainProbe {
            buf: &self.buf,
            base: self.base,
            window: self.window,
            hash_log,
            max_chain,
            min_match: self.min_match,
            avail: self.fed,
            is_final,
        };
        let Some((mut len, mut off)) = probe.best(head, prev, pos) else {
            return Step::Suspend;
        };
        // Insert the cursor position, keeping what an undo needs: the old
        // link is still reachable through `prev` and the old head value.
        let h = hash_at(&self.buf, pos - self.base, HashFn::Multiplicative, hash_log) as usize;
        let saved_prev = prev[pos & wmask];
        prev[pos & wmask] = head[h];
        head[h] = pos as u32 + 1;
        if len == 0 {
            self.cur.pos += 1;
            return Step::Miss;
        }
        let mut at = pos;
        if lazy && pos + 1 + self.min_match <= self.total {
            // The one-shot lazy probe at pos + 1 runs with pos inserted.
            // If it cannot complete yet, undo the insertion and replay
            // the entire step when more input arrives.
            let lazy_probe = if pos + 1 + self.min_match > self.fed {
                None
            } else {
                probe.best(head, prev, pos + 1)
            };
            match lazy_probe {
                None => {
                    head[h] = prev[pos & wmask];
                    prev[pos & wmask] = saved_prev;
                    return Step::Suspend;
                }
                Some((len2, off2)) => {
                    if len2 > len + 1 {
                        let h2 = hash_at(&self.buf, pos + 1 - self.base, HashFn::Multiplicative, hash_log)
                            as usize;
                        prev[(pos + 1) & wmask] = head[h2];
                        head[h2] = (pos + 1) as u32 + 1;
                        at = pos + 1;
                        len = len2;
                        off = off2;
                    }
                }
            }
        }
        Step::Found { at, off, len }
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

/// The chain matcher's bounded candidate walk, streaming-aware: returns
/// `None` (suspend) when any examined candidate's match could still grow.
struct ChainProbe<'a> {
    buf: &'a [u8],
    base: usize,
    window: usize,
    hash_log: u32,
    max_chain: u32,
    min_match: usize,
    avail: usize,
    is_final: bool,
}

impl ChainProbe<'_> {
    fn best(&self, head: &[u32], prev: &[u32], pos: usize) -> Option<(usize, usize)> {
        let rel = pos - self.base;
        let limit = self.avail - pos;
        let h = hash_at(self.buf, rel, HashFn::Multiplicative, self.hash_log) as usize;
        let wmask = self.window - 1;
        let mut cand_plus1 = head[h];
        let mut depth = 0;
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        while cand_plus1 != 0 && depth < self.max_chain {
            let cand = (cand_plus1 - 1) as usize;
            if cand >= pos || pos - cand > self.window {
                break;
            }
            let raw = common_prefix(self.buf, cand - self.base, rel, limit);
            if raw == limit && !self.is_final {
                return None;
            }
            if raw >= self.min_match && raw > best_len {
                best_len = raw;
                best_off = pos - cand;
            }
            cand_plus1 = prev[cand & wmask];
            depth += 1;
        }
        Some((best_len, best_off))
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
