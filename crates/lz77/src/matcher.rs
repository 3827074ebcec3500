//! LZ77 match finders.
//!
//! [`HashTableMatcher`] is the hardware-shaped finder: one set-associative
//! hash-table probe per input position, greedy emission — the structure of
//! the paper's "LZ77 Hash Matcher" block (Figure 10). [`HashChainMatcher`]
//! is the software-shaped finder with a tunable chain depth and optional
//! one-step lazy matching, which the ZStd-class codec maps compression
//! levels onto.

use crate::hash::{hash4, word_at, HashFn};
use crate::{Parse, Seq, MIN_MATCH};
use cdpu_telemetry::counter;
use std::ops::Range;

/// Reusable table storage for the match finders.
///
/// Both matchers need per-parse working tables (hash buckets, chain
/// heads/links), sized by the configuration and — the chain links of an
/// input shorter than the window — by the input. Allocating them per call
/// shows up hard when the experiment engine profiles thousands of small
/// files, so the tables live in one contiguous `u32` buffer that is
/// neither reallocated nor cleared between calls that fit in it: clearing
/// 1 MiB of chain tables costs more than parsing a 4 KiB call. Instead the
/// scratch keeps an epoch `base`. A parse stores position `p` as
/// `base + p + 1` and reads any slot `<= base` as empty; afterwards `base`
/// advances by the input length, so everything the parse wrote — and
/// everything older, under whatever table layout — is `<= base` again and
/// empty to the next call. The buffer has to be cleared only when it grows
/// or when `base` would pass `u32::MAX`. Obtain one with
/// [`MatcherScratch::new`] and pass it to `parse_with_scratch`, or let the
/// plain `parse` entry points use a per-thread scratch automatically (each
/// `cdpu-par` worker thread gets its own, so parallel suites reuse without
/// contention).
#[derive(Debug, Default)]
pub struct MatcherScratch {
    buf: Vec<u32>,
    /// No value in `buf` exceeds this between calls.
    base: u32,
}

impl MatcherScratch {
    /// Creates an empty scratch; tables are allocated on first use.
    pub const fn new() -> Self {
        MatcherScratch { buf: Vec::new(), base: 0 }
    }

    /// Returns `n` table entries that all read as empty, and the stamp a
    /// parse of `len` input bytes stores positions with: position `p` is
    /// `stamp + p`, and a slot `< stamp` is empty. Reuses the backing
    /// allocation when it is already large enough.
    fn tables(&mut self, n: usize, len: usize) -> (&mut [u32], u32) {
        if self.buf.len() < n {
            counter!("lz77.scratch.misses").incr();
            self.buf = vec![0u32; n];
        } else {
            counter!("lz77.scratch.hits").incr();
        }
        if self.base as u64 + len as u64 >= u32::MAX as u64 {
            self.buf.fill(0);
            self.base = 0;
        }
        let stamp = self.base + 1;
        // Positions are u32 throughout (`Seq`), so `len` fits.
        self.base += len as u32;
        (&mut self.buf[..n], stamp)
    }
}

cdpu_util::tls_scratch! {
    /// Per-thread scratch behind the allocation-free `parse` entry points
    /// (each `cdpu-par` worker thread gets its own, so parallel suites
    /// reuse without contention).
    fn with_tls_scratch, MatcherScratch
}

/// Configuration for [`HashTableMatcher`], mirroring the generator's LZ77
/// encoder parameters (Section 5.8, parameters 4–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatcherConfig {
    /// History window size in bytes = `1 << window_log`; matches farther
    /// back than this are not emitted (Snappy: 16 → 64 KiB).
    pub window_log: u32,
    /// Total hash-table entries = `1 << entries_log` (the paper sweeps 2^14
    /// vs 2^9 in Figures 12/13).
    pub entries_log: u32,
    /// Set associativity (ways). `entries_log` must accommodate at least one
    /// set, i.e. `ways` ≤ total entries.
    pub ways: u32,
    /// Hash function (compile-time parameter in the RTL generator).
    pub hash_fn: HashFn,
    /// Minimum emitted match length.
    pub min_match: usize,
    /// Enables the Snappy software skip heuristic: after repeated probe
    /// misses, step over input bytes without probing. Software enables this
    /// to save CPU cycles on incompressible data; the paper's hardware does
    /// not (and therefore finds slightly more matches — Section 6.3).
    pub skip: bool,
}

impl MatcherConfig {
    /// Snappy-like defaults: 64 KiB window, 2^14 entries, direct-mapped,
    /// multiplicative hash, skip enabled (software behaviour).
    pub fn snappy_sw() -> Self {
        MatcherConfig {
            window_log: 16,
            entries_log: 14,
            ways: 1,
            hash_fn: HashFn::Multiplicative,
            min_match: MIN_MATCH,
            skip: true,
        }
    }

    /// The hardware variant of [`MatcherConfig::snappy_sw`]: identical
    /// structure with the skip mechanism removed.
    pub fn snappy_hw() -> Self {
        MatcherConfig {
            skip: false,
            ..Self::snappy_sw()
        }
    }

    /// Window size in bytes.
    pub fn window_size(&self) -> usize {
        1usize << self.window_log
    }

    /// Sets in the table, which holds `sets * ways` slots: the entries
    /// rounded down to whole sets.
    pub(crate) fn sets(&self) -> usize {
        (1usize << self.entries_log) / self.ways as usize
    }

    /// Hash bits that select a set.
    pub(crate) fn set_log(&self) -> u32 {
        cdpu_util::floor_log2(self.sets() as u64)
    }

    pub(crate) fn validate(&self) {
        assert!(self.window_log >= 2 && self.window_log <= 30, "window_log out of range");
        assert!(self.entries_log >= 1 && self.entries_log <= 24, "entries_log out of range");
        assert!(self.ways >= 1, "need at least one way");
        assert!(
            (1u64 << self.entries_log) >= self.ways as u64,
            "ways exceed total entries"
        );
        assert!(self.min_match >= MIN_MATCH, "min_match below hash width");
    }
}

/// Longest common prefix of `data[cand..]` and `data[pos..]`, capped at
/// `limit` bytes.
///
/// Compares eight bytes per step (the match-extension discipline the
/// paper's hardware applies per SRAM word); on divergence the XOR's
/// trailing zeros give the byte-exact length, so results are identical to
/// a byte-at-a-time scan.
#[inline]
pub(crate) fn common_prefix(data: &[u8], cand: usize, pos: usize, limit: usize) -> usize {
    debug_assert!(cand < pos);
    let mut len = 0usize;
    while len + 8 <= limit {
        let a = u64::from_le_bytes(data[cand + len..cand + len + 8].try_into().unwrap());
        let b = u64::from_le_bytes(data[pos + len..pos + len + 8].try_into().unwrap());
        let x = a ^ b;
        if x != 0 {
            return len + (x.trailing_zeros() >> 3) as usize;
        }
        len += 8;
    }
    while len < limit && data[cand + len] == data[pos + len] {
        len += 1;
    }
    len
}

/// Where a parse stands between two positions: all a parse loop carries
/// besides its tables. The one-shot matchers run it from zero to the end
/// of the input in one go; the streaming parser keeps it between feeds.
#[derive(Debug)]
pub(crate) struct ParseCursor {
    /// Next position to probe.
    pub(crate) pos: usize,
    /// Snappy-style skip counter: the bytes stepped per miss grow as misses
    /// accumulate (`skip_counter >> 5` extra per step, starting at 32).
    skip_counter: usize,
    /// Positions the last match covers that are not in the table yet.
    pub(crate) cover: Range<usize>,
    /// Probes completed.
    probes: u64,
}

impl ParseCursor {
    pub(crate) const fn new() -> Self {
        ParseCursor { pos: 0, skip_counter: 32, cover: 0..0, probes: 0 }
    }

    /// Takes from `cover` the positions to index now: those whose whole
    /// hash word is among the first `fed` bytes of the input. What stays in
    /// `cover` waits for more input, and the cursor must not probe before.
    pub(crate) fn take_covered(&mut self, fed: usize) -> Range<usize> {
        let stop = self.cover.end.min(fed.saturating_sub(3)).max(self.cover.start);
        let ready = self.cover.start..stop;
        self.cover.start = stop;
        ready
    }
}

/// The bytes a parse loop may read: `data[i]` is input position
/// `base + i` of `total`. `data` ends where the input does, or short of it
/// while a stream is still arriving.
pub(crate) struct TableInput<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) base: usize,
    pub(crate) total: usize,
}

/// Puts `value` into set `h`, FIFO within the set: slot 0 is the most
/// recent, like a shift register in SRAM.
#[inline(always)]
fn insert<const DIRECT: bool>(table: &mut [u32], h: usize, ways: usize, value: u32) {
    if DIRECT {
        table[h] = value;
    } else {
        let set = &mut table[h * ways..(h + 1) * ways];
        set.copy_within(0..ways - 1, 1);
        set[0] = value;
    }
}

/// The greedy hash-table parse, the one loop under [`HashTableMatcher`] and
/// the streaming parser: one probe per position, `on_match(at, offset,
/// len)` per match, every covered position indexed.
///
/// Runs from `cur` to the end of the input. While `input.data` stops short
/// of `input.total` it returns earlier, at the first step that bytes not
/// yet seen could change — a probe with a candidate matching up to the
/// last byte present, or a covered position whose hash word has not all
/// arrived — leaving the table and `cur` as they were before that step.
/// Called again with more bytes it takes the step over, so the matches
/// reported do not depend on where the input was cut.
///
/// A slot stores `stamp` + position; below `stamp` means empty. The table
/// is one contiguous bucket array, set `s` at `[s * ways, (s + 1) * ways)`,
/// so a probe touches one cache line for typical way counts.
pub(crate) fn run_hash_table(
    cfg: &MatcherConfig,
    table: &mut [u32],
    stamp: u32,
    input: TableInput<'_>,
    cur: &mut ParseCursor,
    on_match: impl FnMut(usize, usize, usize),
) {
    // Nothing is configurable inside the loop: each instance has its way
    // count and hash family fixed, and the hash shift hoisted. Every codec
    // default and the DSE default is direct-mapped and multiplicative; the
    // rest (lz4/lzo at level 7 and up, the ablations) shares the
    // set-associative instance.
    let set_log = cfg.set_log();
    if cfg.ways == 1 && cfg.hash_fn == HashFn::Multiplicative {
        let hash = |w| hash4(w, HashFn::Multiplicative, set_log) as usize;
        hash_table_loop::<true>(cfg, hash, table, stamp, input, cur, on_match)
    } else {
        let hash = |w| hash4(w, cfg.hash_fn, set_log) as usize;
        hash_table_loop::<false>(cfg, hash, table, stamp, input, cur, on_match)
    }
}

fn hash_table_loop<const DIRECT: bool>(
    cfg: &MatcherConfig,
    hash: impl Fn([u8; 4]) -> usize,
    table: &mut [u32],
    stamp: u32,
    input: TableInput<'_>,
    cur: &mut ParseCursor,
    mut on_match: impl FnMut(usize, usize, usize),
) {
    let TableInput { data, base, total } = input;
    let ways = if DIRECT { 1 } else { cfg.ways as usize };
    let window = cfg.window_size();
    let min_match = cfg.min_match;
    let fed = base + data.len();
    let is_final = fed == total;
    let (mut pos, mut skip_counter, mut probes) = (cur.pos, cur.skip_counter, cur.probes);
    'parse: loop {
        // Index the positions the last match covered so later data can
        // match into it (streaming hardware hashes every byte it ingests).
        for p in cur.take_covered(fed) {
            insert::<DIRECT>(table, hash(word_at(data, p - base)), ways, stamp + p as u32);
        }
        if !cur.cover.is_empty() {
            break;
        }
        loop {
            if pos + min_match > fed {
                break 'parse;
            }
            let rel = pos - base;
            let limit = data.len() - rel;
            let word = word_at(data, rel);
            let h = hash(word);

            // Probe all ways; take the longest valid match (ties to the
            // most recent way, i.e. smallest offset).
            let set = if DIRECT {
                std::slice::from_ref(&table[h])
            } else {
                &table[h * ways..(h + 1) * ways]
            };
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            for &slot in set {
                if slot < stamp {
                    continue;
                }
                let cand = (slot - stamp) as usize;
                let off = pos - cand;
                if off == 0 || off > window || word_at(data, cand - base) != word {
                    continue;
                }
                let len = 4 + common_prefix(data, cand - base + 4, rel + 4, limit - 4);
                if len == limit && !is_final {
                    // This candidate could still grow; nothing was
                    // written, so the probe is taken over exactly.
                    break 'parse;
                }
                if len >= min_match && len > best_len {
                    best_len = len;
                    best_off = off;
                }
            }
            probes += 1;
            insert::<DIRECT>(table, h, ways, stamp + pos as u32);

            if best_len > 0 {
                on_match(pos, best_off, best_len);
                let end = pos + best_len;
                cur.cover = pos + 1..end.min(total + 1 - min_match);
                pos = end;
                skip_counter = 32;
                continue 'parse;
            }
            pos += 1;
            if cfg.skip {
                pos += skip_counter >> 5;
                skip_counter += 1;
            }
        }
    }
    (cur.pos, cur.skip_counter, cur.probes) = (pos, skip_counter, probes);
}

/// Collects the matches a one-shot parse loop reports into a [`Parse`].
#[derive(Default)]
struct ParseBuilder {
    seqs: Vec<Seq>,
    /// End of the last match: where the pending literal run starts.
    anchor: usize,
}

impl ParseBuilder {
    fn push(&mut self, at: usize, off: usize, len: usize) {
        self.seqs.push(Seq {
            lit_len: (at - self.anchor) as u32,
            match_len: len as u32,
            offset: off as u32,
        });
        self.anchor = at + len;
    }

    /// The parse of all `len` input bytes, counted in telemetry with the
    /// loop's `probes`.
    fn finish(self, len: usize, probes: u64) -> Parse {
        let parse = Parse {
            seqs: self.seqs,
            last_literals: (len - self.anchor) as u32,
        };
        if cdpu_telemetry::enabled() {
            counter!("lz77.parse_calls").incr();
            counter!("lz77.input_bytes").add(len as u64);
            counter!("lz77.match_bytes").add(parse.matched_len() as u64);
            counter!("lz77.probes").add(probes);
        }
        parse
    }
}

/// Set-associative hash-table match finder (the hardware LZ77 encoder).
///
/// ```
/// use cdpu_lz77::matcher::{HashTableMatcher, MatcherConfig};
/// use cdpu_lz77::window;
/// let data = b"abcdabcdabcdabcdabcdabcd";
/// let parse = HashTableMatcher::new(MatcherConfig::snappy_hw()).parse(data);
/// assert!(parse.matched_len() > 0);
/// let lits = parse.literal_bytes(data);
/// let out = window::reconstruct(&parse, &lits, None).unwrap();
/// assert_eq!(out, data);
/// ```
#[derive(Debug, Clone)]
pub struct HashTableMatcher {
    cfg: MatcherConfig,
}

impl HashTableMatcher {
    /// Creates a matcher.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (zero ways, ways
    /// exceeding entries, out-of-range logs).
    pub fn new(cfg: MatcherConfig) -> Self {
        cfg.validate();
        HashTableMatcher { cfg }
    }

    /// The configuration this matcher was built with.
    pub fn config(&self) -> &MatcherConfig {
        &self.cfg
    }

    /// Greedily parses `data` into LZ77 sequences, using the calling
    /// thread's scratch tables.
    pub fn parse(&self, data: &[u8]) -> Parse {
        with_tls_scratch(|scratch| self.parse_with_scratch(data, scratch))
    }

    /// Like [`HashTableMatcher::parse`], but with caller-provided scratch
    /// tables — reuse one [`MatcherScratch`] across calls to amortize the
    /// hash-table allocation. The parse produced is identical to
    /// [`HashTableMatcher::parse`]'s.
    pub fn parse_with_scratch(&self, data: &[u8], scratch: &mut MatcherScratch) -> Parse {
        let cfg = &self.cfg;
        let (table, stamp) = scratch.tables(cfg.sets() * cfg.ways as usize, data.len());
        let input = TableInput { data, base: 0, total: data.len() };
        let mut cur = ParseCursor::new();
        let mut out = ParseBuilder::default();
        run_hash_table(cfg, table, stamp, input, &mut cur, |at, off, len| out.push(at, off, len));
        out.finish(data.len(), cur.probes)
    }
}

/// Configuration for [`HashChainMatcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// History window size = `1 << window_log` (ZStd levels raise this).
    pub window_log: u32,
    /// Hash-head table entries = `1 << hash_log`.
    pub hash_log: u32,
    /// Maximum chain positions examined per probe (the level's "effort").
    pub max_chain: u32,
    /// One-step lazy matching: before accepting a match at `pos`, check
    /// whether `pos + 1` holds a strictly better one.
    pub lazy: bool,
    /// Minimum emitted match length.
    pub min_match: usize,
}

impl ChainConfig {
    /// A mid-effort default comparable to ZStd level ~3.
    pub fn default_level() -> Self {
        ChainConfig {
            window_log: 17,
            hash_log: 16,
            max_chain: 16,
            lazy: false,
            min_match: MIN_MATCH,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.window_log >= 2 && self.window_log <= 30, "window_log out of range");
        assert!(self.hash_log >= 1 && self.hash_log <= 24, "hash_log out of range");
        assert!(self.max_chain >= 1, "max_chain must be at least 1");
        assert!(self.min_match >= MIN_MATCH, "min_match below hash width");
    }

    /// Table entries a parse of `total` bytes uses: `[0, heads)` the hash
    /// heads, then one link per window position — or per input position
    /// when the input is shorter than the window: positions below `total`
    /// never wrap a power-of-two table at least that long, so the walk is
    /// the full-window walk without a window's worth of zeroed links behind
    /// a short input.
    pub(crate) fn table_len(&self, total: usize) -> usize {
        (1usize << self.hash_log) + (1usize << self.window_log).min(total.next_power_of_two())
    }
}

/// The hash-chain parse, the one walk under [`HashChainMatcher`] and the
/// streaming parser: per position one hash, one chain walk and one insert
/// (with `lazy`, one more walk at `pos + 1` before a match is taken),
/// `on_match(at, offset, len)` per match, every covered position indexed.
///
/// `tables` is [`ChainConfig::table_len`] entries, the hash heads and then
/// the links; a slot stores `stamp` + position and below `stamp` is empty.
/// A walk only follows links of positions this parse inserted, and a link
/// copied from a stale head is below `stamp`, which ends the walk.
///
/// Suspends like [`run_hash_table`] while `input.data` stops short of
/// `input.total`, at the first step that bytes not yet seen could change:
/// a walk that reaches a candidate matching up to the last byte present,
/// or whose floor already reaches it, or a covered position whose hash
/// word has not all arrived. A lazy walk that suspends takes back the
/// insert of `pos` before it returns, so the retry replays the whole step.
pub(crate) fn run_hash_chain(
    cfg: &ChainConfig,
    tables: &mut [u32],
    stamp: u32,
    input: TableInput<'_>,
    cur: &mut ParseCursor,
    on_match: impl FnMut(usize, usize, usize),
) {
    if cfg.lazy {
        hash_chain_loop::<true>(cfg, tables, stamp, input, cur, on_match)
    } else {
        hash_chain_loop::<false>(cfg, tables, stamp, input, cur, on_match)
    }
}

/// What every chain walk of one call reads besides the tables.
struct ChainWalk<'a> {
    data: &'a [u8],
    base: usize,
    /// Input bytes present: `base + data.len()`.
    fed: usize,
    is_final: bool,
    stamp: u32,
    window: usize,
    max_chain: u32,
}

impl ChainWalk<'_> {
    /// The longest match at `pos` that is longer than `floor`, walking the
    /// chain from `slot` through `links`: `(len, offset)`, offset 0 when no
    /// candidate beats the floor. Every candidate reached is counted in
    /// `probes`, but extended only when its first word is the cursor's and
    /// its byte at the best length so far matches — without both it cannot
    /// be longer. `None` when bytes not yet fed could change the answer.
    #[inline(always)]
    fn longest(
        &self,
        mut slot: u32,
        links: &[u32],
        pos: usize,
        word: [u8; 4],
        floor: usize,
        probes: &mut u64,
    ) -> Option<(usize, usize)> {
        let data = self.data;
        let rel = pos - self.base;
        let limit = self.fed - pos;
        if floor >= limit && !self.is_final {
            return None;
        }
        let lmask = links.len() - 1;
        let (mut best_len, mut best_off) = (floor, 0);
        let mut depth = 0;
        while slot >= self.stamp && depth < self.max_chain {
            let cand = (slot - self.stamp) as usize;
            if cand >= pos || pos - cand > self.window {
                break;
            }
            *probes += 1;
            let at = cand - self.base;
            if best_len < limit && word_at(data, at) == word && data[at + best_len] == data[rel + best_len] {
                let len = 4 + common_prefix(data, at + 4, rel + 4, limit - 4);
                if len == limit && !self.is_final {
                    return None;
                }
                if len > best_len {
                    best_len = len;
                    best_off = pos - cand;
                }
            }
            slot = links[cand & lmask];
            depth += 1;
        }
        Some((best_len, best_off))
    }
}

fn hash_chain_loop<const LAZY: bool>(
    cfg: &ChainConfig,
    tables: &mut [u32],
    stamp: u32,
    input: TableInput<'_>,
    cur: &mut ParseCursor,
    mut on_match: impl FnMut(usize, usize, usize),
) {
    let TableInput { data, base, total } = input;
    let (head, links) = tables.split_at_mut(1 << cfg.hash_log);
    let lmask = links.len() - 1;
    let min_match = cfg.min_match;
    let fed = base + data.len();
    let walk = ChainWalk {
        data,
        base,
        fed,
        is_final: fed == total,
        stamp,
        window: 1 << cfg.window_log,
        max_chain: cfg.max_chain,
    };
    let hash = |w| hash4(w, HashFn::Multiplicative, cfg.hash_log) as usize;
    let (mut pos, mut probes) = (cur.pos, cur.probes);
    'parse: loop {
        for p in cur.take_covered(fed) {
            let h = hash(word_at(data, p - base));
            links[p & lmask] = head[h];
            head[h] = stamp + p as u32;
        }
        if !cur.cover.is_empty() {
            break;
        }
        loop {
            if pos + min_match > fed {
                break 'parse;
            }
            // A suspended step leaves the count as it found it.
            let step_probes = probes;
            let word = word_at(data, pos - base);
            let h = hash(word);
            let floor = min_match - 1;
            let Some((mut len, mut off)) = walk.longest(head[h], links, pos, word, floor, &mut probes) else {
                probes = step_probes;
                break 'parse;
            };
            let link = links[pos & lmask];
            links[pos & lmask] = head[h];
            head[h] = stamp + pos as u32;
            if off == 0 {
                pos += 1;
                continue;
            }
            let mut at = pos;
            let mut cover_from = pos + 1;
            if LAZY && pos + 1 + min_match <= total {
                // The lazy walk runs with `pos` inserted and looks only for
                // a match longer than `len + 1`, the one it would take.
                let next = pos + 1;
                let lazy = if next + min_match <= fed {
                    let word = word_at(data, next - base);
                    let h = hash(word);
                    walk.longest(head[h], links, next, word, len + 1, &mut probes).map(|m| (m, h))
                } else {
                    None
                };
                let Some(((len2, off2), h2)) = lazy else {
                    head[h] = links[pos & lmask];
                    links[pos & lmask] = link;
                    probes = step_probes;
                    break 'parse;
                };
                // `next` is indexed now either way: as the match start or
                // as the first position the match covers.
                links[next & lmask] = head[h2];
                head[h2] = stamp + next as u32;
                cover_from = next + 1;
                if off2 != 0 {
                    (at, len, off) = (next, len2, off2);
                }
            }
            on_match(at, off, len);
            let end = at + len;
            cur.cover = cover_from..end.min(total + 1 - min_match);
            pos = end;
            continue 'parse;
        }
    }
    (cur.pos, cur.probes) = (pos, probes);
}

/// Hash-chain match finder with bounded search depth — the software-effort
/// knob behind compression levels.
///
/// ```
/// use cdpu_lz77::matcher::{ChainConfig, HashChainMatcher};
/// use cdpu_lz77::window;
/// let data = b"the cat sat on the mat; the cat sat on the hat";
/// let parse = HashChainMatcher::new(ChainConfig::default_level()).parse(data);
/// let lits = parse.literal_bytes(data);
/// assert_eq!(window::reconstruct(&parse, &lits, None).unwrap(), data);
/// ```
#[derive(Debug, Clone)]
pub struct HashChainMatcher {
    cfg: ChainConfig,
}

impl HashChainMatcher {
    /// Creates a matcher.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid configuration.
    pub fn new(cfg: ChainConfig) -> Self {
        cfg.validate();
        HashChainMatcher { cfg }
    }

    /// The configuration this matcher was built with.
    pub fn config(&self) -> &ChainConfig {
        &self.cfg
    }

    /// Parses `data` into LZ77 sequences (greedy, optionally 1-step lazy),
    /// using the calling thread's scratch tables.
    pub fn parse(&self, data: &[u8]) -> Parse {
        with_tls_scratch(|scratch| self.parse_with_scratch(data, scratch))
    }

    /// Like [`HashChainMatcher::parse`], but with caller-provided scratch
    /// tables; the parse produced is identical.
    pub fn parse_with_scratch(&self, data: &[u8], scratch: &mut MatcherScratch) -> Parse {
        let cfg = &self.cfg;
        let (tables, stamp) = scratch.tables(cfg.table_len(data.len()), data.len());
        let input = TableInput { data, base: 0, total: data.len() };
        let mut cur = ParseCursor::new();
        let mut out = ParseBuilder::default();
        run_hash_chain(cfg, tables, stamp, input, &mut cur, |at, off, len| out.push(at, off, len));
        out.finish(data.len(), cur.probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window;
    use cdpu_util::rng::Xoshiro256;

    fn roundtrip_with<F: Fn(&[u8]) -> Parse>(data: &[u8], f: F) -> Parse {
        let parse = f(data);
        assert_eq!(parse.total_len(), data.len(), "parse must cover input");
        let lits = parse.literal_bytes(data);
        let out = window::reconstruct(&parse, &lits, None).expect("valid parse");
        assert_eq!(out, data, "reconstruction mismatch");
        parse
    }

    fn sample_texts(rng: &mut Xoshiro256) -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"abc".to_vec(),
            b"aaaa".to_vec(),
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"abcdabcdabcdabcdabcd".to_vec(),
            b"the quick brown fox jumps over the lazy dog".repeat(5),
        ];
        for _ in 0..10 {
            let len = rng.index(5000);
            let mut v = vec![0u8; len];
            rng.fill_bytes(&mut v);
            inputs.push(v);
        }
        // Compressible: small alphabet with long runs.
        for _ in 0..10 {
            let len = rng.index(5000);
            let mut v = Vec::with_capacity(len);
            while v.len() < len {
                let run = rng.index(30) + 1;
                let b = b'a' + rng.index(4) as u8;
                v.extend(std::iter::repeat_n(b, run.min(len - v.len())));
            }
            inputs.push(v);
        }
        inputs
    }

    #[test]
    fn hash_table_roundtrips() {
        let mut rng = Xoshiro256::seed_from(21);
        for data in sample_texts(&mut rng) {
            for cfg in [
                MatcherConfig::snappy_sw(),
                MatcherConfig::snappy_hw(),
                MatcherConfig {
                    entries_log: 9,
                    ..MatcherConfig::snappy_hw()
                },
                MatcherConfig {
                    ways: 4,
                    ..MatcherConfig::snappy_hw()
                },
                MatcherConfig {
                    window_log: 11,
                    ..MatcherConfig::snappy_hw()
                },
            ] {
                let m = HashTableMatcher::new(cfg);
                roundtrip_with(&data, |d| m.parse(d));
            }
        }
    }

    #[test]
    fn hash_chain_roundtrips() {
        let mut rng = Xoshiro256::seed_from(22);
        for data in sample_texts(&mut rng) {
            for cfg in [
                ChainConfig::default_level(),
                ChainConfig {
                    max_chain: 1,
                    ..ChainConfig::default_level()
                },
                ChainConfig {
                    max_chain: 64,
                    lazy: true,
                    ..ChainConfig::default_level()
                },
                ChainConfig {
                    window_log: 10,
                    ..ChainConfig::default_level()
                },
            ] {
                let m = HashChainMatcher::new(cfg);
                roundtrip_with(&data, |d| m.parse(d));
            }
        }
    }

    #[test]
    fn offsets_respect_window() {
        let mut rng = Xoshiro256::seed_from(23);
        let mut data = Vec::new();
        for _ in 0..200 {
            let b = b'a' + rng.index(3) as u8;
            data.extend(std::iter::repeat_n(b, rng.index(20) + 1));
        }
        for wlog in [4u32, 8, 12] {
            let m = HashTableMatcher::new(MatcherConfig {
                window_log: wlog,
                ..MatcherConfig::snappy_hw()
            });
            let parse = m.parse(&data);
            for s in &parse.seqs {
                assert!(s.offset as usize <= 1 << wlog, "offset {} window {}", s.offset, 1 << wlog);
                assert!(s.offset > 0);
                assert!(s.match_len as usize >= MIN_MATCH);
            }
        }
    }

    #[test]
    fn repetitive_data_mostly_matches() {
        let data = b"0123456789abcdef".repeat(256);
        let m = HashTableMatcher::new(MatcherConfig::snappy_hw());
        let parse = m.parse(&data);
        let match_frac = parse.matched_len() as f64 / data.len() as f64;
        assert!(match_frac > 0.95, "matched only {match_frac}");
    }

    #[test]
    fn random_data_mostly_literals() {
        let mut rng = Xoshiro256::seed_from(4);
        let mut data = vec![0u8; 16384];
        rng.fill_bytes(&mut data);
        let m = HashTableMatcher::new(MatcherConfig::snappy_hw());
        let parse = m.parse(&data);
        let match_frac = parse.matched_len() as f64 / data.len() as f64;
        assert!(match_frac < 0.05, "random data matched {match_frac}");
    }

    #[test]
    fn skip_costs_a_little_ratio() {
        // On mixed compressible/incompressible data the skip mechanism must
        // never find MORE matched bytes than exhaustive probing.
        let mut rng = Xoshiro256::seed_from(5);
        let mut data = vec![0u8; 8192];
        rng.fill_bytes(&mut data);
        data.extend(b"abcdefgh".repeat(1024));
        let no_skip = HashTableMatcher::new(MatcherConfig::snappy_hw()).parse(&data);
        let with_skip = HashTableMatcher::new(MatcherConfig::snappy_sw()).parse(&data);
        assert!(no_skip.matched_len() >= with_skip.matched_len());
    }

    #[test]
    fn smaller_hash_table_finds_fewer_or_equal_matches() {
        let mut rng = Xoshiro256::seed_from(6);
        let mut data = Vec::new();
        for _ in 0..400 {
            let b = rng.index(64) as u8;
            data.extend(std::iter::repeat_n(b, rng.index(12) + 1));
        }
        let big = HashTableMatcher::new(MatcherConfig {
            entries_log: 14,
            ..MatcherConfig::snappy_hw()
        })
        .parse(&data);
        let tiny = HashTableMatcher::new(MatcherConfig {
            entries_log: 4,
            ..MatcherConfig::snappy_hw()
        })
        .parse(&data);
        assert!(tiny.matched_len() <= big.matched_len());
    }

    #[test]
    fn deeper_chain_never_hurts() {
        let data = b"lorem ipsum dolor sit amet lorem ipsum dolor sit amet consectetur".repeat(20);
        let shallow = HashChainMatcher::new(ChainConfig {
            max_chain: 1,
            ..ChainConfig::default_level()
        })
        .parse(&data);
        let deep = HashChainMatcher::new(ChainConfig {
            max_chain: 128,
            ..ChainConfig::default_level()
        })
        .parse(&data);
        assert!(deep.matched_len() >= shallow.matched_len());
    }

    enum AnyMatcher {
        Table(HashTableMatcher),
        Chain(HashChainMatcher),
    }

    impl AnyMatcher {
        /// Parses with `scratch` and checks the result against a fresh
        /// scratch and the allocate-per-call reference.
        fn check(&self, data: &[u8], scratch: &mut MatcherScratch, what: &str) {
            let (reused, fresh, naive) = match self {
                AnyMatcher::Table(m) => (
                    m.parse_with_scratch(data, scratch),
                    m.parse_with_scratch(data, &mut MatcherScratch::new()),
                    crate::reference::hash_table_parse(m.config(), data),
                ),
                AnyMatcher::Chain(m) => (
                    m.parse_with_scratch(data, scratch),
                    m.parse_with_scratch(data, &mut MatcherScratch::new()),
                    crate::reference::hash_chain_parse(m.config(), data),
                ),
            };
            assert_eq!(reused, fresh, "{what}: reused scratch differs from fresh");
            assert_eq!(reused, naive, "{what}: differs from reference");
        }
    }

    /// The table shapes the codecs put through one thread's scratch: snappy's
    /// table, the zstd-3 and flate-6 chains, and a 4-way table.
    fn epoch_matchers() -> [AnyMatcher; 4] {
        [
            AnyMatcher::Table(HashTableMatcher::new(MatcherConfig::snappy_sw())),
            AnyMatcher::Chain(HashChainMatcher::new(ChainConfig {
                window_log: 17,
                hash_log: 17,
                max_chain: 8,
                lazy: false,
                min_match: MIN_MATCH,
            })),
            AnyMatcher::Chain(HashChainMatcher::new(ChainConfig {
                window_log: 15,
                hash_log: 15,
                max_chain: 32,
                lazy: true,
                min_match: MIN_MATCH,
            })),
            AnyMatcher::Table(HashTableMatcher::new(MatcherConfig {
                ways: 4,
                ..MatcherConfig::snappy_hw()
            })),
        ]
    }

    /// Short inputs plus one that outruns flate's 32 KiB window, so chain
    /// links are overwritten within a call as well as left over between calls.
    fn epoch_inputs() -> Vec<Vec<u8>> {
        let mut rng = Xoshiro256::seed_from(24);
        let mut inputs = sample_texts(&mut rng);
        let mut long = Vec::new();
        while long.len() < 80_000 {
            let b = b'a' + rng.index(6) as u8;
            long.extend(std::iter::repeat_n(b, rng.index(9) + 1));
        }
        inputs.push(long);
        inputs
    }

    #[test]
    fn epoch_scratch_interleaved_parses_match_fresh_and_reference() {
        let matchers = epoch_matchers();
        let inputs = epoch_inputs();
        let mut scratch = MatcherScratch::new();
        for i in 0..inputs.len() {
            // Each matcher sees a different input each round, so what one
            // leaves in the tables is never what the next would have written.
            for (k, m) in matchers.iter().enumerate() {
                let data = &inputs[(i + 5 * k) % inputs.len()];
                m.check(data, &mut scratch, &format!("round {i} matcher {k}"));
            }
        }
        let parsed: usize = inputs.iter().map(|d| d.len()).sum::<usize>() * matchers.len();
        assert_eq!(scratch.base as usize, parsed, "base advances by every input length");
    }

    #[test]
    fn chain_links_sized_by_input_match_reference() {
        // Short runs over six letters make every walk several links deep; a
        // 3 000-byte period puts candidates beyond the small windows and
        // inside the large ones. Lengths sit on both sides of every power
        // of two, so the link table is sometimes the input's size and
        // sometimes the window's, and consecutive parses on the one
        // scratch never share a layout.
        let mut rng = Xoshiro256::seed_from(25);
        let mut data = Vec::new();
        while data.len() < 3000 {
            let b = b'a' + rng.index(6) as u8;
            data.extend(std::iter::repeat_n(b, rng.index(9) + 1));
        }
        data.truncate(3000);
        while data.len() <= 1 << 16 {
            let at = data.len() - 3000;
            data.extend_from_within(at..);
            let flip = data.len() - 1 - rng.index(3000);
            data[flip] ^= 1;
        }
        let mut scratch = MatcherScratch::new();
        for k in 2..=16u32 {
            for len in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
                for window_log in 10..=24 {
                    let m = AnyMatcher::Chain(HashChainMatcher::new(ChainConfig {
                        window_log,
                        hash_log: 12,
                        max_chain: 8,
                        lazy: window_log % 2 == 0,
                        min_match: MIN_MATCH,
                    }));
                    let what = format!("window_log {window_log} len {len}");
                    m.check(&data[..len], &mut scratch, &what);
                }
            }
        }
    }

    #[test]
    fn epoch_scratch_wrap_clears_and_agrees() {
        let matchers = epoch_matchers();
        let inputs = epoch_inputs();
        let mut scratch = MatcherScratch {
            buf: Vec::new(),
            base: u32::MAX - 20_000,
        };
        let mut wraps = 0;
        for (i, data) in inputs.iter().enumerate() {
            for (k, m) in matchers.iter().enumerate() {
                let before = scratch.base;
                m.check(data, &mut scratch, &format!("input {i} matcher {k}"));
                if scratch.base < before {
                    wraps += 1;
                    assert_eq!(scratch.base as usize, data.len(), "a wrap restarts at zero");
                }
            }
        }
        assert_eq!(wraps, 1, "tables filled near u32::MAX, then wrapped exactly once");
    }

    #[test]
    #[should_panic]
    fn ways_exceeding_entries_panics() {
        let _ = HashTableMatcher::new(MatcherConfig {
            entries_log: 1,
            ways: 4,
            ..MatcherConfig::snappy_hw()
        });
    }
}
