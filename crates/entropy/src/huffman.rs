//! Canonical, length-limited Huffman coding.
//!
//! Code lengths come from the **package-merge** algorithm, which is optimal
//! under a maximum-length constraint (we default to the ZStd literals limit
//! of 11 bits). Codes are assigned canonically — sorted by `(length,
//! symbol)` — so a decoder needs only the length of every symbol to
//! reconstruct the code book, which is what [`HuffmanTable::serialize`]
//! transmits.
//!
//! The decode table has `1 << max_len` packed `u32` entries, `symbol << 8 |
//! length`: peek `max_len` bits, one read yields the symbol and its code
//! length, consume the length. An entry of 0 is unmapped (the unused half
//! of a single-symbol table). The byte decoders reject it and any entry
//! above `0xFFFF` (a symbol above 255) with one test. This mirrors the
//! decode-table SRAM in the paper's speculative Huffman expander (Section
//! 5.3).
//!
//! [`HuffmanTable::decode_bytes_into`] runs that expander's speculation in
//! software on long streams. It cuts one stream into four lanes at a
//! quarter, half and three quarters of its bits, rounded down to a multiple
//! of the gcd of the code lengths. All four lanes decode in lockstep, so
//! four table reads are in flight instead of one, until every lane has
//! passed its end; a lane past its end keeps decoding. A lane that starts
//! mid-code decodes garbage until it falls onto a true symbol boundary, and
//! Huffman codes fall onto one within a few symbols. Lanes 1–3 record where
//! their first 256 symbols start. The lane before each runs on past
//! the cut until it lands on one of those starts; from there on both lanes
//! decode the same symbols, so the true output is lane 0 up to that point,
//! then lane 1 from it, and so on. Any anomaly (no landing within the
//! marks, an invalid entry, a full lane, an error in the tail) drops the
//! lanes and decodes serially, so every result is the serial decoder's.

use std::ops::Range;
use std::sync::OnceLock;

use cdpu_util::bits::{BitBuf, MsbBitReader, MsbBitWriter};

/// Maximum supported code length (table entries are `1 << max_len`).
pub const MAX_CODE_LEN: u8 = 15;

/// Default code-length limit, matching ZStd's Huffman literals coder.
pub const DEFAULT_CODE_LIMIT: u8 = 11;

/// Lanes of the speculative literal decode.
const LANES: usize = 4;

/// Symbol starts each lane after the first records for the lane before it
/// to land on. With 64, 3 % of zstd literal blocks did not synchronise;
/// with 256, none did.
const MARKS: usize = 256;

/// Fewest bits per lane: 256 marks of codes up to 15 bits end inside the
/// lane's own quarter, before the next lane's cut.
const MIN_LANE_BITS: usize = 4096;

/// Fewest symbols worth splitting into lanes.
const MIN_LANE_SYMBOLS: usize = 2048;

/// Bits a lane decodes per refill: a 64-bit window at any bit alignment
/// holds at least this many.
const WINDOW_BITS: u32 = 57;

/// Grow-only per-thread output regions of the lanes: no allocation per
/// block once a thread has decoded its largest literal section.
struct LaneScratch {
    bytes: Vec<u8>,
}

impl LaneScratch {
    const fn new() -> Self {
        LaneScratch { bytes: Vec::new() }
    }
}

cdpu_util::tls_scratch! {
    fn with_lane_scratch, LaneScratch
}

/// Errors from Huffman table construction, encoding or decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffmanError {
    /// The frequency histogram had no non-zero entries.
    EmptyAlphabet,
    /// The requested length limit cannot encode this many symbols, or
    /// exceeds [`MAX_CODE_LEN`].
    BadLengthLimit,
    /// A serialized table was malformed (bad Kraft sum, truncated, oversized
    /// alphabet).
    BadTable,
    /// The encoded bitstream ended mid-code or decoded to an unmapped entry.
    BadStream,
    /// A symbol outside the table's alphabet was passed to the encoder.
    UnknownSymbol,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::EmptyAlphabet => write!(f, "empty alphabet"),
            HuffmanError::BadLengthLimit => write!(f, "invalid code length limit"),
            HuffmanError::BadTable => write!(f, "malformed huffman table"),
            HuffmanError::BadStream => write!(f, "malformed huffman bitstream"),
            HuffmanError::UnknownSymbol => write!(f, "symbol not present in table"),
        }
    }
}

impl std::error::Error for HuffmanError {}

/// Computes optimal length-limited code lengths via package-merge.
///
/// `freqs[s]` is the occurrence count of symbol `s`; symbols with zero
/// frequency receive length 0 (absent). If only one symbol occurs it gets
/// length 1 (a zero-bit code cannot be framed).
///
/// # Errors
///
/// - [`HuffmanError::EmptyAlphabet`] if every frequency is zero.
/// - [`HuffmanError::BadLengthLimit`] if `limit == 0`, `limit > MAX_CODE_LEN`
///   or `2^limit` is smaller than the number of used symbols.
pub fn package_merge_lengths(freqs: &[u32], limit: u8) -> Result<Vec<u8>, HuffmanError> {
    if limit == 0 || limit > MAX_CODE_LEN {
        return Err(HuffmanError::BadLengthLimit);
    }
    let mut leaves: Vec<(u64, usize)> = Vec::with_capacity(freqs.len());
    leaves.extend((0..freqs.len()).filter(|&s| freqs[s] > 0).map(|s| (freqs[s] as u64, s)));
    let n = leaves.len();
    if n == 0 {
        return Err(HuffmanError::EmptyAlphabet);
    }
    let mut lengths = vec![0u8; freqs.len()];
    if n == 1 {
        lengths[leaves[0].1] = 1;
        return Ok(lengths);
    }
    if (1usize << limit) < n {
        return Err(HuffmanError::BadLengthLimit);
    }
    // Stable, so equal weights stay in ascending symbol order.
    leaves.sort_by_key(|leaf| leaf.0);

    // Level 1 is the sorted leaves; level k+1 merges them with the packages
    // (sums of adjacent pairs) of level k, a leaf going first on equal
    // weight. The order of a level therefore depends on weights alone, so an
    // item needs no record of the symbols inside it: a weight to build the
    // next level from (two buffers), and a leaf/package flag to trace the
    // solution back through (all levels, flat; `ends[k]` closes level k).
    //
    // A level equal to the level below it makes every higher level equal
    // too (each is built from the one below alone), so the build stops at
    // the first repeat and the back-trace reads level `top` for all the
    // levels above it.
    let levels = limit as usize;
    let mut ends = [0usize; MAX_CODE_LEN as usize + 1];
    let mut is_leaf = Vec::with_capacity(levels * 2 * n);
    is_leaf.resize(n, true);
    ends[1] = n;
    let mut top = 1;
    let mut below: Vec<u64> = leaves.iter().map(|leaf| leaf.0).collect();
    let mut level: Vec<u64> = Vec::with_capacity(2 * n);
    for end in &mut ends[2..=levels] {
        let packages = below.len() / 2;
        let (mut i, mut j) = (0, 0);
        while i < n || j < packages {
            // Out of packages: a weight no sum of u32 counts can reach.
            let package = if j < packages { below[2 * j] + below[2 * j + 1] } else { u64::MAX };
            let take_leaf = i < n && leaves[i].0 <= package;
            if take_leaf {
                level.push(leaves[i].0);
                i += 1;
            } else {
                level.push(package);
                j += 1;
            }
            is_leaf.push(take_leaf);
        }
        if level == below {
            break;
        }
        *end = is_leaf.len();
        top += 1;
        std::mem::swap(&mut below, &mut level);
        level.clear();
    }

    // The first 2(n-1) items of the top level are the solution, and a
    // symbol's code length is the number of them it occurs in. Leaves among
    // the first `take` items of a level are the `taken` lightest leaves; the
    // packages among them are that level's first `take - taken` packages,
    // i.e. the first `2 * (take - taken)` items of the level below.
    let mut take = 2 * (n - 1);
    for k in (1..=levels).rev() {
        let k = k.min(top);
        let level = &is_leaf[ends[k - 1]..ends[k]];
        take = take.min(level.len());
        let taken = level[..take].iter().filter(|&&leaf| leaf).count();
        for &(_, s) in &leaves[..taken] {
            lengths[s] += 1;
        }
        take = 2 * (take - taken);
    }
    debug_assert!(kraft_sum_is_one(&lengths), "package-merge produced non-tight code");
    Ok(lengths)
}

fn kraft_sum_is_one(lengths: &[u8]) -> bool {
    let mut sum: u64 = 0;
    for &l in lengths {
        if l > 0 {
            sum += 1u64 << (MAX_CODE_LEN - l);
        }
    }
    sum == 1u64 << MAX_CODE_LEN
}

fn gcd(a: u8, b: u8) -> u8 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A canonical Huffman code book with its flat decode table.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// Per-symbol code length (0 = absent).
    lengths: Vec<u8>,
    /// Per-symbol canonical code, MSB-aligned within `length` bits.
    codes: Vec<u16>,
    /// Longest code length in this table.
    max_len: u8,
    /// Shortest code length: bounds the symbols a lane's bits can hold.
    min_len: u8,
    /// Greatest common divisor of the code lengths: a lane cut at a
    /// multiple of it starts a fixed-length code on a symbol boundary.
    len_gcd: u8,
    /// Packed decode table: index by `max_len` peeked bits -> `symbol << 8
    /// | code_len`; 0 for the unmapped half of a single-symbol table.
    /// Filled on first decode use: the encoders build tables they never
    /// decode with.
    decode: OnceLock<Vec<u32>>,
}

impl HuffmanTable {
    /// Builds a table from a frequency histogram with the default 11-bit
    /// length limit.
    ///
    /// # Errors
    ///
    /// See [`package_merge_lengths`].
    pub fn from_frequencies(freqs: &[u32]) -> Result<Self, HuffmanError> {
        Self::from_frequencies_limited(freqs, DEFAULT_CODE_LIMIT)
    }

    /// Builds a table from a frequency histogram with an explicit length
    /// limit.
    ///
    /// # Errors
    ///
    /// See [`package_merge_lengths`].
    pub fn from_frequencies_limited(freqs: &[u32], limit: u8) -> Result<Self, HuffmanError> {
        let lengths = package_merge_lengths(freqs, limit)?;
        Self::from_lengths(lengths)
    }

    /// Builds a table from explicit code lengths (canonical assignment).
    ///
    /// # Errors
    ///
    /// [`HuffmanError::BadTable`] if the lengths violate the Kraft equality
    /// (the code must be *complete*: every bit pattern decodable), exceed
    /// [`MAX_CODE_LEN`], or no symbol is present. A single symbol of length
    /// 1 is accepted as the degenerate complete-enough code.
    pub fn from_lengths(lengths: Vec<u8>) -> Result<Self, HuffmanError> {
        if lengths.iter().any(|&l| l > MAX_CODE_LEN) {
            return Err(HuffmanError::BadTable);
        }
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in &lengths {
            count[l as usize] += 1;
        }
        count[0] = 0; // absent symbols take no code space
        let max_len = match count.iter().rposition(|&c| c > 0) {
            Some(l) => l as u8,
            None => return Err(HuffmanError::BadTable),
        };
        let single = count.iter().sum::<u32>() == 1;
        let complete = if single { max_len == 1 } else { kraft_sum_is_one(&lengths) };
        if !complete {
            return Err(HuffmanError::BadTable);
        }

        // Canonical assignment in `(length, symbol)` order without sorting
        // (RFC 1951 §3.2.2): the first code of each length follows from the
        // counts of the shorter ones, then symbols take codes in index order.
        let mut next_code = [0u32; MAX_CODE_LEN as usize + 1];
        for l in 1..=max_len as usize {
            next_code[l] = (next_code[l - 1] + count[l - 1]) << 1;
        }
        let mut codes = vec![0u16; lengths.len()];
        for (s, &len) in lengths.iter().enumerate() {
            if len == 0 {
                continue;
            }
            codes[s] = next_code[len as usize] as u16;
            next_code[len as usize] += 1;
        }
        let used = || (1..=max_len).filter(|&l| count[l as usize] > 0);
        let min_len = used().next().unwrap_or(max_len);
        let len_gcd = used().fold(0, gcd);
        Ok(HuffmanTable {
            lengths,
            codes,
            max_len,
            min_len,
            len_gcd,
            decode: OnceLock::new(),
        })
    }

    /// The packed decode table, filled on first use.
    fn decode_table(&self) -> &[u32] {
        self.decode.get_or_init(|| {
            let mut decode = vec![0u32; 1usize << self.max_len];
            for (s, (&len, &code)) in self.lengths.iter().zip(&self.codes).enumerate() {
                if len == 0 {
                    continue;
                }
                let span = 1usize << (self.max_len - len);
                let base = code as usize * span;
                decode[base..base + span].fill((s as u32) << 8 | len as u32);
            }
            decode
        })
    }

    /// Longest code length, i.e. `log2` of the decode-table size. The
    /// hardware model sizes the expander's table SRAM from this.
    pub fn max_code_len(&self) -> u8 {
        self.max_len
    }

    /// Per-symbol code lengths (0 = absent).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Code length of `symbol`, or `None` if absent.
    pub fn code_len(&self, symbol: u16) -> Option<u8> {
        match self.lengths.get(symbol as usize) {
            Some(&l) if l > 0 => Some(l),
            _ => None,
        }
    }

    /// Appends the code for `symbol` to `out`.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::UnknownSymbol`] if the symbol has no code.
    pub fn encode_symbol(&self, symbol: u16, out: &mut MsbBitWriter) -> Result<(), HuffmanError> {
        let len = self.code_len(symbol).ok_or(HuffmanError::UnknownSymbol)?;
        out.write_bits(self.codes[symbol as usize] as u64, len as u32);
        Ok(())
    }

    /// Decodes one symbol from the reader.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::BadStream`] if fewer bits remain than the code
    /// requires.
    pub fn decode_symbol(&self, input: &mut MsbBitReader<'_>) -> Result<u16, HuffmanError> {
        let e = self.decode_table()[input.peek_bits(self.max_len as u32) as usize];
        let len = e as u8;
        if e == 0 || input.remaining() < len as usize {
            return Err(HuffmanError::BadStream);
        }
        input.consume(len as u32);
        Ok((e >> 8) as u16)
    }

    /// Packed decode table plus its index width, for the in-crate
    /// interleaved batch decoder (`crate::interleave`), which runs the same
    /// peek/lookup/consume step against several stream cursors at once.
    pub(crate) fn decode_entries(&self) -> (&[u32], u32) {
        (self.decode_table(), self.max_len as u32)
    }

    /// Serializes the code book (alphabet size + nibble-packed lengths).
    ///
    /// The canonical property makes lengths sufficient to rebuild codes;
    /// trailing absent symbols are trimmed so a table over a small used
    /// alphabet costs only `used/2` bytes.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        let trimmed = self
            .lengths
            .iter()
            .rposition(|&l| l > 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        let n = trimmed as u16;
        out.extend_from_slice(&n.to_le_bytes());
        let mut nibble_hi = false;
        let mut cur = 0u8;
        for &len in &self.lengths[..trimmed] {
            debug_assert!(len <= 15);
            if nibble_hi {
                cur |= len << 4;
                out.push(cur);
                cur = 0;
            } else {
                cur = len;
            }
            nibble_hi = !nibble_hi;
        }
        if nibble_hi {
            out.push(cur);
        }
    }

    /// Deserializes a code book written by [`HuffmanTable::serialize`].
    /// Returns the table and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::BadTable`] on truncation, an oversized alphabet
    /// (> 4096 symbols) or invalid lengths.
    pub fn deserialize(input: &[u8]) -> Result<(Self, usize), HuffmanError> {
        if input.len() < 2 {
            return Err(HuffmanError::BadTable);
        }
        let n = u16::from_le_bytes([input[0], input[1]]) as usize;
        if n == 0 || n > 4096 {
            return Err(HuffmanError::BadTable);
        }
        let nbytes = n.div_ceil(2);
        if input.len() < 2 + nbytes {
            return Err(HuffmanError::BadTable);
        }
        let mut lengths = Vec::with_capacity(n);
        for i in 0..n {
            let byte = input[2 + i / 2];
            let len = if i % 2 == 0 { byte & 0x0F } else { byte >> 4 };
            lengths.push(len);
        }
        Ok((Self::from_lengths(lengths)?, 2 + nbytes))
    }

    /// Convenience: encodes a byte slice into `(bitstream_bytes, bit_len)`.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::UnknownSymbol`] if `data` contains a byte absent from
    /// the table.
    pub fn encode_bytes(&self, data: &[u8]) -> Result<(Vec<u8>, usize), HuffmanError> {
        let codes = self.packed_codes::<256>();
        let mut w = MsbBitWriter::new();
        for &b in data {
            encode_byte(&codes, b, &mut w)?;
        }
        Ok(w.finish())
    }

    /// The code book of symbols below `N` packed one `code << 8 | len`
    /// entry per symbol, 0 for an absent one: one load per symbol where
    /// [`HuffmanTable::encode_symbol`] makes two bounds-checked ones.
    pub fn packed_codes<const N: usize>(&self) -> [u32; N] {
        let mut packed = [0u32; N];
        for (entry, (&len, &code)) in packed.iter_mut().zip(self.lengths.iter().zip(&self.codes)) {
            *entry = (code as u32) << 8 | len as u32;
        }
        packed
    }

    /// Convenience: decodes exactly `count` byte symbols from a bitstream.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::BadStream`] on truncation or a non-byte symbol.
    pub fn decode_bytes(
        &self,
        bytes: &[u8],
        bit_len: usize,
        count: usize,
    ) -> Result<Vec<u8>, HuffmanError> {
        let mut out = Vec::with_capacity(count);
        self.decode_bytes_into(bytes, bit_len, count, &mut out)?;
        Ok(out)
    }

    /// Decodes exactly `count` byte symbols, appending them to `out` — the
    /// allocation-free form [`HuffmanTable::decode_bytes`] wraps.
    ///
    /// A stream of at least `4 × 4096` bits and 2048 symbols decodes in four
    /// speculative lanes (see the module docs). Shorter ones, and any whose
    /// lanes meet an anomaly, decode serially: while at least 64 bits
    /// remain, from a cached [`BitBuf`] window refilled once per ~57 bits
    /// (inside the 64-bit guard every peek is fully inside the logical
    /// stream, so the only reachable failure is an invalid table entry —
    /// exactly when [`HuffmanTable::decode_symbol`] fails too). The
    /// sub-64-bit tail goes through the per-symbol path. Output and error
    /// behaviour are the per-symbol decoder's on every path.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::BadStream`] on truncation or a non-byte symbol.
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds the bits in `bytes`.
    pub fn decode_bytes_into(
        &self,
        bytes: &[u8],
        bit_len: usize,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HuffmanError> {
        assert!(bit_len <= bytes.len() * 8);
        out.reserve(count);
        if bit_len >= LANES * MIN_LANE_BITS && count >= MIN_LANE_SYMBOLS {
            if self.decode_lanes(bytes, bit_len, count, out) {
                return Ok(());
            }
            if cdpu_telemetry::enabled() {
                cdpu_telemetry::counter!("decode.huffman.lanes_fallback").add(1);
            }
        }
        let max_len = self.max_len as u32;
        let decode = self.decode_table();
        let mut buf = BitBuf::new(bytes, bit_len);
        let mut decoded = 0usize;
        let mut refills = 0u64;
        while decoded < count && buf.remaining() >= 64 {
            buf.refill();
            refills += 1;
            while decoded < count && buf.valid() >= max_len {
                let e = decode[buf.peek(max_len) as usize];
                if e == 0 || e >> 16 != 0 {
                    return Err(HuffmanError::BadStream);
                }
                buf.consume(e as u8 as u32);
                out.push((e >> 8) as u8);
                decoded += 1;
            }
        }
        if cdpu_telemetry::enabled() {
            cdpu_telemetry::counter!("decode.refills").add(refills);
        }
        self.decode_tail(bytes, bit_len, buf.position(), count - decoded, out)
    }

    /// Decodes `count` byte symbols from bit `pos` one at a time, appending
    /// them to `out`: the per-symbol path every decode ends on.
    fn decode_tail(
        &self,
        bytes: &[u8],
        bit_len: usize,
        pos: usize,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HuffmanError> {
        let mut r = MsbBitReader::new(bytes, bit_len);
        r.seek(pos);
        for _ in 0..count {
            let sym = self.decode_symbol(&mut r)?;
            if sym > 255 {
                return Err(HuffmanError::BadStream);
            }
            out.push(sym as u8);
        }
        Ok(())
    }

    /// The four-lane speculative decode of [`HuffmanTable::decode_bytes_into`].
    /// Appends exactly the `count` bytes the serial decoder would and
    /// returns true, or leaves `out` as it was and returns false on any
    /// anomaly. Each lane decodes into its own region of thread scratch.
    fn decode_lanes(&self, bytes: &[u8], bit_len: usize, count: usize, out: &mut Vec<u8>) -> bool {
        let start = out.len();
        let end = start + count;
        // Every lane decodes as many symbols as the lane slowest to pass its
        // end, which reads its quarter of the bits and one group more; a
        // landing reads at most one code per mark past a cut. Each symbol
        // takes `min_len` bits or more, so a valid stream never fills its
        // region.
        let lane_bits = bit_len / LANES + 2 * MARKS * self.max_len as usize;
        let region = count.min(lane_bits / self.min_len as usize);
        let stitched = with_lane_scratch(|scratch| {
            if scratch.bytes.len() < LANES * region {
                scratch.bytes.resize(LANES * region, 0);
            }
            let mut regions = scratch.bytes.chunks_exact_mut(region);
            let mut lanes: [&mut [u8]; LANES] =
                std::array::from_fn(|_| regions.next().expect("one region per lane"));
            let (ranges, tail_pos) = self.speculate(bytes, bit_len, &mut lanes)?;
            for (lane, range) in lanes.iter().zip(ranges) {
                let take = range.len().min(end - out.len());
                out.extend_from_slice(&lane[range.start..range.start + take]);
            }
            Some(tail_pos)
        });
        let decoded = match stitched {
            Some(tail_pos) => self.decode_tail(bytes, bit_len, tail_pos, end - out.len(), out),
            None => Err(HuffmanError::BadStream),
        };
        if decoded.is_err() {
            out.truncate(start);
        }
        decoded.is_ok()
    }

    /// Runs the lanes over the stream in `lanes`' regions and finds where
    /// each lands on the next. Returns each lane's range of true symbols
    /// and the bit after the last lane's last symbol, or `None` on an
    /// anomaly.
    fn speculate(
        &self,
        bytes: &[u8],
        bit_len: usize,
        lanes: &mut [&mut [u8]; LANES],
    ) -> Option<([Range<usize>; LANES], usize)> {
        let table = self.decode_table();
        let group = (WINDOW_BITS / self.max_len as u32) as usize;
        let cap = lanes[0].len();
        // Lane k starts at cut[k] and decodes at least to cut[k + 1].
        let g = self.len_gcd as usize;
        let cut: [usize; LANES + 1] =
            std::array::from_fn(|k| if k == LANES { bit_len } else { bit_len / LANES * k / g * g });
        let mut pos: [usize; LANES] = std::array::from_fn(|k| cut[k]);
        let mut marks = [[0usize; MARKS + WINDOW_BITS as usize]; LANES];
        let mut bad = 0u32;

        // All lanes decode in lockstep, recording where their first MARKS
        // symbols start, until each has passed its end: the next lane's cut
        // for each lane but the last, the 64-bit guard for the last. A lane
        // past its end keeps decoding (its region has room), and the last
        // lane re-decodes its final group, so the lockstep stays four wide.
        let last = LANES - 1;
        let mut n = 0;
        // Per lane: symbols and position at the start of the group in which
        // it passed its cut, where the walk onto the next lane's marks starts.
        let mut crossed = [(0usize, 0usize); LANES];
        // The last lane's final group start, then its symbols and position
        // once it reaches the guard.
        let mut parked = pos[last];
        let mut tail = None;
        loop {
            for k in 0..last {
                if pos[k] < cut[k + 1] {
                    crossed[k] = (n, pos[k]);
                }
            }
            match tail {
                None if pos[last] + 64 <= bit_len => parked = pos[last],
                None if n < MARKS => return None,
                None => tail = Some((n, pos[last])),
                Some(_) => {}
            }
            if tail.is_some() {
                if (0..last).all(|k| pos[k] >= cut[k + 1]) {
                    break;
                }
                pos[last] = parked;
            }
            if !(0..last).all(|k| pos[k] + 64 <= bit_len) || n + group > cap {
                return None;
            }
            let dst = lanes.each_mut().map(|lane| &mut lane[n..n + group]);
            bad |= if n < MARKS {
                let at = marks.each_mut().map(|m| &mut m[n..n + group]);
                decode_group::<LANES, true>(table, bytes, &mut pos, dst, at)
            } else {
                decode_group::<LANES, false>(table, bytes, &mut pos, dst, std::array::from_fn(|_| &mut [][..]))
            };
            n += group;
        }
        if bad >> 16 != 0 {
            return None;
        }
        let (tail_len, tail_pos) = tail.expect("the loop ends once the last lane is parked");
        debug_assert!(tail_pos + 64 > bit_len, "the lanes leave only the sub-64-bit tail to decode serially");
        let mut len = [n; LANES];
        len[last] = tail_len;

        // Lane k-1 walks on from where it passed its cut, decoding further
        // if it must, until it lands on a start lane k recorded.
        let mut ranges: [Range<usize>; LANES] = std::array::from_fn(|k| 0..len[k]);
        for k in 1..LANES {
            let (mut j, mut q) = crossed[k - 1];
            let mut m = 0;
            loop {
                while m < MARKS && marks[k][m] < q {
                    m += 1;
                }
                if m == MARKS {
                    return None;
                }
                if marks[k][m] == q {
                    break;
                }
                if j == len[k - 1] {
                    if !(q + 64 <= bit_len && j < cap) {
                        return None;
                    }
                    let dst = [&mut lanes[k - 1][j..j + 1]];
                    if decode_group::<1, false>(table, bytes, &mut [q], dst, [&mut []]) >> 16 != 0 {
                        return None;
                    }
                    len[k - 1] += 1;
                }
                q += self.lengths[lanes[k - 1][j] as usize] as usize;
                j += 1;
            }
            ranges[k - 1].end = j;
            ranges[k].start = m;
            debug_assert!(ranges[k - 1].start <= j, "a lane lands on the next past its own landing");
        }
        Some((ranges, tail_pos))
    }
}

/// The 64 stream bits from bit `pos` on, MSB-aligned: at least 57 of them
/// follow `pos`. The caller keeps `pos + 64` inside the stream.
#[inline(always)]
fn window(bytes: &[u8], pos: usize) -> u64 {
    let at = pos / 8;
    u64::from_be_bytes(bytes[at..at + 8].try_into().expect("eight bytes")) << (pos % 8)
}

/// One refill and one group of symbols per lane, the lanes interleaved so
/// their table reads overlap: lane k reads its window at `pos[k]` and
/// decodes `dst[k].len()` symbols into `dst[k]`, recording where each
/// starts in `marks[k]` when `MARK`. Returns the OR of `entry - 1` over the
/// entries read, whose bits 16 and up are set iff one decoded no byte: it
/// was unmapped (0) or held a symbol above 255.
///
/// A marker bit at the bottom of each window counts the bits consumed: it
/// rises one place per bit shifted out, so its trailing zeros are the
/// lane's advance and no position is kept per symbol. It sits below every
/// bit a group peeks, since a group consumes at most 57 of the 57 or more
/// stream bits the window holds above it.
#[inline(always)]
fn decode_group<const N: usize, const MARK: bool>(
    table: &[u32],
    bytes: &[u8],
    pos: &mut [usize; N],
    dst: [&mut [u8]; N],
    marks: [&mut [usize]; N],
) -> u32 {
    let shift = 64 - table.len().trailing_zeros();
    let mut acc: [u64; N] = std::array::from_fn(|k| window(bytes, pos[k]) | 1);
    let mut bad = 0u32;
    for j in 0..dst[0].len() {
        for k in 0..N {
            if MARK {
                marks[k][j] = pos[k] + acc[k].trailing_zeros() as usize;
            }
            let e = table[(acc[k] >> shift) as usize];
            acc[k] <<= e as u8;
            dst[k][j] = (e >> 8) as u8;
            bad |= e.wrapping_sub(1);
        }
    }
    for (p, a) in pos.iter_mut().zip(acc) {
        *p += a.trailing_zeros() as usize;
    }
    bad
}

/// Appends byte `b`'s code from a [`HuffmanTable::packed_codes`] table.
///
/// # Errors
///
/// [`HuffmanError::UnknownSymbol`] if `b` has no code.
#[inline(always)]
pub(crate) fn encode_byte(codes: &[u32; 256], b: u8, out: &mut MsbBitWriter) -> Result<(), HuffmanError> {
    let entry = codes[b as usize];
    if entry == 0 {
        return Err(HuffmanError::UnknownSymbol);
    }
    out.write_bits((entry >> 8) as u64, entry & 0xFF);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_util::rng::Xoshiro256;

    fn freq_of(data: &[u8]) -> Vec<u32> {
        let mut f = vec![0u32; 256];
        for &b in data {
            f[b as usize] += 1;
        }
        f
    }

    /// The set-carrying package-merge this module shipped first, kept as the
    /// oracle for the flat one: every item owns the symbols inside it, so the
    /// answer is read off the top list with no back-trace to get wrong.
    fn package_merge_oracle(freqs: &[u32], limit: u8) -> Result<Vec<u8>, HuffmanError> {
        if limit == 0 || limit > MAX_CODE_LEN {
            return Err(HuffmanError::BadLengthLimit);
        }
        let used: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        let n = used.len();
        if n == 0 {
            return Err(HuffmanError::EmptyAlphabet);
        }
        let mut lengths = vec![0u8; freqs.len()];
        if n == 1 {
            lengths[used[0]] = 1;
            return Ok(lengths);
        }
        if (1usize << limit) < n {
            return Err(HuffmanError::BadLengthLimit);
        }
        let mut leaves: Vec<(u64, Vec<u16>)> = used
            .iter()
            .map(|&s| (freqs[s] as u64, vec![s as u16]))
            .collect();
        leaves.sort_by_key(|item| item.0);
        let mut list = leaves.clone();
        for _ in 1..limit {
            let mut packages: Vec<(u64, Vec<u16>)> = Vec::with_capacity(list.len() / 2);
            for pair in list.chunks_exact(2) {
                let mut syms = pair[0].1.clone();
                syms.extend_from_slice(&pair[1].1);
                packages.push((pair[0].0 + pair[1].0, syms));
            }
            let mut merged = Vec::with_capacity(leaves.len() + packages.len());
            let (mut i, mut j) = (0, 0);
            while i < leaves.len() || j < packages.len() {
                let take_leaf = match (leaves.get(i), packages.get(j)) {
                    (Some(l), Some(p)) => l.0 <= p.0,
                    (Some(_), None) => true,
                    _ => false,
                };
                if take_leaf {
                    merged.push(leaves[i].clone());
                    i += 1;
                } else {
                    merged.push(packages[j].clone());
                    j += 1;
                }
            }
            list = merged;
        }
        for item in list.iter().take(2 * (n - 1)) {
            for &s in &item.1 {
                lengths[s as usize] += 1;
            }
        }
        Ok(lengths)
    }

    /// Histogram shapes that stress the tie rule and the depth limit.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Uniform,
        TieHeavy,
        AllOnes,
        ZeroHeavy,
        PowerOfTwo,
        Geometric,
    }

    /// Alphabet sizes 2..=700, skewed small so the quadratic oracle stays
    /// affordable; every 50th histogram is a large one.
    fn histogram(rng: &mut Xoshiro256, shape: Shape, case: usize) -> Vec<u32> {
        let len = match case % 50 {
            0 => 121 + rng.index(580),
            1..=5 => 25 + rng.index(96),
            _ => 2 + rng.index(23),
        };
        let ratio = 1.05 + rng.index(100) as f64 / 100.0;
        let mut weight = 1.0f64;
        let mut freqs: Vec<u32> = (0..len)
            .map(|_| match shape {
                Shape::Uniform => {
                    let bits = 1 + rng.index(32);
                    rng.range_u64(1, (1u64 << bits) - 1) as u32
                }
                Shape::TieHeavy => 1 + rng.index(3) as u32,
                Shape::AllOnes => 1,
                Shape::ZeroHeavy if rng.chance(0.8) => 0,
                Shape::ZeroHeavy => 1 + rng.index(50) as u32,
                Shape::PowerOfTwo => 1 << rng.index(24),
                Shape::Geometric => {
                    weight = (weight * ratio).min(4e9);
                    weight as u32
                }
            })
            .collect();
        // Geometric weights ascend by construction; shuffle half the cases so
        // the sort, not the input order, decides the leaf order.
        if case % 2 == 1 {
            for i in (1..len).rev() {
                freqs.swap(i, rng.index(i + 1));
            }
        }
        freqs
    }

    fn assert_matches_oracle(shape: Shape, seed: u64) {
        let mut rng = Xoshiro256::seed_from(seed);
        for case in 0..10_000 {
            let freqs = histogram(&mut rng, shape, case);
            for limit in 1..=MAX_CODE_LEN {
                assert_eq!(
                    package_merge_lengths(&freqs, limit),
                    package_merge_oracle(&freqs, limit),
                    "{shape:?} case {case} limit {limit} freqs {freqs:?}"
                );
            }
        }
    }

    #[test]
    fn package_merge_matches_oracle_uniform() {
        assert_matches_oracle(Shape::Uniform, 0xA11);
    }

    #[test]
    fn package_merge_matches_oracle_tie_heavy() {
        assert_matches_oracle(Shape::TieHeavy, 0xA12);
    }

    #[test]
    fn package_merge_matches_oracle_all_ones() {
        assert_matches_oracle(Shape::AllOnes, 0xA13);
    }

    #[test]
    fn package_merge_matches_oracle_zero_heavy() {
        assert_matches_oracle(Shape::ZeroHeavy, 0xA14);
    }

    #[test]
    fn package_merge_matches_oracle_power_of_two() {
        assert_matches_oracle(Shape::PowerOfTwo, 0xA15);
    }

    #[test]
    fn package_merge_matches_oracle_geometric() {
        assert_matches_oracle(Shape::Geometric, 0xA16);
    }

    #[test]
    fn package_merge_matches_oracle_edge_cases() {
        let mut one_of_700 = vec![0u32; 700];
        one_of_700[433] = 9;
        let edges: [&[u32]; 7] = [
            &[],
            &[0; 300],
            &[7],
            &one_of_700,
            &[1; 700],          // 2^limit < n up to limit 9
            &[u32::MAX; 700],   // sums need more than 32 bits
            &[3, 0, 3],
        ];
        for freqs in edges {
            for limit in 0..=MAX_CODE_LEN + 1 {
                assert_eq!(
                    package_merge_lengths(freqs, limit),
                    package_merge_oracle(freqs, limit),
                    "limit {limit} freqs {freqs:?}"
                );
            }
        }
    }

    /// `from_lengths` assigns codes by the count-per-length pass; the sort it
    /// replaced is the definition of canonical order.
    #[test]
    fn canonical_codes_match_sorted_assignment() {
        let mut rng = Xoshiro256::seed_from(0xA17);
        for case in 0..2_000 {
            let freqs = histogram(&mut rng, Shape::ZeroHeavy, case);
            let limit = 1 + rng.index(MAX_CODE_LEN as usize) as u8;
            let Ok(t) = HuffmanTable::from_frequencies_limited(&freqs, limit) else {
                continue;
            };
            let mut order: Vec<usize> = (0..freqs.len()).filter(|&s| t.lengths[s] > 0).collect();
            order.sort_by_key(|&s| (t.lengths[s], s));
            let (mut code, mut prev_len) = (0u32, 0u8);
            for s in order {
                code <<= t.lengths[s] - prev_len;
                assert_eq!(t.codes[s] as u32, code, "case {case} symbol {s}");
                code += 1;
                prev_len = t.lengths[s];
            }
        }
    }

    #[test]
    fn empty_alphabet_rejected() {
        assert_eq!(
            package_merge_lengths(&[0, 0, 0], 8),
            Err(HuffmanError::EmptyAlphabet)
        );
    }

    #[test]
    fn bad_limits_rejected() {
        assert_eq!(
            package_merge_lengths(&[1, 1], 0),
            Err(HuffmanError::BadLengthLimit)
        );
        assert_eq!(
            package_merge_lengths(&[1, 1], 16),
            Err(HuffmanError::BadLengthLimit)
        );
        // 5 symbols cannot fit in 2-bit codes.
        assert_eq!(
            package_merge_lengths(&[1; 5], 2),
            Err(HuffmanError::BadLengthLimit)
        );
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lengths = package_merge_lengths(&[0, 7, 0], 11).unwrap();
        assert_eq!(lengths, vec![0, 1, 0]);
        let t = HuffmanTable::from_lengths(lengths).unwrap();
        let (bytes, bits) = t.encode_bytes(&[1, 1, 1]).unwrap();
        assert_eq!(bits, 3);
        assert_eq!(t.decode_bytes(&bytes, bits, 3).unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn two_equal_symbols_get_one_bit_each() {
        let lengths = package_merge_lengths(&[5, 5], 11).unwrap();
        assert_eq!(lengths, vec![1, 1]);
    }

    #[test]
    fn classic_example_lengths() {
        // Frequencies 1,1,2,3,5: optimal (unlimited) lengths 4,4,3,2,1 or an
        // equivalent-cost assignment. Total cost must be optimal (= 25 bits
        // given counts... compute: 1*4+1*4+2*3+3*2+5*1 = 25).
        let lengths = package_merge_lengths(&[1, 1, 2, 3, 5], 15).unwrap();
        let cost: u64 = lengths
            .iter()
            .zip([1u64, 1, 2, 3, 5])
            .map(|(&l, f)| l as u64 * f)
            .sum();
        assert_eq!(cost, 25);
    }

    #[test]
    fn length_limit_respected_and_kraft_tight() {
        // Exponential frequencies force long tails without a limit.
        let freqs: Vec<u32> = (0..20).map(|i| 1u32 << i).collect();
        for limit in [5u8, 6, 8, 11] {
            let lengths = package_merge_lengths(&freqs, limit).unwrap();
            assert!(lengths.iter().all(|&l| l <= limit), "limit {limit}");
            assert!(kraft_sum_is_one(&lengths));
        }
    }

    #[test]
    fn limited_cost_never_better_than_unlimited() {
        let mut rng = Xoshiro256::seed_from(10);
        for _ in 0..50 {
            let n = rng.index(30) + 2;
            let freqs: Vec<u32> = (0..n).map(|_| rng.range_u64(1, 1000) as u32).collect();
            let cost = |ls: &[u8]| -> u64 {
                ls.iter()
                    .zip(&freqs)
                    .map(|(&l, &f)| l as u64 * f as u64)
                    .sum()
            };
            let unlimited = cost(&package_merge_lengths(&freqs, 15).unwrap());
            let limited = cost(&package_merge_lengths(&freqs, 6).unwrap());
            assert!(limited >= unlimited);
        }
    }

    #[test]
    fn roundtrip_ascii() {
        let data = b"the quick brown fox jumps over the lazy dog, repeatedly and often";
        let t = HuffmanTable::from_frequencies(&freq_of(data)).unwrap();
        let (bytes, bits) = t.encode_bytes(data).unwrap();
        assert!(bytes.len() < data.len(), "entropy coding should shrink text");
        assert_eq!(t.decode_bytes(&bytes, bits, data.len()).unwrap(), data);
    }

    /// Per-symbol reference decode: the seed `decode_bytes` loop.
    fn decode_bytes_per_symbol(
        t: &HuffmanTable,
        bytes: &[u8],
        bit_len: usize,
        count: usize,
    ) -> Result<Vec<u8>, HuffmanError> {
        let mut r = MsbBitReader::new(bytes, bit_len);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let sym = t.decode_symbol(&mut r)?;
            if sym > 255 {
                return Err(HuffmanError::BadStream);
            }
            out.push(sym as u8);
        }
        Ok(out)
    }

    #[test]
    fn batched_decode_matches_per_symbol() {
        let mut rng = Xoshiro256::seed_from(91);
        for trial in 0..40 {
            // Skewed alphabets produce long and short codes in one stream.
            let alphabet = rng.index(200) + 2;
            let len = rng.index(3000) + 1;
            let data: Vec<u8> = (0..len).map(|_| rng.index(alphabet) as u8).collect();
            let t = HuffmanTable::from_frequencies(&freq_of(&data)).unwrap();
            let (bytes, bits) = t.encode_bytes(&data).unwrap();
            assert_eq!(
                t.decode_bytes(&bytes, bits, len).unwrap(),
                decode_bytes_per_symbol(&t, &bytes, bits, len).unwrap(),
                "trial {trial}"
            );
            // Over-reading and truncation must fail identically.
            assert_eq!(
                t.decode_bytes(&bytes, bits, len + 1),
                decode_bytes_per_symbol(&t, &bytes, bits, len + 1),
                "trial {trial} over-read"
            );
            let cut = rng.index(bits.max(1));
            assert_eq!(
                t.decode_bytes(&bytes, cut, len),
                decode_bytes_per_symbol(&t, &bytes, cut, len),
                "trial {trial} truncated to {cut} bits"
            );
        }
    }

    #[test]
    fn roundtrip_random_bytes() {
        let mut rng = Xoshiro256::seed_from(3);
        for trial in 0..30 {
            let len = rng.index(4000) + 1;
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let t = HuffmanTable::from_frequencies(&freq_of(&data)).unwrap();
            let (bytes, bits) = t.encode_bytes(&data).unwrap();
            assert_eq!(
                t.decode_bytes(&bytes, bits, data.len()).unwrap(),
                data,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn unknown_symbol_rejected() {
        let t = HuffmanTable::from_frequencies(&freq_of(b"aaabbb")).unwrap();
        let mut w = MsbBitWriter::new();
        assert_eq!(
            t.encode_symbol(b'z' as u16, &mut w),
            Err(HuffmanError::UnknownSymbol)
        );
    }

    #[test]
    fn encode_bytes_matches_encode_symbol_and_rejects_absent_bytes() {
        let mut rng = Xoshiro256::seed_from(4);
        let mut data = vec![0u8; 3000];
        for b in &mut data {
            *b = rng.index(40) as u8 * 3;
        }
        let t = HuffmanTable::from_frequencies(&freq_of(&data)).unwrap();
        let mut w = MsbBitWriter::new();
        for &b in &data {
            t.encode_symbol(b as u16, &mut w).unwrap();
        }
        assert_eq!(t.encode_bytes(&data).unwrap(), w.finish());
        for at in [0, data.len() / 2, data.len() - 1] {
            let mut bad = data.clone();
            bad[at] = 1;
            assert_eq!(t.encode_bytes(&bad), Err(HuffmanError::UnknownSymbol), "absent byte at {at}");
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = b"abcabcabcaa";
        let t = HuffmanTable::from_frequencies(&freq_of(data)).unwrap();
        let (bytes, bits) = t.encode_bytes(data).unwrap();
        // Ask for one more symbol than was encoded.
        assert_eq!(
            t.decode_bytes(&bytes, bits, data.len() + 1),
            Err(HuffmanError::BadStream)
        );
    }

    #[test]
    fn serialize_roundtrip() {
        let data = b"serialization of canonical code books needs only lengths";
        let t = HuffmanTable::from_frequencies(&freq_of(data)).unwrap();
        let mut buf = Vec::new();
        t.serialize(&mut buf);
        buf.extend_from_slice(b"trailing");
        let (t2, consumed) = HuffmanTable::deserialize(&buf).unwrap();
        assert_eq!(consumed, buf.len() - 8);
        // Serialization trims trailing absent symbols; the used prefix must
        // match exactly and everything beyond must be absent.
        let n = t2.lengths().len();
        assert_eq!(&t.lengths()[..n], t2.lengths());
        assert!(t.lengths()[n..].iter().all(|&l| l == 0));
        let (bytes, bits) = t.encode_bytes(data).unwrap();
        assert_eq!(t2.decode_bytes(&bytes, bits, data.len()).unwrap(), data);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert_eq!(
            HuffmanTable::deserialize(&[]).unwrap_err(),
            HuffmanError::BadTable
        );
        assert_eq!(
            HuffmanTable::deserialize(&[0, 0]).unwrap_err(),
            HuffmanError::BadTable
        );
        // Claims 100 symbols but provides none.
        assert_eq!(
            HuffmanTable::deserialize(&[100, 0, 1]).unwrap_err(),
            HuffmanError::BadTable
        );
    }

    #[test]
    fn from_lengths_rejects_incomplete_code() {
        // Lengths {2} alone leave most of the code space unmapped.
        assert_eq!(
            HuffmanTable::from_lengths(vec![2, 0]).unwrap_err(),
            HuffmanError::BadTable
        );
        // Over-subscribed code space.
        assert_eq!(
            HuffmanTable::from_lengths(vec![1, 1, 1]).unwrap_err(),
            HuffmanError::BadTable
        );
    }

    #[test]
    fn canonical_codes_are_prefix_free_and_ordered() {
        let freqs = [10u32, 1, 1, 4, 4, 20];
        let t = HuffmanTable::from_frequencies(&freqs).unwrap();
        // Decode table covers all 2^max_len entries (completeness).
        assert!(t.decode_table().iter().all(|&e| e & 0xFF > 0));
        // Shorter codes for more frequent symbols.
        assert!(t.code_len(5).unwrap() <= t.code_len(1).unwrap());
        assert!(t.code_len(0).unwrap() <= t.code_len(2).unwrap());
    }

    #[test]
    fn compressed_size_tracks_entropy() {
        // Highly skewed data should compress well below 8 bits/byte.
        let mut data = vec![b'a'; 9000];
        data.extend(std::iter::repeat_n(b'b', 900));
        data.extend(std::iter::repeat_n(b'c', 100));
        let t = HuffmanTable::from_frequencies(&freq_of(&data)).unwrap();
        let (_, bits) = t.encode_bytes(&data).unwrap();
        let bits_per_byte = bits as f64 / data.len() as f64;
        let h = crate::shannon_entropy(&freq_of(&data));
        // Huffman is within 1 bit/symbol of the entropy (prefix-code bound).
        assert!(bits_per_byte < h + 1.0, "bpb {bits_per_byte} vs entropy {h}");
        assert!(bits_per_byte >= h, "cannot beat the entropy bound");
    }
}
