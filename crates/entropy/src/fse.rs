//! Finite State Entropy (tANS) coding.
//!
//! FSE is the tabled Asymmetric Numeral System used by ZStandard for its
//! sequence codes (and as "FSE" in the paper's block diagrams, Figures 9 and
//! 10). The coder keeps a single state in `[table_size, 2·table_size)`;
//! encoding a symbol shifts out a data-dependent number of low bits and maps
//! the remainder through a per-symbol transform, so frequent symbols emit
//! fewer bits — fractional-bit coding with integer-only operations.
//!
//! Layout conventions follow ZStandard:
//!
//! - The **encoder walks the input backward** and writes bit fields forward
//!   with [`BitWriter`]; it flushes the final state last and terminates the
//!   stream with a marker bit.
//! - The **decoder** ([`ReverseBitReader`]) starts at the marker, reads the
//!   initial state, then emits symbols in forward order.
//!
//! Three pieces are exposed separately because the hardware model charges
//! cycles for each: [`normalize_counts`] (statistics → normalized counts),
//! [`FseEncodeTable`]/[`FseDecodeTable`] (table build), and the per-symbol
//! encode/decode steps.

use cdpu_util::bits::{BitWriter, ReverseBitReader};
use cdpu_util::floor_log2;

/// Maximum supported `table_log` (tables of up to 2^12 states; ZStd's
/// sequence coders use 9 by default, its literals FSE up to 11).
pub const MAX_TABLE_LOG: u8 = 12;

/// Errors from FSE normalization, table construction or coding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FseError {
    /// Histogram had no non-zero entries.
    EmptyAlphabet,
    /// `table_log` of 0, above [`MAX_TABLE_LOG`], or too small for the
    /// number of distinct symbols.
    BadTableLog,
    /// Normalized counts do not sum to `1 << table_log`.
    BadNormalization,
    /// The bitstream was truncated or the terminator marker was missing.
    BadStream,
    /// A symbol outside the table's alphabet was passed to the encoder.
    UnknownSymbol,
}

impl std::fmt::Display for FseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FseError::EmptyAlphabet => write!(f, "empty alphabet"),
            FseError::BadTableLog => write!(f, "invalid fse table log"),
            FseError::BadNormalization => write!(f, "counts do not sum to table size"),
            FseError::BadStream => write!(f, "malformed fse bitstream"),
            FseError::UnknownSymbol => write!(f, "symbol not present in table"),
        }
    }
}

impl std::error::Error for FseError {}

/// Recommends a table log for a histogram: enough states for accuracy,
/// capped by `max_log` and by the input size (no point using a table bigger
/// than the data).
pub fn recommended_table_log(freqs: &[u32], max_log: u8) -> u8 {
    let total: u64 = freqs.iter().map(|&c| c as u64).sum();
    let used = freqs.iter().filter(|&&c| c > 0).count().max(1) as u64;
    let by_total = if total > 1 {
        cdpu_util::ceil_log2(total).min(13) as u8
    } else {
        1
    };
    let min_needed = cdpu_util::ceil_log2(used).max(1) as u8;
    by_total.clamp(min_needed, max_log.min(MAX_TABLE_LOG))
}

/// Scales a frequency histogram to counts summing exactly to
/// `1 << table_log`, giving every occurring symbol at least one state.
///
/// # Errors
///
/// - [`FseError::EmptyAlphabet`] if all frequencies are zero.
/// - [`FseError::BadTableLog`] if the table cannot hold one state per
///   distinct symbol or `table_log` is out of range.
pub fn normalize_counts(freqs: &[u32], table_log: u8) -> Result<Vec<u32>, FseError> {
    if table_log == 0 || table_log > MAX_TABLE_LOG {
        return Err(FseError::BadTableLog);
    }
    let table_size = 1u64 << table_log;
    let total: u64 = freqs.iter().map(|&c| c as u64).sum();
    let used = freqs.iter().filter(|&&c| c > 0).count() as u64;
    if used == 0 {
        return Err(FseError::EmptyAlphabet);
    }
    if used > table_size {
        return Err(FseError::BadTableLog);
    }

    let mut norm = vec![0u32; freqs.len()];
    let mut assigned: u64 = 0;
    for (n, &f) in norm.iter_mut().zip(freqs).filter(|(_, &f)| f > 0) {
        let scaled = ((f as u128 * table_size as u128) / total as u128) as u64;
        let c = scaled.max(1);
        *n = c as u32;
        assigned += c;
    }

    // Correction: nudge counts until the sum is exact, stealing from or
    // giving to the symbols where the relative distortion is smallest, i.e.
    // the largest counts (the last of equal ones). A surplus goes one state
    // at a time, each from the then-largest count. A deficit goes whole to
    // one symbol: the largest `freq << 16 | norm` among the used ones
    // (unused ones key 0 and never win) stays the largest once it grows.
    while assigned > table_size {
        let victim = (0..norm.len())
            .filter(|&s| norm[s] > 1)
            .max_by_key(|&s| norm[s])
            .expect("sum can always be reduced to table_size");
        norm[victim] -= 1;
        assigned -= 1;
    }
    if assigned < table_size {
        let winner = (0..norm.len())
            .max_by_key(|&s| (freqs[s] as u64) << 16 | norm[s] as u64)
            .expect("non-empty");
        norm[winner] += (table_size - assigned) as u32;
    }
    Ok(norm)
}

/// Validates that `norm` sums to `1 << table_log` with at least one symbol.
fn check_norm(norm: &[u32], table_log: u8) -> Result<(), FseError> {
    if table_log == 0 || table_log > MAX_TABLE_LOG {
        return Err(FseError::BadTableLog);
    }
    let sum: u64 = norm.iter().map(|&c| c as u64).sum();
    if sum != 1u64 << table_log {
        return Err(FseError::BadNormalization);
    }
    Ok(())
}

/// Spreads symbols over table positions with the ZStd step function,
/// visiting every slot exactly once.
fn spread_symbols(norm: &[u32], table_log: u8) -> Vec<u16> {
    let size = 1usize << table_log;
    let mask = size - 1;
    // Any odd step is coprime with a power-of-two table size; the `| 1`
    // covers the small logs (1 and 3) where ZStd's formula degenerates
    // (ZStd never builds tables below log 5).
    let step = ((size >> 1) + (size >> 3) + 3) | 1;
    let mut table = vec![0u16; size];
    let mut pos = 0usize;
    for (s, &count) in norm.iter().enumerate() {
        for _ in 0..count {
            table[pos] = s as u16;
            pos = (pos + step) & mask;
        }
    }
    debug_assert_eq!(pos, 0, "spread step must be coprime with table size");
    table
}

/// Per-symbol encode transform (ZStd's `FSE_symbolCompressionTransform`).
#[derive(Debug, Clone, Copy, Default)]
struct SymbolTransform {
    delta_nb_bits: u32,
    delta_find_state: i32,
}

/// FSE encoding table for one symbol alphabet.
#[derive(Debug, Clone)]
pub struct FseEncodeTable {
    table_log: u8,
    norm: Vec<u32>,
    /// `state -> next state` packed per the cumulative-count layout.
    state_table: Vec<u16>,
    transforms: Vec<SymbolTransform>,
}

impl FseEncodeTable {
    /// Builds an encode table from normalized counts.
    ///
    /// # Errors
    ///
    /// [`FseError::BadNormalization`] / [`FseError::BadTableLog`] if the
    /// counts are not a valid normalization.
    pub fn new(norm: &[u32], table_log: u8) -> Result<Self, FseError> {
        check_norm(norm, table_log)?;
        let size = 1usize << table_log;
        let spread = spread_symbols(norm, table_log);

        // cumul[s] = number of states belonging to symbols < s.
        let mut cumul = vec![0u32; norm.len() + 1];
        for s in 0..norm.len() {
            cumul[s + 1] = cumul[s] + norm[s];
        }
        let mut state_table = vec![0u16; size];
        let mut fill = cumul;
        for (u, &s) in spread.iter().enumerate() {
            state_table[fill[s as usize] as usize] = (size + u) as u16;
            fill[s as usize] += 1;
        }

        let mut transforms = vec![SymbolTransform::default(); norm.len()];
        let mut total: i32 = 0;
        for (s, &count) in norm.iter().enumerate() {
            match count {
                0 => {}
                1 => {
                    transforms[s] = SymbolTransform {
                        delta_nb_bits: ((table_log as u32) << 16) - (1 << table_log),
                        delta_find_state: total - 1,
                    };
                    total += 1;
                }
                _ => {
                    let max_bits_out = table_log as u32 - floor_log2(count as u64 - 1);
                    let min_state_plus = count << max_bits_out;
                    transforms[s] = SymbolTransform {
                        delta_nb_bits: (max_bits_out << 16) - min_state_plus,
                        delta_find_state: total - count as i32,
                    };
                    total += count as i32;
                }
            }
        }
        Ok(FseEncodeTable {
            table_log,
            norm: norm.to_vec(),
            state_table,
            transforms,
        })
    }

    /// The table's `log2` size.
    pub fn table_log(&self) -> u8 {
        self.table_log
    }

    fn check_symbol(&self, symbol: u16) -> Result<(), FseError> {
        match self.norm.get(symbol as usize) {
            Some(&c) if c > 0 => Ok(()),
            _ => Err(FseError::UnknownSymbol),
        }
    }
}

/// One FSE decode-table entry: emit `symbol`, then
/// `state = new_state_base + read_bits(nb_bits)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FseDecodeEntry {
    /// Symbol emitted when the decoder is in this state.
    pub symbol: u16,
    /// Bits to pull from the stream for the state transition.
    pub nb_bits: u8,
    /// Base of the next state before adding the pulled bits.
    pub new_state_base: u16,
}

/// FSE decoding table.
#[derive(Debug, Clone)]
pub struct FseDecodeTable {
    table_log: u8,
    entries: Vec<FseDecodeEntry>,
}

impl FseDecodeTable {
    /// Builds a decode table from normalized counts.
    ///
    /// # Errors
    ///
    /// [`FseError::BadNormalization`] / [`FseError::BadTableLog`] if the
    /// counts are not a valid normalization.
    pub fn new(norm: &[u32], table_log: u8) -> Result<Self, FseError> {
        let entries = build_decode_table(norm, table_log, |e| e)?;
        Ok(FseDecodeTable { table_log, entries })
    }

    /// The table's `log2` size.
    pub fn table_log(&self) -> u8 {
        self.table_log
    }

    /// Direct entry access (the hardware model walks entries itself).
    pub fn entry(&self, state: u16) -> FseDecodeEntry {
        self.entries[state as usize]
    }
}

/// Builds a decode table of `1 << table_log` states from normalized
/// counts, each state mapped through `entry`: the symbols are spread with
/// ZStd's step (the layout [`FseEncodeTable`] encodes against) and the
/// states walked in index order, each handed its symbol and transition.
/// [`FseDecodeTable::new`] keeps the entries as they are; a codec can map
/// each symbol to what its own decode loop wants in the same walk.
///
/// # Errors
///
/// [`FseError::BadTableLog`] / [`FseError::BadNormalization`] if the
/// counts are not a valid normalization.
pub fn build_decode_table<E>(
    norm: &[u32],
    table_log: u8,
    mut entry: impl FnMut(FseDecodeEntry) -> E,
) -> Result<Vec<E>, FseError> {
    check_norm(norm, table_log)?;
    let size = 1usize << table_log;
    let mut symbol_next: Vec<u32> = norm.to_vec();
    Ok(spread_symbols(norm, table_log)
        .into_iter()
        .map(|s| {
            let next = symbol_next[s as usize];
            symbol_next[s as usize] += 1;
            let nb_bits = table_log as u32 - floor_log2(next as u64);
            entry(FseDecodeEntry {
                symbol: s,
                nb_bits: nb_bits as u8,
                new_state_base: ((next << nb_bits) as usize - size) as u16,
            })
        })
        .collect())
}

/// Streaming FSE encoder over one table. Symbols must be pushed in
/// **reverse input order**; [`FseStreamEncoder::finish`] flushes the state
/// and marker. The companion decoder then emits symbols in forward order.
#[derive(Debug)]
pub struct FseStreamEncoder<'t> {
    table: &'t FseEncodeTable,
    state: u32,
    started: bool,
}

impl<'t> FseStreamEncoder<'t> {
    /// Creates an encoder bound to `table`.
    pub fn new(table: &'t FseEncodeTable) -> Self {
        FseStreamEncoder {
            table,
            state: 0,
            started: false,
        }
    }

    /// Pushes the next symbol (in reverse input order), appending bits to
    /// `out`.
    ///
    /// # Errors
    ///
    /// [`FseError::UnknownSymbol`] if the symbol has no states in the table.
    pub fn push(&mut self, symbol: u16, out: &mut BitWriter) -> Result<(), FseError> {
        let (bits, nb_bits) = self.step(symbol)?;
        out.write_bits(bits, nb_bits);
        Ok(())
    }

    /// [`FseStreamEncoder::push`] without the write: moves to the next
    /// state and returns the `(bits, count)` field `push` would append (at
    /// most `table_log` bits; none for the first symbol). A caller that
    /// writes several fields per step packs them into one write.
    ///
    /// # Errors
    ///
    /// [`FseError::UnknownSymbol`] if the symbol has no states in the table.
    #[inline]
    pub fn step(&mut self, symbol: u16) -> Result<(u64, u32), FseError> {
        self.table.check_symbol(symbol)?;
        let tt = self.table.transforms[symbol as usize];
        if !self.started {
            // First symbol: pick the starting state without emitting bits
            // (ZStd's FSE_initCState2).
            let nb_bits_out = (tt.delta_nb_bits + (1 << 15)) >> 16;
            let value = (nb_bits_out << 16) - tt.delta_nb_bits;
            let idx = (value >> nb_bits_out) as i32 + tt.delta_find_state;
            self.state = self.table.state_table[idx as usize] as u32;
            self.started = true;
            return Ok((0, 0));
        }
        let nb_bits_out = (self.state + tt.delta_nb_bits) >> 16;
        let bits = (self.state & ((1 << nb_bits_out) - 1)) as u64;
        let idx = (self.state >> nb_bits_out) as i32 + tt.delta_find_state;
        self.state = self.table.state_table[idx as usize] as u32;
        Ok((bits, nb_bits_out))
    }

    /// Flushes the final state (`table_log` bits). The caller finishes the
    /// [`BitWriter`] with its marker afterwards.
    ///
    /// # Errors
    ///
    /// [`FseError::EmptyAlphabet`] if no symbol was pushed.
    pub fn finish(self, out: &mut BitWriter) -> Result<(), FseError> {
        if !self.started {
            return Err(FseError::EmptyAlphabet);
        }
        let table_log = self.table.table_log as u32;
        out.write_bits((self.state & ((1 << table_log) - 1)) as u64, table_log);
        Ok(())
    }
}

/// Streaming FSE decoder over one table, reading a [`ReverseBitReader`].
#[derive(Debug)]
pub struct FseStreamDecoder<'t> {
    table: &'t FseDecodeTable,
    state: u16,
}

impl<'t> FseStreamDecoder<'t> {
    /// Initializes decoder state from the stream (reads `table_log` bits).
    ///
    /// # Errors
    ///
    /// [`FseError::BadStream`] if the stream is shorter than `table_log`
    /// bits.
    pub fn new(
        table: &'t FseDecodeTable,
        input: &mut ReverseBitReader<'_>,
    ) -> Result<Self, FseError> {
        let state = input
            .read_bits(table.table_log as u32)
            .map_err(|_| FseError::BadStream)?;
        Ok(FseStreamDecoder {
            table,
            state: state as u16,
        })
    }

    /// Symbol the current state will emit (without advancing).
    pub fn peek(&self) -> u16 {
        self.table.entries[self.state as usize].symbol
    }

    /// Emits the next symbol and advances the state.
    ///
    /// # Errors
    ///
    /// [`FseError::BadStream`] if the stream runs out of transition bits.
    pub fn next(&mut self, input: &mut ReverseBitReader<'_>) -> Result<u16, FseError> {
        let e = self.table.entries[self.state as usize];
        let bits = input
            .read_bits(e.nb_bits as u32)
            .map_err(|_| FseError::BadStream)?;
        self.state = e.new_state_base + bits as u16;
        Ok(e.symbol)
    }

    /// Emits the final symbol without pulling transition bits (the state
    /// after the last symbol is never used).
    pub fn last(self) -> u16 {
        self.table.entries[self.state as usize].symbol
    }

    /// Batched form of [`FseStreamDecoder::next`]: decodes up to `max`
    /// symbols into `out`, returning how many were produced.
    ///
    /// Instead of one bounds-checked [`ReverseBitReader::read_bits`] per
    /// symbol, the decoder peeks a 57-bit tail window once, pulls
    /// transition fields from it while at least [`MAX_TABLE_LOG`] bits are
    /// left in the window (so no field can straddle the window edge), and
    /// consumes the total afterwards. It stops short of the last 57 stream
    /// bits; inside that guard `read_bits` cannot fail, so the symbol and
    /// error sequence is identical to calling `next` in a loop — the
    /// caller finishes the tail with `next`/`last` as usual.
    pub fn next_batch(
        &mut self,
        input: &mut ReverseBitReader<'_>,
        out: &mut Vec<u16>,
        max: usize,
    ) -> usize {
        let mut produced = 0usize;
        let mut refills = 0u64;
        while produced < max && input.remaining() >= 57 {
            let (window, mut have) = input.peek_tail();
            refills += 1;
            let mut used = 0u32;
            while produced < max && have >= MAX_TABLE_LOG as u32 {
                let e = self.table.entries[self.state as usize];
                let nb = e.nb_bits as u32;
                let bits = (window >> (have - nb)) & ((1u64 << nb) - 1);
                self.state = e.new_state_base + bits as u16;
                out.push(e.symbol);
                have -= nb;
                used += nb;
                produced += 1;
            }
            input.consume(used);
        }
        if cdpu_telemetry::enabled() {
            cdpu_telemetry::counter!("decode.refills").add(refills);
        }
        produced
    }
}

/// One-shot convenience: FSE-encodes `symbols` with the given normalized
/// counts. Returns the marker-terminated byte stream.
///
/// # Errors
///
/// Any table or symbol error from the streaming API; `symbols` must be
/// non-empty.
pub fn encode(symbols: &[u16], norm: &[u32], table_log: u8) -> Result<Vec<u8>, FseError> {
    if symbols.is_empty() {
        return Err(FseError::EmptyAlphabet);
    }
    let table = FseEncodeTable::new(norm, table_log)?;
    let mut w = BitWriter::new();
    let mut enc = FseStreamEncoder::new(&table);
    for &s in symbols.iter().rev() {
        enc.push(s, &mut w)?;
    }
    enc.finish(&mut w)?;
    Ok(w.finish_with_marker())
}

/// One-shot convenience: decodes exactly `count` symbols.
///
/// # Errors
///
/// [`FseError::BadStream`] on truncation or a missing marker, plus any
/// table construction error.
pub fn decode(
    bytes: &[u8],
    norm: &[u32],
    table_log: u8,
    count: usize,
) -> Result<Vec<u16>, FseError> {
    if count == 0 {
        return Ok(Vec::new());
    }
    let table = FseDecodeTable::new(norm, table_log)?;
    let mut r = ReverseBitReader::new(bytes).map_err(|_| FseError::BadStream)?;
    let mut dec = FseStreamDecoder::new(&table, &mut r)?;
    let mut out = Vec::with_capacity(count);
    // Bulk of the stream through the batched window decoder; the final
    // sub-window tail through the per-symbol path (identical symbols and
    // errors either way — see `next_batch`).
    dec.next_batch(&mut r, &mut out, count - 1);
    while out.len() < count - 1 {
        out.push(dec.next(&mut r)?);
    }
    out.push(dec.last());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_util::rng::Xoshiro256;

    fn hist_u16(data: &[u16], alphabet: usize) -> Vec<u32> {
        let mut h = vec![0u32; alphabet];
        for &s in data {
            h[s as usize] += 1;
        }
        h
    }

    /// Per-symbol reference decode: the seed `decode` loop.
    fn decode_per_symbol(
        bytes: &[u8],
        norm: &[u32],
        table_log: u8,
        count: usize,
    ) -> Result<Vec<u16>, FseError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let table = FseDecodeTable::new(norm, table_log)?;
        let mut r = ReverseBitReader::new(bytes).map_err(|_| FseError::BadStream)?;
        let mut dec = FseStreamDecoder::new(&table, &mut r)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count - 1 {
            out.push(dec.next(&mut r)?);
        }
        out.push(dec.last());
        Ok(out)
    }

    #[test]
    fn batched_decode_matches_per_symbol() {
        let mut rng = Xoshiro256::seed_from(92);
        for trial in 0..40 {
            let alphabet = rng.index(40) + 2;
            let len = rng.index(4000) + 2;
            let data: Vec<u16> = (0..len).map(|_| rng.index(alphabet) as u16).collect();
            let hist = hist_u16(&data, alphabet);
            let table_log = recommended_table_log(&hist, 12);
            let norm = normalize_counts(&hist, table_log).unwrap();
            let bytes = encode(&data, &norm, table_log).unwrap();
            assert_eq!(
                decode(&bytes, &norm, table_log, len).unwrap(),
                decode_per_symbol(&bytes, &norm, table_log, len).unwrap(),
                "trial {trial}"
            );
            // Truncated streams must fail with the same error at the same
            // place (or succeed identically when the cut lands mid-padding).
            let cut = rng.index(bytes.len().max(2)).max(1);
            assert_eq!(
                decode(&bytes[..cut], &norm, table_log, len),
                decode_per_symbol(&bytes[..cut], &norm, table_log, len),
                "trial {trial} truncated to {cut} bytes"
            );
        }
    }

    /// The correction loop `normalize_counts` shipped first, one state per
    /// step in both directions, kept as its oracle.
    fn normalize_counts_oracle(freqs: &[u32], table_log: u8) -> Result<Vec<u32>, FseError> {
        if table_log == 0 || table_log > MAX_TABLE_LOG {
            return Err(FseError::BadTableLog);
        }
        let table_size = 1u64 << table_log;
        let total: u64 = freqs.iter().map(|&c| c as u64).sum();
        let used: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        if used.is_empty() {
            return Err(FseError::EmptyAlphabet);
        }
        if used.len() as u64 > table_size {
            return Err(FseError::BadTableLog);
        }
        let mut norm = vec![0u32; freqs.len()];
        let mut assigned: u64 = 0;
        for &s in &used {
            let scaled = ((freqs[s] as u128 * table_size as u128) / total as u128) as u64;
            norm[s] = scaled.max(1) as u32;
            assigned += scaled.max(1);
        }
        while assigned != table_size {
            if assigned > table_size {
                let victim = used.iter().copied().filter(|&s| norm[s] > 1).max_by_key(|&s| norm[s]).unwrap();
                norm[victim] -= 1;
                assigned -= 1;
            } else {
                let winner =
                    used.iter().copied().max_by_key(|&s| (freqs[s] as u64) << 16 | norm[s] as u64).unwrap();
                norm[winner] += 1;
                assigned += 1;
            }
        }
        Ok(norm)
    }

    #[test]
    fn normalize_matches_the_one_step_oracle() {
        let mut rng = Xoshiro256::seed_from(0xF5E);
        for case in 0..20_000 {
            let alphabet = 1 + rng.index(if case % 10 == 0 { 256 } else { 53 });
            let freqs: Vec<u32> = (0..alphabet)
                .map(|_| match case % 4 {
                    0 => rng.index(3) as u32,
                    1 => 1 << rng.index(20),
                    2 if rng.chance(0.5) => 0,
                    _ => rng.index(5000) as u32,
                })
                .collect();
            for log in 0..=MAX_TABLE_LOG + 1 {
                assert_eq!(
                    normalize_counts(&freqs, log),
                    normalize_counts_oracle(&freqs, log),
                    "case {case} log {log} freqs {freqs:?}"
                );
            }
        }
    }

    #[test]
    fn normalize_sums_to_table_size() {
        let freqs = [100u32, 50, 25, 12, 6, 3, 1, 1];
        for log in 5u8..=12 {
            let norm = normalize_counts(&freqs, log).unwrap();
            assert_eq!(
                norm.iter().map(|&c| c as u64).sum::<u64>(),
                1u64 << log,
                "log {log}"
            );
            // Every used symbol keeps at least one state.
            for (s, &f) in freqs.iter().enumerate() {
                assert!(f == 0 || norm[s] >= 1);
            }
        }
    }

    #[test]
    fn normalize_rejects_degenerate() {
        assert_eq!(normalize_counts(&[0, 0], 8), Err(FseError::EmptyAlphabet));
        assert_eq!(normalize_counts(&[1; 16], 3), Err(FseError::BadTableLog));
        assert_eq!(normalize_counts(&[1], 0), Err(FseError::BadTableLog));
        assert_eq!(normalize_counts(&[1], 13), Err(FseError::BadTableLog));
    }

    #[test]
    fn normalize_preserves_skew() {
        let freqs = [1000u32, 10, 10];
        let norm = normalize_counts(&freqs, 8).unwrap();
        assert!(norm[0] > norm[1] * 10);
    }

    #[test]
    fn table_rejects_bad_norm() {
        // Sum is 7, not 8.
        assert_eq!(
            FseEncodeTable::new(&[3, 4], 3).unwrap_err(),
            FseError::BadNormalization
        );
        assert_eq!(
            FseDecodeTable::new(&[3, 4], 3).unwrap_err(),
            FseError::BadNormalization
        );
    }

    #[test]
    fn spread_covers_all_slots() {
        let norm = [4u32, 2, 1, 1];
        let spread = spread_symbols(&norm, 3);
        let mut counts = [0u32; 4];
        for &s in &spread {
            counts[s as usize] += 1;
        }
        assert_eq!(counts.to_vec(), norm.to_vec());
    }

    #[test]
    fn roundtrip_small_alphabet() {
        let symbols: Vec<u16> = vec![0, 1, 0, 0, 2, 0, 1, 0, 0, 0, 2, 1, 0, 0];
        let norm = normalize_counts(&hist_u16(&symbols, 3), 5).unwrap();
        let bytes = encode(&symbols, &norm, 5).unwrap();
        assert_eq!(decode(&bytes, &norm, 5, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn roundtrip_single_symbol_stream() {
        let symbols = vec![7u16; 100];
        let mut freqs = vec![0u32; 8];
        freqs[7] = 100;
        // Normalization gives symbol 7 all states... but table needs >= 1
        // symbol; single-symbol FSE degenerates to ~0 bits/symbol.
        let norm = normalize_counts(&freqs, 4).unwrap();
        let bytes = encode(&symbols, &norm, 4).unwrap();
        assert!(bytes.len() <= 4, "single-symbol stream should be ~free");
        assert_eq!(decode(&bytes, &norm, 4, 100).unwrap(), symbols);
    }

    #[test]
    fn roundtrip_two_symbols() {
        let symbols = vec![0u16, 1];
        let norm = normalize_counts(&[1, 1], 2).unwrap();
        let bytes = encode(&symbols, &norm, 2).unwrap();
        assert_eq!(decode(&bytes, &norm, 2, 2).unwrap(), symbols);
    }

    #[test]
    fn roundtrip_one_symbol_stream() {
        let symbols = vec![3u16];
        let norm = normalize_counts(&[1, 1, 1, 1], 2).unwrap();
        let bytes = encode(&symbols, &norm, 2).unwrap();
        assert_eq!(decode(&bytes, &norm, 2, 1).unwrap(), symbols);
    }

    #[test]
    fn roundtrip_randomized_many() {
        let mut rng = Xoshiro256::seed_from(123);
        for trial in 0..80 {
            let alphabet = rng.index(50) + 2;
            let len = rng.index(3000) + 1;
            // Skewed distribution: zipf-ish over the alphabet.
            let weights: Vec<f64> = (0..alphabet).map(|i| 1.0 / (i + 1) as f64).collect();
            let dist = cdpu_util::hist::Categorical::new(&weights).unwrap();
            let symbols: Vec<u16> = (0..len).map(|_| dist.sample(&mut rng) as u16).collect();
            let hist = hist_u16(&symbols, alphabet);
            let log = recommended_table_log(&hist, 10);
            let norm = normalize_counts(&hist, log).unwrap();
            let bytes = encode(&symbols, &norm, log).unwrap();
            let back = decode(&bytes, &norm, log, symbols.len()).unwrap();
            assert_eq!(back, symbols, "trial {trial} alphabet {alphabet} len {len}");
        }
    }

    #[test]
    fn compression_beats_fixed_width_on_skewed_data() {
        let mut rng = Xoshiro256::seed_from(9);
        // 4-symbol alphabet, heavily skewed: entropy ~= 0.9 bits/symbol.
        let weights = [0.85, 0.07, 0.05, 0.03];
        let dist = cdpu_util::hist::Categorical::new(&weights).unwrap();
        let symbols: Vec<u16> = (0..20_000).map(|_| dist.sample(&mut rng) as u16).collect();
        let hist = hist_u16(&symbols, 4);
        let norm = normalize_counts(&hist, 9).unwrap();
        let bytes = encode(&symbols, &norm, 9).unwrap();
        let bits_per_symbol = bytes.len() as f64 * 8.0 / symbols.len() as f64;
        // Fixed-width would be 2 bits; Huffman's floor is 1 bit; FSE should
        // get below 1.1 (fractional-bit advantage).
        assert!(
            bits_per_symbol < 1.1,
            "fse too weak: {bits_per_symbol} bits/symbol"
        );
    }

    #[test]
    fn unknown_symbol_rejected() {
        let norm = normalize_counts(&[1, 1], 2).unwrap();
        assert_eq!(encode(&[5], &norm, 2), Err(FseError::UnknownSymbol));
    }

    #[test]
    fn truncated_stream_detected() {
        let symbols: Vec<u16> = (0..200).map(|i| (i % 3) as u16).collect();
        let norm = normalize_counts(&hist_u16(&symbols, 3), 6).unwrap();
        let bytes = encode(&symbols, &norm, 6).unwrap();
        // Chop the stream; decoding must fail, not panic.
        let truncated = &bytes[..bytes.len() / 2];
        assert!(decode(truncated, &norm, 6, symbols.len()).is_err());
        assert!(decode(&[], &norm, 6, symbols.len()).is_err());
        assert!(decode(&[0, 0, 0], &norm, 6, symbols.len()).is_err());
    }

    #[test]
    fn empty_requests() {
        let norm = normalize_counts(&[1, 1], 2).unwrap();
        assert_eq!(encode(&[], &norm, 2), Err(FseError::EmptyAlphabet));
        assert_eq!(decode(&[1], &norm, 2, 0).unwrap(), Vec::<u16>::new());
    }

    #[test]
    fn decode_entries_cover_state_space() {
        let norm = normalize_counts(&[10, 5, 3, 2], 6).unwrap();
        let table = FseDecodeTable::new(&norm, 6).unwrap();
        for state in 0..(1u16 << 6) {
            let e = table.entry(state);
            assert!(e.nb_bits <= 6);
            // Next state must stay inside the table for any bit pattern.
            let max_next = e.new_state_base as u32 + ((1u32 << e.nb_bits) - 1);
            assert!(max_next < (1 << 6), "state {state} escapes table");
        }
    }

    #[test]
    fn recommended_log_sane() {
        assert!(recommended_table_log(&[1], 12) >= 1);
        let big: Vec<u32> = vec![1000; 64];
        let log = recommended_table_log(&big, 12);
        assert!(log >= 6, "need at least one state per symbol");
        assert!(log <= 12);
    }
}
