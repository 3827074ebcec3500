//! Huffman-block decode: packed tables, the symbol loop, the applier.
//!
//! A block is decoded in two halves that every decoder in the crate
//! shares — the one-shot entries, the streaming decoder and the
//! stage-pipelined decode. [`decode_huff_entropy`] turns the payload into
//! staged literals and copy operations without touching the output window;
//! [`apply_huff_ops`] replays them against the window. Errors keep the
//! order the interleaved [`crate::reference`] decoder reports them in: the
//! entropy half stops at the first symbol it cannot stage and hands the
//! error over, the applier reports an application error on an earlier
//! operation first.
//!
//! # Table entries
//!
//! Both alphabets decode through one `u32` per look-up:
//!
//! ```text
//! bits  0..4   code length of the symbol; 0 = no code maps here
//! bits  4..9   bits the fast loop consumes for the whole entry
//! bits  9..12  kind: LIT, BASE, SUB, OTHER
//! bits 12..16  extra-bit count (BASE)
//! bits 16..32  literal byte | base length or distance | sub-table offset
//!              | symbol (OTHER)
//! ```
//!
//! `BASE` is a length symbol (257..=285) or a distance symbol (0..=29): its
//! extra bits follow the code, so "bits consumed" is code length plus
//! extra-bit count and the value is `base + (peek(consumed) & mask)`.
//! `SUB` points at a second-level table for codes longer than the primary
//! index. `OTHER` is everything the fast loop does not handle: end of
//! block, symbols outside DEFLATE's alphabets (`deserialize` admits up to
//! 4096), and the unmapped half of a single-symbol table.

use cdpu_entropy::huffman::{HuffmanError, HuffmanTable};
use cdpu_lz77::window::{apply_copy, apply_sequences_prefix};
use cdpu_lz77::Seq;
use cdpu_util::bits::{BitBuf, MsbBitReader};
use cdpu_util::varint;

use crate::{codes, FlateError};

/// Widest primary index. Codes up to 15 bits resolve through `SUB`.
const PRIMARY_BITS: u32 = 11;
/// Longest code either alphabet can carry.
const MAX_CODE_BITS: u32 = 15;
/// Longest length/distance pair: 15-bit code + 5 extra, 15-bit code + 13
/// extra. One [`BitBuf::refill`] guarantees 57.
const PAIR_BITS: u32 = 48;

const OVERRUN: FlateError = FlateError::BadBlock("block output overruns declared size");

const LIT: u32 = 0;
const BASE: u32 = 1;
const SUB: u32 = 2;
const OTHER: u32 = 3;

const fn entry(kind: u32, len: u32, consumed: u32, extra: u32, payload: u32) -> u32 {
    len | consumed << 4 | kind << 9 | extra << 12 | payload << 16
}

/// What a slot no code maps to holds.
const UNMAPPED: u32 = entry(OTHER, 0, 0, 0, 0);

const fn code_len(e: u32) -> u32 {
    e & 0xF
}
const fn consumed(e: u32) -> u32 {
    (e >> 4) & 0x1F
}
const fn kind(e: u32) -> u32 {
    (e >> 9) & 0x7
}
const fn extra_bits(e: u32) -> u32 {
    (e >> 12) & 0xF
}
const fn extra_mask(e: u32) -> u32 {
    (1 << extra_bits(e)) - 1
}
const fn payload(e: u32) -> u32 {
    e >> 16
}

fn litlen_entry(sym: u16, len: u32) -> u32 {
    match (codes::length_extra_bits(sym), codes::length_value(sym, 0)) {
        (Some(extra), Ok(base)) => entry(BASE, len, len + extra as u32, extra as u32, base),
        _ if sym < 256 => entry(LIT, len, len, 0, sym as u32),
        _ => entry(OTHER, len, 0, 0, sym as u32),
    }
}

fn dist_entry(sym: u16, len: u32) -> u32 {
    match (codes::dist_extra_bits(sym), codes::dist_value(sym, 0)) {
        (Some(extra), Ok(base)) => entry(BASE, len, len + extra as u32, extra as u32, base),
        _ => entry(OTHER, len, 0, 0, sym as u32),
    }
}

/// `(symbol, code, length)` of every coded symbol, codes assigned as
/// `HuffmanTable` assigns them: by length, then by symbol (RFC 1951 §3.2.2).
fn canonical_codes(lengths: &[u8]) -> impl Iterator<Item = (u16, usize, u32)> + '_ {
    let mut count = [0u32; MAX_CODE_BITS as usize + 1];
    for &len in lengths {
        count[len as usize] += 1;
    }
    count[0] = 0;
    let mut next_code = [0u32; MAX_CODE_BITS as usize + 1];
    for len in 1..=MAX_CODE_BITS as usize {
        next_code[len] = (next_code[len - 1] + count[len - 1]) << 1;
    }
    lengths.iter().enumerate().filter(|(_, &len)| len > 0).map(move |(sym, &len)| {
        let code = next_code[len as usize];
        next_code[len as usize] += 1;
        (sym as u16, code as usize, len as u32)
    })
}

/// A two-level decode table: `1 << bits` primary entries, then the
/// second-level tables `SUB` entries point at.
struct PackedTable {
    entries: Vec<u32>,
    bits: u32,
}

impl PackedTable {
    const fn new() -> Self {
        PackedTable { entries: Vec::new(), bits: 0 }
    }

    /// Fills the table for a canonical code (a complete code or a single
    /// 1-bit symbol, as [`HuffmanTable::deserialize`] admits), the primary
    /// level indexed by the longest code's bits up to [`PRIMARY_BITS`].
    fn build(&mut self, code: &HuffmanTable, entry_for: fn(u16, u32) -> u32) {
        let lengths = code.lengths();
        let bits = PRIMARY_BITS.min(code.max_code_len() as u32);
        self.bits = bits;
        self.entries.clear();
        self.entries.resize(1 << bits, UNMAPPED);
        // Short codes fill their span of the primary table; a long code
        // leaves the width its prefix's second level needs.
        let mut any_long = false;
        for (sym, code, len) in canonical_codes(lengths) {
            if len <= bits {
                let span = 1usize << (bits - len);
                self.entries[code * span..(code + 1) * span].fill(entry_for(sym, len));
            } else {
                let slot = &mut self.entries[code >> (len - bits)];
                *slot = entry(SUB, 0, consumed(*slot).max(len - bits), 0, 0);
                any_long = true;
            }
        }
        if !any_long {
            return;
        }
        for prefix in 0..1usize << bits {
            let sub_bits = consumed(self.entries[prefix]);
            if kind(self.entries[prefix]) == SUB {
                let at = self.entries.len();
                self.entries.resize(at + (1 << sub_bits), UNMAPPED);
                self.entries[prefix] = entry(SUB, 0, sub_bits, 0, at as u32);
            }
        }
        for (sym, code, len) in canonical_codes(lengths).filter(|&(_, _, len)| len > bits) {
            let sub = self.entries[code >> (len - bits)];
            let low = code & ((1 << (len - bits)) - 1);
            let span = 1usize << (consumed(sub) - (len - bits));
            let at = payload(sub) as usize + low * span;
            self.entries[at..at + span].fill(entry_for(sym, len));
        }
    }
}

/// The two tables of the block being decoded. Grow-only and per thread, so
/// a block costs no allocation once the thread has seen one like it.
struct BlockTables {
    litlen: PackedTable,
    dist: PackedTable,
}

impl BlockTables {
    const fn new() -> Self {
        BlockTables { litlen: PackedTable::new(), dist: PackedTable::new() }
    }
}

cdpu_util::tls_scratch! {
    fn with_block_tables, BlockTables
}

/// Fast-loop look-up: the window must hold [`MAX_CODE_BITS`] valid bits.
#[inline(always)]
fn lookup(table: &PackedTable, buf: &BitBuf<'_>) -> u32 {
    let e = table.entries[buf.peek(table.bits) as usize];
    if kind(e) != SUB {
        return e;
    }
    let low = buf.peek(table.bits + consumed(e)) as usize & ((1 << consumed(e)) - 1);
    table.entries[payload(e) as usize + low]
}

/// Per-symbol look-up with [`HuffmanTable::decode_symbol`]'s contract: bits
/// past the end of the stream read as zero, and a code that is unmapped or
/// longer than what remains is a bad stream.
fn decode_symbol(table: &PackedTable, r: &mut MsbBitReader<'_>) -> Result<u32, HuffmanError> {
    let peek = r.peek_bits(MAX_CODE_BITS) as usize;
    let mut e = table.entries[peek >> (MAX_CODE_BITS - table.bits)];
    if kind(e) == SUB {
        let low = (peek >> (MAX_CODE_BITS - table.bits - consumed(e))) & ((1 << consumed(e)) - 1);
        e = table.entries[payload(e) as usize + low];
    }
    if code_len(e) == 0 || r.remaining() < code_len(e) as usize {
        return Err(HuffmanError::BadStream);
    }
    r.consume(code_len(e));
    Ok(e)
}

/// One operation of the symbol stream.
enum Op {
    Literal(u8),
    Copy { len: u32, distance: u32 },
    EndOfBlock,
}

/// Decodes one operation the way the reference decoder does: one symbol,
/// one bounds-checked field at a time, reporting its errors in its order.
fn next_op(tables: &BlockTables, r: &mut MsbBitReader<'_>) -> Result<Op, FlateError> {
    let e = decode_symbol(&tables.litlen, r).map_err(FlateError::Huffman)?;
    match kind(e) {
        LIT => Ok(Op::Literal(payload(e) as u8)),
        BASE => {
            let extra = r.read_bits(extra_bits(e)).map_err(|_| FlateError::Truncated)?;
            let d = decode_symbol(&tables.dist, r).map_err(FlateError::Huffman)?;
            if kind(d) != BASE {
                return Err(FlateError::BadBlock("distance code"));
            }
            let dextra = r.read_bits(extra_bits(d)).map_err(|_| FlateError::Truncated)?;
            Ok(Op::Copy { len: payload(e) + extra as u32, distance: payload(d) + dextra as u32 })
        }
        _ if payload(e) == codes::END_OF_BLOCK as u32 => Ok(Op::EndOfBlock),
        _ => Err(FlateError::BadBlock("length code")),
    }
}

/// A block payload's header: both code books and the symbol bitstream.
fn read_header(payload: &[u8]) -> Result<(HuffmanTable, HuffmanTable, &[u8], usize), FlateError> {
    let (litlen, mut pos) = HuffmanTable::deserialize(payload).map_err(FlateError::Huffman)?;
    let (dist, n) = HuffmanTable::deserialize(&payload[pos..]).map_err(FlateError::Huffman)?;
    pos += n;
    let (bit_len, n) =
        varint::read_u64(&payload[pos..]).map_err(|_| FlateError::BadBlock("bit length"))?;
    pos += n;
    let nbytes = (bit_len as usize).div_ceil(8);
    if pos + nbytes > payload.len() {
        return Err(FlateError::Truncated);
    }
    Ok((litlen, dist, &payload[pos..pos + nbytes], bit_len as usize))
}

/// Decodes a Huffman block's *entropy stage only*: tables, bitstream and
/// symbol semantics, staging literals and copy operations without touching
/// the output window. `lits` is staging space that only grows: the staged
/// literals are its first `Σ lit_len + tail` bytes, the rest is stale.
///
/// Staging stops at the first operation that cannot be staged — a symbol
/// the reference decoder rejects, or the operation that takes the block
/// past `block_len`: a literal is then not staged at all, a copy is (its
/// distance is checked before its overrun), so a hostile payload stages at
/// most `block_len` literals and one copy too many, not a multiple of its
/// own size. The operations before it stay staged and the error is
/// returned alongside, because the interleaved decoder would have applied
/// them first and may hit an application error, which takes precedence.
/// [`apply_huff_ops`] consumes the pair and reproduces that first-error
/// value exactly.
///
/// Returns `(tail_literals, deferred_error)`: the literal count after the
/// last staged copy, and the error to surface if application succeeds.
pub(crate) fn decode_huff_entropy(
    payload: &[u8],
    block_len: usize,
    lits: &mut Vec<u8>,
    seqs: &mut Vec<Seq>,
) -> (usize, Option<FlateError>) {
    seqs.clear();
    let (litlen, dist, stream, bit_len) = match read_header(payload) {
        Ok(header) => header,
        Err(e) => return (0, Some(e)),
    };
    if lits.len() < block_len {
        lits.resize(block_len, 0);
    }
    with_block_tables(|tables| {
        tables.litlen.build(&litlen, litlen_entry);
        tables.dist.build(&dist, dist_entry);
        decode_symbols(tables, stream, bit_len, &mut lits[..block_len], seqs)
    })
}

/// The symbol loop behind [`decode_huff_entropy`]; the block may produce
/// `lits.len()` bytes.
///
/// The fast loop reads through a cached [`BitBuf`] window and only ever
/// looks at bits inside the stream: it refills only while 64 bits remain,
/// and between refills consumes no more than the window held. It stages
/// literals and whole length/distance pairs and nothing else, and runs
/// while the block has room for a byte. Anything else — end of block, a
/// symbol outside the alphabets, an unmapped slot, fewer than 64 bits left,
/// a full block — goes to the per-symbol loop *at the bit position of the
/// literal/length symbol it belongs to*, so that loop sees exactly the
/// stream position and staged prefix the reference decoder has when it
/// meets that symbol, and reports what the reference reports.
fn decode_symbols(
    tables: &BlockTables,
    stream: &[u8],
    bit_len: usize,
    lits: &mut [u8],
    seqs: &mut Vec<Seq>,
) -> (usize, Option<FlateError>) {
    let block_len = lits.len();
    // Literals staged, literals staged when the last copy was, copy bytes.
    let (mut staged, mut run_start, mut copied) = (0usize, 0usize, 0usize);

    let mut buf = BitBuf::new(stream, bit_len);
    let hand_over = loop {
        if staged + copied >= block_len {
            break buf.position();
        }
        if buf.valid() < MAX_CODE_BITS {
            if buf.remaining() < 64 {
                break buf.position();
            }
            buf.refill();
        }
        let e = lookup(&tables.litlen, &buf);
        if kind(e) == LIT {
            lits[staged] = payload(e) as u8;
            staged += 1;
            buf.consume(consumed(e));
            continue;
        }
        if kind(e) != BASE {
            break buf.position();
        }
        if buf.valid() < PAIR_BITS {
            if buf.remaining() < 64 {
                break buf.position();
            }
            buf.refill();
        }
        let at = buf.position();
        let len = payload(e) + (buf.peek(consumed(e)) as u32 & extra_mask(e));
        buf.consume(consumed(e));
        let d = lookup(&tables.dist, &buf);
        if kind(d) != BASE {
            break at;
        }
        let distance = payload(d) + (buf.peek(consumed(d)) as u32 & extra_mask(d));
        buf.consume(consumed(d));
        seqs.push(Seq { lit_len: (staged - run_start) as u32, match_len: len, offset: distance });
        run_start = staged;
        copied += len as usize;
    };

    let mut r = MsbBitReader::new(stream, bit_len);
    r.seek(hand_over);
    let deferred = loop {
        if staged + copied > block_len {
            break Some(OVERRUN);
        }
        match next_op(tables, &mut r) {
            Ok(Op::Literal(_)) if staged + copied == block_len => break Some(OVERRUN),
            Ok(Op::Literal(byte)) => {
                lits[staged] = byte;
                staged += 1;
            }
            Ok(Op::Copy { len, distance }) => {
                seqs.push(Seq {
                    lit_len: (staged - run_start) as u32,
                    match_len: len,
                    offset: distance,
                });
                run_start = staged;
                copied += len as usize;
            }
            Ok(Op::EndOfBlock) => break None,
            Err(e) => break Some(e),
        }
    };
    (staged - run_start, deferred)
}

/// Applies entropy-staged operations ([`decode_huff_entropy`]) to the
/// output window, enforcing the window bound and the per-operation overrun
/// check, then surfaces the deferred entropy error (if any). Application
/// errors on staged operations take precedence over the deferred error —
/// matching the interleaved reference decoder, which would have hit them
/// first.
pub(crate) fn apply_huff_ops(
    lits: &[u8],
    seqs: &[Seq],
    tail_literals: usize,
    deferred: Option<FlateError>,
    out: &mut Vec<u8>,
    window: u32,
    max_len: usize,
) -> Result<(), FlateError> {
    let start = out.len();
    // The chunked executor takes every operation that is valid with room
    // to spare; the loop below owns the rest, and with it every error.
    let (applied, mut cursor) = apply_sequences_prefix(out, lits, seqs, window, max_len);
    for s in &seqs[applied..] {
        out.extend_from_slice(&lits[cursor..cursor + s.lit_len as usize]);
        cursor += s.lit_len as usize;
        if out.len() - start > max_len {
            return Err(OVERRUN);
        }
        if s.offset > window {
            return Err(FlateError::BadDistance);
        }
        apply_copy(out, s.offset, s.match_len).map_err(|_| FlateError::BadDistance)?;
        if out.len() - start > max_len {
            return Err(OVERRUN);
        }
    }
    out.extend_from_slice(&lits[cursor..cursor + tail_literals]);
    if out.len() - start > max_len {
        return Err(OVERRUN);
    }
    match deferred {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload coding 100 000 literals stages no more of them than the
    /// block declares.
    #[test]
    fn staging_stops_at_the_declared_length() {
        let mut litlen = vec![0u8; 257];
        litlen[b'a' as usize] = 1;
        litlen[codes::END_OF_BLOCK as usize] = 1;
        let mut payload = Vec::new();
        HuffmanTable::from_lengths(litlen).unwrap().serialize(&mut payload);
        HuffmanTable::from_lengths(vec![1]).unwrap().serialize(&mut payload);
        // 'a' is the code `0`, end of block `1`.
        varint::write_u64(&mut payload, 100_001);
        payload.extend_from_slice(&[0u8; 12_500]);
        payload.push(0x80);

        for block_len in [0, 1, 2, 777, 16_384, 99_999] {
            let (mut lits, mut seqs) = (Vec::new(), Vec::new());
            let (tail, deferred) = decode_huff_entropy(&payload, block_len, &mut lits, &mut seqs);
            assert_eq!((tail, deferred), (block_len, Some(OVERRUN)));
            assert!(lits.len() <= block_len + 2 && seqs.is_empty());
            assert!(lits[..tail].iter().all(|&b| b == b'a'));
        }
        let (mut lits, mut seqs) = (Vec::new(), Vec::new());
        let (tail, deferred) = decode_huff_entropy(&payload, 100_000, &mut lits, &mut seqs);
        assert_eq!((tail, deferred), (100_000, None));
    }
}
