//! Compressed-block encoding: literals section + sequences section.
//!
//! A compressed block carries:
//!
//! 1. **Literals section** — the concatenated literal bytes, stored raw,
//!    as an RLE byte, or Huffman-coded with an embedded code book (the
//!    "Huff Table Builder / Reader" path of Figure 9).
//! 2. **Sequences section** — the `(lit_len, match_len, offset)` triples,
//!    split into small FSE codes plus verbatim extra bits per RFC 8878's
//!    code tables ([`crate::codes`]), with three FSE streams (LL/ML/OF)
//!    interleaved in a single backward-read bitstream exactly as ZStandard
//!    interleaves them.
//!
//! The encoder walks sequences backward, the decoder emits them forward —
//! the property that makes hardware FSE expanders single-pass.

use cdpu_entropy::fse::{self, FseEncodeTable, FseError, FseStreamEncoder};
use cdpu_entropy::huffman::HuffmanTable;
use cdpu_entropy::{interleave, rans};
use cdpu_lz77::{Parse, Seq};
use cdpu_util::bits::{BitWriter, ReverseBitReader};
use cdpu_util::varint;

use crate::codes;
use crate::ZstdError;

/// Literals-section storage mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiteralsMode {
    /// Stored verbatim.
    Raw,
    /// A single repeated byte.
    Rle,
    /// Huffman-coded with an embedded table.
    Huffman,
}

/// Per-block compression statistics, consumed by the hardware model to
/// charge cycles where the RTL spends them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockStats {
    /// Uncompressed bytes this block covers.
    pub input_bytes: usize,
    /// Compressed bytes emitted (payload only).
    pub output_bytes: usize,
    /// Number of LZ77 sequences.
    pub sequences: usize,
    /// Literal bytes carried.
    pub literal_bytes: usize,
    /// Whether the literals were Huffman-coded (a table build + decode
    /// table SRAM fill on the accelerator).
    pub huffman_literals: bool,
    /// Bits in the Huffman literal stream (0 when not Huffman).
    pub huffman_bits: usize,
    /// Bytes in the interleaved FSE sequence bitstream.
    pub fse_bytes: usize,
    /// Interleaved literal streams (0 for the legacy single-stream modes).
    pub lit_streams: u8,
    /// Interleaved sequence bitstreams (0 for the legacy modes).
    pub seq_streams: u8,
    /// Whether the literals were rANS-coded (an alternative entropy unit
    /// on the accelerator).
    pub rans_literals: bool,
    /// Bytes in the rANS literal stream (0 when not rANS).
    pub rans_bytes: usize,
}

const LL_TABLE_LOG_MAX: u8 = 9;
const ML_TABLE_LOG_MAX: u8 = 9;
const OF_TABLE_LOG_MAX: u8 = 8;

/// Minimum literal run for choosing RLE mode.
const RLE_MIN: usize = 8;

fn write_fse_header(out: &mut Vec<u8>, norm: &[u32], table_log: u8) {
    out.push(table_log);
    let alphabet = norm.len() as u16;
    out.extend_from_slice(&alphabet.to_le_bytes());
    for &c in norm {
        debug_assert!(c <= u16::MAX as u32);
        out.extend_from_slice(&(c as u16).to_le_bytes());
    }
}

/// Most codes a sequence-field table may carry (the 53 match-length codes
/// fit).
const MAX_SEQ_CODES: usize = 64;

fn read_fse_header(input: &[u8], pos: &mut usize) -> Result<(Vec<u32>, u8), ZstdError> {
    read_norm_header(input, pos, MAX_SEQ_CODES)
}

/// Reads a `write_fse_header`-format normalized-count table with a caller
/// chosen alphabet cap: 64 for the sequence-code tables, 256 for the rANS
/// literal table (a full byte alphabet).
fn read_norm_header(
    input: &[u8],
    pos: &mut usize,
    max_alphabet: usize,
) -> Result<(Vec<u32>, u8), ZstdError> {
    if *pos + 3 > input.len() {
        return Err(ZstdError::Truncated);
    }
    let table_log = input[*pos];
    let alphabet = u16::from_le_bytes([input[*pos + 1], input[*pos + 2]]) as usize;
    *pos += 3;
    if alphabet == 0 || alphabet > max_alphabet || *pos + 2 * alphabet > input.len() {
        return Err(ZstdError::BadBlock("bad fse header"));
    }
    let mut norm = Vec::with_capacity(alphabet);
    for i in 0..alphabet {
        norm.push(u16::from_le_bytes([input[*pos + 2 * i], input[*pos + 2 * i + 1]]) as u32);
    }
    *pos += 2 * alphabet;
    Ok((norm, table_log))
}

/// Encodes the literals section.
fn encode_literals(
    literals: &[u8],
    out: &mut Vec<u8>,
    stats: &mut BlockStats,
    entropy: &crate::EntropyConfig,
) {
    stats.literal_bytes = literals.len();
    if literals.is_empty() {
        out.push(0); // Raw, empty
        varint::write_u64(out, 0);
        return;
    }
    if literals.len() >= RLE_MIN && literals.iter().all(|&b| b == literals[0]) {
        out.push(1); // RLE
        varint::write_u64(out, literals.len() as u64);
        out.push(literals[0]);
        return;
    }
    match entropy.lit_backend {
        crate::LitBackend::Rans => {
            if try_encode_literals_rans(literals, out, stats, entropy.lit_streams) {
                return;
            }
        }
        crate::LitBackend::Huffman if entropy.lit_streams > 1 => {
            if try_encode_literals_huffman_nway(literals, out, stats, entropy.lit_streams) {
                return;
            }
        }
        crate::LitBackend::Huffman => {
            // The seed format: single-stream Huffman (mode 2).
            let hist = cdpu_entropy::byte_histogram(literals);
            if let Ok(table) = HuffmanTable::from_frequencies(&hist) {
                if let Ok((bits, bit_len)) = table.encode_bytes(literals) {
                    let mut header = Vec::new();
                    table.serialize(&mut header);
                    let encoded_total = header.len() + bits.len() + 10;
                    if encoded_total < literals.len() {
                        out.push(2); // Huffman
                        varint::write_u64(out, literals.len() as u64);
                        out.extend_from_slice(&header);
                        varint::write_u64(out, bit_len as u64);
                        out.extend_from_slice(&bits);
                        stats.huffman_literals = true;
                        stats.huffman_bits = bit_len;
                        return;
                    }
                }
            }
        }
    }
    out.push(0); // Raw
    varint::write_u64(out, literals.len() as u64);
    out.extend_from_slice(literals);
}

/// Mode 3: K-way interleaved Huffman literals — one shared table, K
/// independent bit streams with per-stream bit lengths in the header.
/// Returns false (emitting nothing) when the coded form would not pay.
fn try_encode_literals_huffman_nway(
    literals: &[u8],
    out: &mut Vec<u8>,
    stats: &mut BlockStats,
    ways: u8,
) -> bool {
    let hist = cdpu_entropy::byte_histogram(literals);
    let Ok(table) = HuffmanTable::from_frequencies(&hist) else {
        return false;
    };
    let Ok(streams) = interleave::huffman_encode(&table, literals, ways as usize) else {
        return false;
    };
    let mut header = Vec::new();
    table.serialize(&mut header);
    let frame_overhead = header.len() + 2 + 3 * streams.bit_lens.len() + 10;
    if frame_overhead + streams.payload.len() >= literals.len() {
        return false;
    }
    out.push(3); // Interleaved Huffman
    varint::write_u64(out, literals.len() as u64);
    out.extend_from_slice(&header);
    out.push(ways);
    for &bits in &streams.bit_lens {
        varint::write_u64(out, bits);
    }
    out.extend_from_slice(&streams.payload);
    stats.huffman_literals = true;
    stats.huffman_bits = streams.bit_lens.iter().sum::<u64>() as usize;
    stats.lit_streams = ways;
    true
}

/// Mode 4: rANS literals — normalized-count header (full byte alphabet)
/// plus a single interleaved byte stream (rANS lanes share one stream, so
/// no per-stream framing is needed). Returns false when coding does not
/// pay or the table cannot be built.
fn try_encode_literals_rans(
    literals: &[u8],
    out: &mut Vec<u8>,
    stats: &mut BlockStats,
    ways: u8,
) -> bool {
    let hist = cdpu_entropy::byte_histogram(literals);
    let Some(max_sym) = hist.iter().rposition(|&c| c > 0) else {
        return false;
    };
    let hist = &hist[..=max_sym];
    let scale_bits = fse::recommended_table_log(hist, rans::MAX_SCALE_BITS);
    let Ok(norm) = fse::normalize_counts(hist, scale_bits) else {
        return false;
    };
    let Ok(table) = rans::RansTable::new(&norm, scale_bits) else {
        return false;
    };
    let Ok(stream) = rans::encode(&table, literals, ways as usize) else {
        return false;
    };
    let frame_overhead = 3 + 2 * norm.len() + 2 + 10;
    if frame_overhead + stream.len() >= literals.len() {
        return false;
    }
    out.push(4); // rANS
    varint::write_u64(out, literals.len() as u64);
    write_fse_header(out, &norm, scale_bits);
    out.push(ways);
    varint::write_u64(out, stream.len() as u64);
    out.extend_from_slice(&stream);
    stats.rans_literals = true;
    stats.rans_bytes = stream.len();
    stats.lit_streams = ways;
    true
}

/// Decodes the literals section, appending the literal bytes to `lits`
/// (cleared by the caller; routing through a caller-held buffer lets one
/// allocation serve every block of a frame — or every frame, with a
/// [`cdpu_lz77::window::DecoderScratch`]).
fn decode_literals_into(
    input: &[u8],
    pos: &mut usize,
    lits: &mut Vec<u8>,
) -> Result<(), ZstdError> {
    if *pos >= input.len() {
        return Err(ZstdError::Truncated);
    }
    let mode = input[*pos];
    *pos += 1;
    let (count, n) =
        varint::read_u64(&input[*pos..]).map_err(|_| ZstdError::BadBlock("literal count"))?;
    *pos += n;
    let count = count as usize;
    if count > crate::MAX_BLOCK_SIZE * 2 {
        return Err(ZstdError::BadBlock("absurd literal count"));
    }
    match mode {
        0 => {
            if *pos + count > input.len() {
                return Err(ZstdError::Truncated);
            }
            lits.extend_from_slice(&input[*pos..*pos + count]);
            *pos += count;
            Ok(())
        }
        1 => {
            if *pos >= input.len() {
                return Err(ZstdError::Truncated);
            }
            let b = input[*pos];
            *pos += 1;
            lits.resize(count, b);
            Ok(())
        }
        2 => {
            let (table, consumed) = HuffmanTable::deserialize(&input[*pos..])
                .map_err(ZstdError::Huffman)?;
            *pos += consumed;
            let (bit_len, n) = varint::read_u64(&input[*pos..])
                .map_err(|_| ZstdError::BadBlock("huffman bit length"))?;
            *pos += n;
            let nbytes = (bit_len as usize).div_ceil(8);
            if *pos + nbytes > input.len() {
                return Err(ZstdError::Truncated);
            }
            table
                .decode_bytes_into(&input[*pos..*pos + nbytes], bit_len as usize, count, lits)
                .map_err(ZstdError::Huffman)?;
            *pos += nbytes;
            Ok(())
        }
        3 => {
            let (table, consumed) = HuffmanTable::deserialize(&input[*pos..])
                .map_err(ZstdError::Huffman)?;
            *pos += consumed;
            if *pos >= input.len() {
                return Err(ZstdError::Truncated);
            }
            let ways = input[*pos] as usize;
            *pos += 1;
            if ways == 0 || ways > interleave::MAX_WAYS {
                return Err(ZstdError::BadBlock("bad literal stream count"));
            }
            let mut bit_lens = Vec::with_capacity(ways);
            let mut span = 0u64;
            for _ in 0..ways {
                let (bits, n) = varint::read_u64(&input[*pos..])
                    .map_err(|_| ZstdError::BadBlock("literal stream length"))?;
                *pos += n;
                // Hostile headers: bound each stream by the input that is
                // actually present before doing any usize arithmetic.
                if bits > (input.len() as u64) * 8 {
                    return Err(ZstdError::BadBlock("literal stream length"));
                }
                span += bits.div_ceil(8);
                bit_lens.push(bits);
            }
            if span > (input.len() - *pos) as u64 {
                return Err(ZstdError::Truncated);
            }
            let span = span as usize;
            interleave::huffman_decode_into(&table, &input[*pos..*pos + span], &bit_lens, count, lits)
                .map_err(ZstdError::Huffman)?;
            *pos += span;
            Ok(())
        }
        4 => {
            let (norm, scale_bits) = read_norm_header(input, pos, 256)?;
            if *pos >= input.len() {
                return Err(ZstdError::Truncated);
            }
            let ways = input[*pos] as usize;
            *pos += 1;
            if ways == 0 || ways > interleave::MAX_WAYS {
                return Err(ZstdError::BadBlock("bad literal stream count"));
            }
            let (stream_len, n) = varint::read_u64(&input[*pos..])
                .map_err(|_| ZstdError::BadBlock("rans stream length"))?;
            *pos += n;
            let stream_len = stream_len as usize;
            if stream_len > input.len() - *pos {
                return Err(ZstdError::Truncated);
            }
            let table = rans::RansTable::new(&norm, scale_bits)
                .map_err(|_| ZstdError::BadBlock("bad rans table"))?;
            rans::decode_into(&table, &input[*pos..*pos + stream_len], count, ways, lits)
                .map_err(|_| ZstdError::BadBlock("rans literal stream"))?;
            *pos += stream_len;
            Ok(())
        }
        _ => Err(ZstdError::BadBlock("unknown literals mode")),
    }
}

/// Splits every sequence into its three coded fields.
struct CodedSeqs {
    ll: Vec<codes::CodedField>,
    ml: Vec<codes::CodedField>,
    of: Vec<codes::CodedField>,
}

fn code_sequences(seqs: &[Seq]) -> Result<CodedSeqs, ZstdError> {
    let mut ll = Vec::with_capacity(seqs.len());
    let mut ml = Vec::with_capacity(seqs.len());
    let mut of = Vec::with_capacity(seqs.len());
    for s in seqs {
        ll.push(codes::ll_code(s.lit_len).map_err(|_| ZstdError::BadBlock("lit_len range"))?);
        ml.push(codes::ml_code(s.match_len).map_err(|_| ZstdError::BadBlock("match_len range"))?);
        of.push(codes::of_code(s.offset).map_err(|_| ZstdError::BadBlock("offset range"))?);
    }
    Ok(CodedSeqs { ll, ml, of })
}

fn build_norm(fields: &[codes::CodedField], alphabet: usize, max_log: u8) -> (Vec<u32>, u8) {
    let mut hist = vec![0u32; alphabet];
    let mut max_code = 0usize;
    for f in fields {
        hist[f.code as usize] += 1;
        max_code = max_code.max(f.code as usize);
    }
    hist.truncate(max_code + 1);
    let table_log = fse::recommended_table_log(&hist, max_log);
    let norm = fse::normalize_counts(&hist, table_log).expect("non-empty histogram");
    (norm, table_log)
}

/// Below this sequence count, FSE table headers cost more than they save;
/// sequences are written as raw varint triples instead (the analogue of
/// ZStd's predefined/RLE sequence-compression modes for short blocks).
const RAW_SEQ_THRESHOLD: usize = 16;

const SEQ_MODE_RAW: u8 = 0;
const SEQ_MODE_FSE: u8 = 1;
const SEQ_MODE_FSE_NWAY: u8 = 2;

/// Encodes the sequences section.
fn encode_sequences(
    seqs: &[Seq],
    out: &mut Vec<u8>,
    stats: &mut BlockStats,
    seq_streams: u8,
) -> Result<(), ZstdError> {
    varint::write_u64(out, seqs.len() as u64);
    stats.sequences = seqs.len();
    if seqs.is_empty() {
        return Ok(());
    }
    if seqs.len() < RAW_SEQ_THRESHOLD {
        out.push(SEQ_MODE_RAW);
        for s in seqs {
            varint::write_u64(out, s.lit_len as u64);
            varint::write_u64(out, s.match_len as u64);
            varint::write_u64(out, s.offset as u64);
        }
        return Ok(());
    }
    // RAW_SEQ_THRESHOLD > MAX_WAYS, so every interleaved lane below holds at
    // least one sequence.
    let ways = (seq_streams as usize).clamp(1, interleave::MAX_WAYS);
    if ways > 1 {
        out.push(SEQ_MODE_FSE_NWAY);
        out.push(ways as u8);
        stats.seq_streams = ways as u8;
    } else {
        out.push(SEQ_MODE_FSE);
    }
    let coded = code_sequences(seqs)?;
    let (ll_norm, ll_log) = build_norm(&coded.ll, codes::LL_CODES, LL_TABLE_LOG_MAX);
    let (ml_norm, ml_log) = build_norm(&coded.ml, codes::ML_CODES, ML_TABLE_LOG_MAX);
    let (of_norm, of_log) = build_norm(&coded.of, codes::OF_CODES, OF_TABLE_LOG_MAX);
    write_fse_header(out, &ll_norm, ll_log);
    write_fse_header(out, &ml_norm, ml_log);
    write_fse_header(out, &of_norm, of_log);

    let ll_table = FseEncodeTable::new(&ll_norm, ll_log).map_err(ZstdError::Fse)?;
    let ml_table = FseEncodeTable::new(&ml_norm, ml_log).map_err(ZstdError::Fse)?;
    let of_table = FseEncodeTable::new(&of_norm, of_log).map_err(ZstdError::Fse)?;

    // One bitstream per lane: lane k carries the LL/ML/OF triples of
    // sequences `k, k+ways, k+2*ways, ...` against the shared tables. With
    // `ways == 1` this is exactly the seed's single-stream layout.
    let mut streams = Vec::with_capacity(ways);
    for lane in 0..ways {
        let mut w = BitWriter::new();
        let mut ll_enc = FseStreamEncoder::new(&ll_table);
        let mut ml_enc = FseStreamEncoder::new(&ml_table);
        let mut of_enc = FseStreamEncoder::new(&of_table);

        // Backward over this lane's sequences; the decoder reads the
        // resulting stream in reverse and therefore emits them forward. Per
        // sequence the write order is (ll_sym, ml_sym, of_sym, ll_extra,
        // ml_extra, of_extra); the decoder's read order is the exact mirror.
        let lane_count = interleave::stream_symbols(seqs.len(), ways, lane);
        for j in (0..lane_count).rev() {
            let i = lane + j * ways;
            ll_enc.push(coded.ll[i].code, &mut w).map_err(ZstdError::Fse)?;
            ml_enc.push(coded.ml[i].code, &mut w).map_err(ZstdError::Fse)?;
            of_enc.push(coded.of[i].code, &mut w).map_err(ZstdError::Fse)?;
            w.write_bits(coded.ll[i].extra as u64, coded.ll[i].extra_bits as u32);
            w.write_bits(coded.ml[i].extra as u64, coded.ml[i].extra_bits as u32);
            w.write_bits(coded.of[i].extra as u64, coded.of[i].extra_bits as u32);
        }
        ll_enc.finish(&mut w).map_err(ZstdError::Fse)?;
        ml_enc.finish(&mut w).map_err(ZstdError::Fse)?;
        of_enc.finish(&mut w).map_err(ZstdError::Fse)?;
        streams.push(w.finish_with_marker());
    }
    stats.fse_bytes = streams.iter().map(Vec::len).sum();
    for stream in &streams {
        varint::write_u64(out, stream.len() as u64);
    }
    for stream in &streams {
        out.extend_from_slice(stream);
    }
    Ok(())
}

/// Marks a baked entry whose code has no value: its extra-bit count is at
/// least this, so no sequence that reaches it fits the peeked window, and
/// the per-field path reports the error where it always has.
const NO_VALUE: u8 = 0x80;

/// One state of a baked sequence table: what the state's code decodes to
/// and where the state goes next. The value is `base` plus `extra` extra
/// bits (`extra & !NO_VALUE` bits for a code with no value); the next state
/// is `next` plus `nb_bits` transition bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SeqEntry {
    base: u32,
    extra: u8,
    nb_bits: u8,
    next: u16,
}

/// The `(base, extra)` halves of one field's entries, by code.
type CodeValue = fn(u16) -> (u32, u8);

fn ll_code_value(code: u16) -> (u32, u8) {
    codes::ll_value(code, 0).map_or((0, NO_VALUE), |base| (base, codes::ll_extra_bits(code)))
}

fn ml_code_value(code: u16) -> (u32, u8) {
    codes::ml_value(code, 0).map_or((0, NO_VALUE), |base| (base, codes::ml_extra_bits(code)))
}

/// An offset code above 31 still reads `code` extra bits before it fails.
fn of_code_value(code: u16) -> (u32, u8) {
    let extra = codes::of_extra_bits(code);
    codes::of_value(code, 0).map_or((0, NO_VALUE | extra), |base| (base, extra))
}

/// Bakes one field's FSE decode table from its normalized counts (at most
/// [`MAX_SEQ_CODES`] codes): the shared decode-table walk, with each
/// state's code replaced by its value base and extra-bit count.
fn bake(norm: &[u32], table_log: u8, value: CodeValue) -> Result<Vec<SeqEntry>, ZstdError> {
    let mut code_value = [(0u32, 0u8); MAX_SEQ_CODES];
    for (code, slot) in code_value.iter_mut().enumerate().take(norm.len()) {
        *slot = value(code as u16);
    }
    fse::build_decode_table(norm, table_log, |e| {
        let (base, extra) = code_value[e.symbol as usize];
        SeqEntry {
            base,
            extra,
            nb_bits: e.nb_bits,
            next: e.new_state_base,
        }
    })
    .map_err(ZstdError::Fse)
}

/// Decodes the sequences section, appending to `seqs` (cleared by the
/// caller — same buffer-reuse contract as [`decode_literals_into`]).
///
/// Each state of the LL, ML and OF tables is baked into one [`SeqEntry`],
/// so a sequence is three entry loads, one peeked tail window, shifts and
/// a push. When a sequence's extra bits and transitions fit the window they
/// are sliced out of it and consumed at once; otherwise (the stream tail,
/// wide fields, a code with no value) the fields are read one at a time in
/// the same order, which is where every error is reported. One loop serves
/// one stream and the N-way lanes: lane `i % ways` decodes sequence `i`.
fn decode_sequences_into(
    input: &[u8],
    pos: &mut usize,
    seqs: &mut Vec<Seq>,
) -> Result<(), ZstdError> {
    let (n, consumed) =
        varint::read_u64(&input[*pos..]).map_err(|_| ZstdError::BadBlock("sequence count"))?;
    *pos += consumed;
    let n = n as usize;
    if n == 0 {
        return Ok(());
    }
    if n > crate::MAX_BLOCK_SIZE {
        return Err(ZstdError::BadBlock("absurd sequence count"));
    }
    if *pos >= input.len() {
        return Err(ZstdError::Truncated);
    }
    let mode = input[*pos];
    *pos += 1;
    match mode {
        SEQ_MODE_RAW => {
            seqs.reserve(n);
            for _ in 0..n {
                let mut field = |what: &'static str| -> Result<u64, ZstdError> {
                    let (v, used) =
                        varint::read_u64(&input[*pos..]).map_err(|_| ZstdError::BadBlock(what))?;
                    *pos += used;
                    Ok(v)
                };
                let lit_len = field("raw seq lit_len")?;
                let match_len = field("raw seq match_len")?;
                let offset = field("raw seq offset")?;
                if lit_len > u32::MAX as u64 || match_len > u32::MAX as u64 || offset > u32::MAX as u64
                {
                    return Err(ZstdError::BadBlock("raw sequence field overflow"));
                }
                seqs.push(Seq {
                    lit_len: lit_len as u32,
                    match_len: match_len as u32,
                    offset: offset as u32,
                });
            }
            return Ok(());
        }
        SEQ_MODE_FSE => {}
        SEQ_MODE_FSE_NWAY => {}
        _ => return Err(ZstdError::BadBlock("unknown sequence mode")),
    }
    let ways = if mode == SEQ_MODE_FSE_NWAY {
        if *pos >= input.len() {
            return Err(ZstdError::Truncated);
        }
        let ways = input[*pos] as usize;
        *pos += 1;
        // A lane without sequences has no valid bitstream, so the stream
        // count is bounded by the sequence count.
        if !(2..=interleave::MAX_WAYS).contains(&ways) || ways > n {
            return Err(ZstdError::BadBlock("bad sequence stream count"));
        }
        ways
    } else {
        1
    };
    let (ll_norm, ll_log) = read_fse_header(input, pos)?;
    let (ml_norm, ml_log) = read_fse_header(input, pos)?;
    let (of_norm, of_log) = read_fse_header(input, pos)?;
    let ll_table = bake(&ll_norm, ll_log, ll_code_value)?;
    let ml_table = bake(&ml_norm, ml_log, ml_code_value)?;
    let of_table = bake(&of_norm, of_log, of_code_value)?;

    let mut stream_lens = Vec::with_capacity(ways);
    for _ in 0..ways {
        let (stream_len, consumed) = varint::read_u64(&input[*pos..])
            .map_err(|_| ZstdError::BadBlock("fse stream length"))?;
        *pos += consumed;
        let stream_len = stream_len as usize;
        if stream_len > input.len() - *pos {
            return Err(ZstdError::Truncated);
        }
        stream_lens.push(stream_len);
    }
    if stream_lens.iter().sum::<usize>() > input.len() - *pos {
        return Err(ZstdError::Truncated);
    }

    // Lane k: its own backward bitstream and OF/ML/LL states against the
    // shared tables. States were flushed in order ll, ml, of -> read back
    // of, ml, ll.
    struct Lane<'a> {
        r: ReverseBitReader<'a>,
        states: [usize; 3],
    }
    let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(ways);
    for &stream_len in &stream_lens {
        let stream = &input[*pos..*pos + stream_len];
        *pos += stream_len;
        let mut r = ReverseBitReader::new(stream).map_err(|_| ZstdError::Truncated)?;
        let mut states = [0usize; 3];
        for (state, log) in states.iter_mut().zip([of_log, ml_log, ll_log]) {
            *state = r.read_bits(log as u32).map_err(|_| ZstdError::Fse(FseError::BadStream))? as usize;
        }
        lanes.push(Lane { r, states });
    }

    seqs.reserve(n);
    let mut batched = 0u64;
    let mut k = 0;
    for i in 0..n {
        let Lane { r, states } = &mut lanes[k];
        k = if k + 1 == ways { 0 } else { k + 1 };
        let of = of_table[states[0]];
        let ml = ml_table[states[1]];
        let ll = ll_table[states[2]];
        // Extras were written ll, ml, of -> read back of, ml, ll; then the
        // transitions in the same order. A lane's final sequence pulls no
        // transition bits.
        let last = i + ways >= n;
        let trans = if last { 0 } else { of.nb_bits as u32 + ml.nb_bits as u32 + ll.nb_bits as u32 };
        let needed = of.extra as u32 + ml.extra as u32 + ll.extra as u32 + trans;
        let (window, mut have) = r.peek_tail();
        let (of_extra, ml_extra, ll_extra);
        if needed <= have {
            let mut take = |nb: u8| {
                have -= nb as u32;
                ((window >> have) & ((1u64 << nb) - 1)) as u32
            };
            of_extra = take(of.extra);
            ml_extra = take(ml.extra);
            ll_extra = take(ll.extra);
            if !last {
                states[0] = of.next as usize + take(of.nb_bits) as usize;
                states[1] = ml.next as usize + take(ml.nb_bits) as usize;
                states[2] = ll.next as usize + take(ll.nb_bits) as usize;
            }
            r.consume(needed);
            batched += 1;
        } else {
            let mut extra = |e: SeqEntry| {
                let nb = (e.extra & !NO_VALUE) as u32;
                // Wider than one bit read: only an offset code above 57.
                if nb > 57 {
                    return Err(ZstdError::BadBlock("of code"));
                }
                r.read_bits(nb).map(|v| v as u32).map_err(|_| ZstdError::Truncated)
            };
            of_extra = extra(of)?;
            ml_extra = extra(ml)?;
            ll_extra = extra(ll)?;
            if !last {
                for (state, e) in states.iter_mut().zip([of, ml, ll]) {
                    let bits = r.read_bits(e.nb_bits as u32).map_err(|_| ZstdError::Fse(FseError::BadStream))?;
                    *state = e.next as usize + bits as usize;
                }
            }
            for (e, what) in [(ll, "ll code"), (ml, "ml code"), (of, "of code")] {
                if e.extra & NO_VALUE != 0 {
                    return Err(ZstdError::BadBlock(what));
                }
            }
        }
        seqs.push(Seq {
            lit_len: ll.base + ll_extra,
            match_len: ml.base + ml_extra,
            offset: of.base + of_extra,
        });
    }
    if cdpu_telemetry::enabled() {
        cdpu_telemetry::counter!("decode.seq.batched").add(batched);
        cdpu_telemetry::counter!("decode.seq.fallback").add(n as u64 - batched);
    }
    Ok(())
}

/// Encodes one compressed-block payload from a parse of `data`, in the
/// seed format (single-stream Huffman literals). Returns per-block
/// statistics.
pub fn encode_block(data: &[u8], parse: &Parse, out: &mut Vec<u8>) -> Result<BlockStats, ZstdError> {
    encode_block_with(data, parse, out, &crate::EntropyConfig::default())
}

/// [`encode_block`] with explicit entropy-stage knobs (literal backend and
/// interleaved stream counts).
pub fn encode_block_with(
    data: &[u8],
    parse: &Parse,
    out: &mut Vec<u8>,
    entropy: &crate::EntropyConfig,
) -> Result<BlockStats, ZstdError> {
    let mut stats = BlockStats {
        input_bytes: data.len(),
        ..Default::default()
    };
    let start = out.len();
    let literals = parse.literal_bytes(data);
    encode_literals(&literals, out, &mut stats, entropy);
    encode_sequences(&parse.seqs, out, &mut stats, entropy.seq_streams)?;
    varint::write_u64(out, parse.last_literals as u64);
    stats.output_bytes = out.len() - start;
    if cdpu_telemetry::enabled() {
        use cdpu_telemetry::counter;
        counter!("zstd.entropy.blocks").incr();
        counter!("zstd.entropy.literal_bytes").add(literals.len() as u64);
        counter!("zstd.entropy.sequences").add(parse.seqs.len() as u64);
        counter!("zstd.entropy.payload_bytes").add(stats.output_bytes as u64);
    }
    Ok(stats)
}

/// Decodes one compressed-block payload, appending to `out` (which holds
/// previously decoded frame data — the history window).
///
/// `window` bounds how far back copies may reach; `max_len` bounds this
/// block's output size.
pub fn decode_block(
    payload: &[u8],
    out: &mut Vec<u8>,
    window: u32,
    max_len: usize,
) -> Result<(), ZstdError> {
    let mut lits = Vec::new();
    let mut seqs = Vec::new();
    decode_block_with(payload, out, window, max_len, &mut lits, &mut seqs)
}

/// [`decode_block`] with caller-held literal/sequence staging buffers, so a
/// multi-block frame (or a long-lived decoder scratch) pays for those
/// allocations once instead of per block. `lits`/`seqs` are cleared here;
/// their contents afterwards are an implementation detail.
///
/// The payload's literal and sequence sections decode in full before the
/// first output byte is written, so every entropy-side error (malformed
/// section, trailing payload bytes) precedes every application error.
pub fn decode_block_with(
    payload: &[u8],
    out: &mut Vec<u8>,
    window: u32,
    max_len: usize,
    lits: &mut Vec<u8>,
    seqs: &mut Vec<Seq>,
) -> Result<(), ZstdError> {
    lits.clear();
    seqs.clear();
    let mut pos = 0usize;
    decode_literals_into(payload, &mut pos, lits)?;
    decode_sequences_into(payload, &mut pos, seqs)?;
    let (last_literals, consumed) =
        varint::read_u64(&payload[pos..]).map_err(|_| ZstdError::BadBlock("last literals"))?;
    pos += consumed;
    if pos != payload.len() {
        return Err(ZstdError::BadBlock("trailing bytes in block"));
    }

    // Interleave the literals and sequences into `out` against the history
    // window already in it, enforcing the window bound and the declared
    // block size.
    let start_len = out.len();
    // The chunked executor takes every sequence that is valid with room to
    // spare; the loop below owns the rest, and with it every error.
    let (applied, mut lit_pos) =
        cdpu_lz77::window::apply_sequences_prefix(out, lits, seqs, window, max_len);
    for seq in &seqs[applied..] {
        let lit_end = lit_pos + seq.lit_len as usize;
        if lit_end > lits.len() {
            return Err(ZstdError::BadBlock("literals exhausted"));
        }
        out.extend_from_slice(&lits[lit_pos..lit_end]);
        lit_pos = lit_end;
        if seq.offset > window {
            return Err(ZstdError::WindowViolation {
                offset: seq.offset,
                window,
            });
        }
        // Guard before copying: hostile match lengths must fail before the
        // copy allocates, not after.
        if seq.match_len as usize > max_len.saturating_sub(out.len() - start_len) {
            return Err(ZstdError::BadBlock("block output overruns declared size"));
        }
        cdpu_lz77::window::apply_copy(out, seq.offset, seq.match_len)
            .map_err(ZstdError::Lz77)?;
    }
    if (lits.len() - lit_pos) as u64 != last_literals {
        return Err(ZstdError::BadBlock("literal accounting mismatch"));
    }
    out.extend_from_slice(&lits[lit_pos..]);
    if out.len() - start_len > max_len {
        return Err(ZstdError::BadBlock("block output overruns declared size"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_lz77::matcher::{ChainConfig, HashChainMatcher};
    use cdpu_util::rng::Xoshiro256;

    fn roundtrip_block(data: &[u8]) -> BlockStats {
        let parse = HashChainMatcher::new(ChainConfig::default_level()).parse(data);
        let mut payload = Vec::new();
        let stats = encode_block(data, &parse, &mut payload).unwrap();
        let mut out = Vec::new();
        decode_block(&payload, &mut out, u32::MAX, data.len()).unwrap();
        assert_eq!(out, data);
        stats
    }

    #[test]
    fn empty_block() {
        let stats = roundtrip_block(b"");
        assert_eq!(stats.sequences, 0);
        assert_eq!(stats.literal_bytes, 0);
    }

    #[test]
    fn tiny_blocks() {
        for data in [&b"a"[..], b"ab", b"abc", b"abcd", b"aaaaaaa"] {
            roundtrip_block(data);
        }
    }

    #[test]
    fn text_block_uses_huffman_and_fse() {
        // Varied text: enough repeated phrases for sequences, enough unique
        // tails for a literal stream worth entropy-coding.
        let mut data = Vec::new();
        let mut rng = Xoshiro256::seed_from(42);
        for i in 0..400 {
            data.extend_from_slice(
                format!(
                    "compressed block {i} carries literals token{} and sequences; ",
                    rng.next_u64()
                )
                .as_bytes(),
            );
        }
        let stats = roundtrip_block(&data);
        assert!(stats.sequences > 0, "repetitive text must produce matches");
        assert!(stats.huffman_literals, "text literals should be huffman-coded");
        assert!(stats.output_bytes < stats.input_bytes / 2);
    }

    #[test]
    fn rle_literals_path() {
        // All-same block: one giant match usually; force the RLE literal
        // path with a short non-matching run of identical bytes.
        let data = b"xxxxxxxxxxxxxxxx";
        roundtrip_block(data);
    }

    #[test]
    fn random_block_stays_raw_literals() {
        let mut rng = Xoshiro256::seed_from(2);
        let mut data = vec![0u8; 10_000];
        rng.fill_bytes(&mut data);
        let stats = roundtrip_block(&data);
        assert!(!stats.huffman_literals, "random bytes cannot be entropy-coded");
    }

    #[test]
    fn mixed_content_roundtrips() {
        let mut rng = Xoshiro256::seed_from(3);
        for _trial in 0..30 {
            let len = rng.index(60_000) + 1;
            let mut data = Vec::with_capacity(len);
            while data.len() < len {
                match rng.index(3) {
                    0 => {
                        let mut chunk = vec![0u8; rng.index(400) + 1];
                        rng.fill_bytes(&mut chunk);
                        data.extend(chunk);
                    }
                    1 => {
                        let b = rng.index(256) as u8;
                        data.extend(std::iter::repeat_n(b, rng.index(200) + 1));
                    }
                    _ => data.extend_from_slice(b"json:{\"key\":\"value\",\"n\":123},"),
                }
            }
            data.truncate(len);
            roundtrip_block(&data);
        }
    }

    #[test]
    fn sequences_with_large_values_roundtrip() {
        // Directly encode synthetic sequences exercising wide codes.
        let seqs = vec![
            Seq { lit_len: 70_000, match_len: 3, offset: 1 },
            Seq { lit_len: 0, match_len: 65_539, offset: 1 << 20 },
            Seq { lit_len: 17, match_len: 35, offset: 7 },
        ];
        let mut out = Vec::new();
        let mut stats = BlockStats::default();
        encode_sequences(&seqs, &mut out, &mut stats, 1).unwrap();
        let mut pos = 0;
        let mut back = Vec::new();
        decode_sequences_into(&out, &mut pos, &mut back).unwrap();
        assert_eq!(back, seqs);
    }

    #[test]
    fn single_sequence_roundtrip() {
        let seqs = vec![Seq { lit_len: 5, match_len: 9, offset: 42 }];
        let mut out = Vec::new();
        let mut stats = BlockStats::default();
        encode_sequences(&seqs, &mut out, &mut stats, 1).unwrap();
        let mut pos = 0;
        let mut back = Vec::new();
        decode_sequences_into(&out, &mut pos, &mut back).unwrap();
        assert_eq!(back, seqs);
    }

    #[test]
    fn window_violation_detected() {
        let parse = Parse {
            seqs: vec![Seq { lit_len: 8, match_len: 4, offset: 8 }],
            last_literals: 0,
        };
        let data = b"abcdefgh....";
        let mut payload = Vec::new();
        encode_block(&data[..12], &Parse { seqs: parse.seqs.clone(), last_literals: 0 }, &mut payload)
            .unwrap();
        let mut out = Vec::new();
        let err = decode_block(&payload, &mut out, 4, 100).unwrap_err();
        assert!(matches!(err, ZstdError::WindowViolation { offset: 8, window: 4 }));
    }

    #[test]
    fn truncated_payload_detected() {
        let data = b"hello world hello world hello world".repeat(10);
        let parse = HashChainMatcher::new(ChainConfig::default_level()).parse(&data);
        let mut payload = Vec::new();
        encode_block(&data, &parse, &mut payload).unwrap();
        for cut in [0, 1, payload.len() / 3, payload.len() - 1] {
            let mut out = Vec::new();
            assert!(
                decode_block(&payload[..cut], &mut out, u32::MAX, data.len()).is_err(),
                "cut {cut}"
            );
        }
    }

    /// The baked tables walk the states exactly as `FseDecodeTable` does:
    /// each state's transition, and its code's value base and extra bits.
    #[test]
    fn baked_tables_match_the_fse_decode_table() {
        let mut rng = Xoshiro256::seed_from(27);
        let fields: [(CodeValue, usize); 3] = [
            (ll_code_value, codes::LL_CODES),
            (ml_code_value, codes::ML_CODES),
            (of_code_value, codes::OF_CODES),
        ];
        for trial in 0..300 {
            // Alphabets run past each field's codes, up to the header's cap.
            let hist: Vec<u32> = (0..1 + rng.index(MAX_SEQ_CODES)).map(|_| rng.index(50) as u32).collect();
            if hist.iter().all(|&c| c == 0) {
                continue;
            }
            let used = hist.iter().filter(|&&c| c > 0).count() as u64;
            let fewest = cdpu_util::ceil_log2(used).max(1) as usize;
            let log = (fewest + rng.index(fse::MAX_TABLE_LOG as usize + 1 - fewest)) as u8;
            let norm = fse::normalize_counts(&hist, log).unwrap();
            let table = cdpu_entropy::fse::FseDecodeTable::new(&norm, log).unwrap();
            for (value, _) in fields {
                let baked = bake(&norm, log, value).unwrap();
                assert_eq!(baked.len(), 1 << log);
                for (state, e) in baked.iter().enumerate() {
                    let d = table.entry(state as u16);
                    assert_eq!((e.nb_bits, e.next), (d.nb_bits, d.new_state_base), "trial {trial} state {state}");
                    assert_eq!((e.base, e.extra), value(d.symbol), "trial {trial} state {state}");
                }
            }
        }
        for (value, codes) in fields {
            assert_eq!(value(codes as u16 - 1).1 & NO_VALUE, 0);
            assert_ne!(value(codes as u16).1 & NO_VALUE, 0);
        }
        for (norm, log, err) in [
            (&[3u32, 4][..], 3, FseError::BadNormalization),
            (&[1, 1], 0, FseError::BadTableLog),
            (&[4096; 2], 13, FseError::BadTableLog),
        ] {
            assert_eq!(bake(norm, log, ll_code_value), Err(ZstdError::Fse(err)));
        }
    }

    #[test]
    fn cross_block_history_copies() {
        // decode_block appends to existing output; offsets may reach into it.
        let mut out = b"0123456789".to_vec();
        let parse = Parse {
            seqs: vec![Seq { lit_len: 0, match_len: 5, offset: 10 }],
            last_literals: 0,
        };
        let mut payload = Vec::new();
        // The data arg is only read for literals; none here.
        encode_block(b"XXXXX", &parse, &mut payload).unwrap();
        decode_block(&payload, &mut out, 64, 5).unwrap();
        assert_eq!(out, b"012345678901234");
    }
}
