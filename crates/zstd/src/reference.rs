//! Retained seed decoder, kept as an executable specification.
//!
//! [`decompress`] here is the original allocate-per-block ZStd-class
//! frame decoder: per-symbol Huffman literal decode (one
//! [`HuffmanTable::decode_symbol`] table probe per byte), per-symbol FSE
//! state stepping via [`FseStreamDecoder::next`], and byte-at-a-time
//! sequence copies via [`cdpu_lz77::reference::apply_copy`]. The
//! optimized [`crate::decompress`] / [`crate::decompress_into`] must
//! produce the **identical** output bytes and error variants on every
//! input — the `decode_equivalence` test suite asserts exactly that
//! across random roundtrips and hostile streams.
//!
//! The interleaved and rANS literal modes (3/4) and the N-way sequence
//! mode decode here through the per-symbol oracles in
//! [`cdpu_entropy::interleave::reference`] and
//! [`cdpu_entropy::rans::reference`], so the fast paths for the new
//! formats are pinned against independent implementations end to end.
//!
//! Not for production use: it runs several times slower than the fast
//! path and allocates fresh literal/sequence buffers for every block.

use cdpu_entropy::fse::{FseDecodeTable, FseStreamDecoder};
use cdpu_entropy::huffman::HuffmanTable;
use cdpu_entropy::{interleave, rans};
use cdpu_lz77::reference::apply_copy;
use cdpu_lz77::Seq;
use cdpu_util::bits::{MsbBitReader, ReverseBitReader};
use cdpu_util::varint;

use crate::{codes, frame_info, ZstdError, MAX_BLOCK_SIZE};

/// The original (seed) frame decoder.
///
/// # Errors
///
/// Any [`ZstdError`], identically to [`crate::decompress`].
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, ZstdError> {
    let info = frame_info(frame)?;
    let mut pos = 4 + 1;
    let (_, n) = varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::BadHeader)?;
    pos += n;

    let window = 1u64.checked_shl(info.window_log).unwrap_or(u64::MAX) as u32;
    let mut out: Vec<u8> = Vec::with_capacity((info.content_size as usize).min(MAX_BLOCK_SIZE));
    let mut saw_last = false;
    while !saw_last {
        if pos >= frame.len() {
            return Err(ZstdError::Truncated);
        }
        let flags = frame[pos];
        pos += 1;
        saw_last = flags & 1 != 0;
        let btype = (flags >> 1) & 0b11;
        let (usize_, n) = varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::Truncated)?;
        pos += n;
        let block_len = usize_ as usize;
        if block_len > MAX_BLOCK_SIZE + MAX_BLOCK_SIZE / 2 {
            return Err(ZstdError::BadBlock("block exceeds size limit"));
        }
        match btype {
            0 => {
                if pos + block_len > frame.len() {
                    return Err(ZstdError::Truncated);
                }
                out.extend_from_slice(&frame[pos..pos + block_len]);
                pos += block_len;
            }
            1 => {
                if pos >= frame.len() {
                    return Err(ZstdError::Truncated);
                }
                let b = frame[pos];
                pos += 1;
                out.extend(std::iter::repeat_n(b, block_len));
            }
            2 => {
                let (payload_len, n) =
                    varint::read_u64(&frame[pos..]).map_err(|_| ZstdError::Truncated)?;
                pos += n;
                let payload_len = payload_len as usize;
                if payload_len > frame.len() - pos {
                    return Err(ZstdError::Truncated);
                }
                let before = out.len();
                decode_block(&frame[pos..pos + payload_len], &mut out, window, block_len)?;
                if out.len() - before != block_len {
                    return Err(ZstdError::BadBlock("block length mismatch"));
                }
                pos += payload_len;
            }
            _ => return Err(ZstdError::BadBlock("unknown block type")),
        }
        if out.len() as u64 > info.content_size {
            return Err(ZstdError::LengthMismatch {
                expected: info.content_size,
                actual: out.len() as u64,
            });
        }
    }
    if out.len() as u64 != info.content_size {
        return Err(ZstdError::LengthMismatch {
            expected: info.content_size,
            actual: out.len() as u64,
        });
    }
    Ok(out)
}

fn read_fse_header(input: &[u8], pos: &mut usize) -> Result<(Vec<u32>, u8), ZstdError> {
    read_norm_header(input, pos, 64)
}

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

/// The seed per-symbol literal decode (one table probe per byte — the
/// loop `HuffmanTable::decode_bytes` originally ran).
fn decode_huffman_literals(
    table: &HuffmanTable,
    bytes: &[u8],
    bit_len: usize,
    count: usize,
) -> Result<Vec<u8>, cdpu_entropy::huffman::HuffmanError> {
    let mut r = MsbBitReader::new(bytes, bit_len);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let sym = table.decode_symbol(&mut r)?;
        if sym > 255 {
            return Err(cdpu_entropy::huffman::HuffmanError::BadStream);
        }
        out.push(sym as u8);
    }
    Ok(out)
}

fn decode_literals(input: &[u8], pos: &mut usize) -> Result<Vec<u8>, ZstdError> {
    if *pos >= input.len() {
        return Err(ZstdError::Truncated);
    }
    let mode = input[*pos];
    *pos += 1;
    let (count, n) =
        varint::read_u64(&input[*pos..]).map_err(|_| ZstdError::BadBlock("literal count"))?;
    *pos += n;
    let count = count as usize;
    if count > MAX_BLOCK_SIZE * 2 {
        return Err(ZstdError::BadBlock("absurd literal count"));
    }
    match mode {
        0 => {
            if *pos + count > input.len() {
                return Err(ZstdError::Truncated);
            }
            let lits = input[*pos..*pos + count].to_vec();
            *pos += count;
            Ok(lits)
        }
        1 => {
            if *pos >= input.len() {
                return Err(ZstdError::Truncated);
            }
            let b = input[*pos];
            *pos += 1;
            Ok(vec![b; count])
        }
        2 => {
            let (table, consumed) =
                HuffmanTable::deserialize(&input[*pos..]).map_err(ZstdError::Huffman)?;
            *pos += consumed;
            let (bit_len, n) = varint::read_u64(&input[*pos..])
                .map_err(|_| ZstdError::BadBlock("huffman bit length"))?;
            *pos += n;
            let nbytes = (bit_len as usize).div_ceil(8);
            if *pos + nbytes > input.len() {
                return Err(ZstdError::Truncated);
            }
            let lits =
                decode_huffman_literals(&table, &input[*pos..*pos + nbytes], bit_len as usize, count)
                    .map_err(ZstdError::Huffman)?;
            *pos += nbytes;
            Ok(lits)
        }
        3 => {
            let (table, consumed) =
                HuffmanTable::deserialize(&input[*pos..]).map_err(ZstdError::Huffman)?;
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
            let lits = interleave::reference::huffman_decode(
                &table,
                &input[*pos..*pos + span],
                &bit_lens,
                count,
            )
            .map_err(ZstdError::Huffman)?;
            *pos += span;
            Ok(lits)
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
            let lits = rans::reference::decode(&table, &input[*pos..*pos + stream_len], count, ways)
                .map_err(|_| ZstdError::BadBlock("rans literal stream"))?;
            *pos += stream_len;
            Ok(lits)
        }
        _ => Err(ZstdError::BadBlock("unknown literals mode")),
    }
}

const SEQ_MODE_RAW: u8 = 0;
const SEQ_MODE_FSE: u8 = 1;
const SEQ_MODE_FSE_NWAY: u8 = 2;

fn decode_sequences(input: &[u8], pos: &mut usize) -> Result<Vec<Seq>, ZstdError> {
    let (n, consumed) =
        varint::read_u64(&input[*pos..]).map_err(|_| ZstdError::BadBlock("sequence count"))?;
    *pos += consumed;
    let n = n as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    if n > MAX_BLOCK_SIZE {
        return Err(ZstdError::BadBlock("absurd sequence count"));
    }
    if *pos >= input.len() {
        return Err(ZstdError::Truncated);
    }
    let mode = input[*pos];
    *pos += 1;
    match mode {
        SEQ_MODE_RAW => {
            let mut seqs = Vec::with_capacity(n);
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
            return Ok(seqs);
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
    let ll_table = FseDecodeTable::new(&ll_norm, ll_log).map_err(ZstdError::Fse)?;
    let ml_table = FseDecodeTable::new(&ml_norm, ml_log).map_err(ZstdError::Fse)?;
    let of_table = FseDecodeTable::new(&of_norm, of_log).map_err(ZstdError::Fse)?;

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

    // Lane k: its own backward bitstream plus OF/ML/LL decoder states
    // against the shared tables. States were flushed in order ll, ml, of ->
    // read back of, ml, ll.
    struct Lane<'a, 't> {
        r: ReverseBitReader<'a>,
        of_dec: FseStreamDecoder<'t>,
        ml_dec: FseStreamDecoder<'t>,
        ll_dec: FseStreamDecoder<'t>,
    }
    let mut lanes: Vec<Lane<'_, '_>> = Vec::with_capacity(ways);
    for &stream_len in &stream_lens {
        let stream = &input[*pos..*pos + stream_len];
        *pos += stream_len;
        let mut r = ReverseBitReader::new(stream).map_err(|_| ZstdError::Truncated)?;
        let of_dec = FseStreamDecoder::new(&of_table, &mut r).map_err(ZstdError::Fse)?;
        let ml_dec = FseStreamDecoder::new(&ml_table, &mut r).map_err(ZstdError::Fse)?;
        let ll_dec = FseStreamDecoder::new(&ll_table, &mut r).map_err(ZstdError::Fse)?;
        lanes.push(Lane { r, of_dec, ml_dec, ll_dec });
    }

    let mut seqs = Vec::with_capacity(n);
    for i in 0..n {
        let Lane { r, of_dec, ml_dec, ll_dec } = &mut lanes[i % ways];
        let of_sym = of_dec.peek();
        let ml_sym = ml_dec.peek();
        let ll_sym = ll_dec.peek();
        // Extras were written ll, ml, of -> read back of, ml, ll. No field
        // is wider than 57 bits; an offset code that claims one has no value.
        let of_eb = codes::of_extra_bits(of_sym) as u32;
        if of_eb > 57 {
            return Err(ZstdError::BadBlock("of code"));
        }
        let of_extra = r.read_bits(of_eb).map_err(|_| ZstdError::Truncated)? as u32;
        let ml_extra = r
            .read_bits(codes::ml_extra_bits(ml_sym) as u32)
            .map_err(|_| ZstdError::Truncated)? as u32;
        let ll_extra = r
            .read_bits(codes::ll_extra_bits(ll_sym) as u32)
            .map_err(|_| ZstdError::Truncated)? as u32;
        if i + ways < n {
            of_dec.next(r).map_err(ZstdError::Fse)?;
            ml_dec.next(r).map_err(ZstdError::Fse)?;
            ll_dec.next(r).map_err(ZstdError::Fse)?;
        }
        seqs.push(Seq {
            lit_len: codes::ll_value(ll_sym, ll_extra)
                .map_err(|_| ZstdError::BadBlock("ll code"))?,
            match_len: codes::ml_value(ml_sym, ml_extra)
                .map_err(|_| ZstdError::BadBlock("ml code"))?,
            offset: codes::of_value(of_sym, of_extra)
                .map_err(|_| ZstdError::BadBlock("of code"))?,
        });
    }
    Ok(seqs)
}

fn decode_block(
    payload: &[u8],
    out: &mut Vec<u8>,
    window: u32,
    max_len: usize,
) -> Result<(), ZstdError> {
    let mut pos = 0usize;
    let literals = decode_literals(payload, &mut pos)?;
    let seqs = decode_sequences(payload, &mut pos)?;
    let (last_literals, consumed) =
        varint::read_u64(&payload[pos..]).map_err(|_| ZstdError::BadBlock("last literals"))?;
    pos += consumed;
    if pos != payload.len() {
        return Err(ZstdError::BadBlock("trailing bytes in block"));
    }

    let start_len = out.len();
    let mut lit_pos = 0usize;
    for seq in &seqs {
        let lit_end = lit_pos + seq.lit_len as usize;
        if lit_end > literals.len() {
            return Err(ZstdError::BadBlock("literals exhausted"));
        }
        out.extend_from_slice(&literals[lit_pos..lit_end]);
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
        apply_copy(out, seq.offset, seq.match_len).map_err(ZstdError::Lz77)?;
    }
    if (literals.len() - lit_pos) as u64 != last_literals {
        return Err(ZstdError::BadBlock("literal accounting mismatch"));
    }
    out.extend_from_slice(&literals[lit_pos..]);
    if out.len() - start_len > max_len {
        return Err(ZstdError::BadBlock("block output overruns declared size"));
    }
    Ok(())
}
