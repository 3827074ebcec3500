//! N-way interleaved multi-stream entropy coding.
//!
//! A single-stream table decoder is serial-dependency-bound: every symbol's
//! `peek → table load → consume` chain must retire before the next symbol
//! can start, so decode throughput is pinned to the table-load latency.
//! Real ZStandard attacks this by splitting Huffman literals across 4
//! independent bitstreams; this module generalizes that to K-way
//! interleaving for both entropy families in the workspace:
//!
//! - **Huffman** ([`huffman_encode`] / [`huffman_decode_into`]): symbol `i`
//!   goes to stream `i % K`; each stream is an ordinary MSB-first canonical
//!   Huffman bitstream over one shared code book. The decoder round-robins
//!   a [`BitBufBank`] of per-stream cached-u64 cursors, so one rotation
//!   issues K independent table loads the CPU can overlap.
//! - **FSE** ([`fse_encode`] / [`fse_decode`]): symbol `i` goes to stream
//!   `i % K`; each stream is an ordinary backward FSE bitstream (own state,
//!   shared table). The decoder drives K [`ReverseTailCursor`]s, pulling
//!   state transitions from per-stream cached tail windows.
//!
//! Stream framing (per-stream lengths) is the caller's job — the ZStd-class
//! block format writes varint lengths — so these functions take/return streams
//! explicitly. Symbol distribution is fixed by `i % K`, making stream
//! symbol counts `ceil((count - k) / K)` — derivable from `count`, never
//! transmitted.
//!
//! Every decoder has a per-symbol reference twin in [`mod@reference`], the
//! equivalence oracle the adversarial parity tests pin against.

use cdpu_util::bits::{BitBufBank, MsbBitReader, MsbBitWriter, ReverseTailCursor};

use crate::fse::{FseDecodeTable, FseEncodeTable, FseError, FseStreamDecoder, FseStreamEncoder};
use crate::huffman::{encode_byte, HuffmanError, HuffmanTable};
use cdpu_util::bits::BitWriter;

/// Maximum supported stream count. 4 is the sweet spot on current cores
/// (matching real zstd's literal streams); 8 covers wider speculation.
pub const MAX_WAYS: usize = 8;

/// Number of symbols stream `k` of `ways` carries out of `count` total
/// (symbol `i` lives in stream `i % ways`).
pub fn stream_symbols(count: usize, ways: usize, k: usize) -> usize {
    (count + ways - 1 - k) / ways
}

/// One encoded Huffman stream set: `bit_lens[k]` exact payload bits of
/// stream `k`, streams byte-aligned and concatenated in `payload`.
#[derive(Debug, Clone)]
pub struct HuffmanStreams {
    /// Exact bit length per stream.
    pub bit_lens: Vec<u64>,
    /// Byte-aligned streams, concatenated in stream order.
    pub payload: Vec<u8>,
}

fn check_ways(ways: usize) -> bool {
    (1..=MAX_WAYS).contains(&ways)
}

/// Encodes `data` into `ways` interleaved Huffman streams over one shared
/// table.
///
/// # Errors
///
/// [`HuffmanError::UnknownSymbol`] if `data` contains a byte absent from
/// the table; [`HuffmanError::BadStream`] if `ways` is out of range.
pub fn huffman_encode(
    table: &HuffmanTable,
    data: &[u8],
    ways: usize,
) -> Result<HuffmanStreams, HuffmanError> {
    if !check_ways(ways) {
        return Err(HuffmanError::BadStream);
    }
    let codes = table.packed_codes::<256>();
    let mut writers: Vec<MsbBitWriter> = (0..ways).map(|_| MsbBitWriter::new()).collect();
    for (i, &b) in data.iter().enumerate() {
        encode_byte(&codes, b, &mut writers[i % ways])?;
    }
    let mut bit_lens = Vec::with_capacity(ways);
    let mut payload = Vec::new();
    for w in writers {
        let (bytes, bits) = w.finish();
        bit_lens.push(bits as u64);
        payload.extend_from_slice(&bytes);
    }
    Ok(HuffmanStreams { bit_lens, payload })
}

/// Splits `payload` into per-stream `(bytes, bit_len)` slices, validating
/// the untrusted per-stream lengths: each stream occupies exactly
/// `ceil(bit_len / 8)` bytes and the spans must cover `payload` exactly.
fn split_streams<'a>(
    payload: &'a [u8],
    bit_lens: &[u64],
) -> Option<Vec<(&'a [u8], usize)>> {
    if bit_lens.is_empty() || bit_lens.len() > MAX_WAYS {
        return None;
    }
    let mut streams = Vec::with_capacity(bit_lens.len());
    let mut offset = 0usize;
    for &bits in bit_lens {
        // Reject lengths that cannot possibly fit before any usize math.
        if bits > payload.len() as u64 * 8 {
            return None;
        }
        let bytes = (bits as usize).div_ceil(8);
        let slice = payload.get(offset..offset + bytes)?;
        streams.push((slice, bits as usize));
        offset += bytes;
    }
    if offset != payload.len() {
        return None;
    }
    Some(streams)
}

/// Decodes `count` byte symbols from interleaved Huffman streams, appending
/// to `out` — the K-cursor fast path.
///
/// The rotation loop refills every lane's [`BitBufBank`] window, then pulls
/// one symbol per lane per rotation while every window covers a full code;
/// the K table loads per rotation are independent, which is the whole
/// point. Once any lane nears its end the remaining symbols fall back to
/// per-symbol readers in global symbol order, keeping output and error
/// behaviour identical to [`reference::huffman_decode`].
///
/// # Errors
///
/// [`HuffmanError::BadStream`] on malformed stream lengths, truncation or
/// a non-byte symbol.
pub fn huffman_decode_into(
    table: &HuffmanTable,
    payload: &[u8],
    bit_lens: &[u64],
    count: usize,
    out: &mut Vec<u8>,
) -> Result<(), HuffmanError> {
    let streams = split_streams(payload, bit_lens).ok_or(HuffmanError::BadStream)?;
    match streams.len() {
        1 => table.decode_bytes_into(streams[0].0, streams[0].1, count, out),
        2 => huffman_decode_k::<2>(table, &streams, count, out),
        4 => huffman_decode_k::<4>(table, &streams, count, out),
        8 => huffman_decode_k::<8>(table, &streams, count, out),
        _ => reference::huffman_decode_streams(table, &streams, count, out),
    }
}

fn huffman_decode_k<const K: usize>(
    table: &HuffmanTable,
    streams: &[(&[u8], usize)],
    count: usize,
    out: &mut Vec<u8>,
) -> Result<(), HuffmanError> {
    out.reserve(count);
    let (decode, max_len) = table.decode_entries();
    let lanes: [(&[u8], usize); K] = std::array::from_fn(|k| streams[k]);
    let mut bank = BitBufBank::<K>::new(lanes);
    let full_rotations = count / K;
    let mut done = 0usize;
    let mut refills = 0u64;
    while done < full_rotations && bank.min_remaining() >= 64 {
        bank.refill_all();
        refills += 1;
        // Every lane now holds >= 57 valid bits; each rotation consumes at
        // most `max_len` per lane, so this many rotations need no refill.
        let safe = (bank.min_valid() / max_len) as usize;
        let rotations = safe.min(full_rotations - done);
        let bufs = bank.lanes();
        for _ in 0..rotations {
            for buf in bufs.iter_mut() {
                let e = decode[buf.peek(max_len) as usize];
                if e == 0 || e >> 16 != 0 {
                    return Err(HuffmanError::BadStream);
                }
                buf.consume(e as u8 as u32);
                out.push((e >> 8) as u8);
            }
        }
        done += rotations;
    }
    if cdpu_telemetry::enabled() {
        cdpu_telemetry::counter!("decode.refills").add(refills);
    }
    // Tail: per-symbol readers, still in global symbol order.
    let mut readers: Vec<MsbBitReader<'_>> = (0..K)
        .map(|k| {
            let mut r = MsbBitReader::new(streams[k].0, streams[k].1);
            r.seek(bank.lane(k).position());
            r
        })
        .collect();
    for i in done * K..count {
        let sym = table.decode_symbol(&mut readers[i % K])?;
        if sym > 255 {
            return Err(HuffmanError::BadStream);
        }
        out.push(sym as u8);
    }
    Ok(())
}

/// Encodes `symbols` into `ways` interleaved FSE streams over one shared
/// table (normalized counts `norm`, `table_log`). Returns one
/// marker-terminated byte stream per lane; a lane with no symbols returns
/// an empty stream.
///
/// # Errors
///
/// Any table or symbol error from the streaming FSE API;
/// [`FseError::BadStream`] if `ways` is out of range.
pub fn fse_encode(
    symbols: &[u16],
    norm: &[u32],
    table_log: u8,
    ways: usize,
) -> Result<Vec<Vec<u8>>, FseError> {
    if !check_ways(ways) {
        return Err(FseError::BadStream);
    }
    let table = FseEncodeTable::new(norm, table_log)?;
    let mut streams = Vec::with_capacity(ways);
    for k in 0..ways {
        let n = stream_symbols(symbols.len(), ways, k);
        if n == 0 {
            streams.push(Vec::new());
            continue;
        }
        let mut w = BitWriter::new();
        let mut enc = FseStreamEncoder::new(&table);
        // The encoder walks this lane's subset backward: indices
        // k, k+ways, ... taken in reverse.
        for j in (0..n).rev() {
            enc.push(symbols[k + j * ways], &mut w)?;
        }
        enc.finish(&mut w)?;
        streams.push(w.finish_with_marker());
    }
    Ok(streams)
}

/// Decodes `count` symbols from interleaved FSE streams (one per lane,
/// shared table) — the K-cursor fast path.
///
/// Each lane holds its own decoder state and a [`ReverseTailCursor`]; the
/// rotation loop pulls one state transition per lane per step, served from
/// per-lane cached tail windows, so the K transitions are independent
/// dependency chains.
///
/// # Errors
///
/// [`FseError::BadStream`] on truncation or a missing marker, plus any
/// table construction error.
pub fn fse_decode(
    streams: &[&[u8]],
    norm: &[u32],
    table_log: u8,
    count: usize,
) -> Result<Vec<u16>, FseError> {
    if !check_ways(streams.len()) {
        return Err(FseError::BadStream);
    }
    let ways = streams.len();
    let table = FseDecodeTable::new(norm, table_log)?;
    let mut out = Vec::with_capacity(count);
    let mut lanes: Vec<Option<(ReverseTailCursor<'_>, FseStreamDecoder<'_>)>> =
        Vec::with_capacity(ways);
    for (k, stream) in streams.iter().enumerate() {
        if stream_symbols(count, ways, k) == 0 {
            lanes.push(None);
            continue;
        }
        let mut cursor = ReverseTailCursor::new(stream).map_err(|_| FseError::BadStream)?;
        let state = cursor
            .take(table_log as u32)
            .map_err(|_| FseError::BadStream)?;
        lanes.push(Some((cursor, FseStreamDecoder::from_state(&table, state as u16)?)));
    }
    for i in 0..count {
        let k = i % ways;
        let (cursor, dec) = lanes[k].as_mut().expect("lane with symbols was initialized");
        if i + ways >= count {
            // This lane's final symbol: no state transition follows.
            out.push(dec.peek());
        } else {
            let width = dec.transition_width();
            let bits = cursor.take(width).map_err(|_| FseError::BadStream)?;
            out.push(dec.advance(bits));
        }
    }
    Ok(out)
}

/// Per-symbol reference decoders — the seed-shaped equivalence oracles for
/// the interleaved formats. No cached windows, no banks: plain readers in
/// global symbol order, the behaviour the fast paths must match bit for
/// bit (outputs and errors alike).
pub mod reference {
    use super::*;
    use cdpu_util::bits::ReverseBitReader;

    /// Decodes interleaved Huffman streams one symbol at a time.
    ///
    /// # Errors
    ///
    /// [`HuffmanError::BadStream`] on malformed lengths, truncation or a
    /// non-byte symbol.
    pub fn huffman_decode(
        table: &HuffmanTable,
        payload: &[u8],
        bit_lens: &[u64],
        count: usize,
    ) -> Result<Vec<u8>, HuffmanError> {
        let streams = super::split_streams(payload, bit_lens).ok_or(HuffmanError::BadStream)?;
        let mut out = Vec::with_capacity(count);
        huffman_decode_streams(table, &streams, count, &mut out)?;
        Ok(out)
    }

    /// The per-symbol decode loop over already-split streams.
    pub(super) fn huffman_decode_streams(
        table: &HuffmanTable,
        streams: &[(&[u8], usize)],
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HuffmanError> {
        let ways = streams.len();
        let mut readers: Vec<MsbBitReader<'_>> = streams
            .iter()
            .map(|&(bytes, bits)| MsbBitReader::new(bytes, bits))
            .collect();
        for i in 0..count {
            let sym = table.decode_symbol(&mut readers[i % ways])?;
            if sym > 255 {
                return Err(HuffmanError::BadStream);
            }
            out.push(sym as u8);
        }
        Ok(())
    }

    /// Decodes interleaved FSE streams one symbol at a time.
    ///
    /// # Errors
    ///
    /// [`FseError::BadStream`] on truncation or a missing marker, plus any
    /// table construction error.
    pub fn fse_decode(
        streams: &[&[u8]],
        norm: &[u32],
        table_log: u8,
        count: usize,
    ) -> Result<Vec<u16>, FseError> {
        if !super::check_ways(streams.len()) {
            return Err(FseError::BadStream);
        }
        let ways = streams.len();
        let table = FseDecodeTable::new(norm, table_log)?;
        let mut lanes: Vec<Option<(ReverseBitReader<'_>, FseStreamDecoder<'_>)>> =
            Vec::with_capacity(ways);
        for (k, stream) in streams.iter().enumerate() {
            if super::stream_symbols(count, ways, k) == 0 {
                lanes.push(None);
                continue;
            }
            let mut r = ReverseBitReader::new(stream).map_err(|_| FseError::BadStream)?;
            let dec = FseStreamDecoder::new(&table, &mut r)?;
            lanes.push(Some((r, dec)));
        }
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let k = i % ways;
            let (r, dec) = lanes[k].as_mut().expect("lane with symbols was initialized");
            if i + ways >= count {
                out.push(dec.peek());
            } else {
                out.push(dec.next(r)?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fse::{normalize_counts, recommended_table_log};
    use crate::{byte_histogram, huffman};
    use cdpu_util::rng::Xoshiro256;

    fn hist_u16(data: &[u16], alphabet: usize) -> Vec<u32> {
        let mut h = vec![0u32; alphabet];
        for &s in data {
            h[s as usize] += 1;
        }
        h
    }

    #[test]
    fn stream_symbols_partition() {
        for count in 0..40usize {
            for ways in 1..=MAX_WAYS {
                let total: usize = (0..ways).map(|k| stream_symbols(count, ways, k)).sum();
                assert_eq!(total, count, "count {count} ways {ways}");
            }
        }
    }

    #[test]
    fn huffman_roundtrip_all_ways() {
        let mut rng = Xoshiro256::seed_from(201);
        for ways in 1..=MAX_WAYS {
            for trial in 0..10 {
                let alphabet = rng.index(200) + 2;
                let len = rng.index(3000) + 1;
                let data: Vec<u8> = (0..len).map(|_| rng.index(alphabet) as u8).collect();
                let table =
                    huffman::HuffmanTable::from_frequencies(&byte_histogram(&data)).unwrap();
                let enc = huffman_encode(&table, &data, ways).unwrap();
                let mut out = Vec::new();
                huffman_decode_into(&table, &enc.payload, &enc.bit_lens, len, &mut out)
                    .unwrap();
                assert_eq!(out, data, "ways {ways} trial {trial}");
                let reference =
                    reference::huffman_decode(&table, &enc.payload, &enc.bit_lens, len)
                        .unwrap();
                assert_eq!(reference, data, "reference ways {ways} trial {trial}");
            }
        }
    }

    #[test]
    fn huffman_tiny_inputs() {
        // Fewer symbols than streams: trailing lanes are empty.
        let data = b"ab";
        let table = huffman::HuffmanTable::from_frequencies(&byte_histogram(data)).unwrap();
        let enc = huffman_encode(&table, data, 4).unwrap();
        assert_eq!(enc.bit_lens.len(), 4);
        assert_eq!(enc.bit_lens[2], 0);
        let mut out = Vec::new();
        huffman_decode_into(&table, &enc.payload, &enc.bit_lens, 2, &mut out).unwrap();
        assert_eq!(out, data);
        // Zero symbols decode to nothing.
        let empty = huffman_encode(&table, &[], 4).unwrap();
        let mut out = Vec::new();
        huffman_decode_into(&table, &empty.payload, &empty.bit_lens, 0, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn huffman_bad_ways_rejected() {
        let table = huffman::HuffmanTable::from_frequencies(&byte_histogram(b"ab")).unwrap();
        assert_eq!(
            huffman_encode(&table, b"ab", 0).unwrap_err(),
            HuffmanError::BadStream
        );
        assert_eq!(
            huffman_encode(&table, b"ab", MAX_WAYS + 1).unwrap_err(),
            HuffmanError::BadStream
        );
        let mut out = Vec::new();
        assert_eq!(
            huffman_decode_into(&table, &[], &[], 0, &mut out).unwrap_err(),
            HuffmanError::BadStream
        );
    }

    #[test]
    fn fse_roundtrip_all_ways() {
        let mut rng = Xoshiro256::seed_from(202);
        for ways in 1..=MAX_WAYS {
            for trial in 0..10 {
                let alphabet = rng.index(40) + 2;
                let len = rng.index(3000) + 1;
                let data: Vec<u16> = (0..len).map(|_| rng.index(alphabet) as u16).collect();
                let hist = hist_u16(&data, alphabet);
                let log = recommended_table_log(&hist, 10);
                let norm = normalize_counts(&hist, log).unwrap();
                let streams = fse_encode(&data, &norm, log, ways).unwrap();
                let views: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
                assert_eq!(
                    fse_decode(&views, &norm, log, len).unwrap(),
                    data,
                    "ways {ways} trial {trial}"
                );
                assert_eq!(
                    reference::fse_decode(&views, &norm, log, len).unwrap(),
                    data,
                    "reference ways {ways} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn fse_tiny_inputs() {
        let norm = normalize_counts(&[1, 1], 2).unwrap();
        let streams = fse_encode(&[0u16, 1], &norm, 2, 4).unwrap();
        assert_eq!(streams.len(), 4);
        assert!(streams[2].is_empty());
        let views: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        assert_eq!(fse_decode(&views, &norm, 2, 2).unwrap(), vec![0, 1]);
    }
}
