//! N-way interleaved multi-stream entropy coding.
//!
//! A single-stream table decoder is serial-dependency-bound: every symbol's
//! `peek → table load → consume` chain must retire before the next symbol
//! can start, so decode throughput is pinned to the table-load latency.
//! Real ZStandard attacks this by splitting Huffman literals across 4
//! independent bitstreams; this module generalizes that to K-way
//! interleaving ([`huffman_encode`] / [`huffman_decode_into`]): symbol `i`
//! goes to stream `i % K`; each stream is an ordinary MSB-first canonical
//! Huffman bitstream over one shared code book. The decoder round-robins a
//! [`BitBufBank`] of per-stream cached-u64 cursors, so one rotation issues
//! K independent table loads the CPU can overlap.
//!
//! The ZStd-class block format's K-way FSE sequence lanes (`seq_streams`)
//! share only [`stream_symbols`] and [`MAX_WAYS`] with this module: they
//! are coded, and decoded through baked tables, in `cdpu_zstd::block`.
//!
//! Stream framing (per-stream lengths) is the caller's job — the ZStd-class
//! block format writes varint lengths — so these functions take/return streams
//! explicitly. Symbol distribution is fixed by `i % K`, making stream
//! symbol counts `ceil((count - k) / K)` — derivable from `count`, never
//! transmitted.
//!
//! The decoder has a per-symbol reference twin in [`mod@reference`], the
//! equivalence oracle the adversarial parity tests pin against.

use cdpu_util::bits::{BitBufBank, MsbBitReader, MsbBitWriter};

use crate::huffman::{encode_byte, HuffmanError, HuffmanTable};

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

/// The per-symbol reference decoder — the seed-shaped equivalence oracle
/// for the interleaved format. No cached windows, no banks: plain readers
/// in global symbol order, the behaviour the fast path must match bit for
/// bit (outputs and errors alike).
pub mod reference {
    use super::*;

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

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{byte_histogram, huffman};
    use cdpu_util::rng::Xoshiro256;

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
}
