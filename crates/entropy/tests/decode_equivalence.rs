//! Adversarial decode-parity for the interleaved and rANS entropy
//! kernels: the fast K-cursor / flat-table decoders must agree with their
//! per-symbol reference twins on every input — valid, truncated at every
//! byte, bit-flipped, or carrying hostile per-stream length headers.
//! Output bytes and error variants alike.

use cdpu_entropy::huffman::{HuffmanError, HuffmanTable};
use cdpu_entropy::{byte_histogram, interleave, rans};
use cdpu_util::rng::Xoshiro256;

/// Skewed byte data that entropy-codes well (so streams are non-trivial).
fn skewed_bytes(rng: &mut Xoshiro256, len: usize, alphabet: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            let a = rng.index(alphabet);
            let b = rng.index(alphabet);
            (a.min(b)) as u8
        })
        .collect()
}

fn fast_huffman(
    table: &HuffmanTable,
    payload: &[u8],
    bit_lens: &[u64],
    count: usize,
) -> Result<Vec<u8>, HuffmanError> {
    let mut out = Vec::new();
    interleave::huffman_decode_into(table, payload, bit_lens, count, &mut out)?;
    Ok(out)
}

#[test]
fn huffman_truncation_at_every_byte() {
    let mut rng = Xoshiro256::seed_from(71);
    for ways in [2usize, 4, 8] {
        let data = skewed_bytes(&mut rng, 900, 48);
        let table = HuffmanTable::from_frequencies(&byte_histogram(&data)).unwrap();
        let enc = interleave::huffman_encode(&table, &data, ways).unwrap();
        for cut in 0..=enc.payload.len() {
            let fast = fast_huffman(&table, &enc.payload[..cut], &enc.bit_lens, data.len());
            let slow = interleave::reference::huffman_decode(
                &table,
                &enc.payload[..cut],
                &enc.bit_lens,
                data.len(),
            );
            assert_eq!(fast, slow, "ways {ways} cut {cut}");
        }
    }
}

#[test]
fn huffman_bitflip_parity() {
    let mut rng = Xoshiro256::seed_from(72);
    for ways in [2usize, 4, 8] {
        let data = skewed_bytes(&mut rng, 1400, 64);
        let table = HuffmanTable::from_frequencies(&byte_histogram(&data)).unwrap();
        let enc = interleave::huffman_encode(&table, &data, ways).unwrap();
        for _ in 0..120 {
            let mut bad = enc.payload.clone();
            let i = rng.index(bad.len());
            bad[i] ^= 1 << rng.index(8);
            let fast = fast_huffman(&table, &bad, &enc.bit_lens, data.len());
            let slow =
                interleave::reference::huffman_decode(&table, &bad, &enc.bit_lens, data.len());
            assert_eq!(fast, slow, "ways {ways} flip at {i}");
        }
    }
}

#[test]
fn huffman_hostile_stream_lengths() {
    let mut rng = Xoshiro256::seed_from(73);
    let data = skewed_bytes(&mut rng, 700, 32);
    let table = HuffmanTable::from_frequencies(&byte_histogram(&data)).unwrap();
    let enc = interleave::huffman_encode(&table, &data, 4).unwrap();
    let mut hostile: Vec<Vec<u64>> = vec![
        vec![],                                  // no streams at all
        vec![0; 9],                              // too many streams
        vec![u64::MAX; 4],                       // astronomically long
        vec![enc.payload.len() as u64 * 8; 4],   // each claims the whole payload
        vec![0, 0, 0, 0],                        // all empty but payload is not
    ];
    // Single-stream perturbations of the true lengths: off-by-one both
    // ways, swapped lanes, one lane zeroed.
    for lane in 0..4 {
        for delta in [-9i64, -1, 1, 8, 64] {
            let mut l = enc.bit_lens.clone();
            l[lane] = l[lane].wrapping_add_signed(delta);
            hostile.push(l);
        }
        let mut l = enc.bit_lens.clone();
        l[lane] = 0;
        hostile.push(l);
    }
    let mut swapped = enc.bit_lens.clone();
    swapped.swap(0, 3);
    hostile.push(swapped);
    for (case, lens) in hostile.iter().enumerate() {
        let fast = fast_huffman(&table, &enc.payload, lens, data.len());
        let slow =
            interleave::reference::huffman_decode(&table, &enc.payload, lens, data.len());
        assert_eq!(fast, slow, "hostile case {case}: {lens:?}");
    }
}

#[test]
fn rans_truncation_at_every_byte() {
    let mut rng = Xoshiro256::seed_from(75);
    for ways in [1usize, 2, 4, 8] {
        let data = skewed_bytes(&mut rng, 800, 40);
        let (table, _, _) = rans::table_for(&data).unwrap();
        let stream = rans::encode(&table, &data, ways).unwrap();
        for cut in 0..stream.len() {
            let fast = rans::decode(&table, &stream[..cut], data.len(), ways);
            let slow = rans::reference::decode(&table, &stream[..cut], data.len(), ways);
            assert_eq!(fast, slow, "ways {ways} cut {cut}");
            assert!(fast.is_err(), "truncated stream must not decode (cut {cut})");
        }
    }
}

#[test]
fn rans_bitflip_and_garbage_parity() {
    let mut rng = Xoshiro256::seed_from(76);
    for ways in [1usize, 4, 8] {
        let data = skewed_bytes(&mut rng, 1200, 56);
        let (table, _, _) = rans::table_for(&data).unwrap();
        let stream = rans::encode(&table, &data, ways).unwrap();
        for _ in 0..150 {
            let mut bad = stream.clone();
            let i = rng.index(bad.len());
            bad[i] ^= 1 << rng.index(8);
            let fast = rans::decode(&table, &bad, data.len(), ways);
            let slow = rans::reference::decode(&table, &bad, data.len(), ways);
            assert_eq!(fast, slow, "ways {ways} flip at {i}");
        }
        // Trailing garbage must be rejected identically.
        let mut padded = stream.clone();
        padded.push(0xAB);
        let fast = rans::decode(&table, &padded, data.len(), ways);
        let slow = rans::reference::decode(&table, &padded, data.len(), ways);
        assert_eq!(fast, slow);
        assert!(fast.is_err(), "trailing byte must be rejected");
        // Decoding with the wrong lane count must fail identically.
        let other = if ways == 1 { 2 } else { ways - 1 };
        let fast = rans::decode(&table, &stream, data.len(), other);
        let slow = rans::reference::decode(&table, &stream, data.len(), other);
        assert_eq!(fast, slow, "ways {ways} decoded as {other}");
    }
}

/// The per-symbol decode every faster path must reproduce.
fn serial_bytes(table: &HuffmanTable, bytes: &[u8], bit_len: usize, count: usize) -> Result<Vec<u8>, HuffmanError> {
    let mut r = cdpu_util::bits::MsbBitReader::new(bytes, bit_len);
    (0..count)
        .map(|_| match table.decode_symbol(&mut r)? {
            sym @ 0..=255 => Ok(sym as u8),
            _ => Err(HuffmanError::BadStream),
        })
        .collect()
}

/// Lane fallbacks so far, process-wide: the other tests in this file decode
/// fewer than 2048 symbols per stream, too few for lanes, so only this
/// test's decodes move it.
fn lane_fallbacks() -> u64 {
    cdpu_telemetry::registry().counter("decode.huffman.lanes_fallback").get()
}

/// Appends `pad` pseudo-random bits to an MSB-first stream of `bit_len` bits.
fn pad_bits(bytes: &[u8], bit_len: usize, pad: usize, seed: u64) -> (Vec<u8>, usize) {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut w = cdpu_util::bits::MsbBitWriter::new();
    let mut r = cdpu_util::bits::MsbBitReader::new(bytes, bit_len);
    while r.remaining() > 0 {
        let n = r.remaining().min(32) as u32;
        w.write_bits(r.read_bits(n).unwrap(), n);
    }
    for _ in 0..pad {
        w.write_bits(rng.index(2) as u64, 1);
    }
    w.finish()
}

/// The four-lane literal decode returns exactly what the per-symbol decoder
/// does — `Ok` bytes and `Err` values — on streams long enough for lanes:
/// every lane-start residue mod 16, fixed-length codes whose cuts fall
/// mid-code unless rounded to the gcd of the code lengths, a single-symbol
/// table, symbols above 255, trailing bits, a count the stream cannot
/// hold, and a code that never synchronises. Where the lanes must
/// synchronise, the test also asserts that they did not fall back to the
/// serial decode.
#[test]
fn speculative_literal_lanes_match_serial() {
    cdpu_telemetry::enable();
    let check = |table: &HuffmanTable, bytes: &[u8], bit_len: usize, count: usize, lanes: Option<bool>, label: &str| {
        let before = lane_fallbacks();
        let fast = table.decode_bytes(bytes, bit_len, count);
        let fell_back = lane_fallbacks() - before;
        assert_eq!(fast, serial_bytes(table, bytes, bit_len, count), "{label}");
        match lanes {
            Some(true) => assert_eq!(fell_back, 0, "{label}: the lanes must synchronise"),
            Some(false) => assert_eq!(fell_back, 1, "{label}: the lanes must fall back once"),
            None => {}
        }
    };
    let mut rng = Xoshiro256::seed_from(77);

    // Every residue of the first cut mod 16, set by trailing bits.
    for residue in 0..16 {
        for trial in 0..4 {
            let (len, alphabet) = (5000 + rng.index(4000), 40 + rng.index(100));
            let data = skewed_bytes(&mut rng, len, alphabet);
            let table = HuffmanTable::from_frequencies(&byte_histogram(&data)).unwrap();
            let (bytes, bits) = table.encode_bytes(&data).unwrap();
            let pad = (0..64).find(|p| (bits + p) / 4 % 16 == residue).unwrap();
            let (bytes, bit_len) = pad_bits(&bytes, bits, pad, trial);
            let label = format!("residue {residue} trial {trial}");
            check(&table, &bytes, bit_len, data.len(), Some(true), &label);
            check(&table, &bytes, bit_len, data.len() - 1 - rng.index(200), Some(true), &format!("{label}, trailing symbols"));
            check(&table, &bytes, bit_len, data.len() + 40, None, &format!("{label}, symbols past the padding"));
            let flip = rng.index(bit_len);
            let mut bad = bytes.clone();
            bad[flip / 8] ^= 0x80 >> (flip % 8);
            check(&table, &bad, bit_len, data.len(), None, &format!("{label}, bit {flip} flipped"));
        }
    }

    // Fixed-length codes: cuts at multiples of the code length start every
    // lane on a symbol boundary; a cut inside a code would never land.
    for (len, symbols) in [(8u8, 256usize), (4, 16), (6, 64)] {
        let table = HuffmanTable::from_lengths(vec![len; symbols]).unwrap();
        let data: Vec<u8> = (0..6000).map(|_| rng.index(symbols) as u8).collect();
        let (bytes, bits) = table.encode_bytes(&data).unwrap();
        for pad in 1..len as usize + 4 {
            let (bytes, bit_len) = pad_bits(&bytes, bits, pad, pad as u64);
            check(&table, &bytes, bit_len, data.len(), Some(true), &format!("{len}-bit code, {pad} pad bits"));
        }
    }

    // A single-symbol table: every bit pattern with a 1 is unmapped.
    let table = HuffmanTable::from_lengths(vec![0, 0, 1]).unwrap();
    let zeros = vec![0u8; 3000];
    check(&table, &zeros, 24_000, 24_000, Some(true), "single symbol");
    check(&table, &zeros, 24_000, 20_000, Some(true), "single symbol, trailing bits");
    for at in [100, 9_000, 15_000, 23_999] {
        let mut one = zeros.clone();
        one[at / 8] = 0x80 >> (at % 8);
        check(&table, &one, 24_000, 24_000, Some(false), &format!("single symbol, 1 at bit {at}"));
        check(&table, &one, 24_000, at, None, &format!("single symbol, 1 after the count at {at}"));
    }

    // An alphabet above 256: a symbol past the byte range in lane 2's
    // region fails the decode; past the count it is only trailing bits.
    let mut freqs = vec![0u32; 300];
    for (s, f) in freqs.iter_mut().enumerate() {
        *f = 1 + (300 - s as u32) * (s as u32 % 7 + 1);
    }
    let table = HuffmanTable::from_frequencies(&freqs).unwrap();
    let mut symbols: Vec<u16> = (0..6000).map(|_| rng.index(256).min(rng.index(256)) as u16).collect();
    symbols[3300] = 290;
    let mut w = cdpu_util::bits::MsbBitWriter::new();
    for &s in &symbols {
        table.encode_symbol(s, &mut w).unwrap();
    }
    let (bytes, bit_len) = w.finish();
    check(&table, &bytes, bit_len, symbols.len(), Some(false), "symbol 290 in lane 2's region");
    check(&table, &bytes, bit_len, 3300, None, "symbol 290 after the count");

    // Lengths {2, 2, 2, 3, 3} repeating the code 01: a lane cut at an odd
    // bit reads 10 forever and never lands on a true boundary.
    let table = HuffmanTable::from_lengths(vec![2, 2, 2, 3, 3]).unwrap();
    let ones = vec![1u8; 10_002];
    let (bytes, bit_len) = table.encode_bytes(&ones).unwrap();
    assert_eq!(bit_len / 4 % 2, 1, "the first cut is odd");
    check(&table, &bytes, bit_len, ones.len(), Some(false), "unsynchronisable 01 run");
}
