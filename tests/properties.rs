//! Randomized property tests on the core data structures and codecs.
//!
//! These drive pseudo-random inputs through every lossless path in the
//! workspace: if any generated byte string fails to round-trip through a
//! codec, an entropy coder, or a bit stream, the property fails with the
//! seed of the offending case in the panic message.
//!
//! Formerly written against `proptest`; rewritten on the workspace's own
//! deterministic [`Xoshiro256`] so the suite builds with no external
//! dependencies (the build environment is offline).

use cdpu::util::rng::Xoshiro256;

const CASES: u64 = 64;

/// A random byte vector of length in `[0, max_len)`. Half the cases are
/// uniform noise; the other half are match-rich (repeated small alphabet
/// with runs) so LZ77/entropy paths see compressible structure too.
fn random_bytes(rng: &mut Xoshiro256, max_len: usize) -> Vec<u8> {
    let len = rng.index(max_len);
    let mut data = vec![0u8; len];
    if rng.chance(0.5) {
        rng.fill_bytes(&mut data);
    } else {
        let alphabet = 1 + rng.index(32) as u8;
        let mut i = 0;
        while i < len {
            let run = 1 + rng.index(16);
            let b = (rng.index(alphabet as usize + 1)) as u8;
            for _ in 0..run.min(len - i) {
                data[i] = b;
                i += 1;
            }
        }
    }
    data
}

// ---------------- bit streams -------------------------------------

#[test]
fn lsb_bitstream_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xB175 ^ case);
        let n_fields = rng.index(64);
        let fields: Vec<(u64, u32)> = (0..n_fields)
            .map(|_| {
                let n = rng.range_u64(0, 57) as u32;
                // n <= 57, so the mask (1 << n) - 1 never overflows.
                let v = rng.next_u64() & ((1u64 << n) - 1);
                (v, n)
            })
            .collect();
        let mut w = cdpu::util::bits::BitWriter::new();
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish_with_marker();
        let mut r = cdpu::util::bits::ReverseBitReader::new(&bytes).unwrap();
        for &(v, n) in fields.iter().rev() {
            assert_eq!(r.read_bits(n).unwrap(), v, "case {case}");
        }
        assert_eq!(r.remaining(), 0, "case {case}");
    }
}

#[test]
fn msb_bitstream_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x5B17 ^ case);
        let n_fields = rng.index(64);
        let fields: Vec<(u64, u32)> = (0..n_fields)
            .map(|_| {
                let n = rng.range_u64(1, 57) as u32;
                let v = rng.next_u64() & ((1u64 << n) - 1);
                (v, n)
            })
            .collect();
        let mut w = cdpu::util::bits::MsbBitWriter::new();
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let (bytes, len) = w.finish();
        let mut r = cdpu::util::bits::MsbBitReader::new(&bytes, len);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n).unwrap(), v, "case {case}");
        }
    }
}

// ---------------- varint -------------------------------------------

#[test]
fn varint_roundtrip() {
    let mut rng = Xoshiro256::seed_from(0x7A51);
    for case in 0..1024u64 {
        // Mix raw draws with shifted ones so every length class is hit.
        let v = rng.next_u64() >> (rng.index(65) as u32).min(63);
        let mut buf = Vec::new();
        let n = cdpu::util::varint::write_u64(&mut buf, v);
        assert_eq!(
            cdpu::util::varint::read_u64(&buf).unwrap(),
            (v, n),
            "case {case} value {v}"
        );
    }
}

#[test]
fn varint_never_panics_on_garbage() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x6A4B ^ case);
        let mut bytes = vec![0u8; rng.index(16)];
        rng.fill_bytes(&mut bytes);
        let _ = cdpu::util::varint::read_u64(&bytes);
        let _ = cdpu::util::varint::read_u32(&bytes);
    }
}

// ---------------- entropy coders ------------------------------------

#[test]
fn huffman_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x4FF ^ case);
        let mut data = random_bytes(&mut rng, 4096);
        if data.is_empty() {
            data.push(rng.next_u64() as u8);
        }
        let hist = cdpu::entropy::byte_histogram(&data);
        let table = cdpu::entropy::huffman::HuffmanTable::from_frequencies(&hist).unwrap();
        let (bits, bit_len) = table.encode_bytes(&data).unwrap();
        assert_eq!(
            table.decode_bytes(&bits, bit_len, data.len()).unwrap(),
            data,
            "case {case}"
        );
    }
}

#[test]
fn huffman_table_serialization_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x5E1A ^ case);
        let mut data = random_bytes(&mut rng, 2048);
        if data.is_empty() {
            data.push(rng.next_u64() as u8);
        }
        let hist = cdpu::entropy::byte_histogram(&data);
        let table = cdpu::entropy::huffman::HuffmanTable::from_frequencies(&hist).unwrap();
        let mut buf = Vec::new();
        table.serialize(&mut buf);
        let (table2, consumed) =
            cdpu::entropy::huffman::HuffmanTable::deserialize(&buf).unwrap();
        assert_eq!(consumed, buf.len(), "case {case}");
        let (bits, bit_len) = table.encode_bytes(&data).unwrap();
        assert_eq!(
            table2.decode_bytes(&bits, bit_len, data.len()).unwrap(),
            data,
            "case {case}"
        );
    }
}

#[test]
fn fse_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xF5E ^ case);
        let n = 1 + rng.index(4095);
        let symbols: Vec<u16> = (0..n).map(|_| rng.index(24) as u16).collect();
        let mut hist = vec![0u32; 24];
        for &s in &symbols {
            hist[s as usize] += 1;
        }
        let log = cdpu::entropy::fse::recommended_table_log(&hist, 10);
        let norm = cdpu::entropy::fse::normalize_counts(&hist, log).unwrap();
        let bytes = cdpu::entropy::fse::encode(&symbols, &norm, log).unwrap();
        assert_eq!(
            cdpu::entropy::fse::decode(&bytes, &norm, log, symbols.len()).unwrap(),
            symbols,
            "case {case}"
        );
    }
}

// ---------------- LZ77 ---------------------------------------------

#[test]
fn lz77_parse_covers_input() {
    use cdpu::lz77::matcher::{HashTableMatcher, MatcherConfig};
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x1277 ^ case);
        let data = random_bytes(&mut rng, 8192);
        let parse = HashTableMatcher::new(MatcherConfig::snappy_hw()).parse(&data);
        assert_eq!(parse.total_len(), data.len(), "case {case}");
        let lits = parse.literal_bytes(&data);
        let out = cdpu::lz77::window::reconstruct(&parse, &lits, None).unwrap();
        assert_eq!(out, data, "case {case}");
    }
}

// ---------------- codecs -------------------------------------------

#[test]
fn snappy_roundtrip_arbitrary() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x54A9 ^ case);
        let data = random_bytes(&mut rng, 32768);
        let c = cdpu::snappy::compress(&data);
        assert!(
            c.len() <= cdpu::snappy::max_compressed_len(data.len()),
            "case {case}"
        );
        assert_eq!(cdpu::snappy::decompress(&c).unwrap(), data, "case {case}");
    }
}

#[test]
fn snappy_decompress_never_panics() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x54AD ^ case);
        let mut bytes = vec![0u8; rng.index(2048)];
        rng.fill_bytes(&mut bytes);
        let _ = cdpu::snappy::decompress(&bytes);
    }
}

#[test]
fn zstd_roundtrip_arbitrary() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x257D ^ case);
        let data = random_bytes(&mut rng, 32768);
        let level = rng.range_u64(0, 14) as i32 - 5; // -5..=9
        let cfg = cdpu::zstd::ZstdConfig::with_level(level);
        let c = cdpu::zstd::compress_with(&data, &cfg);
        assert_eq!(
            cdpu::zstd::decompress(&c).unwrap(),
            data,
            "case {case} level {level}"
        );
    }
}

#[test]
fn zstd_decompress_never_panics() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x257E ^ case);
        let mut bytes = vec![0u8; rng.index(2048)];
        rng.fill_bytes(&mut bytes);
        let _ = cdpu::zstd::decompress(&bytes);
    }
}

#[test]
fn zstd_corrupted_frames_never_panic() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xC0B9 ^ case);
        let data = random_bytes(&mut rng, 4096);
        let mut c = cdpu::zstd::compress(&data);
        let flips = 1 + rng.index(7);
        for _ in 0..flips {
            let i = rng.index(c.len());
            let bit = rng.index(8) as u8;
            c[i] ^= 1 << bit;
        }
        let _ = cdpu::zstd::decompress(&c); // any Result is fine; no panic
    }
}

// ---------------- generators ----------------------------------------

#[test]
fn corpus_generation_deterministic() {
    let mut rng = Xoshiro256::seed_from(0xC0A9);
    for case in 0..16u64 {
        let seed = rng.next_u64();
        let len = rng.index(4096);
        for kind in cdpu::corpus::ALL_KINDS {
            let a = cdpu::corpus::generate(kind, len, seed);
            let b = cdpu::corpus::generate(kind, len, seed);
            assert_eq!(a, b, "case {case} kind {kind:?}");
            assert_eq!(a.len(), len, "case {case} kind {kind:?}");
        }
    }
}

// ---------------- stream identity -----------------------------------

/// FNV-1a-64 over `bytes`, continuing from `h`.
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Pins the compressed streams themselves, not just round-trips: one
/// digest per codec × payload size, chained over every corpus kind
/// (length-prefixed so a byte moving between streams still shows). A
/// change to match finding or table construction that alters any output
/// byte of the one-shot encoders fails here, inside tier-1.
#[test]
fn compressed_streams_are_pinned() {
    #[rustfmt::skip]
    const PINS: [(usize, [u64; 6]); 4] = [
        (1, [0xA91A_6319_8F17_AA39, 0x7D90_0E9A_53DE_8CD9, 0x69C8_B847_0E94_DE4E,
             0x5B9E_D3F0_0D46_4028, 0x5E11_6B92_563C_43D9, 0x1C36_829C_6111_E973]),
        (4, [0x82CE_9B2C_23A9_2730, 0xF8CA_C511_56A5_867F, 0xD28B_B5B5_2FF7_41A4,
             0x6088_AAA9_EA8A_0271, 0xCEE9_4816_14AF_D069, 0xCC53_7B0C_7F8C_D4A4]),
        (16, [0xE26A_1CC1_6D2D_5BBF, 0x882B_8EDE_0000_FD97, 0x9487_7337_5047_66C6,
             0xD86B_63AC_A3EA_330D, 0x6EC3_5BE3_3C4A_C56E, 0xB913_4C0B_F226_9A7E]),
        (200, [0x50D0_79D0_1613_2623, 0xF6A0_3B1A_9F5B_E6CF, 0x0760_F31E_C289_E6B1,
             0xBFB1_12FE_3939_6C1F, 0x655E_5CFC_3D27_33F0, 0x3711_0D05_61CC_B903]),
    ];
    type Compress = fn(&[u8]) -> Vec<u8>;
    let codecs: [(&str, Compress); 6] = [
        ("zstd", cdpu::zstd::compress),
        ("flate", cdpu::flate::compress),
        ("snappy", cdpu::snappy::compress),
        ("lz4", cdpu::lite::lz4::compress),
        ("lzo", cdpu::lite::lzo::compress),
        ("gipfeli", cdpu::lite::gipfeli::compress),
    ];
    for (kib, want) in PINS {
        for ((name, compress), want) in codecs.iter().zip(want) {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for kind in cdpu::corpus::ALL_KINDS {
                let data = cdpu::corpus::generate(kind, kib << 10, 0x1D);
                let c = compress(&data);
                h = fnv1a64(h, &(c.len() as u64).to_le_bytes());
                h = fnv1a64(h, &c);
            }
            assert_eq!(h, want, "{name} streams moved at {kib} KiB: got {h:#018X}");
        }
    }
}

/// Pins the zstd entropy modes the default level never selects: four
/// interleaved literal streams, four sequence bitstreams and rANS
/// literals, one digest per mode over every corpus kind at two sizes.
#[test]
fn entropy_modes_are_pinned() {
    use cdpu::zstd::ZstdConfig;
    let modes = [
        ("lit_streams(4)", ZstdConfig::default().lit_streams(4), 0x1C9B_F275_A96B_62B5u64),
        ("seq_streams(4)", ZstdConfig::default().seq_streams(4), 0xFAA7_1F81_093F_97EE),
        ("rans_literals()", ZstdConfig::default().rans_literals(), 0x85A5_B98F_3AEE_C433),
    ];
    for (name, cfg, want) in modes {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for kib in [4usize, 200] {
            for kind in cdpu::corpus::ALL_KINDS {
                let c = cdpu::zstd::compress_with(&cdpu::corpus::generate(kind, kib << 10, 0x1D), &cfg);
                h = fnv1a64(h, &(c.len() as u64).to_le_bytes());
                h = fnv1a64(h, &c);
            }
        }
        assert_eq!(h, want, "zstd {name} streams moved: got {h:#018X}");
    }
}

/// Pins the zstd and flate frames written from hand-built parses at the
/// block splitter's edges: matches of 1–4 bytes, around flate's 258-byte
/// cap and longer than a block, a match ending on a block boundary,
/// literal runs around one block, every cut of a match 1–5 bytes before a
/// boundary leaving 1–5 bytes after it, uniform inputs (zstd's RLE blocks,
/// with a last block of 16 and of 15 bytes) and empty input. One digest over every frame, and for zstd its
/// statistics too; every frame also decodes to its input.
#[test]
fn hand_built_parse_frames_are_pinned() {
    use cdpu::lz77::{Parse, Seq};
    const BLOCK: u32 = 128 * 1024;
    // `(offset, [(lit_len, match_len)], last_literals)`: every match copies
    // from `offset` back, over input that repeats with that period.
    type Shape = (u32, Vec<(u32, u32)>, u32);
    let mut shapes: Vec<Shape> = vec![
        (16, vec![(16, 1), (5, 2), (5, 3), (5, 4)], 7),
        (16, vec![(16, 258), (3, 259), (3, 260)], 3),
        (16, vec![(16, 200_000)], 10),
        (16, vec![(16, BLOCK - 16), (8, 50)], 4),
        (64, vec![(BLOCK - 1, 40)], 5),
        (64, vec![(BLOCK, 40)], 5),
        (64, vec![(BLOCK + 1, 40)], 5),
        (1, vec![(1, 300_000)], 0),
        (1, vec![(1, BLOCK + 15)], 0),
        (1, vec![(1, BLOCK + 14)], 0),
        (1, vec![], 0),
    ];
    for before in 1..=5 {
        for after in 1..=5 {
            shapes.push((16, vec![(16, BLOCK - 116 - before), (100, before + after)], 9));
        }
    }
    let mut rng = Xoshiro256::seed_from(0x5B17);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (offset, seqs, last_literals) in shapes {
        let parse = Parse {
            seqs: seqs
                .iter()
                .map(|&(lit_len, match_len)| Seq { lit_len, match_len, offset })
                .collect(),
            last_literals,
        };
        let (len, period) = (parse.total_len(), if offset == 1 { 1 } else { offset as usize });
        let mut pattern = vec![0u8; period];
        if period > 1 {
            rng.fill_bytes(&mut pattern);
        }
        let data: Vec<u8> = (0..len).map(|i| pattern[i % period]).collect();
        let (z, stats) = cdpu::zstd::compress_parse_with_stats(&data, &parse, &Default::default());
        let f = cdpu::flate::compress_parse(&data, &parse, &Default::default());
        assert_eq!(cdpu::zstd::decompress(&z).unwrap(), data, "zstd frame of {seqs:?}");
        assert_eq!(cdpu::flate::decompress(&f).unwrap(), data, "flate frame of {seqs:?}");
        for frame in [&z, &f, format!("{stats:?}").as_bytes()] {
            h = fnv1a64(h, &(frame.len() as u64).to_le_bytes());
            h = fnv1a64(h, frame);
        }
    }
    assert_eq!(h, 0x1ED2_0848_DB39_C4E5, "hand-built parse frames moved: got {h:#018X}");
}

/// The input a parse describes: random literals, each match copied from
/// `offset` back.
fn materialize(rng: &mut Xoshiro256, parse: &cdpu::lz77::Parse) -> Vec<u8> {
    let mut out = Vec::with_capacity(parse.total_len());
    let mut literals = |out: &mut Vec<u8>, n: u32| {
        let start = out.len();
        out.resize(start + n as usize, 0);
        rng.fill_bytes(&mut out[start..]);
    };
    for s in &parse.seqs {
        literals(&mut out, s.lit_len);
        assert!(s.offset as usize <= out.len(), "offset {} before the input", s.offset);
        for _ in 0..s.match_len {
            out.push(out[out.len() - s.offset as usize]);
        }
    }
    literals(&mut out, parse.last_literals);
    out
}

/// Pins the zstd and flate frames (and zstd statistics) on both sides of
/// the entropy stage's pay tests and at every sequence-code edge:
///
/// - literal sections of uniform-random bytes mixed with a 4-symbol
///   alphabet in 1/16 steps, 8 B–16 KiB, whole-input literal parses and the
///   codecs' own parses;
/// - 255- and 256-symbol alphabets at the same sizes;
/// - sections of 1–16 literals, alone and in blocks of 16+ sequences;
/// - hand-built parses with literal lengths 15/16/63/64/65535/65536/131071,
///   match lengths 3/34/35/130/131/258/259/131074, every length of
///   flate's length table at its bases ±1, offsets at powers of two ±1 up to
///   zstd's 128 KiB window, flate distances at each distance base ±1, and 15
///   and 16 sequences (the FSE threshold).
///
/// One digest over every frame; every frame also decodes to its input.
#[test]
fn entropy_edge_frames_are_pinned() {
    use cdpu::lz77::{Parse, Seq};
    let mut rng = Xoshiro256::seed_from(0xED6E);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let fold = |h: &mut u64, data: &[u8], parse: Option<&Parse>| {
        let (z, stats) = match parse {
            Some(p) => cdpu::zstd::compress_parse_with_stats(data, p, &Default::default()),
            None => cdpu::zstd::compress_with_stats(data, &Default::default()),
        };
        let f = match parse {
            Some(p) => cdpu::flate::compress_parse(data, p, &Default::default()),
            None => cdpu::flate::compress(data),
        };
        assert_eq!(cdpu::zstd::decompress(&z).unwrap(), data, "zstd frame of {} bytes", data.len());
        assert_eq!(cdpu::flate::decompress(&f).unwrap(), data, "flate frame of {} bytes", data.len());
        for frame in [&z, &f, format!("{stats:?}").as_bytes()] {
            *h = fnv1a64(*h, &(frame.len() as u64).to_le_bytes());
            *h = fnv1a64(*h, frame);
        }
    };
    let literal_parse = |len: usize| Parse { seqs: Vec::new(), last_literals: len as u32 };

    // Literal sections: random bytes in `sixteenths`/16 of the positions,
    // the 4-symbol alphabet elsewhere; then 255 and 256 symbols.
    for len in [8usize, 16, 64, 256, 1024, 4096, 16384] {
        for sixteenths in 0..=16 {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.index(16) < sixteenths {
                        rng.next_u64() as u8
                    } else {
                        b"acgt"[rng.index(4)]
                    }
                })
                .collect();
            fold(&mut h, &data, Some(&literal_parse(len)));
            fold(&mut h, &data, None);
        }
        for alphabet in [255usize, 256] {
            let mut data: Vec<u8> = (0..len).map(|_| rng.index(alphabet) as u8).collect();
            for (i, b) in data.iter_mut().take(alphabet).enumerate() {
                *b = i as u8;
            }
            fold(&mut h, &data, Some(&literal_parse(len)));
            fold(&mut h, &data, None);
        }
    }

    // `(lit_len, match_len, offset)` rows; every parse starts with a
    // literal run as long as its longest offset.
    let mut parses: Vec<Vec<(u32, u32, u32)>> = Vec::new();
    let filler = |n: usize| vec![(20u32, 6u32, 20u32); n];
    for lits in 1..=16 {
        parses.push(vec![(20, 6, 20), (lits, 8, 20)]);
        let mut seqs = filler(1);
        seqs.extend(std::iter::repeat_n((lits, 5, 17), 20));
        parses.push(seqs);
    }
    for lit_len in [15u32, 16, 63, 64, 65535, 65536, 131071] {
        let mut seqs = filler(8);
        seqs.push((lit_len, 6, 20));
        seqs.extend(filler(8));
        parses.push(seqs);
    }
    for match_len in [3u32, 34, 35, 130, 131, 258, 259, 131074] {
        let mut seqs = filler(8);
        seqs.push((20, match_len, 20));
        seqs.extend(filler(8));
        parses.push(seqs);
    }
    let mut lengths = filler(1);
    for base in [
        3u32, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99,
        115, 131, 163, 195, 227, 258,
    ] {
        for len in [base - 1, base, base + 1] {
            if (3..=258).contains(&len) {
                lengths.push((20, len, 20));
            }
        }
    }
    parses.push(lengths);
    let mut offsets = vec![(131_072, 4, 1)];
    for k in 0..=17 {
        for offset in [(1u32 << k) - 1, 1 << k, (1 << k) + 1] {
            if (1..=131_072).contains(&offset) {
                offsets.push((20, 6, offset));
            }
        }
    }
    parses.push(offsets);
    let mut distances = vec![(32_768, 4, 1)];
    for base in [
        1u32, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025,
        1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577, 32768,
    ] {
        for dist in [base - 1, base, base + 1] {
            if (1..=32_768).contains(&dist) {
                distances.push((20, 6, dist));
            }
        }
    }
    parses.push(distances);
    parses.push(filler(15));
    parses.push(filler(16));
    for seqs in parses {
        let parse = Parse {
            seqs: seqs
                .iter()
                .map(|&(lit_len, match_len, offset)| Seq { lit_len, match_len, offset })
                .collect(),
            last_literals: 7,
        };
        let data = materialize(&mut rng, &parse);
        fold(&mut h, &data, Some(&parse));
    }
    assert_eq!(h, 0xC1E3_2C25_4326_6C02, "entropy edge frames moved: got {h:#018X}");
}

/// Folds one parse into `h`: sequence count first, so a sequence moving
/// between parses still shows.
fn fold_parse(mut h: u64, parse: &cdpu::lz77::Parse) -> u64 {
    h = fnv1a64(h, &(parse.seqs.len() as u64).to_le_bytes());
    for s in &parse.seqs {
        for field in [s.lit_len, s.match_len, s.offset] {
            h = fnv1a64(h, &field.to_le_bytes());
        }
    }
    fnv1a64(h, &parse.last_literals.to_le_bytes())
}

/// Pins the hash-table matcher where no codec stream reaches it: the
/// DSE's hardware configuration, a 4-way table and the XOR-fold hash, one
/// digest over every parse.
#[test]
fn hash_table_parses_are_pinned() {
    use cdpu::lz77::hash::HashFn;
    use cdpu::lz77::matcher::{HashTableMatcher, MatcherConfig};
    let hw = MatcherConfig::snappy_hw();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for cfg in [hw, MatcherConfig { ways: 4, ..hw }, MatcherConfig { hash_fn: HashFn::XorFold, ..hw }] {
        let matcher = HashTableMatcher::new(cfg);
        for kib in [4usize, 200] {
            for kind in cdpu::corpus::ALL_KINDS {
                h = fold_parse(h, &matcher.parse(&cdpu::corpus::generate(kind, kib << 10, 0x1D)));
            }
        }
    }
    assert_eq!(h, 0x79F6_DA01_EF46_368D, "hash-table parses moved: got {h:#018X}");
}

/// Pins the hash-chain matcher at every configuration a codec level maps
/// to — zstd levels 1–22 and flate levels 1–9, each distinct one once —
/// one-shot and through the streaming parser at 4 KiB feeds, one digest
/// over every parse.
#[test]
fn chain_parses_are_pinned() {
    use cdpu::lz77::matcher::{ChainConfig, HashChainMatcher};
    use cdpu::lz77::stream::{ParseEvent, StreamParser};
    use cdpu::lz77::{Parse, Seq};
    use cdpu::zstd::{SearchParams, ZstdConfig};
    let zstd = (1..=cdpu::zstd::MAX_LEVEL).filter_map(|level| match ZstdConfig::with_level(level).search_params() {
        SearchParams::Chain(c) => Some(c),
        SearchParams::Greedy(_) => None,
    });
    let flate = (1..=9).map(|level| cdpu::flate::FlateConfig::with_level(level).chain_config());
    let mut cfgs: Vec<ChainConfig> = Vec::new();
    for cfg in zstd.chain(flate) {
        if !cfgs.contains(&cfg) {
            cfgs.push(cfg);
        }
    }
    let streamed = |cfg: ChainConfig, data: &[u8]| {
        let mut parse = Parse::default();
        let mut sink = |ev: ParseEvent<'_>| match ev {
            ParseEvent::Literals(b) => parse.last_literals += b.len() as u32,
            ParseEvent::Match { offset, len } => {
                let lit_len = std::mem::take(&mut parse.last_literals);
                parse.seqs.push(Seq { lit_len, match_len: len, offset });
            }
        };
        let mut parser = StreamParser::chain(cfg, data.len(), None);
        for chunk in data.chunks(4096) {
            parser.feed(chunk, &mut sink);
        }
        parser.finish(&mut sink);
        parse
    };
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &cfg in &cfgs {
        let matcher = HashChainMatcher::new(cfg);
        for kib in [4usize, 200] {
            for kind in cdpu::corpus::ALL_KINDS {
                let data = cdpu::corpus::generate(kind, kib << 10, 0x1D);
                h = fold_parse(h, &matcher.parse(&data));
                h = fold_parse(h, &streamed(cfg, &data));
            }
        }
    }
    assert_eq!(cfgs.len(), 19, "distinct level configurations");
    assert_eq!(h, 0x7960_E293_E792_0231, "hash-chain parses moved: got {h:#018X}");
}

// ---------------- decode identity -----------------------------------

/// The codec-typed `push_bytes`/`finish_bytes` pair of a streaming
/// decoder, errors rendered with `Debug`.
trait Streamed {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<cdpu::util::stream::StreamProgress, String>;
    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), String>;
}

macro_rules! streamed {
    ($($ty:ty),*) => {$(
        impl Streamed for $ty {
            fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<cdpu::util::stream::StreamProgress, String> {
                self.push_bytes(input, out).map_err(|e| format!("{e:?}"))
            }
            fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), String> {
                self.finish_bytes(out).map_err(|e| format!("{e:?}"))
            }
        }
    )*};
}
streamed!(
    cdpu::snappy::stream::SnappyStreamDecoder,
    cdpu::lite::stream::LzoStreamDecoder,
    cdpu::lite::stream::Lz4StreamDecoder,
    cdpu::zstd::stream::ZstdStreamDecoder,
    cdpu::flate::stream::FlateStreamDecoder
);

impl Streamed for cdpu::lite::stream::GipfeliStreamDecoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<cdpu::util::stream::StreamProgress, String> {
        cdpu::util::stream::StreamDecoder::push(self, input, out).map_err(|e| format!("{e:?}"))
    }
    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), String> {
        self.finish_bytes(out).map_err(|e| format!("{e:?}"))
    }
}

/// Feeds `stream` to `dec` in `chunk`-byte pushes, draining through a
/// 4 KiB window, then finishes.
fn stream_decode(dec: &mut dyn Streamed, stream: &[u8], chunk: usize) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut window = [0u8; 4096];
    for mut piece in stream.chunks(chunk) {
        while !piece.is_empty() {
            let p = dec.push(piece, &mut window)?;
            out.extend_from_slice(&window[..p.written]);
            piece = &piece[p.consumed..];
        }
    }
    loop {
        let (n, done) = dec.finish(&mut window)?;
        out.extend_from_slice(&window[..n]);
        if done {
            return Ok(out);
        }
    }
}

/// Folds one decode outcome into `h`: the output bytes, or the error's
/// `Debug` rendering.
fn fold_outcome(h: u64, outcome: &Result<Vec<u8>, String>) -> u64 {
    let (tag, bytes) = match outcome {
        Ok(v) => (0u8, v.as_slice()),
        Err(e) => (1u8, e.as_bytes()),
    };
    let h = fnv1a64(h, &[tag]);
    fnv1a64(fnv1a64(h, &(bytes.len() as u64).to_le_bytes()), bytes)
}

/// Hand-built hostile streams of each byte-aligned codec: the cases the
/// `stream_parity` and `decode_equivalence` suites pin one error at a time.
fn hostile_streams() -> [Vec<Vec<u8>>; 4] {
    use cdpu::util::varint::write_u64;
    let varint = |prefix: &[u8], v: u64, suffix: &[u8]| {
        let mut s = prefix.to_vec();
        write_u64(&mut s, v);
        s.extend_from_slice(suffix);
        s
    };
    let mut snappy: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x80],
        vec![0x80; 12],
        vec![0xFF; 5],
        vec![0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
        vec![10, 0b01],
        vec![10, 0x01 | (4 << 2), 0x01],
        vec![4, 16, b'a', b'b', b'c', b'd', b'e'],
        vec![2, 59 << 2],
        vec![5, 61 << 2, 0x10],
        vec![3, 2 << 2, b'a', b'b', b'c', 0b10],
        vec![10, 2 << 2, b'a', b'b', b'c'],
        vec![0x08, 0b0000_0001, 0x00],
        vec![0x08, 0b0010_0001, 0x09],
        vec![0x04, 0b0000_1100, b'a', b'b', b'c', b'd', 0b0001_1101, 0x01],
        vec![0x20, 0b0111_1100, b'x'],
        vec![0x08, 0xF0],
        vec![4, 0b01, 0x01],
        varint(&[], 1 << 30, &[0x00, b'x']),
    ];
    // A type-11 copy reaching 140 000 bytes back: past a streamer's
    // retained window, inside the one-shot's output.
    let mut far = varint(&[], 140_004, &[62 << 2]);
    far.extend_from_slice(&139_999u32.to_le_bytes()[..3]);
    far.extend((0..140_000u32).map(|i| (i % 251) as u8));
    far.push(0b11 | (3 << 2));
    far.extend_from_slice(&140_000u32.to_le_bytes());
    snappy.push(far);
    let lzo: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x80],
        vec![0x80; 12],
        vec![8, 0x80, 0x09, 0x00],
        vec![8, 0x80, 0x00, 0x00],
        vec![8, 0x7F, 0x80],
        vec![8, 0xC0 | 0x3F, 0x80],
        vec![8, 0xFF, 0xFF, 0x7F, 0x01, 0x00],
        vec![4, 0x05, b'a', b'b', b'c', b'd', b'e', b'f'],
        vec![4, 0x03, b'a', b'b', b'c', b'd', 0xC8, 0x01, 0x00],
        vec![8, 0xC0, 0x01],
        varint(&[0x08, 0x7F], u64::MAX, &[]),
        varint(&[0x08, 0x7F], u64::MAX - 0x7F, &[]),
        varint(&[0x08, 0xFF], u64::MAX, &[0x01, 0x00]),
        varint(&varint(&[], 1 << 40, &[0xFF]), (1 << 33) - 0x3F - 4, &[0x01, 0x00]),
    ];
    let lz4: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x80],
        vec![8, 0x00, 0x09, 0x00, 0x00],
        vec![8, 0x00, 0x09, 0x00],
        vec![8, 0x00, 0x00, 0x00],
        vec![8, 0xF0, 0x80],
        vec![8, 0xF0, 0xFF],
        vec![8, 0x0F, 0x01, 0x00, 0x80],
        vec![8, 0x4F, b'a', b'b', b'c', b'd', 0x01, 0x00, 0xFF, 0x7F],
        vec![4, 0x60, b'a', b'b', b'c', b'd', b'e', b'f'],
        vec![4, 0x42, b'a', b'b', b'c', b'd', 0x01, 0x00],
        vec![8, 0x40, b'a', 0x01],
        vec![8, 0x10, b'x', 0x01],
        varint(&[0x08, 0xF0], u64::MAX, &[]),
        varint(&[0x08, 0xF0], u64::MAX - 15, &[]),
        varint(&[0x08, 0x0F, 0x01, 0x00], u64::MAX, &[]),
        varint(&varint(&[], 1 << 40, &[0x0F, 0x01, 0x00]), (1 << 33) - 15 - 4, &[]),
    ];
    let gipfeli_frame = |expected: u64, ops: &[u8]| {
        let mut f = varint(&[], expected, &[0; cdpu::lite::gipfeli::FREQUENT]);
        f = varint(&f, ops.len() as u64, ops);
        varint(&f, 0, &[])
    };
    let gipfeli: Vec<Vec<u8>> = vec![
        vec![],
        varint(&varint(&[], 8, &[0; cdpu::lite::gipfeli::FREQUENT]), u64::MAX, &[]),
        gipfeli_frame(8, &varint(&[0x7F], u64::MAX, &[])),
        gipfeli_frame(8, &varint(&[0xFF], u64::MAX, &[0x01, 0x00])),
        gipfeli_frame(1 << 40, &varint(&[0xFF], (1 << 33) - 0x3F - 4, &[0x01, 0x00])),
    ];
    [snappy, lzo, lz4, gipfeli]
}

/// Pins what the four byte-aligned decoders return — output bytes or
/// error value — one-shot and streamed at 1-, 7- and 4096-byte pushes and
/// whole, over every cut of a small stream, 64 single-bit flips of it,
/// each of its bytes XOR 0x44, and the hand-built hostile streams. A
/// change to any decode loop that moves an `Ok` byte or an `Err` value,
/// on either path, fails here.
#[test]
fn decode_outcomes_are_pinned() {
    use cdpu::lite::stream::{GipfeliStreamDecoder, Lz4StreamDecoder, LzoStreamDecoder};
    use cdpu::snappy::stream::SnappyStreamDecoder;
    type Oneshot = fn(&[u8]) -> Result<Vec<u8>, String>;
    type Compress = fn(&[u8]) -> Vec<u8>;
    type NewStream = fn() -> Box<dyn Streamed>;
    let codecs: [(&str, Compress, Oneshot, NewStream); 4] = [
        (
            "snappy",
            cdpu::snappy::compress,
            |c| cdpu::snappy::decompress(c).map_err(|e| format!("{e:?}")),
            || Box::new(SnappyStreamDecoder::new()),
        ),
        (
            "lzo",
            cdpu::lite::lzo::compress,
            |c| cdpu::lite::lzo::decompress(c).map_err(|e| format!("{e:?}")),
            || Box::new(LzoStreamDecoder::new()),
        ),
        (
            "lz4",
            cdpu::lite::lz4::compress,
            |c| cdpu::lite::lz4::decompress(c).map_err(|e| format!("{e:?}")),
            || Box::new(Lz4StreamDecoder::new()),
        ),
        (
            "gipfeli",
            cdpu::lite::gipfeli::compress,
            |c| cdpu::lite::gipfeli::decompress(c).map_err(|e| format!("{e:?}")),
            || Box::new(GipfeliStreamDecoder::new()),
        ),
    ];
    // Runs, text and a random tail: literal-extension headers, short and
    // long copies, and overlapping ones.
    let mut rng = Xoshiro256::seed_from(0xDEC0);
    let mut data = b"decode outcomes are pinned; decode outcomes stay pinned. ".repeat(6);
    data.extend(std::iter::repeat_n(b'z', 300));
    let mut tail = vec![0u8; 200];
    rng.fill_bytes(&mut tail);
    data.extend_from_slice(&tail);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for ((name, compress, oneshot, new_stream), hostile) in codecs.iter().zip(hostile_streams()) {
        let small = compress(&data);
        let mut cases: Vec<Vec<u8>> = (0..=small.len()).map(|cut| small[..cut].to_vec()).collect();
        for _ in 0..64 {
            let mut bad = small.clone();
            bad[rng.index(small.len())] ^= 1 << rng.index(8);
            cases.push(bad);
        }
        for i in 0..small.len() {
            let mut bad = small.clone();
            bad[i] ^= 0x44;
            cases.push(bad);
        }
        cases.extend(hostile);
        let mut cut_oks = 0;
        for case in &cases {
            let want = oneshot(case);
            cut_oks += want.is_ok() as usize;
            h = fold_outcome(h, &want);
            for chunk in [1, 7, 4096, usize::MAX] {
                h = fold_outcome(h, &stream_decode(new_stream().as_mut(), case, chunk.min(case.len().max(1))));
            }
        }
        assert!(cut_oks >= 1, "{name}: the whole stream decodes");
    }
    assert_eq!(h, 0xEFC5_AE0F_D2EE_6652, "decode outcomes moved: got {h:#018X}");
}

/// Hand-built hostile zstd frames: the header and block cases of
/// `cdpu-zstd`'s `stream_parity` suite, the section cases of its
/// `decode_equivalence_entropy` suite, Huffman literal sections whose
/// count or bit length disagrees with the stream, and sequence tables
/// whose states map to codes with no value. The second list holds the
/// frames that panicked before their fixes: an offset table whose every
/// state is code 63 (63 extra bits, wider than a bit read), and a
/// trailing-literal count of `u64::MAX`.
fn zstd_hostile_frames() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    use cdpu::entropy::huffman::HuffmanTable;
    use cdpu::util::bits::BitWriter;
    use cdpu::util::varint::write_u64;
    let varint = |v: u64| {
        let mut s = Vec::new();
        write_u64(&mut s, v);
        s
    };
    let frame_with = |blocks: &[u8], content_size: u64| {
        let mut f = cdpu::zstd::MAGIC.to_vec();
        f.push(16);
        f.extend(varint(content_size));
        f.extend_from_slice(blocks);
        f
    };
    // One last compressed block: literals section, sequences section,
    // trailing-literal count.
    let block = |lits: &[u8], seqs: &[u8], last_literals: u64| {
        let mut p = lits.to_vec();
        p.extend_from_slice(seqs);
        p.extend(varint(last_literals));
        let mut b = vec![0b101];
        b.extend(varint(1 << 16));
        b.extend(varint(p.len() as u64));
        b.extend(p);
        frame_with(&b, 1 << 16)
    };
    let raw_lits = |lits: &[u8]| {
        let mut s = vec![0u8];
        s.extend(varint(lits.len() as u64));
        s.extend_from_slice(lits);
        s
    };
    let mut frames = vec![
        vec![],
        b"CDP".to_vec(),
        b"XDPU\x10\x00".to_vec(),
        b"CDPU\x05\x00".to_vec(),
        b"CDPU\x10".to_vec(),
        b"CDPU\x10\x80".to_vec(),
        frame_with(&[], 0),
        frame_with(&[0b110], 0),
        frame_with(&[0b001, 0x80], 0),
        frame_with(&[&[0b001][..], &varint(1 << 20)].concat(), 1 << 20),
        frame_with(&[0b001, 5, b'a', b'b'], 5),
        frame_with(&[0b011, 4], 4),
        frame_with(&[0b101, 4], 4),
        frame_with(&[0b101, 4, 7, b'x'], 4),
        frame_with(&[0b101, 4, 0], 4),
        frame_with(&[0b001, 3, b'a', b'b', b'c'], 9),
        frame_with(&[0b001, 3, b'a', b'b', b'c'], 2),
        frame_with(&[0b000, 3, b'a', b'b', b'c', 0b001, 1, b'd'], 2),
        frame_with(&[0b001, 3, b'a', b'b', b'c', 0xEE], 3),
        block(&[7, 0], &[0], 0),
        block(&[0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F], &[0], 0),
        block(&[3, 4, 0, 0, 0], &[0], 4),
        block(&[3, 4, 2, 0, 0x11, 9], &[0], 4),
        block(&[4, 4, 13, 1, 0, 0, 0x20, 1, 0], &[0], 4),
        block(&raw_lits(b"abc"), &[0], 4),
        block(&raw_lits(b"abc"), &[0x80], 3),
    ];
    // Mode-2 sequence sections whose stream-count byte is out of range.
    for (n, ways) in [(20u8, 0u8), (20, 1), (20, 9), (20, 255), (3, 4)] {
        frames.push(block(&raw_lits(b""), &[n, 2, ways], 0));
    }
    // Huffman literal sections over 24 000 skewed bytes (enough bits for
    // any multi-lane decode) whose count or bit length is off.
    let mut rng = Xoshiro256::seed_from(0x2D5A);
    let lits: Vec<u8> = (0..24_000).map(|_| rng.index(90).min(rng.index(90)) as u8).collect();
    let table = HuffmanTable::from_frequencies(&cdpu::entropy::byte_histogram(&lits)).unwrap();
    let (bits, bit_len) = table.encode_bytes(&lits).unwrap();
    let huffman = |count: usize, bit_len: usize, bits: &[u8]| {
        let mut s = vec![2u8];
        s.extend(varint(count as u64));
        table.serialize(&mut s);
        s.extend(varint(bit_len as u64));
        s.extend_from_slice(bits);
        s
    };
    let n = lits.len();
    for (count, len, nbytes) in [
        (n, bit_len, bits.len()),
        (n + 1, bit_len, bits.len()),
        (n - 1, bit_len, bits.len()),
        (n, bit_len - 1, bits.len()),
        (n, bit_len + 8, bits.len() + 1),
        (n, bit_len + 64, bits.len()),
        (n / 2, bit_len / 2, bit_len.div_ceil(16)),
    ] {
        let mut payload = bits.clone();
        payload.resize(nbytes, 0xA5);
        let section = huffman(count, len, &payload);
        frames.push(block(&section, &[0], count as u64));
        frames.push(block(&section, &[0], n as u64));
    }
    // FSE sequence sections (mode 1, one stream): each table is a list of
    // `(code, states)` at table log 5, so a code with no value is reached
    // only by the sequences whose state lands on it.
    let fse = |tables: [&[(u16, u16)]; 3], n: u8, stream_bits: u32| {
        let mut s = vec![n, 1];
        for table in tables {
            let alphabet = table.iter().map(|&(c, _)| c + 1).max().unwrap();
            s.push(5);
            s.extend_from_slice(&alphabet.to_le_bytes());
            for code in 0..alphabet {
                let states = table.iter().find(|&&(c, _)| c == code).map_or(0, |&(_, k)| k);
                s.extend_from_slice(&states.to_le_bytes());
            }
        }
        let mut w = BitWriter::new();
        for i in 0..stream_bits {
            w.write_bits((i * 7 % 5 < 2) as u64, 1);
        }
        let stream = w.finish_with_marker();
        s.extend(varint(stream.len() as u64));
        s.extend(stream);
        s
    };
    let lits = raw_lits(&[b'q'; 4096]);
    let valid: &[(u16, u16)] = &[(1, 32)];
    let mixed_ll: &[(u16, u16)] = &[(3, 16), (50, 16)];
    let mixed_of: &[(u16, u16)] = &[(2, 20), (44, 12)];
    for (tables, n, stream_bits) in [
        ([&[(40, 32)][..], valid, valid], 1, 64),
        ([valid, &[(60, 32)][..], valid], 1, 64),
        ([valid, valid, &[(40, 32)][..]], 1, 64),
        ([valid, valid, &[(40, 32)][..]], 1, 20),
        ([valid, valid, &[(57, 32)][..]], 1, 80),
        ([&[(40, 32)][..], &[(60, 32)][..], &[(40, 32)][..]], 1, 64),
        ([&[(35, 32)][..], &[(52, 32)][..], &[(31, 32)][..]], 20, 1600),
        ([&[(35, 32)][..], &[(52, 32)][..], &[(31, 32)][..]], 20, 700),
        ([mixed_ll, &[(0, 16), (9, 16)][..], mixed_of], 40, 900),
        ([mixed_ll, valid, mixed_of], 40, 90),
    ] {
        frames.push(block(&lits, &fse(tables, n, stream_bits), 0));
    }
    let once_panicking = vec![
        block(&lits, &fse([valid, valid, &[(63, 32)]], 1, 100), 0),
        block(&raw_lits(b"abcd"), &[0], u64::MAX),
    ];
    (frames, once_panicking)
}

/// Pins what the zstd decoder returns — output bytes or error value —
/// through `decompress`, `decompress_into` and `ZstdStreamDecoder` at 1-,
/// 7- and 4096-byte pushes and whole, over every 97th cut and 64 single-bit
/// flips of a 300 KiB database-page frame and the hand-built hostile
/// frames. The frame's Huffman literal sections are large enough for a
/// multi-lane literal decode. A change to the literal or sequence decoders
/// that moves an `Ok` byte or an `Err` value, on any path, fails here. The
/// frames that once panicked fold into a second digest, so the first
/// stays the one pinned before their fixes.
#[test]
fn zstd_decode_outcomes_are_pinned() {
    use cdpu::lz77::window::DecoderScratch;
    use cdpu::zstd::stream::ZstdStreamDecoder;
    let data = cdpu::corpus::generate(cdpu::corpus::CorpusKind::DbPages, 300 * 1024, 0x2D57);
    let (frame, stats) = cdpu::zstd::compress_with_stats(&data, &cdpu::zstd::ZstdConfig::default());
    assert!(
        stats.blocks.iter().all(|b| b.huffman_literals && b.huffman_bits >= 4 * 4096),
        "every block carries a Huffman literal section of at least 4 x 4096 bits"
    );
    let mut rng = Xoshiro256::seed_from(0x2D58);
    let mut cases: Vec<Vec<u8>> = (0..=frame.len()).step_by(97).map(|cut| frame[..cut].to_vec()).collect();
    cases.push(frame.clone());
    for _ in 0..64 {
        let mut bad = frame.clone();
        bad[rng.index(frame.len())] ^= 1 << rng.index(8);
        cases.push(bad);
    }
    let (hostile, once_panicking) = zstd_hostile_frames();
    cases.extend(hostile);
    let mut scratch = DecoderScratch::new();
    let mut fold_paths = |h: u64, case: &[u8]| {
        let want = cdpu::zstd::decompress(case).map_err(|e| format!("{e:?}"));
        let mut h = fold_outcome(h, &want);
        let into = cdpu::zstd::decompress_into(case, &mut scratch).map(<[u8]>::to_vec);
        h = fold_outcome(h, &into.map_err(|e| format!("{e:?}")));
        for chunk in [1, 7, 4096, usize::MAX] {
            let mut dec = ZstdStreamDecoder::new();
            h = fold_outcome(h, &stream_decode(&mut dec, case, chunk.min(case.len().max(1))));
        }
        h
    };
    let h = cases.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, case| fold_paths(h, case));
    assert_eq!(cdpu::zstd::decompress(&frame).unwrap(), data);
    assert_eq!(h, 0x4E58_80A5_42E1_29C7, "zstd decode outcomes moved: got {h:#018X}");
    let h = once_panicking.iter().fold(h, |h, case| fold_paths(h, case));
    assert_eq!(h, 0xE943_B170_F309_8F0B, "outcomes of the once-panicking frames moved: got {h:#018X}");
}

/// Hand-built hostile flate frames: the header and block cases of
/// `cdpu-flate`'s `stream_parity` suite, blocks of the two undefined types
/// with a length, then each byte of a small level-6 frame XOR 0x40 (a
/// flip that keeps varint byte lengths, so corrupt length fields stay
/// small).
fn flate_hostile_frames() -> Vec<Vec<u8>> {
    use cdpu::util::varint::write_u64;
    let frame_with = |blocks: &[u8], content_size: u64| {
        let mut f = cdpu::flate::MAGIC.to_vec();
        f.push(15);
        write_u64(&mut f, content_size);
        f.extend_from_slice(blocks);
        f
    };
    let mut oversized = vec![0b001];
    write_u64(&mut oversized, 1 << 20);
    let mut frames = vec![
        vec![],
        b"CDP".to_vec(),
        b"XDPF\x0F\x00".to_vec(),
        b"CDPF\x20\x00".to_vec(),
        b"CDPF\x0F".to_vec(),
        b"CDPF\x0F\x80".to_vec(),
        frame_with(&[], 0),
        frame_with(&[0b101], 0),
        frame_with(&[0b111], 0),
        frame_with(&[0b001, 0x80], 0),
        frame_with(&oversized, 1 << 20),
        frame_with(&[0b001, 5, b'a', b'b'], 5),
        frame_with(&[0b011, 4], 4),
        frame_with(&[0b011, 4, 7, b'x'], 4),
        frame_with(&[0b011, 4, 0], 4),
        frame_with(&[0b001, 3, b'a', b'b', b'c'], 9),
        frame_with(&[0b001, 3, b'a', b'b', b'c'], 2),
        frame_with(&[0b000, 3, b'a', b'b', b'c', 0b001, 1, b'd'], 2),
        frame_with(&[0b001, 3, b'a', b'b', b'c', 0xEE], 3),
        // Block types 2 and 3 with a length: no RLE block in flate.
        frame_with(&[0b101, 3, b'a', b'b', b'c'], 3),
        frame_with(&[0b111, 3, b'a', b'b', b'c'], 3),
    ];
    let data = b"huffman coded block payload with matches ".repeat(40);
    let base = cdpu::flate::compress_with(&data, &cdpu::flate::FlateConfig::with_level(6));
    for i in 0..base.len() {
        let mut bad = base.clone();
        bad[i] ^= 0x40;
        frames.push(bad);
    }
    frames
}

/// Pins what the flate decoder returns — output bytes or error value —
/// through `decompress`, `decompress_into` and `FlateStreamDecoder` at 1-,
/// 7- and 4096-byte pushes and whole, over every 97th cut and 64
/// single-bit flips of a three-block frame (two Huffman blocks of database
/// pages, then a random tail stored raw) and the hand-built hostile
/// frames. The stream parity suite checks only that the paths agree; this
/// pins what they agree on.
#[test]
fn flate_decode_outcomes_are_pinned() {
    use cdpu::flate::stream::FlateStreamDecoder;
    use cdpu::lz77::window::DecoderScratch;
    let mut data = cdpu::corpus::generate(cdpu::corpus::CorpusKind::DbPages, 256 * 1024, 0xF1A7);
    let mut tail = vec![0u8; 3000];
    Xoshiro256::seed_from(0xF1A8).fill_bytes(&mut tail);
    data.extend_from_slice(&tail);
    let frame = cdpu::flate::compress(&data);
    assert!(
        frame.ends_with(&tail) && frame.len() < data.len() / 2,
        "Huffman blocks, then the random tail as a raw block"
    );
    let mut rng = Xoshiro256::seed_from(0xF1A9);
    let mut cases: Vec<Vec<u8>> = (0..=frame.len()).step_by(97).map(|cut| frame[..cut].to_vec()).collect();
    cases.push(frame.clone());
    for _ in 0..64 {
        let mut bad = frame.clone();
        bad[rng.index(frame.len())] ^= 1 << rng.index(8);
        cases.push(bad);
    }
    cases.extend(flate_hostile_frames());
    let mut scratch = DecoderScratch::new();
    let h = cases.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, case| {
        let mut h = fold_outcome(h, &cdpu::flate::decompress(case).map_err(|e| format!("{e:?}")));
        let into = cdpu::flate::decompress_into(case, &mut scratch).map(<[u8]>::to_vec);
        h = fold_outcome(h, &into.map_err(|e| format!("{e:?}")));
        for chunk in [1, 7, 4096, usize::MAX] {
            let mut dec = FlateStreamDecoder::new();
            h = fold_outcome(h, &stream_decode(&mut dec, case, chunk.min(case.len().max(1))));
        }
        h
    });
    assert_eq!(cdpu::flate::decompress(&frame).unwrap(), data);
    assert_eq!(h, 0x08D3_1FE5_B6A7_34A5, "flate decode outcomes moved: got {h:#018X}");
}

/// Pins what `decompress_with_dict` returns over every 97th cut, every
/// header cut and 64 single-bit flips of a two-block dictionary frame; the
/// frame with a dictionary one byte short and one with a flipped byte
/// (length and checksum mismatches); and, behind a dictionary header, the
/// hostile zstd block sequences of `zstd_hostile_frames` (where the seeded
/// window turns some bad offsets into good ones), RLE blocks and a block
/// of unknown type.
#[test]
fn zstd_dict_decode_outcomes_are_pinned() {
    use cdpu::util::crc32c::crc32c;
    use cdpu::util::varint::{read_u64, write_u64};
    use cdpu::zstd::dict::{compress_with_dict, decompress_with_dict, DICT_MAGIC};
    let dict = cdpu::corpus::generate(cdpu::corpus::CorpusKind::JsonLogs, 16 * 1024, 0xD1C7);
    let data = cdpu::corpus::generate(cdpu::corpus::CorpusKind::JsonLogs, 200 * 1024, 0xD1C8);
    let frame = compress_with_dict(&data, &cdpu::zstd::ZstdConfig::default(), &dict);
    let mut rng = Xoshiro256::seed_from(0xD1C9);
    let mut cases: Vec<Vec<u8>> = (0..=frame.len()).step_by(97).map(|cut| frame[..cut].to_vec()).collect();
    cases.extend((1..24).map(|cut| frame[..cut].to_vec()));
    cases.push(frame.clone());
    for _ in 0..64 {
        let mut bad = frame.clone();
        bad[rng.index(frame.len())] ^= 1 << rng.index(8);
        cases.push(bad);
    }
    let dict_frame = |content_size: u64, blocks: &[u8]| {
        let mut d = DICT_MAGIC.to_vec();
        d.push(16);
        write_u64(&mut d, content_size);
        write_u64(&mut d, dict.len() as u64);
        d.extend_from_slice(&crc32c(&dict).to_le_bytes());
        d.extend_from_slice(blocks);
        d
    };
    // The hostile frames' blocks behind a dictionary header: every frame
    // past the header cases starts with the magic, window log 16 and its
    // content size.
    let (hostile, once_panicking) = zstd_hostile_frames();
    let before = cases.len();
    for f in hostile.iter().chain(&once_panicking) {
        let Some(rest) = f.strip_prefix(&[&cdpu::zstd::MAGIC[..], &[16]].concat()[..]) else {
            continue;
        };
        let Ok((content_size, n)) = read_u64(rest) else { continue };
        cases.push(dict_frame(content_size, &rest[n..]));
    }
    assert_eq!(cases.len() - before, hostile.len() + once_panicking.len() - 6, "all but the six header cases");
    // RLE blocks, one overshooting the content size, and a block of type 3
    // with a length.
    cases.push(dict_frame(5, &[0b011, 5, b'r']));
    cases.push(dict_frame(6, &[0b010, 5, b'r', 0b011, 2, b's']));
    cases.push(dict_frame(3, &[0b111, 3, b'a', b'b', b'c']));
    let mut tampered = dict.clone();
    tampered[100] ^= 1;
    let mut h = cases.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, case| {
        fold_outcome(h, &decompress_with_dict(case, &dict).map_err(|e| format!("{e:?}")))
    });
    for wrong in [&dict[1..], &tampered[..]] {
        h = fold_outcome(h, &decompress_with_dict(&frame, wrong).map_err(|e| format!("{e:?}")));
    }
    assert_eq!(decompress_with_dict(&frame, &dict).unwrap(), data);
    assert_eq!(h, 0xBC9B_8ED1_CB0E_BE2A, "dictionary decode outcomes moved: got {h:#018X}");
}

/// A compressed block whose payload length is a 10-byte varint near
/// `u64::MAX` once overflowed `pos + payload_len` in the zstd and flate
/// frame walks: an add overflow in debug builds, an inverted slice in
/// release. Every entry (one-shot, `decompress_into`, dictionary,
/// reference, streamed) now reports `Truncated`.
#[test]
fn block_payload_length_overflow_is_an_error_not_a_panic() {
    use cdpu::flate::stream::FlateStreamDecoder;
    use cdpu::lz77::window::DecoderScratch;
    use cdpu::util::varint::write_u64;
    use cdpu::zstd::stream::ZstdStreamDecoder;
    use cdpu::{flate, zstd};
    fn debug<T: AsRef<[u8]>, E: std::fmt::Debug>(r: Result<T, E>) -> Result<Vec<u8>, String> {
        r.map(|v| v.as_ref().to_vec()).map_err(|e| format!("{e:?}"))
    }
    let truncated = Err("Truncated".to_string());
    let mut scratch = DecoderScratch::new();
    for payload_len in [u64::MAX, u64::MAX - 7, 1 << 63] {
        // `header`, then one last compressed block of 10 bytes whose
        // payload length is `payload_len`, then a few stray bytes.
        let frame = |header: &[u8], flags: u8| {
            let mut f = header.to_vec();
            f.push(flags);
            write_u64(&mut f, 10);
            write_u64(&mut f, payload_len);
            f.extend_from_slice(&[0; 8]);
            f
        };
        let mut zstd_header = zstd::MAGIC.to_vec();
        zstd_header.push(20);
        write_u64(&mut zstd_header, 10);
        let z = frame(&zstd_header, 0b101);
        let dict = b"a dictionary";
        let empty = zstd::dict::compress_with_dict(b"", &zstd::ZstdConfig::default(), dict);
        // The dictionary header ends where its one (empty raw) block begins.
        let z_dict = frame(&empty[..empty.len() - 2], 0b101);
        let zstd_paths = vec![
            debug(zstd::decompress(&z)),
            debug(zstd::decompress_into(&z, &mut scratch)),
            debug(zstd::reference::decompress(&z)),
            debug(zstd::dict::decompress_with_dict(&z_dict, dict)),
            stream_decode(&mut ZstdStreamDecoder::new(), &z, 1),
            stream_decode(&mut ZstdStreamDecoder::new(), &z, z.len()),
        ];

        let mut flate_header = flate::MAGIC.to_vec();
        flate_header.push(15);
        write_u64(&mut flate_header, 10);
        let f = frame(&flate_header, 0b011);
        let flate_paths = vec![
            debug(flate::decompress(&f)),
            debug(flate::decompress_into(&f, &mut scratch)),
            debug(flate::reference::decompress(&f)),
            stream_decode(&mut FlateStreamDecoder::new(), &f, 1),
            stream_decode(&mut FlateStreamDecoder::new(), &f, f.len()),
        ];
        for (codec, paths) in [("zstd", zstd_paths), ("flate", flate_paths)] {
            for (path, outcome) in paths.iter().enumerate() {
                let what = format!("{codec} path {path}, payload length {payload_len}");
                assert_eq!(outcome, &truncated, "{what}");
            }
        }
    }
}

/// What the two serving tiers published to the global telemetry registry
/// during `f`: every `serve.*` and `served.*` counter, gauge and histogram,
/// zeroed before and read after. No other test in this binary records
/// telemetry, so the registry holds only `f`'s serving metrics.
fn serving_telemetry<R>(f: impl FnOnce() -> R) -> (R, String) {
    use cdpu::telemetry;
    telemetry::reset();
    telemetry::enable();
    let r = f();
    telemetry::disable();
    let reg = telemetry::registry();
    let ours = |name: &str| name.starts_with("serve.") || name.starts_with("served.");
    let mut text = String::new();
    for (name, v) in reg.counters().into_iter().filter(|(n, _)| ours(n)) {
        text += &format!("{name}={v}\n");
    }
    for (name, v) in reg.gauges().into_iter().filter(|(n, _)| ours(n)) {
        text += &format!("{name}={v}\n");
    }
    for (name, v) in reg.histograms().into_iter().filter(|(n, _)| ours(n)) {
        text += &format!("{name}={v:?}\n");
    }
    (r, text)
}

/// Pins the serving simulator's and the serving engine's reports (event
/// logs recorded) and the telemetry each publishes, one FNV-1a-64 digest
/// per tier over the `Debug` text. The grid reaches where the two tiers
/// differ: the simulator starts an arrival on an idle instance without
/// queueing it and applies its global bound only while every instance is
/// busy (capacity 0 still serves), the engine queues every admitted call
/// behind four per-tenant gates (the harsh gates shed at every one), and
/// the tiers publish under `serve.*` and `served.*`.
#[test]
fn serve_reports_are_pinned() {
    use cdpu::serve::tenants::fleet_tenants;
    use cdpu::serve::workload::WorkloadConfig;
    use cdpu::serve::{
        engine, sim, AdmissionConfig, BatchPolicy, EngineConfig, ObsConfig, SchedKind,
        ServeConfig, ShedConfig, SloSpec, Timing, Workload, PS_PER_SEC,
    };
    use std::sync::Arc;

    let mut sim_h = 0xCBF2_9CE4_8422_2325u64;
    for sched in SchedKind::ALL {
        for obs in [false, true] {
            for queue_capacity in [4096, 2, 0] {
                let mut cfg = ServeConfig::new(fleet_tenants(4));
                cfg.sched = sched;
                cfg.instances = 2;
                cfg.total_calls = 300;
                cfg.offered_load = 0.9;
                cfg.queue_capacity = queue_capacity;
                cfg.record_events = true;
                if obs {
                    let mut o = ObsConfig::new(2_000_000_000);
                    o.slos = vec![SloSpec {
                        tenant: cfg.tenants[0].name.clone(),
                        wait_limit_ps: 1_000_000,
                        objective: 0.99,
                    }];
                    cfg.obs = Some(o);
                }
                let (r, metrics) = serving_telemetry(|| sim::run(&cfg));
                sim_h = fnv1a64(sim_h, format!("{r:?}\n{metrics}").as_bytes());
            }
        }
    }

    let wl = Arc::new(Workload::build(&WorkloadConfig::tiny()));
    let harsh = AdmissionConfig {
        queue_capacity: 2,
        quota_outstanding: 1,
        bucket_rate_cps: 500.0,
        bucket_burst: 2.0,
        shed: Some(ShedConfig {
            window_ps: PS_PER_SEC / 10_000,
            wait_slo_ps: PS_PER_SEC / 1_000_000,
            objective: 0.999,
            shed_burn: 1.0,
            onset_windows: 1,
        }),
    };
    let mut engine_h = 0xCBF2_9CE4_8422_2325u64;
    for sched in SchedKind::ALL {
        for batch in [BatchPolicy::default(), BatchPolicy::off()] {
            for admission in [AdmissionConfig::default(), AdmissionConfig::open(), harsh.clone()] {
                let mut cfg = EngineConfig::new(fleet_tenants(4));
                cfg.sched = sched;
                cfg.shards = 2;
                cfg.total_calls = 200;
                cfg.offered_load = 0.9;
                cfg.admission = admission;
                cfg.batch = batch;
                cfg.timing = Timing::Work;
                cfg.record_events = true;
                let (r, metrics) = serving_telemetry(|| engine::run(&cfg, &wl));
                engine_h = fnv1a64(engine_h, format!("{r:?}\n{metrics}").as_bytes());
            }
        }
    }
    assert_eq!(
        (sim_h, engine_h),
        (0xA78B_CEC3_C3CF_5D8C, 0xA971_2DA0_8526_704B),
        "serving reports moved: got ({sim_h:#018X}, {engine_h:#018X})"
    );
}
