//! Adversarial decode-parity for the interleaved / rANS frame formats:
//! frames carrying mode-3 (interleaved Huffman) and mode-4 (rANS)
//! literals and N-way FSE sequence streams must decode identically
//! through the fast path and the retained reference decoder — output
//! bytes on valid frames, error variants on hostile ones (truncation at
//! every byte, bit flips, hand-crafted hostile stream-length headers).

use cdpu_corpus::CorpusKind;
use cdpu_entropy::huffman::HuffmanTable;
use cdpu_entropy::{byte_histogram, rans};
use cdpu_lz77::window::DecoderScratch;
use cdpu_util::rng::Xoshiro256;
use cdpu_util::varint;
use cdpu_zstd::stream::ZstdStreamDecoder;
use cdpu_zstd::{
    compress_with, compress_with_stats, decompress, decompress_into, reference, ZstdConfig,
    ZstdError, MAGIC,
};

fn configs() -> Vec<(&'static str, ZstdConfig)> {
    vec![
        ("huff2", ZstdConfig::with_level(3).lit_streams(2)),
        ("huff4", ZstdConfig::with_level(3).lit_streams(4)),
        ("huff8", ZstdConfig::with_level(6).lit_streams(8)),
        ("rans1", ZstdConfig::with_level(3).rans_literals()),
        ("rans4", ZstdConfig::with_level(3).rans_literals().lit_streams(4)),
        ("seq4", ZstdConfig::with_level(3).seq_streams(4)),
        ("huff4seq4", ZstdConfig::with_level(1).lit_streams(4).seq_streams(4)),
        (
            "rans4seq8",
            ZstdConfig::with_level(6).rans_literals().lit_streams(4).seq_streams(8),
        ),
    ]
}

const KINDS: &[CorpusKind] = &[
    CorpusKind::JsonLogs,
    CorpusKind::MarkovText,
    CorpusKind::DbPages,
    CorpusKind::ProtoRecords,
];

/// (label, data, frame) triples across the new-format configs — one
/// multi-block size included so cross-block scratch reuse is covered.
fn frames(seed: u64) -> Vec<(String, Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, cfg) in configs() {
        for (i, &kind) in KINDS.iter().enumerate() {
            for len in [300usize, 5_000, 40_000, 300_000] {
                let data = cdpu_corpus::generate(kind, len, seed + i as u64);
                let frame = compress_with(&data, &cfg);
                out.push((format!("{name}/{kind:?}/{len}"), data, frame));
            }
        }
    }
    out
}

#[test]
fn new_formats_are_actually_emitted() {
    // Guard against the whole suite silently testing legacy frames: each
    // knob must produce at least one block in its new format on text-like
    // data.
    let data = cdpu_corpus::generate(CorpusKind::MarkovText, 60_000, 9);
    let (_, s) = compress_with_stats(&data, &ZstdConfig::with_level(3).lit_streams(4));
    assert!(s.blocks.iter().any(|b| b.lit_streams == 4 && b.huffman_literals));
    let (_, s) = compress_with_stats(&data, &ZstdConfig::with_level(3).rans_literals());
    assert!(s.blocks.iter().any(|b| b.rans_literals && b.rans_bytes > 0));
    let (_, s) = compress_with_stats(&data, &ZstdConfig::with_level(3).seq_streams(4));
    assert!(s.blocks.iter().any(|b| b.seq_streams == 4));
}

#[test]
fn fast_decoder_matches_reference_on_new_format_roundtrips() {
    let mut scratch = DecoderScratch::new();
    for (label, data, frame) in frames(61) {
        let fast = decompress(&frame).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        let slow = reference::decompress(&frame).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        assert_eq!(fast, slow, "{label}");
        assert_eq!(fast, data, "{label}");
        let into = decompress_into(&frame, &mut scratch).expect("valid frame");
        assert_eq!(into, &data[..], "{label}");
    }
}

#[test]
fn truncation_at_every_byte_parity() {
    // Exhaustive cuts on one moderate frame per config; random cuts on the
    // rest (every byte of every frame would be minutes of work).
    for (name, cfg) in configs() {
        let data = cdpu_corpus::generate(CorpusKind::MarkovText, 4_000, 62);
        let frame = compress_with(&data, &cfg);
        for cut in 0..=frame.len() {
            assert_eq!(
                decompress(&frame[..cut]),
                reference::decompress(&frame[..cut]),
                "{name} cut {cut} of {}",
                frame.len()
            );
        }
    }
    let mut rng = Xoshiro256::seed_from(63);
    for (label, _, frame) in frames(64).into_iter().step_by(7) {
        for _ in 0..20 {
            let cut = rng.index(frame.len());
            assert_eq!(
                decompress(&frame[..cut]),
                reference::decompress(&frame[..cut]),
                "{label} cut {cut}"
            );
        }
    }
}

#[test]
fn bitflip_parity_on_new_formats() {
    let mut rng = Xoshiro256::seed_from(65);
    for (label, _, frame) in frames(66).into_iter().step_by(5) {
        for _ in 0..40 {
            let mut bad = frame.clone();
            let i = rng.index(bad.len());
            bad[i] ^= 1 << rng.index(8);
            assert_eq!(
                decompress(&bad),
                reference::decompress(&bad),
                "{label} flip at {i}"
            );
        }
    }
}

/// Wraps one compressed-block payload into a minimal single-block frame.
fn frame_with_payload(content_size: u64, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::new();
    f.extend_from_slice(&MAGIC);
    f.push(20); // window_log
    varint::write_u64(&mut f, content_size);
    f.push(0b101); // last block, compressed type
    varint::write_u64(&mut f, content_size);
    varint::write_u64(&mut f, payload.len() as u64);
    f.extend_from_slice(payload);
    f
}

#[test]
fn hostile_interleaved_literal_headers_parity() {
    // Hand-craft mode-3 literal sections with hostile per-stream length
    // headers; the fast and reference decoders must reject (or accept)
    // each identically.
    let mut rng = Xoshiro256::seed_from(67);
    let lits: Vec<u8> = (0..600).map(|_| (rng.index(20).min(rng.index(20))) as u8).collect();
    let table = HuffmanTable::from_frequencies(&byte_histogram(&lits)).unwrap();
    let enc = cdpu_entropy::interleave::huffman_encode(&table, &lits, 4).unwrap();
    let mut header = Vec::new();
    table.serialize(&mut header);

    let build = |ways: u8, bit_lens: &[u64], payload: &[u8]| -> Vec<u8> {
        let mut p = Vec::new();
        p.push(3u8);
        varint::write_u64(&mut p, lits.len() as u64);
        p.extend_from_slice(&header);
        p.push(ways);
        for &b in bit_lens {
            varint::write_u64(&mut p, b);
        }
        p.extend_from_slice(payload);
        varint::write_u64(&mut p, 0); // no sequences
        varint::write_u64(&mut p, lits.len() as u64); // last_literals
        frame_with_payload(lits.len() as u64, &p)
    };

    // The well-formed frame decodes to the literals through both paths.
    let good = build(4, &enc.bit_lens, &enc.payload);
    assert_eq!(decompress(&good).unwrap(), lits);
    assert_eq!(reference::decompress(&good).unwrap(), lits);

    let mut cases: Vec<Vec<u8>> = vec![
        build(0, &enc.bit_lens, &enc.payload),        // zero streams
        build(9, &enc.bit_lens, &enc.payload),        // too many streams
        build(255, &enc.bit_lens, &enc.payload),      // absurd stream count
        build(2, &enc.bit_lens[..2], &enc.payload),   // count lies about payload
        build(4, &[u64::MAX; 4], &enc.payload),       // astronomic lengths
        build(4, &[0, 0, 0, 0], &enc.payload),        // all-empty but payload present
        build(4, &enc.bit_lens, &[]),                 // lengths with no payload
        build(4, &enc.bit_lens, &enc.payload[..enc.payload.len() / 2]),
    ];
    for lane in 0..4 {
        for delta in [-8i64, -1, 1, 9] {
            let mut l = enc.bit_lens.clone();
            l[lane] = l[lane].wrapping_add_signed(delta);
            cases.push(build(4, &l, &enc.payload));
        }
    }
    for (i, frame) in cases.iter().enumerate() {
        let fast = decompress(frame);
        let slow = reference::decompress(frame);
        assert_eq!(fast, slow, "hostile literal header case {i}");
        assert!(fast.is_err() || i >= 8, "structural case {i} must fail");
    }
}

#[test]
fn hostile_rans_literal_sections_parity() {
    let mut rng = Xoshiro256::seed_from(68);
    let lits: Vec<u8> = (0..700).map(|_| (rng.index(30).min(rng.index(30))) as u8).collect();
    let (table, norm, scale_bits) = rans::table_for(&lits).unwrap();
    let stream = rans::encode(&table, &lits, 4).unwrap();

    let build = |norm: &[u32], scale_bits: u8, ways: u8, len: u64, stream: &[u8]| -> Vec<u8> {
        let mut p = Vec::new();
        p.push(4u8);
        varint::write_u64(&mut p, lits.len() as u64);
        p.push(scale_bits);
        p.extend_from_slice(&(norm.len() as u16).to_le_bytes());
        for &c in norm {
            p.extend_from_slice(&(c as u16).to_le_bytes());
        }
        p.push(ways);
        varint::write_u64(&mut p, len);
        p.extend_from_slice(stream);
        varint::write_u64(&mut p, 0);
        varint::write_u64(&mut p, lits.len() as u64);
        frame_with_payload(lits.len() as u64, &p)
    };

    let good = build(&norm, scale_bits, 4, stream.len() as u64, &stream);
    assert_eq!(decompress(&good).unwrap(), lits);
    assert_eq!(reference::decompress(&good).unwrap(), lits);

    let mut bad_norm = norm.clone();
    bad_norm[0] += 1; // counts no longer sum to 1 << scale_bits
    let cases: Vec<Vec<u8>> = vec![
        build(&norm, scale_bits, 0, stream.len() as u64, &stream),
        build(&norm, scale_bits, 9, stream.len() as u64, &stream),
        build(&norm, scale_bits, 2, stream.len() as u64, &stream), // wrong lane count
        build(&norm, scale_bits, 4, u64::MAX, &stream),            // hostile length
        build(&norm, scale_bits, 4, stream.len() as u64 + 4, &stream),
        build(&norm, scale_bits, 4, stream.len() as u64 / 2, &stream),
        build(&bad_norm, scale_bits, 4, stream.len() as u64, &stream),
        build(&norm, 0, 4, stream.len() as u64, &stream),  // scale_bits floor
        build(&norm, 13, 4, stream.len() as u64, &stream), // scale_bits ceiling
        build(&[], scale_bits, 4, stream.len() as u64, &stream), // empty alphabet
        build(&norm, scale_bits, 4, 3, &stream[..3]),      // shorter than lane states
    ];
    for (i, frame) in cases.iter().enumerate() {
        let fast = decompress(frame);
        let slow = reference::decompress(frame);
        assert_eq!(fast, slow, "hostile rans case {i}");
        assert!(fast.is_err(), "hostile rans case {i} must fail");
    }
}

#[test]
fn hostile_sequence_stream_counts_parity() {
    // Mode-2 sequence sections whose stream-count byte is out of range:
    // 0, 1 (N-way requires >= 2), > MAX_WAYS, and > sequence count. The
    // section errors before any table parse, so a stub body suffices.
    let build = |n: u64, ways: u8| -> Vec<u8> {
        let mut p = Vec::new();
        p.push(0u8); // raw literals
        varint::write_u64(&mut p, 0);
        varint::write_u64(&mut p, n); // sequence count
        p.push(2u8); // SEQ_MODE_FSE_NWAY
        p.push(ways);
        frame_with_payload(0, &p)
    };
    for (i, frame) in [
        build(20, 0),
        build(20, 1),
        build(20, 9),
        build(20, 255),
        build(3, 4), // more lanes than sequences
    ]
    .iter()
    .enumerate()
    {
        let fast = decompress(frame);
        let slow = reference::decompress(frame);
        assert_eq!(fast, slow, "hostile seq ways case {i}");
        assert!(fast.is_err(), "hostile seq ways case {i} must fail");
    }
    // Truncation right after a valid ways byte must also agree.
    let frame = build(20, 4);
    for cut in 0..=frame.len() {
        assert_eq!(
            decompress(&frame[..cut]),
            reference::decompress(&frame[..cut]),
            "cut {cut}"
        );
    }
}

#[test]
fn scratch_reuse_is_bit_identical_on_new_formats() {
    let triples: Vec<_> = frames(69).into_iter().step_by(6).collect();
    let mut scratch = DecoderScratch::new();
    for pass in 0..2 {
        for (label, data, frame) in &triples {
            let got = decompress_into(frame, &mut scratch).expect("valid frame");
            assert_eq!(got, &data[..], "{label} pass {pass}");
        }
    }
}

/// Every decode path's outcome for `frame`: one-shot, into scratch, the
/// reference decoder, and the streaming decoder at 1-byte pushes and whole.
fn every_path(frame: &[u8]) -> Vec<Result<Vec<u8>, ZstdError>> {
    let streamed = |chunk: usize| -> Result<Vec<u8>, ZstdError> {
        let mut dec = ZstdStreamDecoder::new();
        let mut out = Vec::new();
        let mut window = [0u8; 256];
        for mut piece in frame.chunks(chunk) {
            while !piece.is_empty() {
                let p = dec.push_bytes(piece, &mut window)?;
                out.extend_from_slice(&window[..p.written]);
                piece = &piece[p.consumed..];
            }
        }
        loop {
            let (n, done) = dec.finish_bytes(&mut window)?;
            out.extend_from_slice(&window[..n]);
            if done {
                return Ok(out);
            }
        }
    };
    let mut scratch = DecoderScratch::new();
    vec![
        decompress(frame),
        decompress_into(frame, &mut scratch).map(<[u8]>::to_vec),
        reference::decompress(frame),
        streamed(1),
        streamed(frame.len()),
    ]
}

/// A one-block frame: raw literals `lits`, then one FSE-coded sequence
/// (mode 1) over log-5 tables that map every state to the codes
/// `[ll, ml, of]`, read from 100 zero bits, then `last_literals`.
fn one_sequence_frame(lits: &[u8], codes: [u16; 3], last_literals: u64) -> Vec<u8> {
    let mut p = vec![0u8];
    varint::write_u64(&mut p, lits.len() as u64);
    p.extend_from_slice(lits);
    p.extend_from_slice(&[1, 1]); // one sequence, FSE mode
    for code in codes {
        p.push(5);
        p.extend_from_slice(&(code + 1).to_le_bytes());
        for c in 0..=code {
            p.extend_from_slice(&(if c == code { 32u16 } else { 0 }).to_le_bytes());
        }
    }
    let mut w = cdpu_util::bits::BitWriter::new();
    w.write_bits(0, 50);
    w.write_bits(0, 50);
    let stream = w.finish_with_marker();
    varint::write_u64(&mut p, stream.len() as u64);
    p.extend_from_slice(&stream);
    varint::write_u64(&mut p, last_literals);
    frame_with_payload(64, &p)
}

#[test]
fn hostile_offset_code_is_an_error_not_a_panic() {
    // Offset code 63 claims 63 extra bits, more than a bit reader hands out
    // at once; codes 32..=57 read their bits and then fail.
    for of in [32u16, 40, 57, 58, 63] {
        let frame = one_sequence_frame(b"abcd", [1, 1, of], 0);
        for (path, outcome) in every_path(&frame).into_iter().enumerate() {
            assert_eq!(outcome, Err(ZstdError::BadBlock("of code")), "offset code {of}, path {path}");
        }
    }
    // Offset code 63 fails at its read, before a literal-length code with
    // no value is looked at; a readable offset code leaves the
    // literal-length error first, as before.
    let frame = one_sequence_frame(b"abcd", [40, 1, 63], 0);
    for outcome in every_path(&frame) {
        assert_eq!(outcome, Err(ZstdError::BadBlock("of code")));
    }
    let frame = one_sequence_frame(b"abcd", [40, 1, 40], 0);
    for outcome in every_path(&frame) {
        assert_eq!(outcome, Err(ZstdError::BadBlock("ll code")));
    }
}

#[test]
fn literal_count_overflow_is_an_error_not_a_panic() {
    // Trailing-literal counts near u64::MAX once overflowed the literal
    // cursor (a panic in debug builds) before the accounting check.
    for last_literals in [u64::MAX, u64::MAX - 2, 1 << 63, 5] {
        let no_seqs = {
            let mut p = vec![0u8, 4];
            p.extend_from_slice(b"abcd");
            p.push(0); // no sequences
            varint::write_u64(&mut p, last_literals);
            frame_with_payload(4, &p)
        };
        let one_seq = one_sequence_frame(b"abcdefgh", [4, 1, 1], last_literals);
        for frame in [no_seqs, one_seq] {
            for (path, outcome) in every_path(&frame).into_iter().enumerate() {
                assert_eq!(
                    outcome,
                    Err(ZstdError::BadBlock("literal accounting mismatch")),
                    "last_literals {last_literals}, path {path}"
                );
            }
        }
    }
}
