//! Pins the fast LZO-class, LZ4-class and Gipfeli-class decoders to the
//! retained seed decoders: identical output bytes on every valid stream,
//! identical error variants on every hostile one, and `decompress_into`
//! bit-identical to `decompress`.

use cdpu_corpus::CorpusKind;
use cdpu_lite::lz4::Lz4Error;
use cdpu_lite::lzo::LzoError;
use cdpu_lite::{gipfeli, lz4, lzo, reference};
use cdpu_lz77::window::DecoderScratch;
use cdpu_util::rng::Xoshiro256;
use cdpu_util::varint;

const KINDS: &[CorpusKind] = &[
    CorpusKind::Runs,
    CorpusKind::JsonLogs,
    CorpusKind::MarkovText,
    CorpusKind::DbPages,
    CorpusKind::ProtoRecords,
    CorpusKind::Base64,
    CorpusKind::Random,
];

fn corpora(seed: u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (i, &kind) in KINDS.iter().enumerate() {
        for len in [0usize, 1, 300, 5_000, 120_000] {
            out.push(cdpu_corpus::generate(kind, len, seed + i as u64));
        }
    }
    out
}

#[test]
fn lzo_fast_decoder_matches_reference() {
    let mut scratch = DecoderScratch::new();
    for data in corpora(71) {
        let c = lzo::compress(&data);
        let fast = lzo::decompress(&c).expect("valid stream");
        let slow = reference::lzo::decompress(&c).expect("valid stream");
        assert_eq!(fast, slow);
        assert_eq!(fast, data);
        let into = lzo::decompress_into(&c, &mut scratch).expect("valid stream");
        assert_eq!(into, &data[..]);
    }
}

#[test]
fn lz4_fast_decoder_matches_reference() {
    let mut scratch = DecoderScratch::new();
    for data in corpora(81) {
        let c = lz4::compress(&data);
        let fast = lz4::decompress(&c).expect("valid stream");
        let slow = reference::lz4::decompress(&c).expect("valid stream");
        assert_eq!(fast, slow);
        assert_eq!(fast, data);
        let into = lz4::decompress_into(&c, &mut scratch).expect("valid stream");
        assert_eq!(into, &data[..]);
    }
}

#[test]
fn gipfeli_fast_decoder_matches_reference() {
    let mut scratch = DecoderScratch::new();
    for data in corpora(72) {
        let c = gipfeli::compress(&data);
        let fast = gipfeli::decompress(&c).expect("valid stream");
        let slow = reference::gipfeli::decompress(&c).expect("valid stream");
        assert_eq!(fast, slow);
        assert_eq!(fast, data);
        let into = gipfeli::decompress_into(&c, &mut scratch).expect("valid stream");
        assert_eq!(into, &data[..]);
    }
}

#[test]
fn lzo_truncation_and_bitflip_parity() {
    let mut rng = Xoshiro256::seed_from(73);
    for data in corpora(74).into_iter().step_by(4) {
        let c = lzo::compress(&data);
        if c.is_empty() {
            continue;
        }
        for _ in 0..25 {
            let cut = rng.index(c.len());
            assert_eq!(
                lzo::decompress(&c[..cut]),
                reference::lzo::decompress(&c[..cut]),
                "cut {cut}"
            );
        }
        for _ in 0..30 {
            let mut bad = c.clone();
            let i = rng.index(bad.len());
            bad[i] ^= 1 << rng.index(8);
            assert_eq!(
                lzo::decompress(&bad),
                reference::lzo::decompress(&bad),
                "flip at {i}"
            );
        }
    }
}

#[test]
fn lz4_truncation_and_bitflip_parity() {
    let mut rng = Xoshiro256::seed_from(82);
    for data in corpora(83).into_iter().step_by(4) {
        let c = lz4::compress(&data);
        if c.is_empty() {
            continue;
        }
        for _ in 0..25 {
            let cut = rng.index(c.len());
            assert_eq!(
                lz4::decompress(&c[..cut]),
                reference::lz4::decompress(&c[..cut]),
                "cut {cut}"
            );
        }
        for _ in 0..30 {
            let mut bad = c.clone();
            let i = rng.index(bad.len());
            bad[i] ^= 1 << rng.index(8);
            assert_eq!(
                lz4::decompress(&bad),
                reference::lz4::decompress(&bad),
                "flip at {i}"
            );
        }
    }
}

#[test]
fn gipfeli_truncation_and_bitflip_parity() {
    let mut rng = Xoshiro256::seed_from(75);
    for data in corpora(76).into_iter().step_by(4) {
        let c = gipfeli::compress(&data);
        for _ in 0..25 {
            let cut = rng.index(c.len());
            assert_eq!(
                gipfeli::decompress(&c[..cut]),
                reference::gipfeli::decompress(&c[..cut]),
                "cut {cut}"
            );
        }
        for _ in 0..30 {
            let mut bad = c.clone();
            let i = rng.index(bad.len());
            bad[i] ^= 1 << rng.index(8);
            assert_eq!(
                gipfeli::decompress(&bad),
                reference::gipfeli::decompress(&bad),
                "flip at {i}"
            );
        }
    }
}

#[test]
fn window_boundary_offset_roundtrips() {
    // This corpus makes the matcher emit a match at distance 65536 — the
    // full window, one past what the 16-bit offset field expresses — for
    // both the LZO level-3 and the Gipfeli matcher configs. The
    // compressors must demote such matches to literals; truncating the
    // offset on encode produced undecodable streams.
    let data = cdpu_corpus::generate(CorpusKind::DbPages, 300_000, 4);
    let c = lzo::compress(&data);
    assert_eq!(lzo::decompress(&c).expect("fast lzo"), data);
    assert_eq!(reference::lzo::decompress(&c).expect("reference lzo"), data);
    let g = gipfeli::compress(&data);
    assert_eq!(gipfeli::decompress(&g).expect("fast gipfeli"), data);
    assert_eq!(
        reference::gipfeli::decompress(&g).expect("reference gipfeli"),
        data
    );
    // LZ4 shares the LZO level-3 matcher config, so the same corpus
    // exercises its offset-65536 demotion.
    let l = lz4::compress(&data);
    assert_eq!(lz4::decompress(&l).expect("fast lz4"), data);
    assert_eq!(reference::lz4::decompress(&l).expect("reference lz4"), data);
}

#[test]
fn lz4_hostile_streams_same_error_variant() {
    // Preamble 8, token 0 lits/len-4 match, offset 9 before any output.
    let far_offset = [0x08u8, 0x00, 0x09, 0x00];
    // Preamble 8, same match with offset 0.
    let zero_offset = [0x08u8, 0x00, 0x00, 0x00];
    // Preamble 4, 4 literals "abcd", then a match overrunning the promise.
    let overrun = [0x04u8, 0x42, b'a', b'b', b'c', b'd', 0x01, 0x00];
    // Token promising a match but stream ends inside the offset.
    let cut_offset = [0x08u8, 0x10, b'x', 0x01];
    // Literal nibble 15 with a truncated varint extension.
    let cut_lit_ext = [0x08u8, 0xF0, 0xFF];
    for hostile in [
        &far_offset[..],
        &zero_offset[..],
        &overrun[..],
        &cut_offset[..],
        &cut_lit_ext[..],
    ] {
        let fast = lz4::decompress(hostile);
        let slow = reference::lz4::decompress(hostile);
        assert!(fast.is_err(), "hostile stream accepted: {hostile:?}");
        assert_eq!(fast, slow, "variant mismatch on {hostile:?}");
    }
    assert_eq!(lz4::decompress(&zero_offset).unwrap_err(), Lz4Error::BadOffset);
    // The overrun stream must fail on the pre-copy room check, not offset.
    assert!(matches!(
        lz4::decompress(&overrun).unwrap_err(),
        Lz4Error::LengthMismatch { .. }
    ));
    assert_eq!(lz4::decompress(&cut_offset).unwrap_err(), Lz4Error::Truncated);
}

#[test]
fn lzo_hostile_streams_same_error_variant() {
    // Preamble 8, short-match token with offset 9 before any output.
    let far_offset = [0x08u8, 0x80, 0x09, 0x00];
    // Preamble 8, short-match token with offset 0.
    let zero_offset = [0x08u8, 0x80, 0x00, 0x00];
    // Preamble 4, literal "abcd", long match whose length overruns it.
    let overrun = [0x04u8, 0x03, b'a', b'b', b'c', b'd', 0xC8, 0x01, 0x00];
    // Truncated long-match offset.
    let cut_offset = [0x08u8, 0xC0, 0x01];
    for hostile in [&far_offset[..], &zero_offset[..], &overrun[..], &cut_offset[..]] {
        let fast = lzo::decompress(hostile);
        let slow = reference::lzo::decompress(hostile);
        assert!(fast.is_err(), "hostile stream accepted: {hostile:?}");
        assert_eq!(fast, slow, "variant mismatch on {hostile:?}");
    }
    assert_eq!(lzo::decompress(&zero_offset).unwrap_err(), LzoError::BadOffset);
    // The overrun stream must fail on the pre-copy room check, not offset.
    assert!(matches!(
        lzo::decompress(&overrun).unwrap_err(),
        LzoError::LengthMismatch { .. }
    ));
}

#[test]
fn lz4_max_varint_extensions_error_not_panic() {
    // (a) Literal-run extension of u64::MAX (a 10-byte max varint):
    // 15 + ext overflows u64 and must be rejected, not wrapped.
    let mut lit_overflow = vec![0x08, 0xF0];
    varint::write_u64(&mut lit_overflow, u64::MAX);
    // (b) Extension chosen so the run length lands exactly on u64::MAX:
    // previously `pos + lits` wrapped in release, the bounds guard passed,
    // and the literal slice panicked with an inverted range.
    let mut lit_wrap = vec![0x08, 0xF0];
    varint::write_u64(&mut lit_wrap, u64::MAX - 15);
    // (c) Match-length extension of u64::MAX: 15 + ext overflows u64.
    let mut m_overflow = vec![0x08, 0x0F, 0x01, 0x00];
    varint::write_u64(&mut m_overflow, u64::MAX);
    // (d) Match length that passes the room check against a huge declared
    // size but cannot fit the u32 copy width: must be rejected outright,
    // not silently truncated into a drifting decode.
    let mut m_u32 = Vec::new();
    varint::write_u64(&mut m_u32, 1 << 40);
    m_u32.push(0x0F);
    m_u32.extend_from_slice(&[0x01, 0x00]);
    varint::write_u64(&mut m_u32, (1u64 << 33) - 15 - 4);
    for hostile in [&lit_overflow, &lit_wrap, &m_overflow, &m_u32] {
        let fast = lz4::decompress(hostile);
        let slow = reference::lz4::decompress(hostile);
        assert_eq!(fast, Err(Lz4Error::Truncated), "accepted: {hostile:?}");
        assert_eq!(fast, slow, "variant mismatch on {hostile:?}");
    }
}

#[test]
fn lzo_max_varint_extensions_error_not_panic() {
    // Literal token 0x7F with extension u64::MAX: 0x7F + ext overflows.
    let mut lit_overflow = vec![0x08, 0x7F];
    varint::write_u64(&mut lit_overflow, u64::MAX);
    // Extension landing the run count on u64::MAX: the +1 run length
    // previously wrapped to zero in release (panicked in debug).
    let mut lit_wrap = vec![0x08, 0x7F];
    varint::write_u64(&mut lit_wrap, u64::MAX - 0x7F);
    // Long-match token 0xFF with extension u64::MAX: 0x3F + ext overflows.
    let mut m_overflow = vec![0x08, 0xFF];
    varint::write_u64(&mut m_overflow, u64::MAX);
    m_overflow.extend_from_slice(&[0x01, 0x00]);
    // Copy length beyond the u32 width against a huge declared size.
    let mut m_u32 = Vec::new();
    varint::write_u64(&mut m_u32, 1 << 40);
    m_u32.push(0xFF);
    varint::write_u64(&mut m_u32, (1u64 << 33) - 0x3F - 4);
    m_u32.extend_from_slice(&[0x01, 0x00]);
    for hostile in [&lit_overflow, &lit_wrap, &m_overflow, &m_u32] {
        let fast = lzo::decompress(hostile);
        let slow = reference::lzo::decompress(hostile);
        assert_eq!(fast, Err(LzoError::Truncated), "accepted: {hostile:?}");
        assert_eq!(fast, slow, "variant mismatch on {hostile:?}");
    }
}

/// A Gipfeli frame around a hand-made op section and literal bitstream:
/// `bits` holds `bit_len` bits, and every bit of its last byte past them
/// is `pad`.
fn gipfeli_frame(expected: u64, ops: &[u8], bits: &[u8], bit_len: usize, pad: bool) -> Vec<u8> {
    let mut f = Vec::new();
    varint::write_u64(&mut f, expected);
    f.extend((0..gipfeli::FREQUENT as u8).map(|r| r.wrapping_mul(37) ^ 0x5A));
    varint::write_u64(&mut f, ops.len() as u64);
    f.extend_from_slice(ops);
    varint::write_u64(&mut f, bit_len as u64);
    let mut tail = bits[..bit_len.div_ceil(8)].to_vec();
    if let Some(last) = tail.last_mut() {
        let spare = (8 - bit_len % 8) % 8;
        let mask = ((1u16 << spare) - 1) as u8;
        *last = if pad { *last | mask } else { *last & !mask };
    }
    f.extend_from_slice(&tail);
    f
}

#[test]
fn gipfeli_literal_runs_cross_the_window_hand_over() {
    use cdpu_util::bits::MsbBitWriter;
    let mut rng = Xoshiro256::seed_from(91);
    let (mut cases, mut oks) = (0usize, 0usize);
    // Codes mixing 6- and 9-bit forms at random, then all of one width
    // (a refill's six codes span 36 to 54 bits), ~2.5 windows of each.
    for nine_share in [0.5, 0.5, 0.5, 0.5, 1.0, 0.0] {
        let mut w = MsbBitWriter::new();
        let mut ends = vec![0usize];
        while w.bit_len() < 160 {
            if !rng.chance(nine_share) {
                w.write_bits(rng.index(gipfeli::FREQUENT) as u64, 6);
            } else {
                w.write_bits(0x100 | rng.index(256) as u64, 9);
            }
            ends.push(w.bit_len());
        }
        let (bits, _) = w.finish();
        // Every stream end from 0 to 136 bits: up to two whole windows
        // and every residue 0..72 past the last of them.
        for bit_len in 0..=136 {
            let fit = ends.iter().filter(|&&e| e <= bit_len).count() - 1;
            // Ask for every code that fits, or one more (`Truncated`:
            // the missing code's bits are padding).
            for want in [fit, fit + 1] {
                let mut ops = Vec::new();
                let mut left = want;
                while left > 0 {
                    let run = (1 + rng.index(7)).min(left);
                    ops.push(run as u8 - 1);
                    left -= run;
                }
                for pad in [false, true] {
                    let f = gipfeli_frame(want as u64, &ops, &bits, bit_len, pad);
                    let got = gipfeli::decompress(&f);
                    assert_eq!(
                        got,
                        reference::gipfeli::decompress(&f),
                        "bit_len {bit_len}, {want} codes of {fit}, pad {pad}"
                    );
                    cases += 1;
                    oks += got.is_ok() as usize;
                }
            }
        }
    }
    // Varint-extended counts: the run is `0x7F + ext + 1` literals; the
    // largest overflows u64 and every long one outruns the stream.
    let (bits, bit_len) = {
        let mut w = MsbBitWriter::new();
        for i in 0..300u64 {
            w.write_bits(i % gipfeli::FREQUENT as u64, 6);
        }
        w.finish()
    };
    for ext in [0u64, 1, 172, 173, 174, 1 << 20, u64::MAX - 0x80, u64::MAX - 0x7F, u64::MAX] {
        let mut ops = vec![0x7F];
        varint::write_u64(&mut ops, ext);
        for pad in [false, true] {
            let f = gipfeli_frame(0x80u64.saturating_add(ext), &ops, &bits, bit_len, pad);
            assert_eq!(gipfeli::decompress(&f), reference::gipfeli::decompress(&f), "ext {ext}");
            cases += 1;
        }
    }
    assert!(cases > 3000 && oks > 1000, "{oks} of {cases} cases decode");
}

#[test]
fn gipfeli_max_varint_extensions_error_not_panic() {
    use cdpu_lite::gipfeli::GipfeliError;
    // Minimal frame: preamble, zeroed frequent table, the given op bytes,
    // and an empty bit section.
    fn frame(expected: u64, ops: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        varint::write_u64(&mut f, expected);
        f.extend_from_slice(&[0u8; gipfeli::FREQUENT]);
        varint::write_u64(&mut f, ops.len() as u64);
        f.extend_from_slice(ops);
        varint::write_u64(&mut f, 0);
        f
    }
    // Header section length of u64::MAX: previously `pos + ops_len`
    // wrapped in release and sliced an inverted range.
    let mut bad_header = Vec::new();
    varint::write_u64(&mut bad_header, 8);
    bad_header.extend_from_slice(&[0u8; gipfeli::FREQUENT]);
    varint::write_u64(&mut bad_header, u64::MAX);
    // Literal-count extension of u64::MAX: 0x7F + ext overflows u64.
    let mut lit_ops = vec![0x7F];
    varint::write_u64(&mut lit_ops, u64::MAX);
    // Long-match extension of u64::MAX: 0x3F + ext overflows u64.
    let mut m_ops = vec![0xFF];
    varint::write_u64(&mut m_ops, u64::MAX);
    m_ops.extend_from_slice(&[0x01, 0x00]);
    // Copy length beyond the u32 width against a huge declared size.
    let mut m32_ops = vec![0xFF];
    varint::write_u64(&mut m32_ops, (1u64 << 33) - 0x3F - 4);
    m32_ops.extend_from_slice(&[0x01, 0x00]);
    let cases = [
        bad_header,
        frame(8, &lit_ops),
        frame(8, &m_ops),
        frame(1 << 40, &m32_ops),
    ];
    for hostile in &cases {
        let fast = gipfeli::decompress(hostile);
        let slow = reference::gipfeli::decompress(hostile);
        assert_eq!(fast, Err(GipfeliError::Truncated), "accepted: {hostile:?}");
        assert_eq!(fast, slow, "variant mismatch on {hostile:?}");
    }
}
