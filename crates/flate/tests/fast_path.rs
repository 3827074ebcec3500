//! Hand-built blocks for the decode paths the corpus-driven suites do not
//! force: second-level table look-ups, short literal codes around the point
//! where the cached-window loop hands over, a block that overruns its
//! declared length at every position of a literal run, and symbols outside
//! DEFLATE's alphabets. Every frame — and every truncation and `^0x40` flip
//! of it — must decode to the same bytes or the same error through
//! `decompress`, `decompress_into`, `reference::decompress`, the pipelined
//! decoder and the streaming decoder at 1-byte and random chunkings.

use cdpu_entropy::huffman::{package_merge_lengths, HuffmanTable};
use cdpu_flate::stream::{decompress_pipelined, FlateStreamDecoder};
use cdpu_flate::{codes, decompress, decompress_into, reference, FlateError, MAGIC};
use cdpu_lz77::window::DecoderScratch;
use cdpu_util::bits::MsbBitWriter;
use cdpu_util::rng::Xoshiro256;
use cdpu_util::stream::StreamDecoder;
use cdpu_util::varint;

/// A block long enough that the cached-window loop decodes nearly all of it.
const LARGE_BLOCK: usize = 16 * 1024;

#[derive(Clone, Copy)]
enum Op {
    /// A literal/length symbol with no extra bits: a literal, end of block,
    /// or a symbol past the alphabet.
    Sym(u16),
    /// A length/distance pair.
    Copy { len: u32, dist: u32 },
    /// A length, then a raw distance symbol followed by `extra_bits` ones.
    RawDist { len: u32, dsym: u16, extra_bits: u32 },
}

/// A one-block frame: a Huffman block over the given code lengths, closed
/// with `END_OF_BLOCK`, declaring `declared` bytes (as does the frame).
fn frame_of(litlen: &[u8], dist: &[u8], ops: &[Op], declared: usize) -> Vec<u8> {
    let litlen = HuffmanTable::from_lengths(litlen.to_vec()).expect("litlen code");
    let dist = HuffmanTable::from_lengths(dist.to_vec()).expect("distance code");
    let mut payload = Vec::new();
    litlen.serialize(&mut payload);
    dist.serialize(&mut payload);
    let mut w = MsbBitWriter::new();
    let length = |w: &mut MsbBitWriter, len: u32| {
        let lc = codes::length_code(len).expect("length");
        litlen.encode_symbol(lc.code, w).expect("length symbol has a code");
        w.write_bits(lc.extra as u64, lc.extra_bits as u32);
    };
    for &op in ops {
        match op {
            Op::Sym(sym) => litlen.encode_symbol(sym, &mut w).expect("symbol has a code"),
            Op::Copy { len, dist: distance } => {
                length(&mut w, len);
                let dc = codes::dist_code(distance).expect("distance");
                dist.encode_symbol(dc.code, &mut w).expect("distance symbol has a code");
                w.write_bits(dc.extra as u64, dc.extra_bits as u32);
            }
            Op::RawDist { len, dsym, extra_bits } => {
                length(&mut w, len);
                dist.encode_symbol(dsym, &mut w).expect("distance symbol has a code");
                w.write_bits((1u64 << extra_bits) - 1, extra_bits);
            }
        }
    }
    litlen.encode_symbol(codes::END_OF_BLOCK, &mut w).expect("end of block has a code");
    let (bits, bit_len) = w.finish();
    varint::write_u64(&mut payload, bit_len as u64);
    payload.extend_from_slice(&bits);

    frame(declared, &payload)
}

/// Frame header, then one last Huffman block around `payload`.
fn frame(declared: usize, payload: &[u8]) -> Vec<u8> {
    let mut f = MAGIC.to_vec();
    f.push(15);
    varint::write_u64(&mut f, declared as u64);
    f.push(1 | 1 << 1);
    varint::write_u64(&mut f, declared as u64);
    varint::write_u64(&mut f, payload.len() as u64);
    f.extend_from_slice(payload);
    f
}

/// [`frame_of`] declaring exactly what the operations produce.
fn exact_frame(litlen: &[u8], dist: &[u8], ops: &[Op]) -> (Vec<u8>, usize) {
    let n = produced(ops);
    (frame_of(litlen, dist, ops, n), n)
}

/// Bytes the operations produce.
fn produced(ops: &[Op]) -> usize {
    ops.iter()
        .map(|op| match *op {
            Op::Sym(sym) => (sym < 256) as usize,
            Op::Copy { len, .. } | Op::RawDist { len, .. } => len as usize,
        })
        .sum()
}

/// Code lengths from a histogram, absent symbols trimmed as `serialize` does.
fn lengths(freqs: &[u32]) -> Vec<u8> {
    package_merge_lengths(freqs, 15).expect("histogram")
}

fn stream_decode(frame: &[u8], mut next_chunk: impl FnMut() -> usize) -> Result<Vec<u8>, FlateError> {
    let mut dec = FlateStreamDecoder::new();
    let mut out = Vec::new();
    let mut window = vec![0u8; 4096];
    let mut fed = 0;
    while fed < frame.len() {
        let end = (fed + next_chunk()).min(frame.len());
        let mut piece = &frame[fed..end];
        fed = end;
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
}

/// Every decoder agrees with the reference on `frame`; returns its verdict.
fn assert_all_agree(
    frame: &[u8],
    scratch: &mut DecoderScratch,
    rng: &mut Xoshiro256,
    what: &str,
) -> Result<Vec<u8>, FlateError> {
    let want = reference::decompress(frame);
    assert_eq!(decompress(frame), want, "{what}: decompress");
    assert_eq!(decompress_into(frame, scratch).map(<[u8]>::to_vec), want, "{what}: decompress_into");
    assert_eq!(decompress_pipelined(frame), want, "{what}: pipelined");
    assert_eq!(stream_decode(frame, || 1), want, "{what}: 1-byte chunks");
    assert_eq!(stream_decode(frame, || 1 + rng.index(97)), want, "{what}: random chunks");
    want
}

/// `frame` itself, each of its proper prefixes, and each single-byte
/// `^0x40` flip (which keeps varint lengths, so corrupt fields stay small).
fn assert_hostile_sweep_agrees(frame: &[u8], what: &str) -> Result<Vec<u8>, FlateError> {
    let mut scratch = DecoderScratch::new();
    let mut rng = Xoshiro256::seed_from(frame.len() as u64);
    for cut in 0..frame.len() {
        let got = assert_all_agree(&frame[..cut], &mut scratch, &mut rng, &format!("{what} cut {cut}"));
        assert!(got.is_err(), "{what}: a proper prefix decoded");
    }
    let mut bad = frame.to_vec();
    for i in 0..frame.len() {
        bad[i] ^= 0x40;
        let _ = assert_all_agree(&bad, &mut scratch, &mut rng, &format!("{what} flip {i}"));
        bad[i] ^= 0x40;
    }
    assert_all_agree(frame, &mut scratch, &mut rng, what)
}

/// Literals, end of block and length symbols under Fibonacci weights: the
/// rarest of each kind get codes of 12 to 15 bits.
fn skewed_litlen() -> (Vec<u8>, Vec<u16>) {
    let used: Vec<u16> = b"etao"
        .iter()
        .map(|&b| u16::from(b))
        .chain([256, 257, 110, 260, 115, 265, 270, 104, 285, 114, 277, 100, 258, 108])
        .collect();
    let mut freqs = vec![0u32; codes::LITLEN_SYMBOLS];
    let (mut a, mut b) = (1u32, 1u32);
    for &sym in used.iter().rev() {
        freqs[sym as usize] = a;
        (a, b) = (b, a + b);
    }
    (lengths(&freqs), used)
}

fn skewed_dist() -> Vec<u8> {
    let mut freqs = vec![0u32; codes::DIST_SYMBOLS];
    let (mut a, mut b) = (1u32, 1u32);
    for f in freqs.iter_mut().take(20) {
        *f = a;
        (a, b) = (b, a + b);
    }
    lengths(&freqs)
}

/// A random operation stream over every symbol `litlen` codes, long codes as
/// likely as short ones, producing at least `min_len` bytes.
fn random_ops(rng: &mut Xoshiro256, used: &[u16], dist: &[u8], min_len: usize) -> Vec<Op> {
    let dists: Vec<u32> = (0..dist.len() as u16)
        .filter(|&d| dist[d as usize] > 0)
        .map(|d| codes::dist_value(d, 0).expect("distance symbol"))
        .collect();
    let mut ops = vec![Op::Sym(u16::from(b'e')); 4];
    let mut len = 4usize;
    while len < min_len {
        let sym = used[rng.index(used.len())];
        match codes::length_extra_bits(sym) {
            _ if sym == codes::END_OF_BLOCK => {}
            None => {
                ops.push(Op::Sym(sym));
                len += 1;
            }
            Some(extra_bits) => {
                let base = codes::length_value(sym, 0).expect("length symbol");
                let copy = base + rng.index(1 << extra_bits) as u32;
                let reachable: Vec<u32> = dists.iter().copied().filter(|&d| d as usize <= len).collect();
                ops.push(Op::Copy { len: copy, dist: reachable[rng.index(reachable.len())] });
                len += copy as usize;
            }
        }
    }
    ops
}

#[test]
fn fifteen_bit_codes_resolve_through_the_second_level() {
    let (litlen, used) = skewed_litlen();
    let dist = skewed_dist();
    assert_eq!(litlen.iter().max(), Some(&15));
    assert!(used.iter().any(|&s| s < 256 && litlen[s as usize] > 11), "a long literal code");
    assert!(used.iter().any(|&s| s > 256 && litlen[s as usize] > 11), "a long length code");
    assert!(dist.iter().any(|&l| l > 11), "a long distance code");

    let mut rng = Xoshiro256::seed_from(0xF15);
    for (min_len, what) in [(600, "small block"), (LARGE_BLOCK + 100, "large block")] {
        let ops = random_ops(&mut rng, &used, &dist, min_len);
        let (f, n) = exact_frame(&litlen, &dist, &ops);
        let out = assert_hostile_sweep_agrees(&f, what).expect("valid frame");
        assert_eq!(out.len(), n);
    }
    // Many shapes, valid frames only.
    let mut scratch = DecoderScratch::new();
    for trial in 0..40 {
        let min_len = if trial % 2 == 0 { 200 + rng.index(3000) } else { LARGE_BLOCK + rng.index(3000) };
        let ops = random_ops(&mut rng, &used, &dist, min_len);
        let (f, n) = exact_frame(&litlen, &dist, &ops);
        let out = assert_all_agree(&f, &mut scratch, &mut rng, &format!("trial {trial}"));
        assert_eq!(out.expect("valid frame").len(), n);
    }
}

/// Three 2-bit literals, a 3-bit end of block and a 3-bit length 258.
fn short_litlen() -> Vec<u8> {
    let mut l = vec![0u8; codes::LITLEN_SYMBOLS];
    for b in *b"abc" {
        l[b as usize] = 2;
    }
    l[256] = 3;
    l[285] = 3;
    l
}

/// A large block: a few literals, `copies` maximal overlapping copies, then
/// `tail` literals, so the stream ends inside a run of 2-bit literals.
fn short_ops(copies: usize, tail: usize) -> Vec<Op> {
    let abc = [b'a', b'b', b'c'];
    let mut ops: Vec<Op> = (0..5).map(|i| Op::Sym(u16::from(abc[i % 3]))).collect();
    ops.extend(std::iter::repeat_n(Op::Copy { len: 258, dist: 3 }, copies));
    ops.extend((0..tail).map(|i| Op::Sym(u16::from(abc[(i * i + 1) % 3]))));
    ops
}

#[test]
fn literal_runs_cross_the_hand_over_at_every_alignment() {
    let litlen = short_litlen();
    let dist = lengths(&[0, 0, 1]);
    let mut scratch = DecoderScratch::new();
    let mut rng = Xoshiro256::seed_from(0xA1B);
    // The per-symbol loop takes over once fewer than 64 bits remain; with
    // 2-bit literals every tail length moves that point by one literal,
    // across byte boundaries.
    for tail in 0..=80 {
        let ops = short_ops(64, tail);
        let n = produced(&ops);
        assert!(n >= LARGE_BLOCK);
        let f = frame_of(&litlen, &dist, &ops, n);
        let out = assert_all_agree(&f, &mut scratch, &mut rng, &format!("tail {tail}"));
        assert_eq!(out.expect("valid frame").len(), n);
    }
    for tail in [31, 32, 47] {
        let ops = short_ops(64, tail);
        let (f, _) = exact_frame(&litlen, &dist, &ops);
        assert_hostile_sweep_agrees(&f, &format!("tail {tail}")).expect("valid frame");
    }
}

#[test]
fn overrun_at_every_position_of_a_literal_run() {
    let litlen = short_litlen();
    let dist = lengths(&[0, 0, 1]);
    let mut scratch = DecoderScratch::new();
    let mut rng = Xoshiro256::seed_from(0xA1C);
    let ops = short_ops(64, 200);
    let n = produced(&ops);
    // The block declares less than it codes: the overrun lands on a literal
    // inside the cached-window loop's reach (many bits left).
    for short in 1..=40 {
        let f = frame_of(&litlen, &dist, &ops, n - short);
        let got = assert_all_agree(&f, &mut scratch, &mut rng, &format!("short by {short}"));
        assert_eq!(got, Err(FlateError::BadBlock("block output overruns declared size")));
    }
    // And declares more: a length mismatch, not an overrun.
    let f = frame_of(&litlen, &dist, &ops, n + 1);
    let got = assert_all_agree(&f, &mut scratch, &mut rng, "long by 1");
    assert_eq!(got, Err(FlateError::BadBlock("block length mismatch")));
    let f = frame_of(&litlen, &dist, &ops, n - 1);
    assert!(assert_hostile_sweep_agrees(&f, "short by 1").is_err());
}

#[test]
fn hostile_literal_flood_is_cut_off_at_the_declared_length() {
    // A block declaring one byte whose payload codes 100 000 literals.
    let litlen = short_litlen();
    let dist = lengths(&[1]);
    let ops: Vec<Op> = (0..100_000).map(|i| Op::Sym(u16::from(b"abc"[i % 3]))).collect();
    let f = frame_of(&litlen, &dist, &ops, 1);
    let overrun = FlateError::BadBlock("block output overruns declared size");
    assert_eq!(reference::decompress(&f), Err(overrun));
    assert_eq!(decompress(&f), Err(overrun));
    assert_eq!(decompress_pipelined(&f), Err(overrun));
    assert_eq!(decompress_into(&f, &mut DecoderScratch::new()), Err(overrun));

    // The streaming decoder holds the payload it was fed (2 bits a
    // literal) and nothing that scales with what it would expand to.
    let mut dec = FlateStreamDecoder::new();
    assert_eq!(dec.push_bytes(&f, &mut [0u8; 64]), Err(overrun));
    assert!(dec.scratch_bytes() < 40_000, "{} bytes held", dec.scratch_bytes());
}

#[test]
fn symbols_outside_the_deflate_alphabets() {
    // 300 literal/length symbols and 32 distance symbols, all coded.
    let mut litlen_freqs = vec![1u32; 300];
    for b in b"abc" {
        litlen_freqs[*b as usize] = 400;
    }
    litlen_freqs[256] = 50;
    litlen_freqs[257] = 300;
    let litlen = lengths(&litlen_freqs);
    let dist = lengths(&[1u32; 32]);
    let text = |n: usize| (0..n).map(|i| Op::Sym(u16::from(b"abc"[i % 3])));
    let fill = |copies: usize| std::iter::repeat_n(Op::Copy { len: 258, dist: 3 }, copies);

    let mut scratch = DecoderScratch::new();
    let mut rng = Xoshiro256::seed_from(0xA1D);
    for (copies, size) in [(2, "small"), (64, "large")] {
        // Coded but unused: a valid frame.
        let ops: Vec<Op> = text(6).chain(fill(copies)).chain(text(40)).collect();
        let (f, n) = exact_frame(&litlen, &dist, &ops);
        let out = assert_hostile_sweep_agrees(&f, &format!("{size} unused")).expect("valid frame");
        assert_eq!(out.len(), n);

        // Used mid-stream (inside the cached-window loop's reach) and as the
        // last operation (inside the per-symbol tail).
        for after in [60, 0] {
            for dsym in [30, 31] {
                let bad = Op::RawDist { len: 4, dsym, extra_bits: 13 };
                let ops: Vec<Op> = text(6).chain(fill(copies)).chain([bad]).chain(text(after)).collect();
                let (f, _) = exact_frame(&litlen, &dist, &ops);
                let what = format!("{size} distance symbol {dsym}, {after} after");
                let got = assert_all_agree(&f, &mut scratch, &mut rng, &what);
                assert_eq!(got, Err(FlateError::BadBlock("distance code")), "{what}");
            }
            for sym in [286, 299] {
                let ops: Vec<Op> =
                    text(6).chain(fill(copies)).chain([Op::Sym(sym)]).chain(text(after)).collect();
                let (f, _) = exact_frame(&litlen, &dist, &ops);
                let what = format!("{size} literal/length symbol {sym}, {after} after");
                let got = assert_all_agree(&f, &mut scratch, &mut rng, &what);
                assert_eq!(got, Err(FlateError::BadBlock("length code")), "{what}");
            }
        }
        let bad = Op::RawDist { len: 4, dsym: 31, extra_bits: 13 };
        let ops: Vec<Op> = text(6).chain(fill(copies)).chain([bad]).chain(text(60)).collect();
        let (f, _) = exact_frame(&litlen, &dist, &ops);
        assert!(assert_hostile_sweep_agrees(&f, &format!("{size} distance symbol 31")).is_err());
    }
}

#[test]
fn unmapped_half_of_a_single_symbol_table() {
    // Only end-of-block has a code (`0`); a `1` bit maps to nothing.
    let mut only_eob = vec![0u8; 257];
    only_eob[256] = 1;
    let table = HuffmanTable::from_lengths(only_eob).expect("single-symbol code");
    let bad_stream = FlateError::Huffman(cdpu_entropy::huffman::HuffmanError::BadStream);
    let mismatch = FlateError::BadBlock("block length mismatch");
    let mut scratch = DecoderScratch::new();
    let mut rng = Xoshiro256::seed_from(0xA1E);
    // One bit (per-symbol loop only) and 72 (the cached-window loop sees it
    // first), in an empty and in a large block.
    for (declared, bytes, want) in [
        (0, vec![0x80], Err(bad_stream)),
        (0, vec![0x00], Ok(vec![])),
        (0, vec![0x80; 9], Err(bad_stream)),
        (0, vec![0x7F; 9], Ok(vec![])),
        (LARGE_BLOCK, vec![0x80; 9], Err(bad_stream)),
        (LARGE_BLOCK, vec![0x7F; 9], Err(mismatch)),
    ] {
        let mut payload = Vec::new();
        table.serialize(&mut payload);
        table.serialize(&mut payload);
        varint::write_u64(&mut payload, if bytes.len() == 1 { 1 } else { 72 });
        payload.extend_from_slice(&bytes);
        let f = frame(declared, &payload);
        let what = format!("declared {declared}, {} bytes of {:#x}", bytes.len(), bytes[0]);
        assert_eq!(assert_all_agree(&f, &mut scratch, &mut rng, &what), want, "{what}");
    }
}
