//! Streaming-vs-one-shot parity for the ZStd-class codec: every output
//! byte, every error value, at hostile chunk sizes.

use cdpu_util::rng::Xoshiro256;
use cdpu_util::stream::{drive_decoder, drive_encoder, StreamProgress};
use cdpu_util::varint;
use cdpu_zstd::stream::{ZstdStreamDecoder, ZstdStreamEncoder};
use cdpu_zstd::{ZstdConfig, ZstdError, MAGIC};

const CHUNKS: &[usize] = &[1, 3, 7, 64, 251, 4096, usize::MAX];

fn sample_inputs(rng: &mut Xoshiro256) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = vec![
        vec![],
        b"z".to_vec(),
        b"zstd streaming".to_vec(),
        vec![7u8; 40],
        b"the quick brown fox jumps over the lazy dog. ".repeat(250),
        vec![42u8; 20_000], // RLE block candidate
    ];
    for _ in 0..2 {
        let mut v = vec![0u8; rng.index(12_000)];
        rng.fill_bytes(&mut v);
        inputs.push(v);
    }
    for _ in 0..2 {
        // Runs of a tiny alphabet: match-heavy, multi-block at >128 KiB.
        let len = 150_000 + rng.index(60_000);
        let mut v = Vec::new();
        while v.len() < len {
            let b = b'a' + rng.index(4) as u8;
            v.extend(std::iter::repeat_n(b, (rng.index(40) + 1).min(len - v.len())));
        }
        inputs.push(v);
    }
    inputs
}

fn sample_configs() -> Vec<ZstdConfig> {
    vec![
        ZstdConfig::with_level(-3),
        ZstdConfig::with_level(1),
        ZstdConfig::with_level(3),
        ZstdConfig::with_level(9),
        ZstdConfig::with_level(3).lit_streams(4).seq_streams(2),
        ZstdConfig::with_level(3).rans_literals(),
        ZstdConfig::with_level(1).window_log(12),
    ]
}

/// Streaming decode with the codec-precise error type, feeding
/// `chunk`-sized windows.
fn stream_decode(compressed: &[u8], chunk: usize) -> Result<Vec<u8>, ZstdError> {
    let mut dec = ZstdStreamDecoder::new();
    let mut out = Vec::new();
    let mut window = vec![0u8; 1024];
    let mut fed = 0;
    while fed < compressed.len() {
        let end = (fed + chunk).min(compressed.len());
        let mut piece = &compressed[fed..end];
        fed = end;
        while !piece.is_empty() {
            let StreamProgress { consumed, written } = dec.push_bytes(piece, &mut window)?;
            out.extend_from_slice(&window[..written]);
            piece = &piece[consumed..];
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

#[test]
fn encoder_matches_one_shot_bytes() {
    let mut rng = Xoshiro256::seed_from(101);
    let configs = sample_configs();
    for data in sample_inputs(&mut rng) {
        for cfg in &configs {
            let want = cdpu_zstd::compress_with(&data, cfg);
            for &chunk in CHUNKS {
                let chunk = chunk.min(data.len().max(1));
                let mut enc = ZstdStreamEncoder::new(data.len(), cfg);
                let mut got = Vec::new();
                drive_encoder(&mut enc, &data, chunk, &mut got).unwrap();
                assert_eq!(
                    got,
                    want,
                    "level {} len {} chunk {chunk}",
                    cfg.level,
                    data.len()
                );
            }
        }
    }
}

#[test]
fn decoder_matches_one_shot_bytes() {
    let mut rng = Xoshiro256::seed_from(102);
    let configs =
        [ZstdConfig::with_level(3), ZstdConfig::with_level(3).lit_streams(4).rans_literals()];
    for data in sample_inputs(&mut rng) {
        for cfg in &configs {
            let compressed = cdpu_zstd::compress_with(&data, cfg);
            for &chunk in CHUNKS {
                let chunk = chunk.min(compressed.len().max(1));
                let got = stream_decode(&compressed, chunk).unwrap();
                assert_eq!(got, data, "len {} chunk {chunk}", data.len());
                // And through the trait driver.
                let mut dec = ZstdStreamDecoder::new();
                let mut got = Vec::new();
                drive_decoder(&mut dec, &compressed, chunk, &mut got).unwrap();
                assert_eq!(got, data, "trait driver, len {} chunk {chunk}", data.len());
            }
        }
    }
}

#[test]
fn truncation_error_parity_at_every_cut() {
    let mut rng = Xoshiro256::seed_from(103);
    let mut data = Vec::new();
    while data.len() < 4000 {
        let b = b'a' + rng.index(4) as u8;
        data.extend(std::iter::repeat_n(b, rng.index(30) + 1));
    }
    let compressed = cdpu_zstd::compress(&data);
    for cut in 0..compressed.len() {
        let want = cdpu_zstd::decompress(&compressed[..cut]);
        for &chunk in &[1usize, 7, 251] {
            let got = stream_decode(&compressed[..cut], chunk);
            match (&want, &got) {
                (Err(w), Err(g)) => assert_eq!(w, g, "cut {cut} chunk {chunk}"),
                _ => panic!("cut {cut}: one-shot {want:?} vs stream {got:?}"),
            }
        }
    }
}

/// A hand-rolled frame: header plus caller-supplied block bytes.
fn frame_with(blocks: &[u8], content_size: u64) -> Vec<u8> {
    let mut f = Vec::new();
    f.extend_from_slice(&MAGIC);
    f.push(16);
    varint::write_u64(&mut f, content_size);
    f.extend_from_slice(blocks);
    f
}

fn hostile_streams() -> Vec<Vec<u8>> {
    let mut streams: Vec<Vec<u8>> = vec![
        vec![],                                  // too short: BadMagic
        b"CDP".to_vec(),                         // truncated magic
        b"XDPU\x10\x00".to_vec(),                // wrong magic
        b"CDPU\x05\x00".to_vec(),                // window log out of range
        b"CDPU\x10".to_vec(),                    // content size missing
        b"CDPU\x10\x80".to_vec(),                // unterminated content varint
        frame_with(&[], 0),                      // no blocks at all: Truncated
        frame_with(&[0b110], 0),                 // unknown block type (3)
        frame_with(&[0b001, 0x80], 0),           // unterminated block-len varint
        {
            // Block length over the cap: BadBlock before anything else.
            let mut b = vec![0b001];
            varint::write_u64(&mut b, 1 << 20);
            frame_with(&b, 1 << 20)
        }
        ,
        frame_with(&[0b001, 5, b'a', b'b'], 5),  // raw block truncated
        frame_with(&[0b011, 4], 4),              // RLE fill byte missing
        frame_with(&[0b101, 4], 4),              // payload length missing
        frame_with(&[0b101, 4, 7, b'x'], 4),     // payload truncated
        frame_with(&[0b101, 4, 0], 4),           // empty payload: entropy error
        frame_with(&[0b001, 3, b'a', b'b', b'c'], 9), // short: LengthMismatch
        frame_with(&[0b001, 3, b'a', b'b', b'c'], 2), // overshoot after block
        {
            // Non-last block overshooting the declared size mid-frame.
            let mut b = vec![0b000, 3];
            b.extend_from_slice(b"abc");
            b.extend_from_slice(&[0b001, 1, b'd']);
            frame_with(&b, 2)
        },
        {
            // Valid single-block frame with trailing garbage: Ok parity.
            let mut b = vec![0b001, 3];
            b.extend_from_slice(b"abc");
            b.push(0xEE);
            frame_with(&b, 3)
        },
    ];
    // A valid compressed frame with each single byte flipped. The 0x40
    // flip preserves varint byte lengths, so corrupt length fields stay
    // small (the seed one-shot decoder is known to overflow-panic in
    // debug on near-usize::MAX payload lengths; that shape is out of
    // scope here).
    let data: Vec<u8> = b"interleaved entropy coded block payload ".repeat(40);
    let base = cdpu_zstd::compress_with(&data, &ZstdConfig::with_level(3));
    for i in 0..base.len() {
        let mut m = base.clone();
        m[i] ^= 0x40;
        streams.push(m);
    }
    streams
}

#[test]
fn hostile_stream_error_parity() {
    for s in &hostile_streams() {
        let want = cdpu_zstd::decompress(s);
        for &chunk in &[1usize, 2, 5, 4096] {
            let got = stream_decode(s, chunk);
            assert_eq!(want.is_ok(), got.is_ok(), "stream {s:?} chunk {chunk}");
            match (&want, &got) {
                (Err(w), Err(g)) => assert_eq!(w, g, "stream {s:?} chunk {chunk}"),
                (Ok(w), Ok(g)) => assert_eq!(w, g),
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn decoder_error_is_sticky() {
    let mut dec = ZstdStreamDecoder::new();
    let mut w = [0u8; 64];
    let err = dec.push_bytes(b"XXXX", &mut w).unwrap_err();
    assert_eq!(err, ZstdError::BadMagic);
    assert_eq!(dec.push_bytes(b"", &mut w).unwrap_err(), ZstdError::BadMagic);
    assert_eq!(dec.finish_bytes(&mut w).unwrap_err(), ZstdError::BadMagic);
}

#[test]
fn encoder_api_misuse_is_rejected() {
    use cdpu_util::stream::{StreamEncoder, StreamError};
    let cfg = ZstdConfig::default();
    let mut w = [0u8; 256];

    // Push past the declared total.
    let mut enc = ZstdStreamEncoder::new(3, &cfg);
    assert!(matches!(enc.push(b"abcd", &mut w), Err(StreamError::Api(_))));

    // Finish before all input arrived.
    let mut enc = ZstdStreamEncoder::new(3, &cfg);
    enc.push(b"ab", &mut w).unwrap();
    assert!(matches!(enc.finish(&mut w), Err(StreamError::Api(_))));

    // Push after finish.
    let mut enc = ZstdStreamEncoder::new(1, &cfg);
    enc.push(b"a", &mut w).unwrap();
    enc.finish(&mut w).unwrap();
    assert!(matches!(enc.push(b"x", &mut w), Err(StreamError::Api(_))));
}
