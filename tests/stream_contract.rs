//! The push/finish contract every `StreamEncoder` keeps, checked once over
//! all six codecs' encoders: misuse is an `Api` error, and a stream
//! drained one byte at a time, or of no bytes at all, is the one-shot
//! stream. Beside it, one pin over the path every `StreamDecoder` takes.

use cdpu::flate::stream::{FlateStreamDecoder, FlateStreamEncoder};
use cdpu::lite::stream::{
    GipfeliStreamDecoder, GipfeliStreamEncoder, Lz4StreamDecoder, Lz4StreamEncoder,
    LzoStreamDecoder, LzoStreamEncoder,
};
use cdpu::lz77::matcher::MatcherConfig;
use cdpu::snappy::stream::{SnappyStreamDecoder, SnappyStreamEncoder};
use cdpu::util::stream::{StreamDecoder, StreamEncoder, StreamError};
use cdpu::zstd::stream::{ZstdStreamDecoder, ZstdStreamEncoder};
use cdpu::{flate, lite, snappy, zstd};

type Make = fn(usize) -> Box<dyn StreamEncoder>;
type Compress = fn(&[u8]) -> Vec<u8>;

fn encoders() -> [(&'static str, Make, Compress); 6] {
    [
        (
            "snappy",
            |n| Box::new(SnappyStreamEncoder::new(n, &MatcherConfig::snappy_sw())),
            snappy::compress,
        ),
        ("lz4", |n| Box::new(Lz4StreamEncoder::new(n, 3)), lite::lz4::compress),
        ("lzo", |n| Box::new(LzoStreamEncoder::new(n, 3)), lite::lzo::compress),
        ("gipfeli", |n| Box::new(GipfeliStreamEncoder::new(n)), lite::gipfeli::compress),
        ("zstd", |n| Box::new(ZstdStreamEncoder::new(n, &Default::default())), zstd::compress),
        ("flate", |n| Box::new(FlateStreamEncoder::new(n, &Default::default())), flate::compress),
    ]
}

fn is_api<T: std::fmt::Debug>(r: Result<T, StreamError>) -> bool {
    matches!(r, Err(StreamError::Api(_)))
}

/// Pushes `data` and finishes, every output window one byte long, and
/// checks that a further `finish` has nothing left.
fn one_byte_windows(enc: &mut dyn StreamEncoder, data: &[u8]) -> Vec<u8> {
    let (mut out, mut w, mut fed) = (Vec::new(), [0u8; 1], 0);
    while fed < data.len() {
        let p = enc.push(&data[fed..], &mut w).unwrap();
        fed += p.consumed;
        out.extend_from_slice(&w[..p.written]);
    }
    loop {
        let (n, done) = enc.finish(&mut w).unwrap();
        out.extend_from_slice(&w[..n]);
        if done {
            break;
        }
    }
    assert_eq!(enc.finish(&mut w).unwrap(), (0, true));
    out
}

#[test]
fn every_stream_encoder_keeps_the_push_finish_contract() {
    let data = cdpu::corpus::generate(cdpu::corpus::ALL_KINDS[0], 200 << 10, 0x1D);
    let mut w = [0u8; 64];
    for (name, make, compress) in encoders() {
        let mut enc = make(10);
        assert!(is_api(enc.push(&data[..11], &mut w)), "{name}: one push past the total");
        let mut enc = make(10);
        enc.push(&data[..6], &mut w).unwrap();
        assert!(is_api(enc.push(&data[6..11], &mut w)), "{name}: a second push past the total");
        assert!(is_api(enc.finish(&mut w)), "{name}: finish before the total");

        let mut enc = make(0);
        assert_eq!(one_byte_windows(&mut *enc, b""), compress(b""), "{name}: empty input");
        assert!(is_api(enc.push(b"", &mut w)), "{name}: push after finish");

        let mut enc = make(data.len());
        assert_eq!(one_byte_windows(&mut *enc, &data), compress(&data), "{name}: 1-byte windows");
        assert!(is_api(enc.push(b"", &mut w)), "{name}: push after finish");
    }
}

/// FNV-1a-64 over `bytes`, continuing from `h`.
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

type NewDecoder = fn() -> Box<dyn StreamDecoder>;

fn decoders() -> [(&'static str, Compress, NewDecoder); 6] {
    [
        ("snappy", snappy::compress, || Box::new(SnappyStreamDecoder::new())),
        ("lz4", lite::lz4::compress, || Box::new(Lz4StreamDecoder::new())),
        ("lzo", lite::lzo::compress, || Box::new(LzoStreamDecoder::new())),
        ("gipfeli", lite::gipfeli::compress, || Box::new(GipfeliStreamDecoder::new())),
        ("zstd", zstd::compress, || Box::new(ZstdStreamDecoder::new())),
        ("flate", flate::compress, || Box::new(FlateStreamDecoder::new())),
    ]
}

/// Feeds `stream` to `dec` in `chunk`-byte pushes through a `window`-byte
/// output window, then finishes, folding `(consumed, written,
/// scratch_bytes)` into `h` after every push and `(written, done,
/// scratch_bytes)` after every finish. Returns the output.
fn traced(
    h: &mut u64,
    dec: &mut dyn StreamDecoder,
    stream: &[u8],
    chunk: usize,
    window: usize,
) -> Result<Vec<u8>, StreamError> {
    let (mut out, mut w) = (Vec::new(), vec![0u8; window]);
    let fold = |h: &mut u64, a: usize, b: usize, scratch: usize| {
        for v in [a, b, scratch] {
            *h = fnv1a64(*h, &(v as u64).to_le_bytes());
        }
    };
    for mut piece in stream.chunks(chunk) {
        while !piece.is_empty() {
            let p = dec.push(piece, &mut w)?;
            fold(h, p.consumed, p.written, dec.scratch_bytes());
            out.extend_from_slice(&w[..p.written]);
            piece = &piece[p.consumed..];
        }
    }
    loop {
        let (n, done) = dec.finish(&mut w)?;
        fold(h, n, done as usize, dec.scratch_bytes());
        out.extend_from_slice(&w[..n]);
        if done {
            return Ok(out);
        }
    }
}

/// Pins how every stream decoder moves: how much each push consumes and
/// writes, and what `scratch_bytes` reports after it, at 1-, 7- and
/// 4096-byte pushes and whole, through 1-byte and 64 KiB output windows,
/// over one valid stream per codec (308 KiB of all seven corpus kinds:
/// window compaction, two block-frame blocks, the high-water mark), a cut
/// of it and one flipped byte, plus each run's outcome. The decode-outcome
/// pins fix what a decoder returns; this one fixes the path it takes.
#[test]
fn stream_decoder_traces_are_pinned() {
    let data: Vec<u8> = cdpu::corpus::ALL_KINDS
        .iter()
        .flat_map(|&kind| cdpu::corpus::generate(kind, 44 << 10, 0x7A))
        .collect();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (name, compress, new_decoder) in decoders() {
        let valid = compress(&data);
        let cut = valid[..valid.len() * 2 / 3].to_vec();
        let mut flipped = valid.clone();
        flipped[valid.len() / 3] ^= 0x10;
        for stream in [&valid, &cut, &flipped] {
            for chunk in [1, 7, 4096, usize::MAX] {
                for window in [1, 64 << 10] {
                    let chunk = chunk.min(stream.len().max(1));
                    let outcome = traced(&mut h, new_decoder().as_mut(), stream, chunk, window);
                    if std::ptr::eq(stream, &valid) {
                        let out = outcome.as_deref().ok();
                        assert_eq!(out, Some(&data[..]), "{name}: valid stream");
                    }
                    h = match outcome {
                        Ok(out) => fnv1a64(fnv1a64(h, &[0]), &out),
                        Err(e) => fnv1a64(fnv1a64(h, &[1]), format!("{e:?}").as_bytes()),
                    };
                }
            }
        }
    }
    assert_eq!(h, 0xCF6C_BB25_CCF5_879D, "stream decoder traces moved: got {h:#018X}");
}
