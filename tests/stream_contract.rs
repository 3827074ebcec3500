//! The push/finish contract every `StreamEncoder` keeps, checked once over
//! all six codecs' encoders: misuse is an `Api` error, and a stream
//! drained one byte at a time, or of no bytes at all, is the one-shot
//! stream.

use cdpu::flate::stream::FlateStreamEncoder;
use cdpu::lite::stream::{GipfeliStreamEncoder, Lz4StreamEncoder, LzoStreamEncoder};
use cdpu::lz77::matcher::MatcherConfig;
use cdpu::snappy::stream::SnappyStreamEncoder;
use cdpu::util::stream::{StreamEncoder, StreamError};
use cdpu::zstd::stream::ZstdStreamEncoder;
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
