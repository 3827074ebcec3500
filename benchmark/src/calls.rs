//! The closed-loop codec workloads (one caller thread): for every codec
//! and payload, compress, then decompress, then compare. `calls_small`,
//! `calls_large_light` and `calls_large_heavy` use the one-shot entry
//! points with `decompress_into` on a reused `DecoderScratch`;
//! `calls_giant` (see `giant.rs`) plugs the frame and stream paths into
//! the same loop.

use crate::estimator::{geomean_mb_s, p50_p95_us, Series};
use crate::harness::{lap, E2e, Report, Workload};
use crate::inputs;
use crate::spans::Recorder;
use cdpu_lz77::window::DecoderScratch;
use std::borrow::Cow;
use std::hint::black_box;
use std::marker::PhantomData;
use std::time::Instant;

/// Decodes into the reused scratch where the codec can
/// (`decompress_into`), else into a fresh buffer; `None` on any error.
pub type Decompress = for<'a> fn(&[u8], &'a mut DecoderScratch) -> Option<Cow<'a, [u8]>>;

/// One codec's public entry points.
pub struct Codec {
    pub name: &'static str,
    pub compress: fn(&[u8]) -> Vec<u8>,
    pub decompress: Decompress,
}

macro_rules! codec {
    ($name:literal, $compress:expr, $decompress_into:path) => {
        Codec {
            name: $name,
            compress: $compress,
            decompress: {
                fn decode<'a>(c: &[u8], s: &'a mut DecoderScratch) -> Option<Cow<'a, [u8]>> {
                    $decompress_into(c, s).ok().map(Cow::Borrowed)
                }
                decode
            },
        }
    };
}

pub const SNAPPY: Codec = codec!(
    "snappy",
    cdpu_snappy::compress,
    cdpu_snappy::decompress_into
);
pub const LZ4: Codec = codec!(
    "lz4",
    cdpu_lite::lz4::compress,
    cdpu_lite::lz4::decompress_into
);
pub const LZO: Codec = codec!(
    "lzo",
    cdpu_lite::lzo::compress,
    cdpu_lite::lzo::decompress_into
);
pub const GIPFELI: Codec = codec!(
    "gipfeli",
    cdpu_lite::gipfeli::compress,
    cdpu_lite::gipfeli::decompress_into
);
/// `cdpu_zstd::compress` is level 3, the fleet's dominant level.
pub const ZSTD3: Codec = codec!("zstd3", cdpu_zstd::compress, cdpu_zstd::decompress_into);
/// `cdpu_flate::compress` is level 6, zlib's default.
pub const FLATE6: Codec = codec!("flate6", cdpu_flate::compress, cdpu_flate::decompress_into);

/// Which codecs and payloads one of the workloads uses.
pub trait Spec {
    const NAME: &'static str;
    const CPUS: usize = 1;
    const CODECS: &'static [Codec];
    fn payloads(seed: u64) -> Vec<Vec<u8>>;
}

/// Fleet call-count mass: 1–16 KiB calls, where per-call fixed cost
/// (scratch reset, table build, header parse, allocation) does the work.
pub struct Small;
impl Spec for Small {
    const NAME: &'static str = "calls_small";
    const CODECS: &'static [Codec] = &[SNAPPY, LZ4, ZSTD3, FLATE6];
    /// 21 × 7 = 147 payloads, ≈ 0.8 MB per codec per round.
    fn payloads(seed: u64) -> Vec<Vec<u8>> {
        inputs::small_payloads(seed, 21)
    }
}

/// 0.5–2 MiB calls through the byte-aligned codecs: hash-table match-find
/// and literal/match copy, no entropy stage.
pub struct LargeLight;
impl Spec for LargeLight {
    const NAME: &'static str = "calls_large_light";
    const CODECS: &'static [Codec] = &[SNAPPY, LZ4, LZO, GIPFELI];
    fn payloads(seed: u64) -> Vec<Vec<u8>> {
        inputs::large_payloads(inputs::sub_seed(seed, "light"), 4, 4 << 20)
    }
}

/// The same size range through the entropy-coded codecs: hash-chain
/// search and Huffman/FSE build+code.
pub struct LargeHeavy;
impl Spec for LargeHeavy {
    const NAME: &'static str = "calls_large_heavy";
    const CODECS: &'static [Codec] = &[ZSTD3, FLATE6];
    fn payloads(seed: u64) -> Vec<Vec<u8>> {
        inputs::large_payloads(inputs::sub_seed(seed, "heavy"), 3, 3 << 20)
    }
}

pub struct Calls<S: Spec> {
    payloads: Vec<Vec<u8>>,
    scratch: DecoderScratch,
    /// Per codec: seconds inside compress / decompress calls, per round.
    c: Vec<Series>,
    d: Vec<Series>,
    /// Fastest observed time of each single call, `[codec][payload][dir]`.
    call_min_ns: Vec<u64>,
    compressed_bytes: u64,
    rounds: u64,
    failed: u64,
    span_names: Vec<(String, String)>,
    _spec: PhantomData<S>,
}

impl<S: Spec> Workload for Calls<S> {
    const NAME: &'static str = S::NAME;
    const CPUS: usize = S::CPUS;

    fn setup(seed: u64) -> Self {
        let payloads = S::payloads(seed);
        let bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        let series = |dir: &str| {
            S::CODECS
                .iter()
                .map(|c| Series::new(format!("{}.{dir}", c.name), bytes))
                .collect()
        };
        Calls {
            c: series("c"),
            d: series("d"),
            call_min_ns: vec![u64::MAX; S::CODECS.len() * payloads.len() * 2],
            span_names: S::CODECS
                .iter()
                .map(|c| {
                    (
                        format!("{}.compress", c.name),
                        format!("{}.decompress", c.name),
                    )
                })
                .collect(),
            payloads,
            scratch: DecoderScratch::new(),
            compressed_bytes: 0,
            rounds: 0,
            failed: 0,
            _spec: PhantomData,
        }
    }

    fn inputs_hash(&self) -> u64 {
        inputs::payloads_hash(self.payloads.iter().map(Vec::as_slice))
    }

    fn round(&mut self, mut rec: Option<&mut Recorder>) -> f64 {
        let mut inside = 0.0;
        let mut compressed_bytes = 0u64;
        // Held for the round, 0–7 MiB by turns: it takes the pages the last
        // round freed, so this round's buffers land on other physical pages.
        // Without it the 4 MiB decodes of `calls_giant` ran 13 % or 30 %
        // (snappy stream) slower for a whole process or not at all,
        // whatever the seed — page placement luck. With it every process
        // draws eight placements and the fastest round keeps the best.
        // Buffers under the allocator's 128 KiB mmap threshold never leave
        // the heap, so a list of small calls has no placement to draw, and
        // a ballast would only move its `peak_rss_mb` (13.7 or 17.7 MB by
        // seed).
        let draws_pages = self.payloads.iter().any(|p| p.len() >= 128 << 10);
        let ballast_mib = if draws_pages { self.rounds % 8 } else { 0 };
        let ballast = black_box(vec![1u8; (ballast_mib as usize) << 20]);
        for (ci, codec) in S::CODECS.iter().enumerate() {
            let (mut c_secs, mut d_secs) = (0.0, 0.0);
            for (pi, payload) in self.payloads.iter().enumerate() {
                let call_id = (ci * self.payloads.len() + pi) as u64;
                let root = rec
                    .as_deref_mut()
                    .and_then(|r| r.open("call", None, call_id));

                let t0 = Instant::now();
                let compressed = (codec.compress)(black_box(payload));
                let (secs, ns) = lap(t0);
                c_secs += secs;
                let fastest = &mut self.call_min_ns[call_id as usize * 2..][..2];
                fastest[0] = fastest[0].min(ns);
                if let Some(r) = rec.as_deref_mut() {
                    r.record(&self.span_names[ci].0, t0, secs, root, call_id);
                }

                let t1 = Instant::now();
                let decoded = (codec.decompress)(black_box(&compressed), &mut self.scratch);
                let (secs, ns) = lap(t1);
                d_secs += secs;
                fastest[1] = fastest[1].min(ns);
                if let Some(r) = rec.as_deref_mut() {
                    r.record(&self.span_names[ci].1, t1, secs, root, call_id);
                }

                if decoded.as_deref() != Some(payload.as_slice()) {
                    self.failed += 1;
                }
                compressed_bytes += compressed.len() as u64;
                if let Some(r) = rec.as_deref_mut() {
                    r.close(root);
                }
            }
            self.c[ci].secs.push(c_secs);
            self.d[ci].secs.push(d_secs);
            inside += c_secs + d_secs;
        }
        // The encoders are deterministic; a round that compresses to a
        // different size is a failure, not a new ratio.
        if self.rounds > 0 && compressed_bytes != self.compressed_bytes {
            self.failed += 1;
        }
        drop(ballast);
        self.compressed_bytes = compressed_bytes;
        self.rounds += 1;
        inside
    }

    fn report(&self) -> Report {
        let codecs = S::CODECS.len() as u64;
        let bytes = self.c[0].bytes;
        let busy: f64 = self.c.iter().chain(&self.d).map(Series::fastest).sum();
        let (call_p50_us, call_p95_us) = p50_p95_us(&self.call_min_ns);
        Report {
            e2e: E2e {
                compress_mb_s: geomean_mb_s(&self.c),
                decompress_mb_s: geomean_mb_s(&self.d),
                ratio: (codecs * bytes) as f64 / self.compressed_bytes as f64,
                goodput_mb_s: (2 * codecs * bytes) as f64 / 1e6 / busy,
                call_p50_us,
                call_p95_us,
            },
            attempted: self.rounds * codecs * self.payloads.len() as u64 * 2,
            failed: self.failed,
            series: self.c.iter().chain(&self.d).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_of_small_calls_round_trips_and_reports() {
        let mut w = Calls::<Small>::setup(1);
        let mut rec = Recorder::new(1 << 16);
        assert!(w.round(Some(&mut rec)) > 0.0);
        w.round(None);
        let r = w.report();
        assert_eq!(r.failed, 0);
        assert_eq!(r.attempted, 2 * 4 * 147 * 2);
        assert!(r.e2e.ratio > 1.0 && r.e2e.call_p95_us >= r.e2e.call_p50_us);
        // Root + compress + decompress per call, in the traced round only.
        assert_eq!(rec.spans().len(), 4 * 147 * 3);
    }
}
