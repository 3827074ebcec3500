//! The per-layer pass of a traced run. Layer = crate. Each layer is timed
//! from outside, by calling its public functions on the payloads of the
//! workload it belongs to, fastest of a few repetitions; exact counts come
//! from the public telemetry registry, enabled for one extra pass.
//! Probes *inside* the codecs are a later change.

use crate::calls::{self, Codec, LargeHeavy, LargeLight, Small, Spec};
use crate::cpu;
use crate::estimator::{fastest_of, p50_p95_us};
use crate::giant::{self, Giant};
use crate::harness::THREADS;
use crate::inputs::sub_seed;
use crate::model::{self, ModelInputs};
use crate::serve::{self, JobTimes, ServeInputs};
use crate::spans::{Recorder, SpanId};
use cdpu_core::dse::{profile_suite, standard_histories, standard_placements};
use cdpu_entropy::fse::{self, FseDecodeTable, FseEncodeTable};
use cdpu_entropy::huffman::HuffmanTable;
use cdpu_fleet::sampler::FleetSampler;
use cdpu_fleet::{AlgoOp, Algorithm, CallRecord, Direction};
use cdpu_hwsim::params::CdpuParams;
use cdpu_hwsim::service::{service_cycles, service_stages};
use cdpu_hwsim::stages::StageCycles;
use cdpu_hwsim::{comp, decomp, profile};
use cdpu_lz77::matcher::{HashTableMatcher, MatcherConfig, MatcherScratch};
use cdpu_lz77::window::{reconstruct, DecoderScratch};
use cdpu_lz77::Parse;
use cdpu_serve::engine::{self, ServedReport};
use cdpu_serve::{chunk, BatchPolicy};
use cdpu_zstd::ZstdConfig;
use std::hint::black_box;
use std::time::Instant;

/// Limit on the p95 sojourn for `serve.engine.max_rate_in_limit_cps`.
const LATENCY_LIMIT_US: f64 = 25_000.0;
/// The fixed rates that metric tries, calls/s.
const RATES_CPS: [f64; 3] = [500.0, 800.0, 1100.0];

/// Collects `(metric, value)` pairs and the spans of the replays.
pub struct Layers<'a> {
    rec: &'a mut Recorder,
    /// Repetitions per replay: at least this many, and until the budget.
    min_reps: usize,
    budget_s: f64,
    group: Option<SpanId>,
    group_id: u64,
    pub out: Vec<(&'static str, f64)>,
}

impl<'a> Layers<'a> {
    pub fn new(rec: &'a mut Recorder, smoke: bool) -> Self {
        Layers {
            rec,
            min_reps: if smoke { 1 } else { 3 },
            budget_s: if smoke { 0.0 } else { 0.08 },
            group: None,
            group_id: 0,
            out: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// Opens the root span the following replays hang under: one per
    /// workload whose payloads are being replayed.
    fn begin(&mut self, group: &str) {
        self.rec.close(self.group);
        self.group_id += 1;
        self.group = self.rec.open(group, None, self.group_id);
    }

    /// Fastest run of `f` in seconds; every run is one span.
    fn time(&mut self, span: &str, mut f: impl FnMut()) -> f64 {
        let (rec, group, id) = (&mut *self.rec, self.group, self.group_id);
        fastest_of(self.min_reps, self.budget_s, || {
            let t0 = Instant::now();
            f();
            let secs = t0.elapsed().as_secs_f64();
            rec.record(span, t0, secs, group, id);
            secs
        })
    }

    /// Fastest whole pass of `f` over `payloads`, in ns per payload byte.
    fn ns_per_byte(&mut self, span: &str, payloads: &[Vec<u8>], mut f: impl FnMut(&[u8])) -> f64 {
        let bytes: usize = payloads.iter().map(Vec::len).sum();
        let secs = self.time(span, || payloads.iter().for_each(|p| f(black_box(p))));
        secs * 1e9 / bytes as f64
    }
}

fn total_len(payloads: &[Vec<u8>]) -> f64 {
    payloads.iter().map(Vec::len).sum::<usize>() as f64
}

/// `<codec>.<c|d>.<size>.ns_per_byte` for every codec of a workload.
fn codec_rates(
    l: &mut Layers<'_>,
    payloads: &[Vec<u8>],
    codecs: &[(&Codec, &'static str, &'static str)],
) {
    let mut scratch = DecoderScratch::new();
    for &(codec, c_name, d_name) in codecs {
        let c = l.ns_per_byte(c_name, payloads, |p| {
            black_box((codec.compress)(p));
        });
        l.put(c_name, c);
        let compressed: Vec<Vec<u8>> = payloads.iter().map(|p| (codec.compress)(p)).collect();
        let d_secs = l.time(d_name, || {
            for c in &compressed {
                black_box((codec.decompress)(black_box(c), &mut scratch));
            }
        });
        l.put(d_name, d_secs * 1e9 / total_len(payloads));
    }
}

fn hash_matcher() -> HashTableMatcher {
    HashTableMatcher::new(MatcherConfig::snappy_sw())
}

/// The small-call layers: `calls_small` payloads.
fn small_layers(l: &mut Layers<'_>, seed: u64) {
    l.begin("layers.calls_small");
    let payloads = Small::payloads(seed);
    codec_rates(
        l,
        &payloads,
        &[
            (
                &calls::SNAPPY,
                "snappy.c.small.ns_per_byte",
                "snappy.d.small.ns_per_byte",
            ),
            (
                &calls::LZ4,
                "lz4.c.small.ns_per_byte",
                "lz4.d.small.ns_per_byte",
            ),
            (
                &calls::LZO,
                "lzo.c.small.ns_per_byte",
                "lzo.d.small.ns_per_byte",
            ),
            (
                &calls::GIPFELI,
                "gipfeli.c.small.ns_per_byte",
                "gipfeli.d.small.ns_per_byte",
            ),
            (
                &calls::ZSTD3,
                "zstd3.c.small.ns_per_byte",
                "zstd3.d.small.ns_per_byte",
            ),
            (
                &calls::FLATE6,
                "flate6.c.small.ns_per_byte",
                "flate6.d.small.ns_per_byte",
            ),
        ],
    );
    let mut scratch = MatcherScratch::new();
    let matcher = hash_matcher();
    let hash = l.ns_per_byte("lz77.hash_parse.small.ns_per_byte", &payloads, |p| {
        black_box(matcher.parse_with_scratch(p, &mut scratch));
    });
    l.put("lz77.hash_parse.small.ns_per_byte", hash);
    let cfg = ZstdConfig::with_level(3);
    let chain = l.ns_per_byte("lz77.chain_parse.small.ns_per_byte", &payloads, |p| {
        black_box(cdpu_zstd::parse_with(p, &cfg));
    });
    l.put("lz77.chain_parse.small.ns_per_byte", chain);
    let whole = l.ns_per_byte("zstd.compress_with.small", &payloads, |p| {
        black_box(cdpu_zstd::compress_with(p, &cfg));
    });
    l.put("zstd3.c.small.parse_share", chain / whole);
}

/// The large-call layers of the byte-aligned codecs: `calls_large_light`
/// payloads.
fn light_layers(l: &mut Layers<'_>, seed: u64) {
    l.begin("layers.calls_large_light");
    let payloads = LargeLight::payloads(seed);
    codec_rates(
        l,
        &payloads,
        &[
            (
                &calls::SNAPPY,
                "snappy.c.large.ns_per_byte",
                "snappy.d.large.ns_per_byte",
            ),
            (
                &calls::LZ4,
                "lz4.c.large.ns_per_byte",
                "lz4.d.large.ns_per_byte",
            ),
            (
                &calls::LZO,
                "lzo.c.large.ns_per_byte",
                "lzo.d.large.ns_per_byte",
            ),
            (
                &calls::GIPFELI,
                "gipfeli.c.large.ns_per_byte",
                "gipfeli.d.large.ns_per_byte",
            ),
        ],
    );
    let mut scratch = MatcherScratch::new();
    let matcher = hash_matcher();
    let hash = l.ns_per_byte("lz77.hash_parse.large.ns_per_byte", &payloads, |p| {
        black_box(matcher.parse_with_scratch(p, &mut scratch));
    });
    l.put("lz77.hash_parse.large.ns_per_byte", hash);
    let cfg = MatcherConfig::snappy_sw();
    let parse = l.ns_per_byte("snappy.parse_with.large", &payloads, |p| {
        black_box(cdpu_snappy::parse_with(p, &cfg));
    });
    let whole = l.ns_per_byte("snappy.compress_with.large", &payloads, |p| {
        black_box(cdpu_snappy::compress_with(p, &cfg));
    });
    l.put("snappy.c.large.parse_share", parse / whole);

    // What the telemetry probes cost where they are densest: light decode.
    // On and off alternate, so a slow phase of the host hits both.
    let mut dscratch = DecoderScratch::new();
    let compressed: Vec<Vec<u8>> = payloads.iter().map(|p| cdpu_snappy::compress(p)).collect();
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..if l.min_reps > 1 { 8 } else { 1 } {
        for (enabled, best) in [(false, &mut off), (true, &mut on)] {
            if enabled {
                cdpu_telemetry::enable();
            }
            let span = if enabled {
                "snappy.decompress_into.telemetry_on"
            } else {
                "snappy.decompress_into.telemetry_off"
            };
            let t0 = Instant::now();
            for c in &compressed {
                black_box(cdpu_snappy::decompress_into(black_box(c), &mut dscratch).is_ok());
            }
            let secs = t0.elapsed().as_secs_f64();
            cdpu_telemetry::disable();
            l.rec.record(span, t0, secs, l.group, l.group_id);
            *best = best.min(secs);
        }
    }
    l.put("telemetry.on_overhead_share", on / off - 1.0);
    cdpu_telemetry::reset();
}

/// Reads one counter of the public registry.
fn counter(name: &str) -> f64 {
    cdpu_telemetry::registry()
        .counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| v as f64)
}

/// The large-call layers of the entropy-coded codecs, and the lz77 and
/// entropy layers under them: `calls_large_heavy` payloads.
fn heavy_layers(l: &mut Layers<'_>, seed: u64) {
    l.begin("layers.calls_large_heavy");
    let payloads = LargeHeavy::payloads(seed);
    let bytes = total_len(&payloads);
    codec_rates(
        l,
        &payloads,
        &[
            (
                &calls::ZSTD3,
                "zstd3.c.large.ns_per_byte",
                "zstd3.d.large.ns_per_byte",
            ),
            (
                &calls::FLATE6,
                "flate6.c.large.ns_per_byte",
                "flate6.d.large.ns_per_byte",
            ),
        ],
    );
    let z9 = ZstdConfig::with_level(9);
    let v = l.ns_per_byte("zstd9.c.large.ns_per_byte", &payloads, |p| {
        black_box(cdpu_zstd::compress_with(p, &z9));
    });
    l.put("zstd9.c.large.ns_per_byte", v);

    // zstd-l3 compress = parse_with + compress_parse_with_stats.
    let z3 = ZstdConfig::with_level(3);
    let z_parse = l.ns_per_byte("lz77.chain_parse.large.ns_per_byte", &payloads, |p| {
        black_box(cdpu_zstd::parse_with(p, &z3));
    });
    l.put("lz77.chain_parse.large.ns_per_byte", z_parse);
    let parses: Vec<Parse> = payloads
        .iter()
        .map(|p| cdpu_zstd::parse_with(p, &z3))
        .collect();
    let z_encode = l.time("zstd.compress_parse_with_stats.large", || {
        for (p, parse) in payloads.iter().zip(&parses) {
            black_box(cdpu_zstd::compress_parse_with_stats(
                black_box(p),
                parse,
                &z3,
            ));
        }
    }) * 1e9
        / bytes;
    let z_whole = l.ns_per_byte("zstd.compress_with.large", &payloads, |p| {
        black_box(cdpu_zstd::compress_with(p, &z3));
    });
    l.put("zstd3.c.large.parse_share", z_parse / z_whole);
    l.put("zstd3.c.large.encode_share", z_encode / z_whole);

    // flate-l6 compress = parse_with + compress_parse.
    let f6 = cdpu_flate::FlateConfig::with_level(6);
    let f_parse = l.ns_per_byte("flate.parse_with.large", &payloads, |p| {
        black_box(cdpu_flate::parse_with(p, &f6));
    });
    let f_parses: Vec<Parse> = payloads
        .iter()
        .map(|p| cdpu_flate::parse_with(p, &f6))
        .collect();
    let f_encode = l.time("flate.compress_parse.large", || {
        for (p, parse) in payloads.iter().zip(&f_parses) {
            black_box(cdpu_flate::compress_parse(black_box(p), parse, &f6));
        }
    }) * 1e9
        / bytes;
    let f_whole = l.ns_per_byte("flate.compress_with.large", &payloads, |p| {
        black_box(cdpu_flate::compress_with(p, &f6));
    });
    l.put("flate6.c.large.parse_share", f_parse / f_whole);
    l.put("flate6.c.large.encode_share", f_encode / f_whole);

    // Decode side: LZ apply and Huffman literals against the whole call.
    let literals: Vec<Vec<u8>> = parses
        .iter()
        .zip(&payloads)
        .map(|(parse, p)| parse.literal_bytes(p))
        .collect();
    let apply = l.time("lz77.reconstruct.large.ns_per_byte", || {
        for (parse, lits) in parses.iter().zip(&literals) {
            black_box(reconstruct(black_box(parse), lits, None).is_ok());
        }
    }) * 1e9
        / bytes;
    l.put("lz77.reconstruct.large.ns_per_byte", apply);
    let mut dscratch = DecoderScratch::new();
    let frames: Vec<Vec<u8>> = payloads.iter().map(|p| cdpu_zstd::compress(p)).collect();
    let z_decode = l.time("zstd.decompress_into.large", || {
        for f in &frames {
            black_box(cdpu_zstd::decompress_into(black_box(f), &mut dscratch).is_ok());
        }
    }) * 1e9
        / bytes;
    l.put("zstd3.d.large.apply_share", apply / z_decode);

    // Entropy one-shots on the call's whole literal stream and its
    // literal-length codes (one table per payload; the codec builds one
    // per 128 KiB block).
    let lit_bytes = total_len(&literals);
    let hists: Vec<[u32; 256]> = literals
        .iter()
        .map(|b| cdpu_entropy::byte_histogram(b))
        .collect();
    let build = l.time("entropy.huffman_build", || {
        for h in &hists {
            black_box(HuffmanTable::from_frequencies(black_box(h)).is_ok());
        }
    });
    l.put(
        "entropy.huffman_build.ns_per_call",
        build * 1e9 / hists.len() as f64,
    );
    let tables: Vec<HuffmanTable> = hists
        .iter()
        .map(|h| HuffmanTable::from_frequencies(h).expect("literals are non-empty"))
        .collect();
    let encode = l.time("entropy.huffman_encode", || {
        for (t, lits) in tables.iter().zip(&literals) {
            black_box(t.encode_bytes(black_box(lits)).is_ok());
        }
    });
    l.put(
        "entropy.huffman_encode.ns_per_byte",
        encode * 1e9 / lit_bytes,
    );
    let streams: Vec<(Vec<u8>, usize)> = tables
        .iter()
        .zip(&literals)
        .map(|(t, lits)| t.encode_bytes(lits).expect("table built from these bytes"))
        .collect();
    let mut sink = Vec::new();
    let decode = l.time("entropy.huffman_decode", || {
        for ((t, (bits, bit_len)), lits) in tables.iter().zip(&streams).zip(&literals) {
            sink.clear();
            black_box(
                t.decode_bytes_into(black_box(bits), *bit_len, lits.len(), &mut sink)
                    .is_ok(),
            );
        }
    });
    l.put(
        "entropy.huffman_decode.ns_per_byte",
        decode * 1e9 / lit_bytes,
    );
    l.put(
        "zstd3.d.large.huffman_share",
        decode * 1e9 / bytes / z_decode,
    );

    let symbols: Vec<Vec<u16>> = parses
        .iter()
        .map(|parse| {
            parse
                .seqs
                .iter()
                .filter_map(|s| cdpu_zstd::codes::ll_code(s.lit_len).ok())
                .map(|c| c.code)
                .collect()
        })
        .collect();
    let syms: usize = symbols.iter().map(Vec::len).sum();
    let norms: Vec<(Vec<u32>, u8)> = symbols
        .iter()
        .map(|s| {
            let mut hist = vec![0u32; 36];
            s.iter().for_each(|&c| hist[c as usize] += 1);
            let log = fse::recommended_table_log(&hist, 9);
            (
                fse::normalize_counts(&hist, log).expect("non-empty alphabet"),
                log,
            )
        })
        .collect();
    let build = l.time("entropy.fse_build", || {
        for (norm, log) in &norms {
            black_box(FseEncodeTable::new(black_box(norm), *log).is_ok());
            black_box(FseDecodeTable::new(black_box(norm), *log).is_ok());
        }
    });
    l.put(
        "entropy.fse_build.ns_per_call",
        build * 1e9 / norms.len() as f64,
    );
    let encode = l.time("entropy.fse_encode", || {
        for (s, (norm, log)) in symbols.iter().zip(&norms) {
            black_box(fse::encode(black_box(s), norm, *log).is_ok());
        }
    });
    l.put("entropy.fse_encode.ns_per_sym", encode * 1e9 / syms as f64);
    let coded: Vec<Vec<u8>> = symbols
        .iter()
        .zip(&norms)
        .map(|(s, (norm, log))| fse::encode(s, norm, *log).expect("symbols are in the table"))
        .collect();
    let decode = l.time("entropy.fse_decode", || {
        for ((c, s), (norm, log)) in coded.iter().zip(&symbols).zip(&norms) {
            black_box(fse::decode(black_box(c), norm, *log, s.len()).is_ok());
        }
    });
    l.put("entropy.fse_decode.ns_per_sym", decode * 1e9 / syms as f64);

    // Exact matcher counts: one extra pass of both matchers over the
    // small and the heavy payloads with telemetry on.
    let small = Small::payloads(seed);
    let mut scratch = MatcherScratch::new();
    let matcher = hash_matcher();
    cdpu_telemetry::reset();
    cdpu_telemetry::enable();
    for p in small.iter().chain(&payloads) {
        black_box(matcher.parse_with_scratch(p, &mut scratch));
        black_box(cdpu_zstd::parse_with(p, &z3));
    }
    cdpu_telemetry::disable();
    let input = counter("lz77.input_bytes");
    let (hits, misses) = (counter("lz77.scratch.hits"), counter("lz77.scratch.misses"));
    l.put("lz77.probes_per_byte", counter("lz77.probes") / input);
    l.put("lz77.match_byte_share", counter("lz77.match_bytes") / input);
    l.put("lz77.scratch_hit_share", hits / (hits + misses));
    cdpu_telemetry::reset();
}

/// Frame and stream layers and the pool under them: `calls_giant` payload.
fn giant_layers(l: &mut Layers<'_>, seed: u64) {
    l.begin("layers.calls_giant");
    let payloads = Giant::payloads(seed);
    let data = &payloads[0];
    let bytes = data.len() as f64;
    let mut scratch = DecoderScratch::new();

    let mut frame_pair = |l: &mut Layers<'_>, codec: &Codec, c_name, d_name| {
        let c = l.time(c_name, || {
            black_box((codec.compress)(black_box(data)));
        });
        l.put(c_name, c * 1e9 / bytes);
        let framed = (codec.compress)(data);
        let d = l.time(d_name, || {
            black_box((codec.decompress)(black_box(&framed), &mut scratch));
        });
        l.put(d_name, d * 1e9 / bytes);
        (framed, d)
    };
    let (framed, pool) = frame_pair(
        l,
        &giant::FRAME_ZSTD3,
        "frame.zstd3.c.ns_per_byte",
        "frame.zstd3.d.ns_per_byte",
    );
    frame_pair(
        l,
        &giant::FRAME_LZ4,
        "frame.lz4.c.ns_per_byte",
        "frame.lz4.d.ns_per_byte",
    );
    let serial = l.time("chunk.decompress_frame_serial", || {
        black_box(chunk::decompress_frame_serial(Algorithm::Zstd, black_box(&framed)).is_ok());
    });
    l.put("frame.d.pool_vs_serial", serial / pool);
    let plain = cdpu_zstd::compress(data);
    l.put("frame.ratio_tax", framed.len() as f64 / plain.len() as f64);

    // Streaming drivers against the one-shot calls on the same bytes.
    let mut peak = 0usize;
    let mut dscratch = DecoderScratch::new();
    let oneshot_c = l.time("zstd.compress", || {
        black_box(cdpu_zstd::compress(black_box(data)));
    });
    let stream_c = l.time("stream.zstd3.compress", || {
        peak = peak.max(giant::stream_zstd3_compress(black_box(data)).1);
    });
    l.put("stream.zstd3.c.vs_oneshot", stream_c / oneshot_c);
    let oneshot_d = l.time("zstd.decompress_into", || {
        black_box(cdpu_zstd::decompress_into(black_box(&plain), &mut dscratch).is_ok());
    });
    let stream_d = l.time("stream.zstd3.decompress", || {
        peak = peak.max(giant::stream_zstd3_decompress(black_box(&plain)).map_or(0, |r| r.1));
    });
    l.put("stream.zstd3.d.vs_oneshot", stream_d / oneshot_d);
    let block = cdpu_snappy::compress(data);
    let oneshot_c = l.time("snappy.compress", || {
        black_box(cdpu_snappy::compress(black_box(data)));
    });
    let stream_c = l.time("stream.snappy.compress", || {
        peak = peak.max(giant::stream_snappy_compress(black_box(data)).1);
    });
    l.put("stream.snappy.c.vs_oneshot", stream_c / oneshot_c);
    let oneshot_d = l.time("snappy.decompress_into", || {
        black_box(cdpu_snappy::decompress_into(black_box(&block), &mut dscratch).is_ok());
    });
    let stream_d = l.time("stream.snappy.decompress", || {
        peak = peak.max(giant::stream_snappy_decompress(black_box(&block)).map_or(0, |r| r.1));
    });
    l.put("stream.snappy.d.vs_oneshot", stream_d / oneshot_d);
    l.put("stream.peak_scratch_bytes", peak as f64);

    // cdpu-par: what one handoff and one fan-out cost with nothing to do.
    const HANDOFFS: usize = 1000;
    let mut pool = cdpu_par::NotifyPool::<()>::new(THREADS);
    let handoff = l.time("par.notify.handoff", || {
        for _ in 0..HANDOFFS {
            pool.submit(|| ());
            black_box(pool.recv());
        }
    });
    l.put("par.notify.handoff_us", handoff * 1e6 / HANDOFFS as f64);
    const FANOUTS: usize = 200;
    let items: Vec<u64> = (0..64).collect();
    let fanout = l.time("par.par_map.dispatch", || {
        for _ in 0..FANOUTS {
            black_box(cdpu_par::par_map(black_box(&items), |&x| x + 1));
        }
    });
    l.put("par.par_map.dispatch_us", fanout * 1e6 / FANOUTS as f64);
    l.put("par.threads", cdpu_par::threads() as f64);

    let kinds = cdpu_corpus::ALL_KINDS;
    let generate = l.time("corpus.generate", || {
        for (i, &k) in kinds.iter().enumerate() {
            black_box(cdpu_corpus::generate(
                k,
                crate::inputs::PIECE_BYTES,
                seed ^ i as u64,
            ));
        }
    });
    l.put(
        "corpus.generate.ns_per_byte",
        generate * 1e9 / (kinds.len() * crate::inputs::PIECE_BYTES) as f64,
    );
}

/// The fastest of a few paced engine runs at `rate_cps`: its host
/// seconds, its report and its per-job times.
fn paced_run(
    l: &mut Layers<'_>,
    inp: &ServeInputs,
    rate_cps: f64,
) -> (f64, ServedReport, JobTimes) {
    let cfg = serve::paced_config(&inp.cfg, rate_cps);
    let mut best: Option<(f64, ServedReport)> = None;
    l.time("engine.run.measured", || {
        let t0 = Instant::now();
        let report = engine::run(&cfg, &inp.wl);
        let wall = t0.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, report));
        }
    });
    let (wall, report) = best.expect("at least one run");
    let jobs = JobTimes::from_events(&report.events, inp.calls.len());
    (wall, report, jobs)
}

/// The serving data path: the `serve_saturation` call list.
fn saturation_layers(l: &mut Layers<'_>, seed: u64) {
    l.begin("layers.serve_saturation");
    let sat = ServeInputs::new(seed, serve::SATURATION_CALLS);
    l.put("serve.workload.build_s", sat.build_s);
    l.put("serve.ladder.warm_s", sat.warm_s);
    let bytes = sat.uncompressed_bytes() as f64;
    let execute = l.time("workload.execute_all.list", || {
        black_box(sat.wl.execute_all(black_box(&sat.calls)));
    });
    l.put("serve.execute.ns_per_byte", execute * 1e9 / bytes);
    let saturate = |l: &mut Layers<'_>, shards: usize| {
        l.time("engine.saturation_run", || {
            black_box(engine::saturation_run(
                &sat.wl,
                &sat.calls,
                shards,
                BatchPolicy::default(),
            ));
        })
    };
    let one = saturate(l, 1);
    let two = saturate(l, THREADS);
    l.put("serve.saturation.scaling", one / two);
}

/// The engine's event loop, queueing and admission: the `serve_paced`
/// call list.
fn paced_layers(l: &mut Layers<'_>, seed: u64) {
    l.begin("layers.serve_paced");
    let paced = ServeInputs::new(seed, serve::PACED_CALLS);
    let mut best_rate = 0.0;
    for rate in RATES_CPS {
        let (wall, report, jobs) = paced_run(l, &paced, rate);
        if p50_p95_us(&jobs.sojourn_ns()).1 < LATENCY_LIMIT_US && report.shed == 0 {
            best_rate = rate;
        }
        if rate == serve::PACED_RATE_CPS {
            // Event loop, admission, scheduler and batcher: what is left of
            // the run's wall time after the time inside codec calls. The
            // default placement charges no offload, so the engine's busy
            // time is the measured execution time.
            let span_ps = jobs.departure_ps.iter().copied().max().unwrap_or(1) as f64;
            let exec_s = report.utilization * f64::from(report.shards) * span_ps / 1e12;
            l.put(
                "serve.engine.loop_us_per_call",
                (wall - exec_s) * 1e6 / paced.calls.len() as f64,
            );
            let (p50, p95) = p50_p95_us(&jobs.wait_ns());
            l.put("serve.engine.wait_p50_us", p50);
            l.put("serve.engine.wait_p95_us", p95);
            l.put("serve.engine.utilization", report.utilization);
            l.put("serve.engine.mean_batch", report.mean_batch);
            l.put("serve.engine.shed_calls", report.shed as f64);
        }
    }
    l.put("serve.engine.max_rate_in_limit_cps", best_rate);
}

/// Compute-side share of one stage in the model's own breakdown: the
/// stages software runs one after the other.
fn model_share(stages: &StageCycles, stage: u64) -> f64 {
    let serial = stages.matcher
        + stages.stats
        + stages.huffman
        + stages.fse
        + stages.rans
        + stages.interleave
        + stages.writer
        + stages.table_build;
    stage as f64 / serial as f64
}

/// The model layers: `model_dse` suites.
fn model_layers(l: &mut Layers<'_>, seed: u64) {
    l.begin("layers.model_dse");
    let inp = ModelInputs::new(seed);
    l.put("hcbench.bank_build_s", inp.bank_build_s);
    l.put("hcbench.suite_gen_s", inp.suite_gen_s);
    let params = CdpuParams::default();
    let mem = inp.mem;

    let d_files: Vec<_> = inp.suites.iter().flat_map(|(_, d)| &d.files).collect();
    let d_bytes: usize = d_files.iter().map(|f| f.data.len()).sum();
    let profile_one = |f: &cdpu_hcbench::BenchmarkFile| match f.op.algo {
        Algorithm::Snappy => profile::profile_snappy(&f.data),
        _ => profile::profile_zstd(&f.data, f.level.unwrap_or(3), f.window_log),
    };
    let secs = l.time("hwsim.profile", || {
        for f in &d_files {
            black_box(profile_one(black_box(f)));
        }
    });
    l.put("hwsim.profile.ns_per_byte", secs * 1e9 / d_bytes as f64);
    let profiles: Vec<_> = d_files
        .iter()
        .map(|f| (f.op.algo, profile_one(f)))
        .collect();
    let secs = l.time("hwsim.decomp_sim", || {
        for (algo, p) in &profiles {
            black_box(match algo {
                Algorithm::Snappy => decomp::snappy_decompress(black_box(p), &params, &mem),
                _ => decomp::zstd_decompress(black_box(p), &params, &mem),
            });
        }
    });
    l.put(
        "hwsim.decomp_sim.ns_per_call",
        secs * 1e9 / profiles.len() as f64,
    );

    let c_files: Vec<_> = inp.suites.iter().flat_map(|(c, _)| &c.files).collect();
    let c_bytes: usize = c_files.iter().map(|f| f.data.len()).sum();
    let secs = l.time("hwsim.comp_sim", || {
        for f in &c_files {
            black_box(match f.op.algo {
                Algorithm::Snappy => comp::snappy_compress(black_box(&f.data), &params, &mem),
                _ => comp::zstd_compress(black_box(&f.data), &params, &mem),
            });
        }
    });
    l.put("hwsim.comp_sim.ns_per_byte", secs * 1e9 / c_bytes as f64);

    const SAMPLES: usize = 2000;
    let mut calls = Vec::new();
    let secs = l.time("fleet.sample", || {
        calls = FleetSampler::new(sub_seed(seed, "fleet.sample")).sample_calls(SAMPLES);
    });
    l.put("fleet.sample.ns_per_call", secs * 1e9 / SAMPLES as f64);
    let secs = l.time("hwsim.service_price", || {
        for c in &calls {
            black_box(service_cycles(black_box(c), &params, &mem));
        }
    });
    l.put(
        "hwsim.service_price.ns_per_call",
        secs * 1e9 / SAMPLES as f64,
    );

    // One DSE round: how many points, and the simulated cycles they sum to
    // (exact: moves only if the model changes).
    let grid = (standard_placements(), standard_histories());
    let grid = (grid.0.as_slice(), grid.1.as_slice());
    let (mut points, mut cycles) = (0usize, 0u64);
    for (c_suite, d_suite) in &inp.suites {
        let profiles = profile_suite(d_suite);
        for sweep in [
            inp.decompress(d_suite, &profiles, grid),
            inp.compress(c_suite, grid),
        ] {
            points += sweep.points.len();
            cycles += model::total_cycles(&sweep.points, &mem);
        }
    }
    l.put("core.dse.points", points as f64);
    l.put("hwsim.dse.total_cycles", cycles as f64);

    let mut events = 0u64;
    let secs = l.time("serve.sim.run", || {
        let r = cdpu_serve::sim::run(black_box(&inp.sim));
        // One arrival and one departure (or drop) event per call.
        events = r.injected + r.completed + r.dropped;
    });
    l.put("serve.sim.events_per_s", events as f64 / secs);

    // The model's own stage shares at 1 MiB, to read beside the measured
    // `*.parse_share` / `*.apply_share`.
    let stages = |algo, dir| {
        let call = CallRecord {
            op: AlgoOp::new(algo, dir),
            uncompressed_bytes: 1 << 20,
            level: (algo == Algorithm::Zstd).then_some(3),
            window_log: None,
            caller: "benchmark",
        };
        service_stages(&call, &params, &mem)
    };
    let s = stages(Algorithm::Snappy, Direction::Compress);
    l.put("model.snappy.c.matcher_share", model_share(&s, s.matcher));
    let s = stages(Algorithm::Zstd, Direction::Compress);
    l.put("model.zstd3.c.matcher_share", model_share(&s, s.matcher));
    let s = stages(Algorithm::Flate, Direction::Compress);
    l.put("model.flate6.c.matcher_share", model_share(&s, s.matcher));
    let s = stages(Algorithm::Zstd, Direction::Decompress);
    l.put("model.zstd3.d.writer_share", model_share(&s, s.writer));
}

/// Runs every layer replay on the inputs `seed` generates, each group
/// placed on `cpus` as the workload it belongs to is.
pub fn run(rec: &mut Recorder, seed: u64, smoke: bool, cpus: &[usize]) -> Vec<(&'static str, f64)> {
    let place = |n| cpu::place(cpus, n).expect("the run was placed on these CPUs before");
    let mut l = Layers::new(rec, smoke);
    place(1);
    small_layers(&mut l, seed);
    light_layers(&mut l, seed);
    heavy_layers(&mut l, seed);
    paced_layers(&mut l, seed);
    let awake = place(THREADS);
    giant_layers(&mut l, seed);
    saturation_layers(&mut l, seed);
    model_layers(&mut l, seed);
    drop(awake);
    l.rec.close(l.group);
    l.out
}
