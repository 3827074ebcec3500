//! `bench` — the timing harness behind `results/BENCH_*.json` and the
//! perf-regression gate. One mode flag per run; none is a usage error.
//!
//! Usage:
//!
//! ```text
//! bench (--served | --kernels | --dekernels | --streaming | --regress | --entropy-smoke)
//!       [--files N] [--seed N] [--jobs N] [--out PATH] [--tiny]
//!       [--shards N] [--batch-bytes N] [--batch-max N]
//!       [--tolerance F] [--baseline-dir DIR]
//! ```
//!
//! `--served` benchmarks the serving *engine* (real codec execution on
//! the worker shards): the deterministic work-timing ratios the
//! regression gate tracks (`served_batch_speedup`,
//! `served_drr_fairness_speedup`, plus the closed-loop engine-vs-
//! simulator p99-wait deviations), a measured-timing fleet run, and a
//! saturation throughput run with batching on/off. Writes
//! `results/BENCH_served.json` by default through the `cdpu_util::json`
//! writer. `--shards`, `--batch-bytes` and `--batch-max` set the
//! engine's shard count and coalescing policy (validated up front by the
//! same helper the `figures` binary uses).
//!
//! `--kernels` microbenchmarks the single-threaded compression
//! kernels: parse, compress and call-profile throughput (MB/s) per
//! algorithm (Snappy, ZStd L3, Flate L6) over a deterministic suite
//! corpus, plus the two-pass profiling baseline (`parse_with` followed by
//! the profiler, i.e. the pre-single-parse pipeline) the speedup is
//! measured against. Writes `results/BENCH_kernels.json` by default and a
//! scratch/probe telemetry snapshot alongside the timings.
//!
//! `--dekernels` microbenchmarks the single-threaded decompression
//! kernels: `decompress` (fresh allocation) and `decompress_into`
//! (persistent scratch) throughput per algorithm (Snappy, ZStd L3,
//! Flate L6, LZO-class, Gipfeli-class, LZ4-class) over pre-compressed
//! suite corpora,
//! against the retained seed decoders in each crate's `reference` module
//! (per-symbol entropy decode, byte-wise copies, allocate-per-call).
//! Throughput is reported over *decompressed* bytes. Writes
//! `results/BENCH_dekernels.json` by default plus a decode-side telemetry
//! snapshot (refills, wild copies, scratch hits).
//!
//! Both kernel families also time the standalone entropy-stage kernels
//! over the heavy corpus's actual ZStd L3 literal payloads: `--kernels`
//! reports encode throughput (`entropy_encode`, MB/s only), `--dekernels`
//! reports 1-way vs 4-way interleaved decode for Huffman, FSE and rANS
//! plus the gated `entropy_*_interleave_speedup` ratios.
//!
//! Both families also report the chunked-frame intra-call parallelism
//! numbers: the gated `chunked_compress_speedup` / `chunked_decode_speedup`
//! ratios are the hwsim-modeled lane speedups of a 1 MiB call at 64 KiB
//! chunks across 4 lanes (pure model, so host-independent), while the
//! wall-clock serial-vs-pool LZ4-class frame decode and the 64 KiB ratio
//! tax ride along as informational context.
//!
//! `--streaming` benchmarks the streaming core: the gated
//! `streaming_pipeline_speedup` is the minimum hwsim-modeled stage-overlap
//! ratio (a 4 MiB call streamed in 128 KiB blocks, every pipeline class
//! and direction — pure model, host-independent), alongside informational
//! wall-clock pipelined-vs-serial throughput for the real ZStd/Flate
//! single-call stage pipelines and the per-codec peak streaming scratch
//! (`stream_scratch_peak_bytes`). Writes `results/BENCH_streaming.json`
//! by default.
//!
//! `--entropy-smoke` is a fast CI roundtrip check of every new entropy
//! format (interleaved Huffman/FSE streams, rANS lanes, the ZStd frame
//! knobs) through both the fast and reference decoders, then exits.
//!
//! `--regress` is the perf-regression gate: it re-runs the kernel,
//! dekernel and streaming benchmarks plus the deterministic
//! serving-engine ratios, compares every machine-relative speedup ratio
//! against the committed `BENCH_kernels.json`/`BENCH_dekernels.json`/
//! `BENCH_streaming.json`/`BENCH_served.json` baselines
//! (`--baseline-dir`, default `results/`) under a relative `--tolerance`
//! (default 0.25), and writes a pass/fail markdown report (`--out`,
//! default `results/REGRESS.md`) with each section's rows ordered worst
//! margin first and its baseline file named. A failing
//! gate exits non-zero — except at `--tiny` scale, where the corpus
//! differs from the baseline's and the gate is advisory (report written,
//! exit 0). A baseline file that is missing entirely downgrades its
//! section to advisory (every current ratio reports as "new") instead of
//! erroring, so the gate works in checkouts that predate a benchmark.

use std::hint::black_box;
use std::time::Instant;

use cdpu_bench::cli::{self, ServedOpts};
use cdpu_bench::{regress, served_figures, Scale, Workbench};
use cdpu_fleet::Direction;
use cdpu_hwsim::params::MemParams;
use cdpu_hwsim::profile::{profile_flate, profile_snappy, profile_zstd};
use cdpu_lz77::matcher::MatcherConfig;
use cdpu_serve::{engine, tenants::fleet_tenants, BatchPolicy, EngineConfig, Timing};
use cdpu_util::json::{self, Json};
use cdpu_util::rng::mix64;

/// One kernel-stage measurement: the best (minimum) single-pass time over
/// the corpus across `iters` repetitions, and the resulting throughput.
/// Best-of-N discards transient interference (scheduler preemption,
/// frequency ramps), which dwarfs per-pass variance on shared hosts.
fn time_stage(corpus: &[&[u8]], iters: usize, mut f: impl FnMut(&[u8])) -> (f64, f64) {
    // Warm-up pass: page in the corpus, populate thread-local scratch.
    for d in corpus {
        f(d);
    }
    let bytes: usize = corpus.iter().map(|d| d.len()).sum();
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(2) {
        let t = Instant::now();
        for d in corpus {
            f(d);
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    let mb_s = bytes as f64 / best / 1e6;
    (best, mb_s)
}

/// Best-of-N wall-clock of one whole-corpus closure (the entropy-kernel
/// analogue of [`time_stage`], for kernels whose per-item state lives in
/// pre-encoded side tables rather than a flat byte corpus).
fn best_of(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(2) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The literal payloads the ZStd entropy stage actually codes: one
/// concatenated literal stream per heavy-corpus file, parsed at the
/// fleet's L3 parameters. Tiny payloads are dropped — they decode in the
/// table-build shadow and only add timer noise.
fn entropy_literal_payloads(heavy: &[&[u8]], zcfg: &cdpu_zstd::ZstdConfig) -> Vec<Vec<u8>> {
    heavy
        .iter()
        .map(|d| cdpu_zstd::parse_with(d, zcfg).literal_bytes(d))
        .filter(|l| l.len() >= 1024)
        .collect()
}

/// Pre-encoded entropy streams for one literal payload, every backend and
/// both stream counts — built once, decoded many times by the timed loops.
struct EntropyPrep {
    count: usize,
    table: cdpu_entropy::huffman::HuffmanTable,
    h1: cdpu_entropy::interleave::HuffmanStreams,
    h4: cdpu_entropy::interleave::HuffmanStreams,
    norm: Vec<u32>,
    log: u8,
    f1: Vec<Vec<u8>>,
    f4: Vec<Vec<u8>>,
    rtab: cdpu_entropy::rans::RansTable,
    r1: Vec<u8>,
    r4: Vec<u8>,
}

fn entropy_preps(payloads: &[Vec<u8>]) -> Vec<EntropyPrep> {
    use cdpu_entropy::{byte_histogram, fse, huffman::HuffmanTable, interleave, rans};
    payloads
        .iter()
        .filter_map(|lits| {
            let table = HuffmanTable::from_frequencies(&byte_histogram(lits)).ok()?;
            let h1 = interleave::huffman_encode(&table, lits, 1).ok()?;
            let h4 = interleave::huffman_encode(&table, lits, 4).ok()?;
            let syms: Vec<u16> = lits.iter().map(|&b| b as u16).collect();
            let hist = byte_histogram(lits);
            let log = fse::recommended_table_log(&hist, 11);
            let norm = fse::normalize_counts(&hist, log).ok()?;
            let f1 = interleave::fse_encode(&syms, &norm, log, 1).ok()?;
            let f4 = interleave::fse_encode(&syms, &norm, log, 4).ok()?;
            let (rtab, _, _) = rans::table_for(lits).ok()?;
            let r1 = rans::encode(&rtab, lits, 1).ok()?;
            let r4 = rans::encode(&rtab, lits, 4).ok()?;
            Some(EntropyPrep {
                count: lits.len(),
                table,
                h1,
                h4,
                norm,
                log,
                f1,
                f4,
                rtab,
                r1,
                r4,
            })
        })
        .collect()
}

/// Microbenchmarks the per-algorithm kernels: parse, compress, and the
/// call profiler, against the seed pipeline they replaced.
///
/// The `baseline_profile` stage reproduces the profiler as it stood before
/// this optimization pass: the naive byte-at-a-time, allocate-per-call
/// reference matcher (retained verbatim in `cdpu_lz77::reference`) run
/// **twice** per call — once standalone for the structural features and
/// once inside the compressor — exactly the double-parse shape the old
/// `profile_*` functions had. `profile_speedup` is that baseline's time
/// over the single-parse optimized profiler's. `parse_reference` times the
/// naive matcher alone, so `parse_speedup` isolates the word-at-a-time +
/// scratch-reuse kernel win.
/// Writes a report, creating the parent directory if needed.
fn write_report(out: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(out, contents).expect("write benchmark report");
}

/// The scale block every benchmark document embeds.
fn scale_json(scale: Scale) -> Json {
    Json::obj()
        .set("files_per_suite", scale.files_per_suite)
        .set("max_call_bytes", scale.max_call_bytes)
        .set("bank_bytes_per_kind", scale.bank_bytes_per_kind)
        .set("seed", scale.seed)
}

/// Telemetry counters as one JSON object.
fn counters_json() -> Json {
    let mut obj = Json::obj();
    for (name, v) in cdpu_telemetry::registry().counters() {
        obj = obj.set(&name, v);
    }
    obj
}

/// Three-decimal rounding so gated ratios survive a write/parse roundtrip
/// exactly and the document stays readable.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// hwsim-modeled chunked-frame execution of a 1 MiB Snappy fleet call at
/// 64 KiB chunks across 4 lanes. A pure function of the pipeline model —
/// deterministic and host-independent — so the gated `chunked_*_speedup`
/// ratios built on it regress only when the model (or the frame
/// dispatch/merge overheads) change, never from host noise; wall-clock
/// chunk decode on this host is reported alongside as informational MB/s.
fn modeled_chunked(dir: Direction) -> cdpu_hwsim::chunked::ChunkedCycles {
    let call = cdpu_fleet::CallRecord {
        op: cdpu_fleet::AlgoOp::new(cdpu_fleet::Algorithm::Snappy, dir),
        uncompressed_bytes: 1 << 20,
        level: None,
        window_log: None,
        caller: "bench-chunked",
    };
    cdpu_hwsim::chunked::chunked_cycles(
        &call,
        64 * 1024,
        4,
        &cdpu_hwsim::params::CdpuParams::default(),
        &MemParams::default(),
    )
}

/// The 1 MiB payload the wall-clock chunked measurements frame: mixed
/// serving-relevant corpus kinds at a fixed seed, so the framed sizes in
/// the report are identical across hosts and scales.
fn chunked_payload() -> Vec<u8> {
    use cdpu_corpus::CorpusKind;
    let kinds = [CorpusKind::JsonLogs, CorpusKind::ProtoRecords, CorpusKind::MarkovText];
    let total: usize = 1 << 20;
    let per = total / kinds.len();
    let mut data = Vec::with_capacity(total);
    for (i, &kind) in kinds.iter().enumerate() {
        let len = if i == kinds.len() - 1 { total - data.len() } else { per };
        data.extend_from_slice(&cdpu_corpus::generate(kind, len, 0x4348_4E4B + i as u64));
    }
    data
}

/// The deterministic (work-timing) half of the serving-engine benchmark:
/// closed-loop deviations plus the two gated `served_*_speedup` ratios.
/// Bit-identical across hosts and reruns, so `--regress` can compare it
/// exactly against the committed baseline.
fn served_work_doc(scale: Scale, opts: &ServedOpts, wl: &std::sync::Arc<cdpu_serve::Workload>) -> Json {
    let pts = served_figures::loop_points(scale, opts, wl);
    let fair = served_figures::fairness_points(scale, wl);
    let (off, on) = served_figures::batch_points(scale, opts, wl);
    let loop_arr: Vec<Json> = pts
        .iter()
        .map(|p| {
            Json::obj()
                .set("rho", p.load)
                .set("sim_p99_wait_us", round3(p.sim.wait.p99_ns / 1000.0))
                .set("engine_p99_wait_us", round3(p.engine.wait.p99_ns / 1000.0))
                .set("deviation_pct", round3(p.deviation_pct()))
                .set("engine_utilization", round3(p.engine.utilization))
        })
        .collect();
    let witness = pts.last().map_or(0, |p| p.engine.checksum);
    Json::obj()
        .set("bench", "cdpu serving engine")
        .set("scale", scale_json(scale))
        .set("shards", opts.shards)
        .set(
            "batch",
            Json::obj()
                .set("small_bytes", opts.batch_bytes)
                .set("max_jobs", opts.batch_max),
        )
        .set("closed_loop", loop_arr)
        .set("served_batch_speedup", round3(served_figures::batch_speedup(&off, &on)))
        .set(
            "served_drr_fairness_speedup",
            round3(served_figures::small_tenant_drr_speedup(&fair)),
        )
        .set("work_checksum", format!("{witness:#018x}"))
}

/// `--served`: the full serving-engine benchmark document — the gated
/// deterministic ratios plus this host's measured-timing and saturation
/// numbers (informational; raw throughput is never gated).
fn run_served(scale: Scale, opts: &ServedOpts) -> String {
    const TAG_MEASURED: u64 = 0x5352_5644_4604;
    eprintln!(
        "bench: served engine ({} calls/run, {} shards)...",
        served_figures::served_calls(scale),
        opts.shards
    );
    let wl = served_figures::workload(scale);
    let mut doc = served_work_doc(scale, opts, &wl);

    // Measured timing: the fleet mix under the default admission policy
    // (burn-rate shedding live), virtual service times from this host's
    // real wall-clock kernel execution.
    let mut cfg = EngineConfig::new(fleet_tenants(4));
    cfg.seed = mix64(scale.seed ^ TAG_MEASURED);
    cfg.shards = opts.shards;
    cfg.batch = opts.batch_policy();
    cfg.total_calls = served_figures::served_calls(scale);
    cfg.offered_load = 0.7;
    cfg.timing = Timing::Measured;
    let m = engine::run(&cfg, &wl);
    eprintln!(
        "  measured: p99 wait {:.1} us  util {:.3}  goodput {:.2} GB/s  shed {}",
        m.wait.p99_ns / 1000.0,
        m.utilization,
        m.goodput_gbps,
        m.shed
    );

    // Saturation: every call through the pool at full concurrency,
    // batching off vs on (wall-clock, so host-dependent).
    let calls = engine::materialize_calls(&cfg, &wl);
    let sat = |batch: BatchPolicy| {
        let (bytes, secs) = engine::saturation_run(&wl, &calls, opts.shards as usize, batch);
        bytes as f64 / secs.max(1e-9) / 1e6
    };
    let (sat_off, sat_on) = (sat(BatchPolicy::off()), sat(opts.batch_policy()));
    eprintln!("  saturation: {sat_off:.1} MB/s unbatched, {sat_on:.1} MB/s batched");

    doc = doc.set(
        "measured",
        Json::obj()
            .set(
                "engine",
                Json::obj()
                    .set("offered_load", cfg.offered_load)
                    .set("p99_wait_us", round3(m.wait.p99_ns / 1000.0))
                    .set("utilization", round3(m.utilization))
                    .set("goodput_gbps", round3(m.goodput_gbps))
                    .set("mean_batch", round3(m.mean_batch))
                    .set("completed", m.completed)
                    .set("shed", m.shed),
            )
            .set(
                "saturation",
                Json::obj()
                    .set("mb_s_unbatched", round3(sat_off))
                    .set("mb_s_batched", round3(sat_on))
                    .set("batch_ratio", round3(sat_on / sat_off.max(1e-9))),
            ),
    );
    json::render_pretty(&doc)
}

fn run_kernels(scale: Scale, iters: usize) -> String {
    use cdpu_lz77::reference;
    use cdpu_zstd::SearchParams;

    let wb = Workbench::new(scale);
    let snappy_suite = wb.snappy_c();
    let zstd_suite = wb.zstd_c();
    let snappy_corpus: Vec<&[u8]> =
        snappy_suite.files.iter().map(|f| f.data.as_slice()).collect();
    let heavy_corpus: Vec<&[u8]> = zstd_suite.files.iter().map(|f| f.data.as_slice()).collect();
    let scfg = MatcherConfig::snappy_sw();
    let zcfg = cdpu_zstd::ZstdConfig::default(); // level 3, the fleet's mode
    let fcfg = cdpu_flate::FlateConfig::default(); // level 6, zlib's default
    let zstd_ref_parse = move |d: &[u8]| match zcfg.search_params() {
        SearchParams::Greedy(m) => reference::hash_table_parse(&m, d),
        SearchParams::Chain(c) => reference::hash_chain_parse(&c, d),
    };
    let flate_chain = fcfg.chain_config();

    type StageFn<'a> = Box<dyn FnMut(&[u8]) + 'a>;
    struct Algo<'a> {
        name: &'static str,
        corpus: &'a [&'a [u8]],
        parse: StageFn<'a>,
        parse_reference: StageFn<'a>,
        compress: StageFn<'a>,
        profile: StageFn<'a>,
        baseline_profile: StageFn<'a>,
    }
    let mut algos = [
        Algo {
            name: "snappy",
            corpus: &snappy_corpus,
            parse: Box::new(|d| {
                black_box(cdpu_snappy::parse_with(d, &scfg));
            }),
            parse_reference: Box::new(|d| {
                black_box(reference::hash_table_parse(&scfg, d));
            }),
            compress: Box::new(|d| {
                black_box(cdpu_snappy::compress_with(d, &scfg));
            }),
            profile: Box::new(|d| {
                black_box(profile_snappy(d));
            }),
            baseline_profile: Box::new(|d| {
                black_box(reference::hash_table_parse(&scfg, d));
                let p = reference::hash_table_parse(&scfg, d);
                black_box(cdpu_snappy::compress_parse(d, &p));
            }),
        },
        Algo {
            name: "zstd-l3",
            corpus: &heavy_corpus,
            parse: Box::new(|d| {
                black_box(cdpu_zstd::parse_with(d, &zcfg));
            }),
            parse_reference: Box::new(move |d| {
                black_box(zstd_ref_parse(d));
            }),
            compress: Box::new(|d| {
                black_box(cdpu_zstd::compress_with(d, &zcfg));
            }),
            profile: Box::new(|d| {
                black_box(profile_zstd(d, 3, None));
            }),
            baseline_profile: Box::new(move |d| {
                black_box(zstd_ref_parse(d));
                let p = zstd_ref_parse(d);
                black_box(cdpu_zstd::compress_parse_with_stats(d, &p, &zcfg));
            }),
        },
        Algo {
            name: "flate-l6",
            corpus: &heavy_corpus,
            parse: Box::new(|d| {
                black_box(cdpu_flate::parse_with(d, &fcfg));
            }),
            parse_reference: Box::new(move |d| {
                black_box(reference::hash_chain_parse(&flate_chain, d));
            }),
            compress: Box::new(|d| {
                black_box(cdpu_flate::compress_with(d, &fcfg));
            }),
            profile: Box::new(|d| {
                black_box(profile_flate(d, 6));
            }),
            baseline_profile: Box::new(move |d| {
                black_box(reference::hash_chain_parse(&flate_chain, d));
                let p = reference::hash_chain_parse(&flate_chain, d);
                black_box(cdpu_flate::compress_parse(d, &p, &fcfg));
            }),
        },
    ];

    let mut algo_objs = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for algo in &mut algos {
        let bytes: usize = algo.corpus.iter().map(|d| d.len()).sum();
        eprintln!("bench: kernels {} ({} files, {bytes} bytes)...", algo.name, algo.corpus.len());
        let (_, parse_mb_s) = time_stage(algo.corpus, iters, &mut algo.parse);
        let (_, ref_mb_s) = time_stage(algo.corpus, iters, &mut algo.parse_reference);
        let (_, compress_mb_s) = time_stage(algo.corpus, iters, &mut algo.compress);
        let (profile_s, profile_mb_s) = time_stage(algo.corpus, iters, &mut algo.profile);
        let (baseline_s, baseline_mb_s) = time_stage(algo.corpus, iters, &mut algo.baseline_profile);
        let parse_speedup = parse_mb_s / ref_mb_s;
        let speedup = baseline_s / profile_s;
        min_speedup = min_speedup.min(speedup);
        eprintln!(
            "  parse {parse_mb_s:>8.1} MB/s (reference {ref_mb_s:.1}, {parse_speedup:.2}x)  \
             compress {compress_mb_s:>8.1} MB/s  profile {profile_mb_s:>8.1} MB/s  \
             baseline {baseline_mb_s:>8.1} MB/s  profile speedup {speedup:.2}x"
        );
        algo_objs.push(format!(
            "    {{\"name\": \"{}\", \"corpus_files\": {}, \"corpus_bytes\": {bytes}, \
             \"parse_mb_s\": {parse_mb_s:.2}, \"parse_reference_mb_s\": {ref_mb_s:.2}, \
             \"parse_speedup\": {parse_speedup:.3}, \"compress_mb_s\": {compress_mb_s:.2}, \
             \"profile_mb_s\": {profile_mb_s:.2}, \"baseline_profile_mb_s\": {baseline_mb_s:.2}, \
             \"profile_speedup\": {speedup:.3}}}",
            algo.name,
            algo.corpus.len(),
        ));
    }

    // One instrumented profiling pass per algorithm: scratch-reuse and
    // probe counters for the run (timings above are with telemetry off,
    // matching production).
    cdpu_telemetry::reset();
    cdpu_telemetry::enable();
    for algo in &mut algos {
        for d in algo.corpus {
            (algo.profile)(d);
        }
    }
    cdpu_telemetry::disable();
    let counters = counters_json();

    // Encode-side entropy kernels over the same L3 literal payloads the
    // decode bench uses: raw MB/s only (encoder throughput is informative
    // but host-dependent, so it is never gated).
    use cdpu_entropy::{interleave, rans};
    let payloads = entropy_literal_payloads(&heavy_corpus, &zcfg);
    let preps = entropy_preps(&payloads);
    let ebytes: usize = preps.iter().map(|p| p.count).sum();
    eprintln!("bench: kernels entropy encode ({} payloads, {ebytes} bytes)...", preps.len());
    let emb = |best: f64| ebytes as f64 / best / 1e6;
    let he1_s = best_of(iters, || {
        for (p, lits) in preps.iter().zip(&payloads) {
            black_box(interleave::huffman_encode(&p.table, lits, 1).expect("huffman 1-way"));
        }
    });
    let he4_s = best_of(iters, || {
        for (p, lits) in preps.iter().zip(&payloads) {
            black_box(interleave::huffman_encode(&p.table, lits, 4).expect("huffman 4-way"));
        }
    });
    let fe4_s = best_of(iters, || {
        for (p, lits) in preps.iter().zip(&payloads) {
            let syms: Vec<u16> = lits.iter().map(|&b| b as u16).collect();
            black_box(interleave::fse_encode(&syms, &p.norm, p.log, 4).expect("fse 4-way"));
        }
    });
    let re1_s = best_of(iters, || {
        for (p, lits) in preps.iter().zip(&payloads) {
            black_box(rans::encode(&p.rtab, lits, 1).expect("rans 1-way"));
        }
    });
    let re4_s = best_of(iters, || {
        for (p, lits) in preps.iter().zip(&payloads) {
            black_box(rans::encode(&p.rtab, lits, 4).expect("rans 4-way"));
        }
    });
    eprintln!(
        "  huffman encode {:.1}/{:.1} MB/s (1/4-way)  fse encode {:.1} MB/s (4-way)  \
         rans encode {:.1}/{:.1} MB/s (1/4-way)",
        emb(he1_s), emb(he4_s), emb(fe4_s), emb(re1_s), emb(re4_s)
    );
    let entropy_obj = format!(
        "  \"entropy_encode\": {{\"payloads\": {}, \"payload_bytes\": {ebytes}, \
         \"huffman_1way_mb_s\": {:.2}, \"huffman_4way_mb_s\": {:.2}, \
         \"fse_4way_mb_s\": {:.2}, \"rans_1way_mb_s\": {:.2}, \"rans_4way_mb_s\": {:.2}}},",
        preps.len(),
        emb(he1_s),
        emb(he4_s),
        emb(fe4_s),
        emb(re1_s),
        emb(re4_s),
    );

    // LZ4-class compress kernel (the decode-side speedup gate lives in
    // the dekernel document) plus the modeled chunked-compress lane
    // speedup — the compress-direction twin of `chunked_decode_speedup`.
    let (_, lz4_mb_s) = time_stage(&snappy_corpus, iters, |d| {
        black_box(cdpu_lite::lz4::compress(d));
    });
    let lz4_bytes: usize = snappy_corpus.iter().map(|d| d.len()).sum();
    let lz4_cbytes: usize = snappy_corpus.iter().map(|d| cdpu_lite::lz4::compress(d).len()).sum();
    let lz4_ratio = lz4_bytes as f64 / lz4_cbytes as f64;
    let mc = modeled_chunked(Direction::Compress);
    eprintln!(
        "bench: kernels lz4-class compress {lz4_mb_s:.1} MB/s (ratio {lz4_ratio:.3})  \
         chunked compress modeled {:.2}x at {} lanes",
        mc.speedup(),
        mc.workers
    );
    let lz4_obj = format!(
        "  \"lz4_class\": {{\"corpus_files\": {}, \"corpus_bytes\": {lz4_bytes}, \
         \"compressed_bytes\": {lz4_cbytes}, \"compress_mb_s\": {lz4_mb_s:.2}, \
         \"ratio\": {lz4_ratio:.3}}},\n  \
         \"chunked_compress_speedup\": {:.3},",
        snappy_corpus.len(),
        mc.speedup(),
    );

    let json = format!(
        "{{\n  \"bench\": \"cdpu kernel microbenchmarks\",\n  \"iters\": {iters},\n  \
         \"scale\": {},\n  \
         \"algorithms\": [\n{}\n  ],\n  \"min_profile_speedup\": {min_speedup:.3},\n{}\n{}\n  \
         \"profile_telemetry\": {}\n}}\n",
        json::render(&scale_json(scale)),
        algo_objs.join(",\n"),
        entropy_obj,
        lz4_obj,
        json::render(&counters),
    );
    eprintln!("bench: kernels done (min profile speedup {min_speedup:.2}x)");
    json
}

/// Microbenchmarks the per-algorithm decompression kernels against the
/// retained seed decoders.
///
/// Every corpus is compressed once up front; the timed loops then decode
/// the same streams three ways: `decompress` (fresh `Vec` per call),
/// `decompress_into` (one persistent `DecoderScratch` across the whole
/// corpus, the serving-tier shape), and the crate's `reference` decoder —
/// the seed implementation kept verbatim as the equivalence oracle
/// (per-symbol entropy decode, byte-at-a-time LZ copies,
/// allocate-per-call). `decompress_speedup` is the reference decoder's
/// best wall-clock over the fast `decompress`'s. MB/s is computed over
/// decompressed bytes — the figure that matters for a decompression
/// engine — while `compressed_bytes` records what the timed loops
/// actually read.
fn run_dekernels(scale: Scale, iters: usize) -> String {
    use cdpu_lz77::window::DecoderScratch;

    let wb = Workbench::new(scale);
    let snappy_suite = wb.snappy_c();
    let zstd_suite = wb.zstd_c();
    let light: Vec<&[u8]> = snappy_suite.files.iter().map(|f| f.data.as_slice()).collect();
    let heavy: Vec<&[u8]> = zstd_suite.files.iter().map(|f| f.data.as_slice()).collect();
    let zcfg = cdpu_zstd::ZstdConfig::default(); // level 3, the fleet's mode
    let fcfg = cdpu_flate::FlateConfig::default(); // level 6, zlib's default

    let compress_all = |corpus: &[&[u8]], f: &dyn Fn(&[u8]) -> Vec<u8>| -> Vec<Vec<u8>> {
        corpus.iter().map(|d| f(d)).collect()
    };
    let snappy_streams = compress_all(&light, &cdpu_snappy::compress);
    let zstd_streams = compress_all(&heavy, &|d| cdpu_zstd::compress_with(d, &zcfg));
    let flate_streams = compress_all(&heavy, &|d| cdpu_flate::compress_with(d, &fcfg));
    let lzo_streams = compress_all(&light, &cdpu_lite::lzo::compress);
    let gipfeli_streams = compress_all(&light, &cdpu_lite::gipfeli::compress);
    let lz4_streams = compress_all(&light, &cdpu_lite::lz4::compress);

    type StageFn<'a> = Box<dyn FnMut(&[u8]) + 'a>;
    struct Algo<'a> {
        name: &'static str,
        streams: &'a [Vec<u8>],
        uncompressed_bytes: usize,
        decompress: StageFn<'a>,
        decompress_into: StageFn<'a>,
        reference: StageFn<'a>,
    }
    let light_bytes: usize = light.iter().map(|d| d.len()).sum();
    let heavy_bytes: usize = heavy.iter().map(|d| d.len()).sum();
    let mut snappy_scratch = DecoderScratch::new();
    let mut zstd_scratch = DecoderScratch::new();
    let mut flate_scratch = DecoderScratch::new();
    let mut lzo_scratch = DecoderScratch::new();
    let mut gipfeli_scratch = DecoderScratch::new();
    let mut lz4_scratch = DecoderScratch::new();
    let mut algos = [
        Algo {
            name: "snappy",
            streams: &snappy_streams,
            uncompressed_bytes: light_bytes,
            decompress: Box::new(|s| {
                black_box(cdpu_snappy::decompress(s).expect("roundtrip"));
            }),
            decompress_into: Box::new(move |s| {
                black_box(
                    cdpu_snappy::decompress_into(s, &mut snappy_scratch)
                        .expect("roundtrip")
                        .len(),
                );
            }),
            reference: Box::new(|s| {
                black_box(cdpu_snappy::reference::decompress(s).expect("roundtrip"));
            }),
        },
        Algo {
            name: "zstd-l3",
            streams: &zstd_streams,
            uncompressed_bytes: heavy_bytes,
            decompress: Box::new(|s| {
                black_box(cdpu_zstd::decompress(s).expect("roundtrip"));
            }),
            decompress_into: Box::new(move |s| {
                black_box(
                    cdpu_zstd::decompress_into(s, &mut zstd_scratch)
                        .expect("roundtrip")
                        .len(),
                );
            }),
            reference: Box::new(|s| {
                black_box(cdpu_zstd::reference::decompress(s).expect("roundtrip"));
            }),
        },
        Algo {
            name: "flate-l6",
            streams: &flate_streams,
            uncompressed_bytes: heavy_bytes,
            decompress: Box::new(|s| {
                black_box(cdpu_flate::decompress(s).expect("roundtrip"));
            }),
            decompress_into: Box::new(move |s| {
                black_box(
                    cdpu_flate::decompress_into(s, &mut flate_scratch)
                        .expect("roundtrip")
                        .len(),
                );
            }),
            reference: Box::new(|s| {
                black_box(cdpu_flate::reference::decompress(s).expect("roundtrip"));
            }),
        },
        Algo {
            name: "lzo-class",
            streams: &lzo_streams,
            uncompressed_bytes: light_bytes,
            decompress: Box::new(|s| {
                black_box(cdpu_lite::lzo::decompress(s).expect("roundtrip"));
            }),
            decompress_into: Box::new(move |s| {
                black_box(
                    cdpu_lite::lzo::decompress_into(s, &mut lzo_scratch)
                        .expect("roundtrip")
                        .len(),
                );
            }),
            reference: Box::new(|s| {
                black_box(cdpu_lite::reference::lzo::decompress(s).expect("roundtrip"));
            }),
        },
        Algo {
            name: "gipfeli-class",
            streams: &gipfeli_streams,
            uncompressed_bytes: light_bytes,
            decompress: Box::new(|s| {
                black_box(cdpu_lite::gipfeli::decompress(s).expect("roundtrip"));
            }),
            decompress_into: Box::new(move |s| {
                black_box(
                    cdpu_lite::gipfeli::decompress_into(s, &mut gipfeli_scratch)
                        .expect("roundtrip")
                        .len(),
                );
            }),
            reference: Box::new(|s| {
                black_box(cdpu_lite::reference::gipfeli::decompress(s).expect("roundtrip"));
            }),
        },
        Algo {
            name: "lz4-class",
            streams: &lz4_streams,
            uncompressed_bytes: light_bytes,
            decompress: Box::new(|s| {
                black_box(cdpu_lite::lz4::decompress(s).expect("roundtrip"));
            }),
            decompress_into: Box::new(move |s| {
                black_box(
                    cdpu_lite::lz4::decompress_into(s, &mut lz4_scratch)
                        .expect("roundtrip")
                        .len(),
                );
            }),
            reference: Box::new(|s| {
                black_box(cdpu_lite::reference::lz4::decompress(s).expect("roundtrip"));
            }),
        },
    ];

    let mut algo_objs = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for algo in &mut algos {
        let streams: Vec<&[u8]> = algo.streams.iter().map(Vec::as_slice).collect();
        let cbytes: usize = streams.iter().map(|s| s.len()).sum();
        let ubytes = algo.uncompressed_bytes;
        eprintln!(
            "bench: dekernels {} ({} streams, {cbytes} -> {ubytes} bytes)...",
            algo.name,
            streams.len()
        );
        // time_stage reports MB/s over the corpus it iterates — compressed
        // bytes here — so recompute throughput over decompressed output.
        let mb = |best: f64| ubytes as f64 / best / 1e6;
        let (fast_s, _) = time_stage(&streams, iters, &mut algo.decompress);
        let (into_s, _) = time_stage(&streams, iters, &mut algo.decompress_into);
        let (ref_s, _) = time_stage(&streams, iters, &mut algo.reference);
        let (fast_mb_s, into_mb_s, ref_mb_s) = (mb(fast_s), mb(into_s), mb(ref_s));
        let speedup = ref_s / fast_s;
        min_speedup = min_speedup.min(speedup);
        eprintln!(
            "  decompress {fast_mb_s:>8.1} MB/s  into {into_mb_s:>8.1} MB/s  \
             reference {ref_mb_s:>8.1} MB/s  speedup {speedup:.2}x"
        );
        algo_objs.push(format!(
            "    {{\"name\": \"{}\", \"streams\": {}, \"compressed_bytes\": {cbytes}, \
             \"uncompressed_bytes\": {ubytes}, \"decompress_mb_s\": {fast_mb_s:.2}, \
             \"decompress_into_mb_s\": {into_mb_s:.2}, \"reference_mb_s\": {ref_mb_s:.2}, \
             \"decompress_speedup\": {speedup:.3}}}",
            algo.name,
            streams.len(),
        ));
    }

    // One instrumented decode pass per algorithm through the scratch-reuse
    // entry point: refill, wild-copy and scratch counters for the run
    // (timings above are with telemetry off, matching production).
    cdpu_telemetry::reset();
    cdpu_telemetry::enable();
    for algo in &mut algos {
        for s in algo.streams {
            (algo.decompress_into)(s);
        }
    }
    cdpu_telemetry::disable();
    let counters = counters_json();

    // Standalone entropy-stage decode kernels: 1-way vs 4-way interleaved
    // Huffman / FSE / rANS over the heavy corpus's actual ZStd L3 literal
    // payloads. The interleave speedups isolate the serial-dependency win
    // of K independent streams from everything else in frame decode.
    use cdpu_entropy::{interleave, rans};
    let payloads = entropy_literal_payloads(&heavy, &zcfg);
    let preps = entropy_preps(&payloads);
    let ebytes: usize = preps.iter().map(|p| p.count).sum();
    eprintln!("bench: dekernels entropy ({} payloads, {ebytes} bytes)...", preps.len());
    let emb = |best: f64| ebytes as f64 / best / 1e6;
    let mut out = Vec::new();
    let h1_s = best_of(iters, || {
        for p in &preps {
            out.clear();
            interleave::huffman_decode_into(&p.table, &p.h1.payload, &p.h1.bit_lens, p.count, &mut out)
                .expect("huffman 1-way");
            black_box(out.len());
        }
    });
    let h4_s = best_of(iters, || {
        for p in &preps {
            out.clear();
            interleave::huffman_decode_into(&p.table, &p.h4.payload, &p.h4.bit_lens, p.count, &mut out)
                .expect("huffman 4-way");
            black_box(out.len());
        }
    });
    let f1_s = best_of(iters, || {
        for p in &preps {
            let views: Vec<&[u8]> = p.f1.iter().map(Vec::as_slice).collect();
            black_box(
                interleave::fse_decode(&views, &p.norm, p.log, p.count).expect("fse 1-way").len(),
            );
        }
    });
    let f4_s = best_of(iters, || {
        for p in &preps {
            let views: Vec<&[u8]> = p.f4.iter().map(Vec::as_slice).collect();
            black_box(
                interleave::fse_decode(&views, &p.norm, p.log, p.count).expect("fse 4-way").len(),
            );
        }
    });
    let r1_s = best_of(iters, || {
        for p in &preps {
            out.clear();
            rans::decode_into(&p.rtab, &p.r1, p.count, 1, &mut out).expect("rans 1-way");
            black_box(out.len());
        }
    });
    let r4_s = best_of(iters, || {
        for p in &preps {
            out.clear();
            rans::decode_into(&p.rtab, &p.r4, p.count, 4, &mut out).expect("rans 4-way");
            black_box(out.len());
        }
    });
    let (huff_speedup, fse_speedup, rans_speedup) = (h1_s / h4_s, f1_s / f4_s, r1_s / r4_s);
    // The headline: the zstd literal entropy-decode stage (Huffman) 4-way
    // vs single-stream.
    let interleave_speedup = huff_speedup;
    eprintln!(
        "  huffman {:.1} -> {:.1} MB/s ({huff_speedup:.2}x)  fse {:.1} -> {:.1} MB/s ({fse_speedup:.2}x)  \
         rans {:.1} -> {:.1} MB/s ({rans_speedup:.2}x)",
        emb(h1_s), emb(h4_s), emb(f1_s), emb(f4_s), emb(r1_s), emb(r4_s)
    );
    let entropy_obj = format!(
        "  \"entropy\": {{\"payloads\": {}, \"payload_bytes\": {ebytes}, \
         \"huffman_1way_mb_s\": {:.2}, \"huffman_4way_mb_s\": {:.2}, \
         \"fse_1way_mb_s\": {:.2}, \"fse_4way_mb_s\": {:.2}, \
         \"rans_1way_mb_s\": {:.2}, \"rans_4way_mb_s\": {:.2}}},\n  \
         \"entropy_huffman_interleave_speedup\": {huff_speedup:.3},\n  \
         \"entropy_fse_interleave_speedup\": {fse_speedup:.3},\n  \
         \"entropy_rans_interleave_speedup\": {rans_speedup:.3},\n  \
         \"entropy_interleave_speedup\": {interleave_speedup:.3},",
        preps.len(),
        emb(h1_s),
        emb(h4_s),
        emb(f1_s),
        emb(f4_s),
        emb(r1_s),
        emb(r4_s),
    );

    // Chunked-frame decode: the gated ratio is the hwsim-modeled lane
    // speedup (see `modeled_chunked`); the wall-clock serial and pool
    // frame decodes plus the 64 KiB ratio tax are informational context
    // for this host.
    let payload = chunked_payload();
    let plain = cdpu_lite::lz4::compress(&payload);
    let framed = cdpu_serve::chunk::compress_frame_lz4(&payload, 64 * 1024);
    eprintln!(
        "bench: dekernels chunked lz4 frame ({} -> {} bytes, 64 KiB chunks)...",
        payload.len(),
        framed.len()
    );
    let ser_s = best_of(iters, || {
        black_box(
            cdpu_serve::chunk::decompress_frame_lz4_serial(&framed)
                .expect("own frame decodes")
                .len(),
        );
    });
    let par_s = best_of(iters, || {
        black_box(
            cdpu_serve::chunk::decompress_frame_lz4(&framed)
                .expect("own frame decodes")
                .len(),
        );
    });
    let m = modeled_chunked(Direction::Decompress);
    let ratio_loss_pct = (framed.len() as f64 - plain.len() as f64) / plain.len() as f64 * 100.0;
    let pmb = |best: f64| payload.len() as f64 / best / 1e6;
    eprintln!(
        "  serial {:.1} MB/s  pool {:.1} MB/s  ratio loss {ratio_loss_pct:.2}%  \
         modeled {:.2}x at {} lanes",
        pmb(ser_s),
        pmb(par_s),
        m.speedup(),
        m.workers
    );
    let chunked_obj = format!(
        "  \"chunked\": {{\"payload_bytes\": {}, \"chunk_bytes\": 65536, \"workers\": {}, \
         \"chunks\": {}, \"plain_bytes\": {}, \"frame_bytes\": {}, \
         \"ratio_loss_pct\": {ratio_loss_pct:.2}, \"serial_mb_s\": {:.2}, \"pool_mb_s\": {:.2}, \
         \"modeled_serial_cycles\": {}, \"modeled_chunked_cycles\": {}}},\n  \
         \"chunked_decode_speedup\": {:.3},",
        payload.len(),
        m.workers,
        m.chunks,
        plain.len(),
        framed.len(),
        pmb(ser_s),
        pmb(par_s),
        m.serial_cycles,
        m.chunked_cycles,
        m.speedup(),
    );

    let json = format!(
        "{{\n  \"bench\": \"cdpu decompression kernel microbenchmarks\",\n  \"iters\": {iters},\n  \
         \"scale\": {},\n  \
         \"algorithms\": [\n{}\n  ],\n  \"min_decompress_speedup\": {min_speedup:.3},\n{}\n{}\n  \
         \"decode_telemetry\": {}\n}}\n",
        json::render(&scale_json(scale)),
        algo_objs.join(",\n"),
        entropy_obj,
        chunked_obj,
        json::render(&counters),
    );
    eprintln!(
        "bench: dekernels done (min decompress speedup {min_speedup:.2}x, \
         entropy interleave {interleave_speedup:.2}x)"
    );
    json
}

/// hwsim-modeled stage-overlap execution of a 4 MiB call streamed in
/// 128 KiB blocks, per pipeline class and direction. Pure functions of
/// the stage model — deterministic and host-independent — so the gated
/// `streaming_pipeline_speedup` built on their minimum regresses only
/// when the pipeline model changes, never from host noise.
fn modeled_streaming() -> Vec<(&'static str, Direction, cdpu_hwsim::pipeline::PipelineCycles)> {
    use cdpu_fleet::{AlgoOp, Algorithm};
    let mut out = Vec::new();
    for (name, algo, level) in [
        ("snappy-class", Algorithm::Snappy, None),
        ("zstd-class", Algorithm::Zstd, Some(3)),
        ("flate-class", Algorithm::Flate, Some(6)),
    ] {
        for dir in [Direction::Compress, Direction::Decompress] {
            let call = cdpu_fleet::CallRecord {
                op: AlgoOp::new(algo, dir),
                uncompressed_bytes: 4 << 20,
                level,
                window_log: None,
                caller: "bench-streaming",
            };
            let m = cdpu_hwsim::pipeline::pipelined_cycles(
                &call,
                128 * 1024,
                &cdpu_hwsim::params::CdpuParams::default(),
                &MemParams::default(),
            );
            out.push((name, dir, m));
        }
    }
    out
}

/// Drives one codec's streaming encoder and decoder over `payload` at a
/// 64 KiB feed and returns `(encode_peak, decode_peak, compressed_len)`
/// — the peak scratch footprints the drive helpers report. Asserts the
/// roundtrip is identity, so the scratch numbers always describe a
/// *correct* streaming execution.
fn scratch_probe(
    payload: &[u8],
    mut enc: impl cdpu_util::stream::StreamEncoder,
    mut dec: impl cdpu_util::stream::StreamDecoder,
) -> (usize, usize, usize) {
    const CHUNK: usize = 64 * 1024;
    let mut stream = Vec::new();
    let ep = cdpu_util::stream::drive_encoder(&mut enc, payload, CHUNK, &mut stream)
        .expect("encoder driven within its contract");
    let mut out = Vec::new();
    let dp = cdpu_util::stream::drive_decoder(&mut dec, &stream, CHUNK, &mut out)
        .expect("own stream decodes");
    assert_eq!(out, payload, "streaming roundtrip must be identity");
    (ep, dp, stream.len())
}

/// `--streaming`: the streaming-core benchmark. The gated
/// `streaming_pipeline_speedup` is the *minimum* hwsim-modeled
/// stage-overlap ratio across the three pipeline classes and both
/// directions (see [`modeled_streaming`]). Wall-clock pipelined-vs-serial
/// throughput for the real ZStd/Flate stage pipelines and the per-codec
/// peak streaming scratch (`stream_scratch_peak_bytes`) ride along as
/// informational context — raw MB/s and host-dependent thread overlap
/// are never gated.
fn run_streaming(scale: Scale, iters: usize) -> String {
    let payload = chunked_payload();

    // Modeled stage overlap: the gated, host-independent half.
    let modeled = modeled_streaming();
    let min_speedup = modeled
        .iter()
        .map(|(_, _, m)| m.speedup())
        .fold(f64::INFINITY, f64::min);
    let modeled_rows: Vec<String> = modeled
        .iter()
        .map(|(name, dir, m)| {
            let d = match dir {
                Direction::Compress => "compress",
                Direction::Decompress => "decompress",
            };
            format!(
                "    {{\"name\": \"{name}\", \"dir\": \"{d}\", \"blocks\": {}, \
                 \"serial_cycles\": {}, \"pipelined_cycles\": {}, \"speedup\": {:.3}}}",
                m.blocks,
                m.serial_cycles,
                m.pipelined_cycles,
                m.speedup(),
            )
        })
        .collect();
    eprintln!(
        "bench: streaming modeled stage overlap (4 MiB / 128 KiB blocks) min {min_speedup:.2}x"
    );

    // Wall-clock: the real single-call stage pipelines vs the serial
    // one-shot kernels on this host, bit-identity asserted first.
    let zcfg = cdpu_zstd::ZstdConfig::default();
    let fcfg = cdpu_flate::FlateConfig::default();
    let z_frame = cdpu_zstd::compress_with(&payload, &zcfg);
    let f_frame = cdpu_flate::compress_with(&payload, &fcfg);
    assert_eq!(
        cdpu_zstd::stream::compress_pipelined(&payload, &zcfg),
        z_frame,
        "pipelined zstd compress must be bit-identical to serial"
    );
    assert_eq!(
        cdpu_flate::stream::compress_pipelined(&payload, &fcfg),
        f_frame,
        "pipelined flate compress must be bit-identical to serial"
    );
    let mb = |best: f64| payload.len() as f64 / best / 1e6;
    let mut wall_rows = Vec::new();
    for (name, cs, cp, ds, dp) in [
        (
            "zstd-l3",
            best_of(iters, || {
                black_box(cdpu_zstd::compress_with(&payload, &zcfg).len());
            }),
            best_of(iters, || {
                black_box(cdpu_zstd::stream::compress_pipelined(&payload, &zcfg).len());
            }),
            best_of(iters, || {
                black_box(cdpu_zstd::decompress(&z_frame).expect("own frame").len());
            }),
            best_of(iters, || {
                black_box(cdpu_zstd::stream::decompress_pipelined(&z_frame).expect("own frame").len());
            }),
        ),
        (
            "flate-l6",
            best_of(iters, || {
                black_box(cdpu_flate::compress_with(&payload, &fcfg).len());
            }),
            best_of(iters, || {
                black_box(cdpu_flate::stream::compress_pipelined(&payload, &fcfg).len());
            }),
            best_of(iters, || {
                black_box(cdpu_flate::decompress(&f_frame).expect("own frame").len());
            }),
            best_of(iters, || {
                black_box(cdpu_flate::stream::decompress_pipelined(&f_frame).expect("own frame").len());
            }),
        ),
    ] {
        eprintln!(
            "bench: streaming {name} compress {:.1} -> {:.1} MB/s  decompress {:.1} -> {:.1} MB/s \
             (serial -> pipelined)",
            mb(cs),
            mb(cp),
            mb(ds),
            mb(dp)
        );
        wall_rows.push(format!(
            "    {{\"name\": \"{name}\", \"compress_serial_mb_s\": {:.2}, \
             \"compress_pipelined_mb_s\": {:.2}, \"decompress_serial_mb_s\": {:.2}, \
             \"decompress_pipelined_mb_s\": {:.2}}}",
            mb(cs),
            mb(cp),
            mb(ds),
            mb(dp),
        ));
    }

    // Peak streaming scratch per codec: the bounded-memory figure of the
    // streaming core (encoder and decoder sides, 64 KiB feed).
    let scfg = MatcherConfig::snappy_sw();
    let probes = [
        (
            "snappy",
            scratch_probe(
                &payload,
                cdpu_snappy::stream::SnappyStreamEncoder::new(payload.len(), &scfg),
                cdpu_snappy::stream::SnappyStreamDecoder::new(),
            ),
        ),
        (
            "zstd-l3",
            scratch_probe(
                &payload,
                cdpu_zstd::stream::ZstdStreamEncoder::new(payload.len(), &zcfg),
                cdpu_zstd::stream::ZstdStreamDecoder::new(),
            ),
        ),
        (
            "flate-l6",
            scratch_probe(
                &payload,
                cdpu_flate::stream::FlateStreamEncoder::new(payload.len(), &fcfg),
                cdpu_flate::stream::FlateStreamDecoder::new(),
            ),
        ),
        (
            "lzo-class",
            scratch_probe(
                &payload,
                cdpu_lite::stream::LzoStreamEncoder::new(payload.len(), 3),
                cdpu_lite::stream::LzoStreamDecoder::new(),
            ),
        ),
        (
            "gipfeli-class",
            scratch_probe(
                &payload,
                cdpu_lite::stream::GipfeliStreamEncoder::new(payload.len()),
                cdpu_lite::stream::GipfeliStreamDecoder::new(),
            ),
        ),
        (
            "lz4-class",
            scratch_probe(
                &payload,
                cdpu_lite::stream::Lz4StreamEncoder::new(payload.len(), 3),
                cdpu_lite::stream::Lz4StreamDecoder::new(),
            ),
        ),
    ];
    let peak = probes
        .iter()
        .map(|(_, (e, d, _))| (*e).max(*d))
        .max()
        .unwrap_or(0);
    let scratch_rows: Vec<String> = probes
        .iter()
        .map(|(name, (e, d, c))| {
            format!(
                "    {{\"name\": \"{name}\", \"compressed_bytes\": {c}, \
                 \"encode_peak_bytes\": {e}, \"decode_peak_bytes\": {d}}}"
            )
        })
        .collect();
    eprintln!(
        "bench: streaming scratch peak {peak} bytes across {} codecs ({} byte payload)",
        probes.len(),
        payload.len()
    );

    format!(
        "{{\n  \"bench\": \"cdpu streaming pipeline\",\n  \"iters\": {iters},\n  \
         \"scale\": {},\n  \"payload_bytes\": {},\n  \"block_bytes\": 131072,\n  \
         \"modeled\": [\n{}\n  ],\n  \
         \"streaming_pipeline_speedup\": {min_speedup:.3},\n  \
         \"wall_clock\": [\n{}\n  ],\n  \
         \"scratch\": [\n{}\n  ],\n  \
         \"stream_scratch_peak_bytes\": {peak}\n}}\n",
        json::render(&scale_json(scale)),
        payload.len(),
        modeled_rows.join(",\n"),
        wall_rows.join(",\n"),
        scratch_rows.join(",\n"),
    )
}

/// CI smoke for the interleaved/rANS entropy formats: roundtrips every
/// backend and stream count on real corpus data, through both the
/// standalone kernels and full ZStd frames (fast and reference decoders).
/// Panics on any mismatch; prints one OK line on success.
fn run_entropy_smoke() {
    use cdpu_corpus::CorpusKind;
    use cdpu_entropy::{byte_histogram, huffman::HuffmanTable, interleave, rans};

    let data = cdpu_corpus::generate(CorpusKind::MarkovText, 30_000, 11);
    // Kernel level: rANS and interleaved Huffman across stream counts.
    let (rtab, _, _) = rans::table_for(&data).expect("rans table");
    for ways in [1usize, 2, 4, 8] {
        let stream = rans::encode(&rtab, &data, ways).expect("rans encode");
        assert_eq!(rans::decode(&rtab, &stream, data.len(), ways).expect("rans decode"), data);
        assert_eq!(
            rans::reference::decode(&rtab, &stream, data.len(), ways).expect("rans reference"),
            data
        );
    }
    let table = HuffmanTable::from_frequencies(&byte_histogram(&data)).expect("huffman table");
    for ways in [2usize, 4, 8] {
        let enc = interleave::huffman_encode(&table, &data, ways).expect("huffman encode");
        let mut out = Vec::new();
        interleave::huffman_decode_into(&table, &enc.payload, &enc.bit_lens, data.len(), &mut out)
            .expect("huffman decode");
        assert_eq!(out, data);
    }
    // Frame level: every entropy knob through compress -> fast + reference.
    for cfg in [
        cdpu_zstd::ZstdConfig::with_level(3).lit_streams(4),
        cdpu_zstd::ZstdConfig::with_level(3).rans_literals(),
        cdpu_zstd::ZstdConfig::with_level(3).rans_literals().lit_streams(4),
        cdpu_zstd::ZstdConfig::with_level(3).seq_streams(4),
        cdpu_zstd::ZstdConfig::with_level(3).lit_streams(4).seq_streams(4),
    ] {
        let frame = cdpu_zstd::compress_with(&data, &cfg);
        assert_eq!(cdpu_zstd::decompress(&frame).expect("fast decode"), data);
        assert_eq!(
            cdpu_zstd::reference::decompress(&frame).expect("reference decode"),
            data
        );
    }
    eprintln!("bench: entropy smoke OK (rans + interleaved kernels, zstd frames)");
}

/// The perf-regression gate: re-runs both microbenchmark families plus
/// the deterministic serving-engine ratios, compares every speedup ratio
/// against the committed baselines, writes the markdown report. Returns
/// whether the gate passed.
fn run_regress(
    scale: Scale,
    iters: usize,
    baseline_dir: &str,
    tolerance: f64,
    out: &str,
    opts: &ServedOpts,
) -> bool {
    // A missing baseline file is advisory, not fatal: the section still
    // runs against an empty baseline, so every current ratio reports as
    // "new" (never failing) instead of the gate erroring out in checkouts
    // that predate a given benchmark. Corrupt baselines stay fatal — a
    // file that exists but does not parse is a repo problem, not a
    // missing-history one. Each section records the baseline file its
    // ratios came from, so the report names the provenance.
    let load = |name: &str| -> (String, Json) {
        let path = format!("{baseline_dir}/{name}");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let doc = cdpu_util::json::parse(&text)
                    .unwrap_or_else(|e| panic!("regress: baseline {path} is not valid JSON: {e}"));
                (path, doc)
            }
            Err(e) => {
                eprintln!(
                    "regress: no baseline {path} ({e}); section is advisory \
                     (run the matching bench to create it)"
                );
                (format!("{path} (missing — section advisory)"), Json::obj())
            }
        }
    };
    let (kernels_path, kernels_base) = load("BENCH_kernels.json");
    let (dekernels_path, dekernels_base) = load("BENCH_dekernels.json");
    let (streaming_path, streaming_base) = load("BENCH_streaming.json");

    let kernels_cur = cdpu_util::json::parse(&run_kernels(scale, iters))
        .expect("kernel bench emits valid JSON");
    let dekernels_cur = cdpu_util::json::parse(&run_dekernels(scale, iters))
        .expect("dekernel bench emits valid JSON");
    let streaming_cur = cdpu_util::json::parse(&run_streaming(scale, iters))
        .expect("streaming bench emits valid JSON");

    let mut sections = vec![
        regress::Section {
            title: "Compression kernels",
            baseline_path: kernels_path,
            checks: regress::compare(&kernels_base, &kernels_cur, tolerance),
        },
        regress::Section {
            title: "Decompression kernels",
            baseline_path: dekernels_path,
            checks: regress::compare(&dekernels_base, &dekernels_cur, tolerance),
        },
        regress::Section {
            title: "Streaming pipeline",
            baseline_path: streaming_path,
            checks: regress::compare(&streaming_base, &streaming_cur, tolerance),
        },
    ];
    // Serving-engine gate: the work-timing ratios are deterministic at a
    // given scale, so they regress only when behavior changes, never from
    // host noise — but they are *experiments*, not per-call ratios, so a
    // different scale changes them legitimately; compare only when the
    // run's scale matches the baseline's. The baseline is also optional
    // so `--regress` keeps working in checkouts that predate
    // `bench --served`.
    let served_path = format!("{baseline_dir}/BENCH_served.json");
    match std::fs::read_to_string(&served_path) {
        Ok(text) => {
            let served_base = cdpu_util::json::parse(&text)
                .unwrap_or_else(|e| panic!("regress: baseline {served_path} is not valid JSON: {e}"));
            if served_base.get("scale") == Some(&scale_json(scale)) {
                let wl = served_figures::workload(scale);
                let served_cur = served_work_doc(scale, opts, &wl);
                sections.push(regress::Section {
                    title: "Serving engine",
                    baseline_path: served_path.clone(),
                    checks: regress::compare(&served_base, &served_cur, tolerance),
                });
            } else {
                eprintln!(
                    "regress: {served_path} was recorded at a different scale; \
                     skipping serving-engine section (deterministic ratios only \
                     reproduce at the baseline's scale)"
                );
            }
        }
        Err(_) => eprintln!(
            "regress: no {served_path}; skipping serving-engine section \
             (run `bench --served` to create the baseline)"
        ),
    }
    let pass = regress::all_pass(&sections);
    write_report(out, &regress::markdown_report(&sections, tolerance));
    for s in &sections {
        for c in s.checks.iter().filter(|c| !c.pass) {
            eprintln!(
                "regress: FAIL {} ({}): {} baseline {:?} current {:?}",
                s.title, s.baseline_path, c.name, c.baseline, c.current
            );
        }
    }
    eprintln!(
        "bench: wrote {out} ({})",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

fn main() {
    let mut scale = Scale {
        files_per_suite: 48,
        ..Scale::default()
    };
    let mut jobs = 0usize;
    let mut out: Option<String> = None;
    let mut served = false;
    let mut served_opts = ServedOpts::default();
    let mut kernels = false;
    let mut dekernels = false;
    let mut streaming = false;
    let mut regress_mode = false;
    let mut tolerance = 0.25f64;
    let mut baseline_dir = String::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--files" => {
                scale.files_per_suite = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--files needs a number"));
            }
            "--seed" => {
                scale.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--jobs needs a thread count"));
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| usage("--out needs a path")));
            }
            "--served" => served = true,
            "--shards" => {
                served_opts.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--shards needs a count"));
            }
            "--batch-bytes" => {
                served_opts.batch_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--batch-bytes needs a byte count"));
            }
            "--batch-max" => {
                served_opts.batch_max = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--batch-max needs a count"));
            }
            "--kernels" => kernels = true,
            "--dekernels" => dekernels = true,
            "--streaming" => streaming = true,
            "--regress" => regress_mode = true,
            "--entropy-smoke" => {
                run_entropy_smoke();
                return;
            }
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| (0.0..1.0).contains(t))
                    .unwrap_or_else(|| usage("--tolerance needs a fraction in [0, 1)"));
            }
            "--baseline-dir" => {
                baseline_dir = args
                    .next()
                    .unwrap_or_else(|| usage("--baseline-dir needs a path"));
            }
            "--tiny" => {
                let seed = scale.seed;
                scale = Scale::tiny();
                scale.seed = seed;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }

    // Same up-front knob validation as `figures` (shared checker).
    if let Err(e) = cli::validate((jobs > 0).then_some(jobs), &served_opts) {
        usage(&e);
    }

    let out = out.unwrap_or_else(|| {
        String::from(if regress_mode {
            "results/REGRESS.md"
        } else if kernels {
            "results/BENCH_kernels.json"
        } else if dekernels {
            "results/BENCH_dekernels.json"
        } else if streaming {
            "results/BENCH_streaming.json"
        } else {
            "results/BENCH_served.json"
        })
    });
    // Kernel microbenchmarks (and the regression gate built on them) are
    // single-threaded by design: they time the per-call code paths
    // (including thread-local scratch reuse), not the pool.
    let tiny = scale.files_per_suite <= Scale::tiny().files_per_suite;
    let iters = if tiny { 1 } else { 3 };
    if regress_mode {
        let pass = run_regress(scale, iters, &baseline_dir, tolerance, &out, &served_opts);
        if !pass && tiny {
            eprintln!(
                "regress: advisory only at tiny scale (corpus differs from the \
                 committed baseline's) — not failing"
            );
        } else if !pass {
            std::process::exit(1);
        }
        return;
    }
    if kernels || dekernels || streaming {
        if kernels {
            write_report(&out, &run_kernels(scale, iters));
        } else if dekernels {
            write_report(&out, &run_dekernels(scale, iters));
        } else {
            write_report(&out, &run_streaming(scale, iters));
        }
        eprintln!("bench: wrote {out}");
        return;
    }
    if !served {
        usage("no mode given");
    }
    // The engine manages its own shard threads; the pool only renders
    // the sim-vs-engine comparison points concurrently.
    if jobs > 0 {
        cdpu_par::set_threads(jobs);
    }
    write_report(&out, &run_served(scale, &served_opts));
    eprintln!("bench: wrote {out}");
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: bench (--served | --kernels | --dekernels | --streaming | --regress | --entropy-smoke)\n\
         \x20            [--files N] [--seed N] [--jobs N] [--out PATH] [--tiny]\n\
         \x20            [--shards N] [--batch-bytes N] [--batch-max N]\n\
         \x20            [--tolerance F] [--baseline-dir DIR]"
    );
    std::process::exit(2);
}
