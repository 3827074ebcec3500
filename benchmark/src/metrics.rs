//! The names this benchmark prints. `BENCHMARK.json` declares exactly
//! these (a unit test compares the two), and every later performance
//! claim in the repo names one metric and one workload from here.

/// `(name, unit, better)`.
pub type Decl = (&'static str, &'static str, &'static str);

/// The seven workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 7] = [
    "calls_small",
    "calls_large_light",
    "calls_large_heavy",
    "calls_giant",
    "serve_saturation",
    "serve_paced",
    "model_dse",
];

/// End-to-end metrics. Every workload prints every one of them (README,
/// "End-to-end metrics", says what each means on each workload). Failures
/// are not a metric: they are the `failed`/`attempted` counts of the result
/// line.
pub const END_TO_END: [Decl; 8] = [
    ("compress_mb_s", "MB/s", "higher"),
    ("decompress_mb_s", "MB/s", "higher"),
    ("ratio", "x", "higher"),
    ("goodput_mb_s", "MB/s", "higher"),
    ("call_p50_us", "us", "lower"),
    ("call_p95_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics of the traced run, layer = crate. README,
/// "Per-layer metrics", lists which end-to-end metric on which workload
/// each one should move.
pub const PER_LAYER: [Decl; 89] = [
    // Codec crates: the terms of the end-to-end geomeans.
    ("snappy.c.small.ns_per_byte", "ns/B", "lower"),
    ("snappy.d.small.ns_per_byte", "ns/B", "lower"),
    ("snappy.c.large.ns_per_byte", "ns/B", "lower"),
    ("snappy.d.large.ns_per_byte", "ns/B", "lower"),
    ("lz4.c.small.ns_per_byte", "ns/B", "lower"),
    ("lz4.d.small.ns_per_byte", "ns/B", "lower"),
    ("lz4.c.large.ns_per_byte", "ns/B", "lower"),
    ("lz4.d.large.ns_per_byte", "ns/B", "lower"),
    ("lzo.c.small.ns_per_byte", "ns/B", "lower"),
    ("lzo.d.small.ns_per_byte", "ns/B", "lower"),
    ("lzo.c.large.ns_per_byte", "ns/B", "lower"),
    ("lzo.d.large.ns_per_byte", "ns/B", "lower"),
    ("gipfeli.c.small.ns_per_byte", "ns/B", "lower"),
    ("gipfeli.d.small.ns_per_byte", "ns/B", "lower"),
    ("gipfeli.c.large.ns_per_byte", "ns/B", "lower"),
    ("gipfeli.d.large.ns_per_byte", "ns/B", "lower"),
    ("zstd3.c.small.ns_per_byte", "ns/B", "lower"),
    ("zstd3.d.small.ns_per_byte", "ns/B", "lower"),
    ("zstd3.c.large.ns_per_byte", "ns/B", "lower"),
    ("zstd3.d.large.ns_per_byte", "ns/B", "lower"),
    ("flate6.c.small.ns_per_byte", "ns/B", "lower"),
    ("flate6.d.small.ns_per_byte", "ns/B", "lower"),
    ("flate6.c.large.ns_per_byte", "ns/B", "lower"),
    ("flate6.d.large.ns_per_byte", "ns/B", "lower"),
    ("zstd9.c.large.ns_per_byte", "ns/B", "lower"),
    // cdpu-lz77.
    ("lz77.hash_parse.small.ns_per_byte", "ns/B", "lower"),
    ("lz77.hash_parse.large.ns_per_byte", "ns/B", "lower"),
    ("lz77.chain_parse.small.ns_per_byte", "ns/B", "lower"),
    ("lz77.chain_parse.large.ns_per_byte", "ns/B", "lower"),
    ("lz77.reconstruct.large.ns_per_byte", "ns/B", "lower"),
    ("lz77.probes_per_byte", "1/B", "lower"),
    ("lz77.match_byte_share", "share", "higher"),
    ("lz77.scratch_hit_share", "share", "higher"),
    // cdpu-entropy, on the zstd-l3 parse's literals and sequence codes.
    ("entropy.huffman_build.ns_per_call", "ns/call", "lower"),
    ("entropy.huffman_encode.ns_per_byte", "ns/B", "lower"),
    ("entropy.huffman_decode.ns_per_byte", "ns/B", "lower"),
    ("entropy.fse_build.ns_per_call", "ns/call", "lower"),
    ("entropy.fse_encode.ns_per_sym", "ns/sym", "lower"),
    ("entropy.fse_decode.ns_per_sym", "ns/sym", "lower"),
    // Codec self time: share of the enclosing one-shot call.
    ("zstd3.c.large.parse_share", "share", "lower"),
    ("zstd3.c.large.encode_share", "share", "lower"),
    ("zstd3.c.small.parse_share", "share", "lower"),
    ("flate6.c.large.parse_share", "share", "lower"),
    ("flate6.c.large.encode_share", "share", "lower"),
    ("snappy.c.large.parse_share", "share", "lower"),
    ("zstd3.d.large.apply_share", "share", "lower"),
    ("zstd3.d.large.huffman_share", "share", "lower"),
    // cdpu-util frame and stream, on the calls_giant payload.
    ("frame.zstd3.c.ns_per_byte", "ns/B", "lower"),
    ("frame.zstd3.d.ns_per_byte", "ns/B", "lower"),
    ("frame.lz4.c.ns_per_byte", "ns/B", "lower"),
    ("frame.lz4.d.ns_per_byte", "ns/B", "lower"),
    ("frame.d.pool_vs_serial", "x", "higher"),
    ("frame.ratio_tax", "x", "lower"),
    ("stream.zstd3.c.vs_oneshot", "x", "lower"),
    ("stream.zstd3.d.vs_oneshot", "x", "lower"),
    ("stream.snappy.c.vs_oneshot", "x", "lower"),
    ("stream.snappy.d.vs_oneshot", "x", "lower"),
    ("stream.peak_scratch_bytes", "bytes", "lower"),
    // cdpu-par.
    ("par.notify.handoff_us", "us", "lower"),
    ("par.par_map.dispatch_us", "us", "lower"),
    ("par.threads", "count", "higher"),
    // cdpu-serve.
    ("serve.workload.build_s", "s", "lower"),
    ("serve.ladder.warm_s", "s", "lower"),
    ("serve.execute.ns_per_byte", "ns/B", "lower"),
    ("serve.saturation.scaling", "x", "higher"),
    ("serve.engine.loop_us_per_call", "us/call", "lower"),
    ("serve.engine.wait_p50_us", "us", "lower"),
    ("serve.engine.wait_p95_us", "us", "lower"),
    ("serve.engine.utilization", "share", "lower"),
    ("serve.engine.mean_batch", "count", "higher"),
    ("serve.engine.shed_calls", "count", "lower"),
    ("serve.engine.max_rate_in_limit_cps", "1/s", "higher"),
    ("serve.sim.events_per_s", "1/s", "higher"),
    // cdpu-hwsim, cdpu-core, cdpu-hcbench, cdpu-corpus, cdpu-fleet.
    ("hwsim.profile.ns_per_byte", "ns/B", "lower"),
    ("hwsim.comp_sim.ns_per_byte", "ns/B", "lower"),
    ("hwsim.decomp_sim.ns_per_call", "ns/call", "lower"),
    ("hwsim.service_price.ns_per_call", "ns/call", "lower"),
    ("core.dse.points", "count", "higher"),
    ("hwsim.dse.total_cycles", "cycles", "lower"),
    ("hcbench.bank_build_s", "s", "lower"),
    ("hcbench.suite_gen_s", "s", "lower"),
    ("corpus.generate.ns_per_byte", "ns/B", "lower"),
    ("fleet.sample.ns_per_call", "ns/call", "lower"),
    // The hardware model beside the measurement (deterministic).
    ("model.snappy.c.matcher_share", "share", "lower"),
    ("model.zstd3.c.matcher_share", "share", "lower"),
    ("model.flate6.c.matcher_share", "share", "lower"),
    ("model.zstd3.d.writer_share", "share", "lower"),
    // What the instrumentation itself costs.
    ("telemetry.on_overhead_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_util::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn owned(decls: &[Decl]) -> Vec<(String, String, String)> {
        decls
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0));
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name), "{name} declared twice");
        }
        for (_, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(["higher", "lower"].contains(better));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
