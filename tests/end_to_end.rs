//! End-to-end integration tests: the whole pipeline from corpus synthesis
//! through benchmark generation to design-space exploration, spanning
//! every crate in the workspace.

use cdpu::core::dse::{
    compression_sweep, decompression_sweep, profile_suite, speculation_sweep,
};
use cdpu::fleet::{Algorithm, AlgoOp, Direction};
use cdpu::hcbench::bank::{BankConfig, ChunkBank};
use cdpu::hcbench::{generate_suite, validate, SuiteConfig};
use cdpu::hwsim::params::{MemParams, Placement};

fn small_bank() -> ChunkBank {
    ChunkBank::build(&BankConfig {
        chunk_size: 4096,
        per_kind_bytes: 128 * 1024,
        zstd_levels: vec![1, 3],
        seed: 1234,
    })
}

fn small_suite(bank: &ChunkBank, op: AlgoOp) -> cdpu::hcbench::Suite {
    generate_suite(
        bank,
        &SuiteConfig {
            op,
            files: 12,
            max_call_bytes: 128 * 1024,
            seed: 4321,
        },
    )
}

#[test]
fn full_pipeline_snappy_decompression() {
    let bank = small_bank();
    let op = AlgoOp::new(Algorithm::Snappy, Direction::Decompress);
    let suite = small_suite(&bank, op);

    // 1. Every generated file round-trips through the real codec.
    for f in &suite.files {
        let c = cdpu::snappy::compress(&f.data);
        assert_eq!(cdpu::snappy::decompress(&c).unwrap(), f.data, "{}", f.name);
    }

    // 2. The suite validates against the fleet model.
    let report = validate::validate_suite(&suite);
    assert!(report.callsize_cdf_gap < 25.0, "gap {}", report.callsize_cdf_gap);

    // 3. DSE over it produces the paper's placement ordering.
    let profiles = profile_suite(&suite);
    let sweep = decompression_sweep(
        &suite,
        &profiles,
        &Placement::ALL,
        &[64 * 1024, 2048],
        16,
        &MemParams::default(),
    );
    let rocc = sweep.point(Placement::Rocc, 64 * 1024).unwrap();
    let chiplet = sweep.point(Placement::Chiplet, 64 * 1024).unwrap();
    let pcie = sweep.point(Placement::PcieNoCache, 64 * 1024).unwrap();
    assert!(rocc.speedup >= chiplet.speedup);
    assert!(chiplet.speedup > pcie.speedup);
    assert!(rocc.speedup > 5.0, "rocc {}", rocc.speedup);
}

#[test]
fn full_pipeline_zstd_compression() {
    let bank = small_bank();
    let op = AlgoOp::new(Algorithm::Zstd, Direction::Compress);
    let suite = small_suite(&bank, op);

    // Files carry fleet-sampled levels and windows.
    for f in &suite.files {
        assert!(f.level.is_some() && f.window_log.is_some());
    }

    let sweep = compression_sweep(
        &suite,
        &[Placement::Rocc, Placement::PcieNoCache],
        &[64 * 1024, 2048],
        14,
        &MemParams::default(),
    );
    let rocc = sweep.point(Placement::Rocc, 64 * 1024).unwrap();
    let pcie = sweep.point(Placement::PcieNoCache, 64 * 1024).unwrap();
    // Compression tolerates PCIe far better than decompression does.
    assert!(pcie.speedup > rocc.speedup * 0.3);
    // The hardware ratio exists and is within sane bounds of software.
    let r = rocc.ratio_vs_sw.unwrap();
    assert!((0.7..=1.2).contains(&r), "hw/sw ratio {r}");
}

#[test]
fn speculation_results_track_paper_shape() {
    let bank = small_bank();
    let op = AlgoOp::new(Algorithm::Zstd, Direction::Decompress);
    let suite = small_suite(&bank, op);
    let profiles = profile_suite(&suite);
    let pts = speculation_sweep(&suite, &profiles, &[4, 16, 32], &MemParams::default());
    assert_eq!(pts.len(), 3);
    // Monotone speedup, monotone area (Section 6.4).
    assert!(pts[0].speedup <= pts[1].speedup && pts[1].speedup <= pts[2].speedup);
    assert!(pts[0].area_mm2 < pts[1].area_mm2 && pts[1].area_mm2 < pts[2].area_mm2);
}

#[test]
fn cross_codec_ratio_ordering_on_suite_data() {
    // The heavyweight/lightweight taxonomy must hold on generated
    // benchmark content, not just hand-picked corpora.
    let bank = small_bank();
    let suite = small_suite(&bank, AlgoOp::new(Algorithm::Snappy, Direction::Compress));
    let mut snappy_total = 0usize;
    let mut zstd_total = 0usize;
    let mut unc = 0usize;
    for f in &suite.files {
        unc += f.data.len();
        snappy_total += cdpu::snappy::compress(&f.data).len();
        zstd_total += cdpu::zstd::compress(&f.data).len();
    }
    let s_ratio = unc as f64 / snappy_total as f64;
    let z_ratio = unc as f64 / zstd_total as f64;
    assert!(
        z_ratio > s_ratio,
        "zstd {z_ratio:.2} must beat snappy {s_ratio:.2}"
    );
}

#[test]
fn deterministic_pipeline_end_to_end() {
    // Same seeds, same everything: suite bytes, validation numbers, DSE
    // cycle counts.
    let run = || {
        let bank = small_bank();
        let op = AlgoOp::new(Algorithm::Snappy, Direction::Decompress);
        let suite = small_suite(&bank, op);
        let profiles = profile_suite(&suite);
        let sweep = decompression_sweep(
            &suite,
            &profiles,
            &[Placement::Rocc],
            &[4096],
            16,
            &MemParams::default(),
        );
        (
            suite.files.iter().map(|f| f.data.len()).collect::<Vec<_>>(),
            sweep.points[0].accel_seconds,
        )
    };
    let (sizes_a, secs_a) = run();
    let (sizes_b, secs_b) = run();
    assert_eq!(sizes_a, sizes_b);
    assert_eq!(secs_a, secs_b);
}

#[test]
fn generator_instance_runs_suite_calls() {
    // The CdpuInstance front-end can drive suite content directly.
    let bank = small_bank();
    let suite = small_suite(&bank, AlgoOp::new(Algorithm::Snappy, Direction::Compress));
    let inst = cdpu::core::CdpuInstance::builder().build();
    let mut total_in = 0u64;
    let mut total_out = 0u64;
    for f in suite.files.iter().take(4) {
        let sim = inst.compress(Algorithm::Snappy, &f.data);
        total_in += sim.sim.input_bytes;
        total_out += sim.compressed_bytes;
    }
    assert!(total_out < total_in, "compression must shrink suite data");
}

#[test]
fn flate_compress_sim_encodes_the_hardware_parse() {
    // The achieved Flate size is the hardware matcher's parse, encoded:
    // it moves with the hash table, as Figures 12/13 need, instead of
    // reading a software encoder's output at every configuration.
    use cdpu::corpus::{generate, CorpusKind};
    use cdpu::hwsim::comp::hw_matcher_config;
    use cdpu::lz77::matcher::{HashTableMatcher, MatcherConfig};

    let data = generate(CorpusKind::JsonLogs, 256 * 1024, 7);
    let op = AlgoOp::new(Algorithm::Flate, Direction::Compress);
    let mut sizes = Vec::new();
    for (history, entries_log) in [(32 << 10, 14), (2 << 10, 14), (32 << 10, 9)] {
        let inst = cdpu::core::CdpuInstance::builder()
            .pipelines(&[op])
            .history_bytes(history)
            .hash_entries_log(entries_log)
            .build();
        let sim = inst.compress(Algorithm::Flate, &data);
        let cfg = hw_matcher_config(inst.params());
        let cfg = MatcherConfig { window_log: cfg.window_log.min(15), ..cfg };
        let parse = HashTableMatcher::new(cfg).parse(&data);
        let stream = cdpu::flate::compress_parse(&data, &parse, &Default::default());
        assert_eq!(sim.compressed_bytes, stream.len() as u64, "{history} B, 2^{entries_log}");
        assert_eq!(cdpu::flate::decompress(&stream).unwrap(), data);
        sizes.push(sim.compressed_bytes);
    }
    assert!(sizes[2] > sizes[0], "2^9 entries must compress worse than 2^14: {sizes:?}");
}

#[test]
fn snappy_compress_sim_caps_history_at_the_format_window() {
    // A repeat 200 KiB back is out of Snappy's 64 KiB reach: history SRAM
    // beyond the format's window can neither find it nor price it.
    use cdpu::corpus::{generate, CorpusKind};
    use cdpu::hwsim::comp;
    use cdpu::hwsim::params::CdpuParams;

    let half = generate(CorpusKind::Random, 200 * 1024, 3);
    let data = [half.as_slice(), &half].concat();
    let mem = MemParams::default();
    let at = |history| comp::snappy_compress(&data, &CdpuParams::default().with_history(history), &mem);
    assert_eq!(at(1 << 20), at(64 << 10));
}
