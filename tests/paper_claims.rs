//! Tests pinning the paper's quantitative claims to the reproduction.
//!
//! Each test quotes a specific statement from the paper and asserts that
//! the framework reproduces it (exactly for encoded profile data; as a
//! band for modeled results). These are the acceptance criteria recorded
//! in EXPERIMENTS.md.

use cdpu::fleet::{
    callers, levels, mix, ratios, services, timeline, windows, Algorithm, AlgoOp, Direction,
};
use cdpu::hwsim::area;
use cdpu::hwsim::params::CdpuParams;

#[test]
fn claim_fleet_cycle_fraction() {
    // "2.9% of fleet-wide CPU cycles are spent in (de)compression; 56% of
    // these cycles are spent in decompression" (Section 3.2).
    assert_eq!(cdpu::fleet::FLEET_CYCLE_FRACTION, 0.029);
    let deco: f64 = AlgoOp::all()
        .into_iter()
        .filter(|o| o.dir == Direction::Decompress)
        .map(mix::cycle_share_percent)
        .sum();
    assert!((deco - 56.0).abs() < 1.0, "decompression share {deco}");
}

#[test]
fn claim_95_percent_of_bytes_use_cheap_compression() {
    // "over 95% of bytes compressed in the fleet are handled either by a
    // lightweight algorithm (Snappy) or a heavyweight algorithm at low
    // compression level (ZStd at level <= 3)" (Section 3.3.2).
    // The statement combines Figures 2a and 2b, whose call-level data the
    // paper collects only for the sampled algorithms (Section 3.1.2); the
    // byte universe is therefore the Snappy+ZStd compression calls.
    let snappy = mix::uncompressed_byte_share(AlgoOp::new(Algorithm::Snappy, Direction::Compress));
    let zstd = mix::uncompressed_byte_share(AlgoOp::new(Algorithm::Zstd, Direction::Compress));
    let cheap = (snappy + zstd * levels::cumulative_at(3)) / (snappy + zstd);
    assert!(cheap > 0.95, "cheap-compression byte share {cheap}");
}

#[test]
fn claim_ratio_headroom_factors() {
    // "Services that use ZStd at a low compression level achieve a 1.46x
    // improved compression ratio over services that use Snappy. Services
    // that use ZStd at a high compression level achieve an additional
    // 1.35x" (Section 3.3.3).
    let s = ratios::fleet_ratio(ratios::RatioBin::Snappy);
    let lo = ratios::fleet_ratio(ratios::RatioBin::ZstdLow);
    let hi = ratios::fleet_ratio(ratios::RatioBin::ZstdHigh);
    assert!((lo / s - 1.46).abs() < 1e-9);
    assert!((hi / lo - 1.35).abs() < 1e-9);
}

#[test]
fn claim_cost_per_byte_factors() {
    // Section 3.3.4's software cost factors, and the worked example: a
    // service with 25% of cycles in Snappy compression grows 67% on
    // switching to the highest ZStd levels.
    assert_eq!(cdpu::fleet::costs::ZSTD_LOW_OVER_SNAPPY_COMPRESS, 1.55);
    assert_eq!(cdpu::fleet::costs::ZSTD_HIGH_OVER_LOW_COMPRESS, 2.39);
    assert_eq!(cdpu::fleet::costs::ZSTD_OVER_SNAPPY_DECOMPRESS, 1.63);
    let inc = services::projected_cycle_increase(0.25);
    assert!((0.65..0.70).contains(&inc), "cycle increase {inc}");
}

#[test]
fn claim_zstd_adoption_pace() {
    // "ZStd ... took roughly a year from being introduced to consuming 10%
    // of fleet (de)compression cycles" (Section 3.4).
    let months = timeline::zstd_months_to_share(10.0).unwrap();
    assert!((8..=18).contains(&months), "{months} months");
}

#[test]
fn claim_file_formats_invoke_half_of_cycles() {
    // "file format libraries, which are responsible for invoking 49.2% of
    // fleet (de)compression cycles" (Section 3.8(4a)).
    assert!((callers::file_format_percent() - 49.2).abs() < 0.05);
}

#[test]
fn claim_z15_window_coverage() {
    // "IBM's z15 compression accelerator offers a window size of 32 KiB,
    // meaning it would not be able to handle 50% of these compression
    // calls" (Section 3.6).
    let missed = windows::fraction_beyond_window(Direction::Compress, 15);
    assert!((0.44..0.50).contains(&missed), "missed fraction {missed}");
}

#[test]
fn claim_service_concentration() {
    // "one service spends nearly 50% of its total cycles on
    // (de)compression, another spends over 35%, and eight more spend
    // between 10% and 25%" (Section 3.2).
    let cat = services::service_catalog();
    assert_eq!(cat.len(), 16);
    assert!(cat.iter().any(|s| s.own_cycles_in_codec >= 0.45));
    assert!(cat.iter().any(|s| (0.35..0.45).contains(&s.own_cycles_in_codec)));
    assert_eq!(
        cat.iter()
            .filter(|s| (0.10..=0.25).contains(&s.own_cycles_in_codec))
            .count(),
        8
    );
}

#[test]
fn claim_area_absolutes() {
    // Section 6's area numbers in 16nm: Snappy-D 0.431 mm² (< 2.4% of a
    // Xeon core), Snappy-C 0.851 mm² (~4.7%), ZStd-D 1.9 mm²,
    // ZStd-C 3.48 mm².
    let full = CdpuParams::default();
    let mm2 = |algo, dir| area::mm2(AlgoOp::new(algo, dir), &full);
    let snappy_d = mm2(Algorithm::Snappy, Direction::Decompress);
    let snappy_c = mm2(Algorithm::Snappy, Direction::Compress);
    assert!((snappy_d - 0.431).abs() < 0.01);
    assert!((snappy_c - 0.851).abs() < 0.01);
    assert!((mm2(Algorithm::Zstd, Direction::Decompress) - 1.90).abs() < 0.02);
    assert!((mm2(Algorithm::Zstd, Direction::Compress) - 3.48).abs() < 0.02);
    assert!(area::fraction_of_xeon_core(snappy_d) < 0.025);
    assert!(area::fraction_of_xeon_core(snappy_c) < 0.050);
}

#[test]
fn claim_xeon_baseline_throughputs() {
    // Sections 6.2–6.5: 1.1 / 0.36 / 0.94 / 0.22 GB/s on the Xeon.
    use cdpu::core::baseline::xeon_gbps;
    assert_eq!(xeon_gbps(AlgoOp::new(Algorithm::Snappy, Direction::Decompress)), 1.1);
    assert_eq!(xeon_gbps(AlgoOp::new(Algorithm::Snappy, Direction::Compress)), 0.36);
    assert_eq!(xeon_gbps(AlgoOp::new(Algorithm::Zstd, Direction::Decompress)), 0.94);
    assert_eq!(xeon_gbps(AlgoOp::new(Algorithm::Zstd, Direction::Compress)), 0.22);
}

#[test]
fn claim_median_call_size_gap_vs_open_benchmarks() {
    // "the median call sizes of the distributions differ by an astounding
    // 256x" (Section 3.7). Our synthetic manifest reproduces the order of
    // magnitude (128x–512x depending on binning).
    let mut hist = cdpu::util::hist::Log2Histogram::new();
    for spec in cdpu::corpus::open_benchmark_manifest() {
        hist.record(spec.bytes, spec.bytes as f64);
    }
    let open_median = hist.median_bin().unwrap();
    let fleet_median = cdpu::util::ceil_log2(cdpu::fleet::callsizes::median_call_size(
        AlgoOp::new(Algorithm::Snappy, Direction::Compress),
    ));
    let gap_log = open_median - fleet_median;
    assert!((7..=9).contains(&gap_log), "gap 2^{gap_log}");
}

#[test]
fn claim_snappy_hw_ratio_beats_software() {
    // "the 64 KB SRAM design achieves a 1.1% higher compression ratio than
    // Snappy SW ... the software implements a skipping mechanism"
    // (Section 6.3). Verify the mechanism on mixed content.
    use cdpu::lz77::matcher::MatcherConfig;
    let mut data = cdpu::corpus::generate(cdpu::corpus::CorpusKind::Random, 48 * 1024, 5);
    data.extend(cdpu::corpus::generate(cdpu::corpus::CorpusKind::JsonLogs, 48 * 1024, 5));
    let sw = cdpu::snappy::compress_with(&data, &MatcherConfig::snappy_sw()).len();
    let hw = cdpu::snappy::compress_with(&data, &MatcherConfig::snappy_hw()).len();
    assert!(hw <= sw, "hw {hw} vs sw {sw}");
}
