//! Pins what the hardware cycle model prices, not just its shape: two
//! FNV-1a-64 digests over the `Debug` text of every model output on a
//! fixed grid, plus the `hwsim.*` telemetry the runs publish, and one over
//! every field of the DSE sweeps the figures are drawn from.
//!
//! The model price pin enables telemetry, so it lives in a test binary of
//! its own, and the sweep pin, which runs with telemetry off, takes
//! [`TELEMETRY`] in turn with it: the registry the price pin zeroes and
//! reads holds nothing but its own runs.

use std::sync::{Mutex, MutexGuard};

use cdpu::core::dse::{
    compression_sweep, decompression_sweep, profile_suite, speculation_sweep, standard_histories,
    standard_placements, DsePoint,
};
use cdpu::core::CdpuInstance;
use cdpu::corpus::{generate, ALL_KINDS};
use cdpu::fleet::{Algorithm, AlgoOp, CallRecord, Direction};
use cdpu::hcbench::bank::{BankConfig, ChunkBank};
use cdpu::hcbench::{generate_suite, Suite, SuiteConfig};
use cdpu::hwsim::params::{CdpuParams, MemParams, Placement};
use cdpu::hwsim::profile::{profile_flate, profile_snappy, profile_zstd, profile_zstd_with};
use cdpu::hwsim::service::{service_cycles, service_stages};
use cdpu::hwsim::{comp, decomp};
use cdpu::telemetry;
use cdpu::zstd::ZstdConfig;

/// FNV-1a-64 over `bytes`, continuing from `h`.
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Held by each test of this binary for its whole run: telemetry is
/// global, so a sweep running beside the price pin would add to the
/// counters it reads.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn telemetry_turn() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with telemetry on over a zeroed registry and appends to
/// `text` the sorted `hwsim.*` counters it left. Zeroing keeps every name
/// registered, so a counter that a group registers at zero where it used
/// to register none shows in that group's listing.
fn with_hwsim_counters(text: &mut String, f: impl FnOnce(&mut String)) {
    telemetry::reset();
    telemetry::enable();
    f(text);
    telemetry::disable();
    for (name, v) in telemetry::registry().counters() {
        if name.starts_with("hwsim.") {
            *text += &format!("{name}={v}\n");
        }
    }
}

/// The parameter sets every analytic price is taken at: each placement at
/// full and smallest history SRAM, both speculation extremes and the small
/// hash table, and a narrow statistics unit.
fn param_sets() -> Vec<CdpuParams> {
    let mut sets = Vec::new();
    for pl in Placement::ALL {
        sets.push(CdpuParams::full_size(pl));
        sets.push(CdpuParams::full_size(pl).with_history(2048));
    }
    sets.push(CdpuParams::default().with_spec(4));
    sets.push(CdpuParams::default().with_spec(32));
    sets.push(CdpuParams::default().with_hash_entries_log(9));
    sets.push(CdpuParams { stats_bytes_per_cycle: 2, ..Default::default() });
    sets
}

/// A generator instance with exactly `ops` at the parameters `p`.
fn instance(ops: &[AlgoOp], p: &CdpuParams) -> CdpuInstance {
    CdpuInstance::builder()
        .pipelines(ops)
        .placement(p.placement)
        .history_bytes(p.history_bytes)
        .hash_entries_log(p.hash_entries_log)
        .hash_ways(p.hash_ways)
        .spec_ways(p.spec_ways)
        .build()
}

/// Corpus payloads from empty to past two 128 KiB blocks, every kind.
fn payloads() -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    for (i, &kind) in ALL_KINDS.iter().enumerate() {
        for len in [3_000, 70_000, 300 * 1024] {
            out.push(generate(kind, len, 40 + i as u64));
        }
    }
    out
}

#[test]
fn model_prices_are_pinned() {
    let _turn = telemetry_turn();
    let mem = MemParams::default();
    let sets = param_sets();
    let data = payloads();
    let c = |algo| AlgoOp::new(algo, Direction::Compress);
    let d = |algo| AlgoOp::new(algo, Direction::Decompress);

    // Profiles are taken with telemetry off: they are the model's input.
    let profiles: Vec<_> = data
        .iter()
        .map(|x| {
            [
                (Algorithm::Snappy, profile_snappy(x)),
                (Algorithm::Zstd, profile_zstd(x, 3, None)),
                (
                    Algorithm::Zstd,
                    profile_zstd_with(x, &ZstdConfig::with_level(3).lit_streams(4).seq_streams(4)),
                ),
                (Algorithm::Zstd, profile_zstd_with(x, &ZstdConfig::with_level(3).rans_literals())),
                (Algorithm::Flate, profile_flate(x, 6)),
            ]
        })
        .collect();

    // Digest 1: everything the model prices that no fix moves.
    let mut text = String::new();
    let mut sizes = vec![1u64, 2, 63, 64, 1000, 4096, 65_535, 65_536, 65_537];
    sizes.extend([128 << 10, (128 << 10) + 1, 1 << 20, 4 << 20, (4 << 20) + 1]);
    let ops: Vec<AlgoOp> = [Algorithm::Snappy, Algorithm::Zstd, Algorithm::Flate]
        .into_iter()
        .flat_map(|algo| [c(algo), d(algo)])
        .collect();
    for p in &sets {
        with_hwsim_counters(&mut text, |text| {
            for op in AlgoOp::all() {
                for &bytes in &sizes {
                    for level in [None, Some(1), Some(12)] {
                        let call = CallRecord {
                            op,
                            uncompressed_bytes: bytes,
                            level,
                            window_log: None,
                            caller: "pin",
                        };
                        let stages = service_stages(&call, p, &mem);
                        let cycles = service_cycles(&call, p, &mem);
                        *text += &format!("{cycles} {} {stages:?}\n", stages.bound());
                    }
                }
            }
        });
        let mut areas = vec![instance(&ops, p).area_mm2().to_bits()];
        areas.extend(ops.iter().map(|&op| instance(&[op], p).area_mm2().to_bits()));
        text += &format!("{areas:?}\n");

        let flate = instance(&[d(Algorithm::Flate)], p);
        with_hwsim_counters(&mut text, |text| {
            for per_input in &profiles {
                for (algo, prof) in per_input {
                    let r = match algo {
                        Algorithm::Snappy => decomp::snappy_decompress(prof, p, &mem),
                        Algorithm::Zstd => decomp::zstd_decompress(prof, p, &mem),
                        _ => flate.decompress(Algorithm::Flate, prof),
                    };
                    *text += &format!("{r:?}\n");
                }
            }
        });
    }
    for p in [&sets[0], &sets[5], &sets[10], &sets[11]] {
        with_hwsim_counters(&mut text, |text| {
            for x in &data {
                *text += &format!(
                    "{:?}\n{:?}\n",
                    comp::snappy_compress(x, p, &mem),
                    comp::zstd_compress(x, p, &mem)
                );
            }
        });
    }
    let h1 = fnv1a64(0xCBF2_9CE4_8422_2325, text.as_bytes());

    // Digest 2: Flate live compression, and Snappy live compression with
    // more history SRAM than the format's 64 KiB window.
    let mut text = String::new();
    for p in [&sets[0], &sets[5], &sets[10]] {
        let flate = instance(&[c(Algorithm::Flate)], p);
        with_hwsim_counters(&mut text, |text| {
            for x in &data {
                *text += &format!("{:?}\n", flate.compress(Algorithm::Flate, x));
            }
        });
    }
    for history in [128 << 10, 1 << 20] {
        let p = CdpuParams::default().with_history(history);
        with_hwsim_counters(&mut text, |text| {
            for x in &data {
                *text += &format!("{:?}\n", comp::snappy_compress(x, &p, &mem));
            }
        });
    }
    let h2 = fnv1a64(0xCBF2_9CE4_8422_2325, text.as_bytes());

    assert_eq!(
        (h1, h2),
        (0xD1E3_2732_C16A_6C13, 0xE872_BF1C_E0D7_AEA4),
        "model prices moved: got ({h1:#018X}, {h2:#018X})"
    );
}

/// A small hcbench suite for `op`: ten files of at most 64 KiB, so every
/// history SRAM of the standard sweep cuts some matches off.
fn small_suite(bank: &ChunkBank, op: AlgoOp) -> Suite {
    generate_suite(bank, &SuiteConfig { op, files: 10, max_call_bytes: 64 << 10, seed: 17 })
}

/// Appends the bits of every field of `points` to `text`.
fn push_points(text: &mut String, points: &[DsePoint]) {
    for p in points {
        let floats = [p.accel_seconds, p.xeon_seconds, p.accel_gbps, p.speedup, p.area_mm2];
        *text += &format!(
            "{} {} {} {} {:?} {:?}\n",
            p.placement,
            p.history_bytes,
            p.spec_ways,
            p.hash_entries_log,
            floats.map(f64::to_bits),
            p.ratio_vs_sw.map(f64::to_bits),
        );
    }
}

#[test]
fn dse_sweeps_are_pinned() {
    let _turn = telemetry_turn();
    let mem = MemParams::default();
    let bank = ChunkBank::build(&BankConfig {
        chunk_size: 4096,
        per_kind_bytes: 96 * 1024,
        zstd_levels: vec![1, 3],
        seed: 31,
    });
    let (placements, histories) = (standard_placements(), standard_histories());
    let mut text = String::new();
    for algo in [Algorithm::Snappy, Algorithm::Zstd] {
        let suite = small_suite(&bank, AlgoOp::new(algo, Direction::Compress));
        for hash_log in [14, 9] {
            let sweep = compression_sweep(&suite, &placements, &histories, hash_log, &mem);
            push_points(&mut text, &sweep.points);
        }
        let suite = small_suite(&bank, AlgoOp::new(algo, Direction::Decompress));
        let profiles = profile_suite(&suite);
        let sweep = decompression_sweep(&suite, &profiles, &placements, &histories, 16, &mem);
        push_points(&mut text, &sweep.points);
        if algo == Algorithm::Zstd {
            push_points(&mut text, &speculation_sweep(&suite, &profiles, &[4, 16, 32], &mem));
        }
    }
    let h = fnv1a64(0xCBF2_9CE4_8422_2325, text.as_bytes());
    assert_eq!(h, 0x9282_790A_C63C_20F2, "DSE sweeps moved: got {h:#018X}");
}
