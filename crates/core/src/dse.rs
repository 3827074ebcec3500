//! Design-space-exploration drivers: one sweep per evaluation figure.
//!
//! Each driver runs a HyperCompressBench suite through the hardware model
//! across the figure's axes and reports the paper's metrics: suite-
//! aggregate speedup vs the Xeon baseline (total suite time, per Section
//! 6.1), silicon area (absolute and normalized to the largest
//! configuration), and — for compression — the achieved ratio relative to
//! software.

use crate::baseline;
use cdpu_fleet::{Algorithm, AlgoOp, Direction};
use cdpu_telemetry::{counter, span};
use cdpu_hcbench::Suite;
use cdpu_hwsim::params::{CdpuParams, MemParams, Placement, HISTORY_SWEEP};
use cdpu_hwsim::profile::{profile_snappy, profile_zstd, CallProfile};
use cdpu_hwsim::{area, comp};

/// One design point in a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsePoint {
    /// Placement of this point.
    pub placement: Placement,
    /// History SRAM bytes.
    pub history_bytes: usize,
    /// Huffman speculation count (ZStd decompression sweeps).
    pub spec_ways: u32,
    /// log2 hash-table entries (compression sweeps).
    pub hash_entries_log: u32,
    /// Total simulated accelerator seconds over the suite.
    pub accel_seconds: f64,
    /// Total Xeon baseline seconds over the suite.
    pub xeon_seconds: f64,
    /// Aggregate accelerator throughput, GB/s of uncompressed data.
    pub accel_gbps: f64,
    /// Speedup vs the Xeon (the y-axis of Figures 11–15).
    pub speedup: f64,
    /// Engine area, mm².
    pub area_mm2: f64,
    /// Achieved compression ratio divided by the software ratio
    /// (compression sweeps; `None` for decompression).
    pub ratio_vs_sw: Option<f64>,
}

/// A full sweep: points for every (placement × history) combination.
///
/// Construct with [`Sweep::new`]: the constructor builds a
/// placement/history lookup index and caches the sweep's maximum area, so
/// [`Sweep::point`] and [`Sweep::area_norm`] are O(1) per table cell.
/// `points` is public for read access; it must not be mutated after
/// construction (the index and cached max would go stale).
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Which figure-suite this reproduces.
    pub op: AlgoOp,
    /// All points, ordered placement-major, history descending (64K→2K).
    pub points: Vec<DsePoint>,
    /// (placement, history) → index into `points` (first occurrence wins,
    /// matching the old linear scan's find-first semantics).
    index: std::collections::HashMap<(Placement, usize), usize>,
    /// Largest `area_mm2` across `points` (0.0 for an empty sweep).
    max_area_mm2: f64,
}

impl Sweep {
    /// Builds a sweep, indexing points by (placement, history) and caching
    /// the fold-max of `area_mm2`.
    pub fn new(op: AlgoOp, points: Vec<DsePoint>) -> Sweep {
        let mut index = std::collections::HashMap::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            index.entry((p.placement, p.history_bytes)).or_insert(i);
        }
        let max_area_mm2 = points.iter().map(|p| p.area_mm2).fold(0.0f64, f64::max);
        Sweep {
            op,
            points,
            index,
            max_area_mm2,
        }
    }

    /// The point for a given placement/history (O(1) hash lookup).
    pub fn point(&self, placement: Placement, history: usize) -> Option<&DsePoint> {
        self.index
            .get(&(placement, history))
            .map(|&i| &self.points[i])
    }

    /// Area normalized to the largest configuration in the sweep (cached
    /// at construction).
    pub fn area_norm(&self, p: &DsePoint) -> f64 {
        p.area_mm2 / self.max_area_mm2
    }
}

/// Profiles every file of a decompression suite once (reused across all
/// configurations — the stream does not depend on CDPU knobs). Files
/// profile independently across the thread pool, results in file order.
pub fn profile_suite(suite: &Suite) -> Vec<CallProfile> {
    let _span = span!("dse.profile_suite");
    cdpu_par::par_map(&suite.files, |f| match suite.op.algo {
        Algorithm::Snappy => profile_snappy(&f.data),
        Algorithm::Zstd => profile_zstd(&f.data, f.level.unwrap_or(3), f.window_log),
        _ => unreachable!("suites are Snappy/ZStd"),
    })
}

fn suite_xeon_seconds(suite: &Suite) -> f64 {
    baseline::xeon_seconds(suite.op, suite.total_uncompressed())
}

/// Figure 11 / Figure 14: decompression sweep over placements × history
/// SRAM sizes (plus a speculation count for ZStd).
pub fn decompression_sweep(
    suite: &Suite,
    profiles: &[CallProfile],
    placements: &[Placement],
    histories: &[usize],
    spec_ways: u32,
    mem: &MemParams,
) -> Sweep {
    assert_eq!(suite.op.dir, Direction::Decompress, "use compression_sweep");
    assert_eq!(profiles.len(), suite.files.len());
    let _sweep_span = span!("dse.decomp.sweep");
    let xeon = suite_xeon_seconds(suite);
    let total_unc = suite.total_uncompressed();
    // One pool task per design point; each point is a pure function of the
    // immutable profiles + params, and par_map returns results in grid
    // order, so the table is byte-identical to a serial run.
    let grid = placement_history_grid(placements, histories);
    let points = cdpu_par::par_map(&grid, |&(placement, history)| {
        let mut point_span = span!("dse.decomp.point");
        counter!("dse.points").incr();
        let params = CdpuParams::full_size(placement)
            .with_history(history)
            .with_spec(spec_ways);
        let mut cycles = 0u64;
        for prof in profiles {
            cycles += cdpu_hwsim::simulate(suite.op, prof, &params, mem).cycles;
        }
        point_span.add_cycles(cycles);
        let accel_seconds = cycles as f64 / (mem.freq_ghz * 1e9);
        let area_mm2 = area::mm2(suite.op, &params);
        DsePoint {
            placement,
            history_bytes: history,
            spec_ways,
            hash_entries_log: params.hash_entries_log,
            accel_seconds,
            xeon_seconds: xeon,
            accel_gbps: total_unc as f64 / accel_seconds / 1e9,
            speedup: xeon / accel_seconds,
            area_mm2,
            ratio_vs_sw: None,
        }
    });
    Sweep::new(suite.op, points)
}

/// The sweep grid in deterministic placement-major order (history order as
/// given, 64K→2K in the standard axes).
fn placement_history_grid(
    placements: &[Placement],
    histories: &[usize],
) -> Vec<(Placement, usize)> {
    placements
        .iter()
        .flat_map(|&p| histories.iter().map(move |&h| (p, h)))
        .collect()
}

/// Figures 12, 13, 15: compression sweep over placements × history SRAM
/// sizes at a fixed hash-table size. Reports speedup, area, and the ratio
/// relative to software.
///
/// Placement only injects offload latency, so the hardware parse, its
/// counts and its compressed size depend on the history SRAM and the hash
/// table alone: each file is parsed once per history
/// ([`comp::hw_profile`]), and that profile is priced at every placement
/// through [`cdpu_hwsim::simulate`], once per (point, file).
pub fn compression_sweep(
    suite: &Suite,
    placements: &[Placement],
    histories: &[usize],
    hash_entries_log: u32,
    mem: &MemParams,
) -> Sweep {
    assert_eq!(suite.op.dir, Direction::Compress, "use decompression_sweep");
    let _sweep_span = span!("dse.comp.sweep");
    let xeon = suite_xeon_seconds(suite);
    let total_unc = suite.total_uncompressed();
    // Software ratio baseline: the suite compressed by the fleet's
    // software at each file's own parameters. Files compress
    // independently; the u64 sum is order-independent.
    let sw_compressed: u64 = cdpu_par::par_map(&suite.files, |f| {
        cdpu_hcbench::compressed_len(f) as u64
    })
    .into_iter()
    .sum();
    let sw_ratio = total_unc as f64 / sw_compressed as f64;

    let params_at = |placement, history| {
        CdpuParams::full_size(placement)
            .with_history(history)
            .with_hash_entries_log(hash_entries_log)
    };
    // One hardware profile per (history, file), history-major, taken at
    // the first placement; an empty placement axis prices nothing, so it
    // parses nothing.
    let files = suite.files.len();
    let jobs = if placements.is_empty() { 0 } else { histories.len() * files };
    let profiles = cdpu_par::par_map_indexed(jobs, |j| {
        let p = params_at(placements[0], histories[j / files]);
        comp::hw_profile(suite.op.algo, &suite.files[j % files].data, &p)
    });

    let grid = placement_history_grid(placements, histories);
    let points = cdpu_par::par_map_indexed(grid.len(), |i| {
        let (placement, history) = grid[i];
        let mut point_span = span!("dse.comp.point");
        counter!("dse.points").incr();
        let params = params_at(placement, history);
        // The grid is placement-major, so point i sits at history i mod H.
        let h = i % histories.len();
        let mut cycles = 0u64;
        let mut hw_compressed = 0u64;
        for prof in &profiles[h * files..(h + 1) * files] {
            cycles += cdpu_hwsim::simulate(suite.op, prof, &params, mem).cycles;
            hw_compressed += prof.compressed;
        }
        point_span.add_cycles(cycles);
        let accel_seconds = cycles as f64 / (mem.freq_ghz * 1e9);
        let hw_ratio = total_unc as f64 / hw_compressed as f64;
        let area_mm2 = area::mm2(suite.op, &params);
        DsePoint {
            placement,
            history_bytes: history,
            spec_ways: params.spec_ways,
            hash_entries_log,
            accel_seconds,
            xeon_seconds: xeon,
            accel_gbps: total_unc as f64 / accel_seconds / 1e9,
            speedup: xeon / accel_seconds,
            area_mm2,
            ratio_vs_sw: Some(hw_ratio / sw_ratio),
        }
    });
    Sweep::new(suite.op, points)
}

/// Section 6.4's speculation sweep: ZStd decompression at fixed 64 KiB
/// history, RoCC placement, speculation ∈ `specs`.
pub fn speculation_sweep(
    suite: &Suite,
    profiles: &[CallProfile],
    specs: &[u32],
    mem: &MemParams,
) -> Vec<DsePoint> {
    assert_eq!(suite.op.algo, Algorithm::Zstd);
    assert_eq!(suite.op.dir, Direction::Decompress);
    // One task per speculation count (each inner sweep is a single point);
    // results stay in `specs` order.
    cdpu_par::par_map(specs, |&s| {
        decompression_sweep(
            suite,
            profiles,
            &[Placement::Rocc],
            &[64 * 1024],
            s,
            mem,
        )
        .points
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The standard figure axes.
pub fn standard_placements() -> Vec<Placement> {
    Placement::ALL.to_vec()
}

/// The standard history-SRAM sweep (64 KiB → 2 KiB).
pub fn standard_histories() -> Vec<usize> {
    HISTORY_SWEEP.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpu_hcbench::bank::{BankConfig, ChunkBank};
    use cdpu_hcbench::{generate_suite, SuiteConfig};

    fn tiny_suite(op: AlgoOp) -> Suite {
        let bank = ChunkBank::build(&BankConfig {
            chunk_size: 4096,
            per_kind_bytes: 96 * 1024,
            zstd_levels: vec![1, 3],
            seed: 31,
        });
        generate_suite(
            &bank,
            &SuiteConfig {
                op,
                files: 10,
                max_call_bytes: 96 * 1024,
                seed: 17,
            },
        )
    }

    #[test]
    fn snappy_decomp_sweep_shapes() {
        let suite = tiny_suite(AlgoOp::new(Algorithm::Snappy, Direction::Decompress));
        let profiles = profile_suite(&suite);
        let sweep = decompression_sweep(
            &suite,
            &profiles,
            &standard_placements(),
            &standard_histories(),
            16,
            &MemParams::default(),
        );
        assert_eq!(sweep.points.len(), 4 * 6);
        let rocc_64k = sweep.point(Placement::Rocc, 64 * 1024).unwrap();
        let pcie_64k = sweep.point(Placement::PcieNoCache, 64 * 1024).unwrap();
        // Figure 11's headline gaps.
        assert!(rocc_64k.speedup > 5.0, "rocc speedup {}", rocc_64k.speedup);
        assert!(
            rocc_64k.speedup / pcie_64k.speedup > 2.5,
            "rocc {} vs pcie {}",
            rocc_64k.speedup,
            pcie_64k.speedup
        );
        // Area shrinks with SRAM, identically across placements.
        let rocc_2k = sweep.point(Placement::Rocc, 2048).unwrap();
        assert!(rocc_2k.area_mm2 < rocc_64k.area_mm2);
        assert!(sweep.area_norm(rocc_64k) == 1.0 || sweep.area_norm(rocc_64k) > 0.99);
    }

    #[test]
    fn snappy_comp_sweep_reports_ratio() {
        let suite = tiny_suite(AlgoOp::new(Algorithm::Snappy, Direction::Compress));
        let sweep = compression_sweep(
            &suite,
            &[Placement::Rocc],
            &[64 * 1024, 2048],
            14,
            &MemParams::default(),
        );
        let big = sweep.point(Placement::Rocc, 64 * 1024).unwrap();
        let small = sweep.point(Placement::Rocc, 2048).unwrap();
        // Section 6.3: hardware at 64K matches or slightly beats software
        // (no skip heuristic); at 2K the ratio drops below it.
        let rb = big.ratio_vs_sw.unwrap();
        let rs = small.ratio_vs_sw.unwrap();
        assert!(rb > 0.97, "64K hw/sw ratio {rb}");
        assert!(rs <= rb, "2K {rs} vs 64K {rb}");
        assert!(big.speedup > 4.0, "compression speedup {}", big.speedup);
    }

    #[test]
    fn speculation_sweep_monotone() {
        let suite = tiny_suite(AlgoOp::new(Algorithm::Zstd, Direction::Decompress));
        let profiles = profile_suite(&suite);
        let pts = speculation_sweep(&suite, &profiles, &[4, 16, 32], &MemParams::default());
        assert_eq!(pts.len(), 3);
        assert!(pts[0].speedup <= pts[1].speedup);
        assert!(pts[1].speedup <= pts[2].speedup);
        assert!(pts[0].area_mm2 < pts[2].area_mm2);
    }

    #[test]
    fn point_index_keeps_find_first_semantics() {
        let op = AlgoOp::new(Algorithm::Snappy, Direction::Decompress);
        let mk = |speedup: f64| DsePoint {
            placement: Placement::Rocc,
            history_bytes: 2048,
            spec_ways: 16,
            hash_entries_log: 14,
            accel_seconds: 1.0,
            xeon_seconds: 1.0,
            accel_gbps: 1.0,
            speedup,
            area_mm2: speedup,
            ratio_vs_sw: None,
        };
        let sweep = Sweep::new(op, vec![mk(1.0), mk(2.0)]);
        // Duplicate (placement, history): the first point wins, exactly as
        // the old linear scan returned it.
        assert_eq!(sweep.point(Placement::Rocc, 2048).unwrap().speedup, 1.0);
        assert!(sweep.point(Placement::Chiplet, 2048).is_none());
        assert!(sweep.point(Placement::Rocc, 4096).is_none());
        // area_norm uses the cached max (2.0).
        assert_eq!(sweep.area_norm(&mk(2.0)), 1.0);
        assert_eq!(sweep.area_norm(&mk(1.0)), 0.5);
    }

    #[test]
    fn parallel_sweeps_match_serial_exactly() {
        let suite = tiny_suite(AlgoOp::new(Algorithm::Snappy, Direction::Decompress));
        let profiles = profile_suite(&suite);
        let run = || {
            decompression_sweep(
                &suite,
                &profiles,
                &standard_placements(),
                &standard_histories(),
                16,
                &MemParams::default(),
            )
        };
        cdpu_par::set_threads(1);
        let serial = run();
        cdpu_par::set_threads(4);
        let parallel = run();
        cdpu_par::set_threads(0);
        // Exact float equality: the parallel gather must be bit-identical.
        assert_eq!(serial.points, parallel.points);
    }

    #[test]
    fn wrong_direction_rejected() {
        let suite = tiny_suite(AlgoOp::new(Algorithm::Snappy, Direction::Compress));
        let r = std::panic::catch_unwind(|| {
            decompression_sweep(
                &suite,
                &[],
                &[Placement::Rocc],
                &[2048],
                16,
                &MemParams::default(),
            )
        });
        assert!(r.is_err());
    }
}
