//! `model_dse`: the paper's own users. Bank → four hcbench suites →
//! `profile_suite` → decompression and compression sweeps over the
//! standard placement × history grid for Snappy and ZStd, then the
//! serving simulator on 50 000 fleet calls at ρ 0.7. All times are *host*
//! time of `cdpu-hwsim`/`cdpu-core`/`cdpu_serve::sim`; every simulated
//! result must be identical in every round.

use crate::estimator::{geomean_mb_s, p50_p95_us, Series};
use crate::harness::{lap, E2e, Report, Workload, THREADS};
use crate::inputs::{fold_u64, payloads_hash, sub_seed, FNV_BASIS, SHAPE_SEED};
use crate::spans::Recorder;
use cdpu_core::dse::{
    compression_sweep, decompression_sweep, profile_suite, standard_histories, standard_placements,
    DsePoint, Sweep,
};
use cdpu_fleet::{AlgoOp, Algorithm, Direction};
use cdpu_hcbench::bank::{BankConfig, ChunkBank};
use cdpu_hcbench::{generate_suite, Suite, SuiteConfig};
use cdpu_hwsim::params::{MemParams, Placement};
use cdpu_hwsim::profile::CallProfile;
use cdpu_serve::tenants::fleet_tenants;
use cdpu_serve::{ServeConfig, ServeReport};
use std::hint::black_box;
use std::time::Instant;

/// Files per suite and their size cap.
pub const SUITE_FILES: usize = 8;
pub const SUITE_MAX_CALL: u64 = 128 * 1024;
/// Corpus bytes per kind in the chunk bank.
pub const BANK_BYTES_PER_KIND: usize = 96 * 1024;
/// Huffman speculation ways and log2 hash-table entries of the figures
/// (11/14 and 12/15).
pub const SPEC_WAYS: u32 = 16;
pub const HASH_ENTRIES_LOG: u32 = 14;
/// Calls the serving simulator is given.
pub const SIM_CALLS: u64 = 50_000;
/// Public calls a round times one by one: per algorithm `profile_suite`
/// and the two sweeps, then `sim::run`.
const CALLS_PER_ROUND: usize = 3 * ALGOS.len() + 1;

const ALGOS: [Algorithm; 2] = [Algorithm::Snappy, Algorithm::Zstd];

/// The bank, the four suites and what set-up measured on the way.
pub struct ModelInputs {
    /// Per algorithm: (compression suite, decompression suite).
    pub suites: Vec<(Suite, Suite)>,
    /// Software ratio of each compression suite.
    pub sw_ratio: Vec<f64>,
    pub sim: ServeConfig,
    pub mem: MemParams,
    pub bank_build_s: f64,
    pub suite_gen_s: f64,
}

impl ModelInputs {
    pub fn new(seed: u64) -> Self {
        let t = Instant::now();
        let bank = ChunkBank::build(&BankConfig {
            chunk_size: 4096,
            per_kind_bytes: BANK_BYTES_PER_KIND,
            zstd_levels: vec![-5, 1, 3, 9],
            seed: sub_seed(seed, "model.bank"),
        });
        let bank_build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let suite = |algo, dir| {
            let op = AlgoOp::new(algo, dir);
            generate_suite(
                &bank,
                &SuiteConfig {
                    op,
                    files: SUITE_FILES,
                    max_call_bytes: SUITE_MAX_CALL,
                    // File sizes, levels and ratio targets are constants
                    // of the benchmark; `--seed` picks the bank they are
                    // assembled from (see `inputs`).
                    seed: sub_seed(SHAPE_SEED, &op.label()),
                },
            )
        };
        let suites: Vec<(Suite, Suite)> = ALGOS
            .iter()
            .map(|&a| {
                (
                    suite(a, Direction::Compress),
                    suite(a, Direction::Decompress),
                )
            })
            .collect();
        let suite_gen_s = t.elapsed().as_secs_f64();
        let sw_ratio = suites.iter().map(|(c, _)| c.aggregate_ratio()).collect();
        let mut sim = ServeConfig::new(fleet_tenants(8));
        sim.seed = sub_seed(seed, "model.sim");
        sim.instances = THREADS as u32;
        sim.total_calls = SIM_CALLS;
        sim.offered_load = 0.7;
        ModelInputs {
            suites,
            sw_ratio,
            sim,
            mem: MemParams::default(),
            bank_build_s,
            suite_gen_s,
        }
    }

    pub fn decompress(
        &self,
        suite: &Suite,
        profiles: &[CallProfile],
        grid: (&[Placement], &[usize]),
    ) -> Sweep {
        decompression_sweep(suite, profiles, grid.0, grid.1, SPEC_WAYS, &self.mem)
    }

    pub fn compress(&self, suite: &Suite, grid: (&[Placement], &[usize])) -> Sweep {
        compression_sweep(suite, grid.0, grid.1, HASH_ENTRIES_LOG, &self.mem)
    }
}

/// Fold of every field of every design point.
pub fn fold_points(acc: u64, points: &[DsePoint]) -> u64 {
    points.iter().fold(acc, |h, p| {
        [
            p.placement as u64,
            p.history_bytes as u64,
            u64::from(p.spec_ways),
            u64::from(p.hash_entries_log),
            p.accel_seconds.to_bits(),
            p.xeon_seconds.to_bits(),
            p.accel_gbps.to_bits(),
            p.speedup.to_bits(),
            p.area_mm2.to_bits(),
            p.ratio_vs_sw.map_or(0, f64::to_bits),
        ]
        .into_iter()
        .fold(h, fold_u64)
    })
}

/// Fold of the simulated outcome of one `sim::run`.
pub fn fold_serve_report(r: &ServeReport) -> u64 {
    [
        r.injected,
        r.completed,
        r.dropped,
        r.peak_queue_depth,
        r.wait.p50_ns.to_bits(),
        r.wait.p99_ns.to_bits(),
        r.total.p50_ns.to_bits(),
        r.total.p99_ns.to_bits(),
        r.mean_service_ns.to_bits(),
        r.utilization.to_bits(),
        r.goodput_gbps.to_bits(),
    ]
    .into_iter()
    .fold(FNV_BASIS, fold_u64)
}

/// Uncompressed bytes the simulator served, from its own size bins.
pub fn simulated_bytes(r: &ServeReport) -> u64 {
    r.size_bins
        .iter()
        .map(|b| b.count as f64 * b.mean_bytes)
        .sum::<f64>()
        .round() as u64
}

/// Simulated accelerator cycles summed over the points of a sweep.
pub fn total_cycles(points: &[DsePoint], mem: &MemParams) -> u64 {
    points
        .iter()
        .map(|p| (p.accel_seconds * mem.freq_ghz * 1e9).round() as u64)
        .sum()
}

pub struct ModelDse {
    inp: ModelInputs,
    placements: Vec<Placement>,
    histories: Vec<usize>,
    /// Per algorithm: host seconds of the compression sweep, and of
    /// `profile_suite` + the decompression sweep.
    c: Vec<Series>,
    d: Vec<Series>,
    sim: Series,
    /// Fastest observed time of each of the round's public calls.
    call_min_ns: [u64; CALLS_PER_ROUND],
    /// Mean modelled compression ratio over the compression points.
    hw_ratio: f64,
    fingerprint: u64,
    rounds: u64,
    failed: u64,
}

impl Workload for ModelDse {
    const NAME: &'static str = "model_dse";
    /// `profile_suite` and the sweeps fan out over the pool, as a user's
    /// `--jobs 2` study does.
    const CPUS: usize = THREADS;

    fn inputs_hash(&self) -> u64 {
        let files = self
            .inp
            .suites
            .iter()
            .flat_map(|(c, d)| c.files.iter().chain(&d.files));
        payloads_hash(files.map(|f| f.data.as_slice()))
    }

    fn setup(seed: u64) -> Self {
        let inp = ModelInputs::new(seed);
        let placements = standard_placements();
        let histories = standard_histories();
        let points = (placements.len() * histories.len()) as u64;
        let series = |dir: Direction| {
            inp.suites
                .iter()
                .map(|(c, d)| {
                    let suite = if dir == Direction::Compress { c } else { d };
                    Series::new(suite.op.label(), suite.total_uncompressed() * points)
                })
                .collect()
        };
        ModelDse {
            c: series(Direction::Compress),
            d: series(Direction::Decompress),
            sim: Series::new("sim.run", 0),
            call_min_ns: [u64::MAX; CALLS_PER_ROUND],
            inp,
            placements,
            histories,
            hw_ratio: 0.0,
            fingerprint: 0,
            rounds: 0,
            failed: 0,
        }
    }

    fn round(&mut self, mut rec: Option<&mut Recorder>) -> f64 {
        let round = self.rounds;
        let root = rec
            .as_deref_mut()
            .and_then(|r| r.open("dse.round", None, round));
        // Ends the public call started at `t0`: its seconds, its span and
        // its fastest time so far.
        let call_min_ns = &mut self.call_min_ns;
        let mut slot = 0;
        let mut end_call = |name: &str, t0: Instant| {
            let (secs, ns) = lap(t0);
            call_min_ns[slot] = call_min_ns[slot].min(ns);
            slot += 1;
            if let Some(r) = rec.as_deref_mut() {
                r.record(name, t0, secs, root, round);
            }
            secs
        };
        let grid = (self.placements.as_slice(), self.histories.as_slice());
        let mut inside = 0.0;
        let mut fingerprint = FNV_BASIS;
        let mut hw_ratios = Vec::new();
        for (a, (c_suite, d_suite)) in self.inp.suites.iter().enumerate() {
            let t0 = Instant::now();
            let profiles = profile_suite(black_box(d_suite));
            let profile_secs = end_call("core.profile_suite", t0);
            let t1 = Instant::now();
            let d_sweep = self.inp.decompress(d_suite, &profiles, grid);
            let sweep_secs = end_call("core.decompression_sweep", t1);
            self.d[a].secs.push(profile_secs + sweep_secs);

            let t2 = Instant::now();
            let c_sweep = self.inp.compress(black_box(c_suite), grid);
            let c_secs = end_call("core.compression_sweep", t2);
            self.c[a].secs.push(c_secs);

            inside += profile_secs + sweep_secs + c_secs;
            fingerprint = fold_points(fold_points(fingerprint, &d_sweep.points), &c_sweep.points);
            hw_ratios.extend(
                c_sweep
                    .points
                    .iter()
                    .map(|p| p.ratio_vs_sw.unwrap_or(f64::NAN) * self.inp.sw_ratio[a]),
            );
        }

        let t3 = Instant::now();
        let report = cdpu_serve::sim::run(black_box(&self.inp.sim));
        let sim_secs = end_call("serve.sim.run", t3);
        self.sim.secs.push(sim_secs);
        self.sim.bytes = simulated_bytes(&report);
        inside += sim_secs;
        fingerprint ^= fold_serve_report(&report);
        if report.completed + report.dropped != report.injected || report.injected != SIM_CALLS {
            self.failed += 1;
        }
        if let Some(r) = rec {
            r.close(root);
        }

        // A simulator is deterministic: a round whose simulated results
        // differ from the first round's is a failed round.
        if round > 0 && fingerprint != self.fingerprint {
            self.failed += 1;
        }
        self.fingerprint = fingerprint;
        self.hw_ratio = hw_ratios.iter().sum::<f64>() / hw_ratios.len() as f64;
        self.rounds += 1;
        inside
    }

    fn report(&self) -> Report {
        let (call_p50_us, call_p95_us) = p50_p95_us(&self.call_min_ns);
        Report {
            e2e: E2e {
                compress_mb_s: geomean_mb_s(&self.c),
                decompress_mb_s: geomean_mb_s(&self.d),
                ratio: self.hw_ratio,
                goodput_mb_s: self.sim.mb_s(),
                call_p50_us,
                call_p95_us,
            },
            attempted: self.rounds * CALLS_PER_ROUND as u64,
            failed: self.failed,
            series: self
                .c
                .iter()
                .chain(&self.d)
                .chain(std::iter::once(&self.sim))
                .cloned()
                .collect(),
        }
    }
}
