//! Cycle-approximate CDPU hardware simulator.
//!
//! This crate is the substitute for the paper's Chisel RTL generator plus
//! FireSim cycle-exact FPGA simulation (see DESIGN.md's substitution
//! table). It models the generated pipelines of Figures 9 and 10 — the
//! Snappy, ZStd and Flate classes, each in both directions — at block
//! level, through one dispatch: [`stages()`] prices a call of any fleet
//! operation from its structural [`CallProfile`] as a [`StageCycles`], and
//! [`simulate`] turns that into a [`SimResult`] and records its telemetry.
//!
//! - [`params`]: the full Section 5.8 parameter list (placement, history
//!   SRAM, hash table, speculation, statistics width, FSE accuracy) and
//!   the SoC memory model (256-bit TileLink into a shared L2, Figure 8).
//! - [`profile`]: per-call structural profiling (sequences, literals,
//!   offset distribution, entropy-block structure) using the real codecs.
//! - [`decomp`] / [`comp`]: the one stage function per direction.
//!   Decompression sweeps history SRAM analytically via the profiled
//!   offset distribution (off-chip fallbacks); live compression
//!   ([`comp::hw_profile`]) *re-runs the real matcher* under the restricted
//!   window/hash-table and measures the achieved ratio, and
//!   [`comp::compress`] prices that profile. The profile does not depend
//!   on placement, so a sweep takes it once per history SRAM and prices it
//!   at every placement.
//! - [`area`]: the 16nm-class silicon area model calibrated to the
//!   paper's reported mm² figures.
//! - [`service`]: the analytic per-call service-time entry point the
//!   multi-tenant serving simulator (`cdpu-serve`) prices jobs with.
//!
//! Calibration philosophy: the handful of per-stage constants are fixed so
//! the four RoCC 64 KiB design points land on the paper's absolute
//! throughputs; every *trend* (placement gaps, SRAM/speculation/hash
//! sweeps, compression-vs-decompression asymmetry) then emerges from the
//! model's structure, which is what the design-space exploration of
//! Section 6 is about.
//!
//! ```
//! use cdpu_fleet::{Algorithm, AlgoOp, Direction};
//! use cdpu_hwsim::{params::{CdpuParams, MemParams}, profile};
//! let data = b"a hyperscale call's worth of data, repeated ".repeat(100);
//! let prof = profile::profile_snappy(&data);
//! let op = AlgoOp::new(Algorithm::Snappy, Direction::Decompress);
//! let result = cdpu_hwsim::simulate(op, &prof, &CdpuParams::default(), &MemParams::default());
//! assert!(result.output_gbps() > 1.0);
//! ```

pub mod area;
pub mod chaining;
pub mod chunked;
pub mod comp;
pub mod decomp;
pub mod params;
pub mod pipeline;
pub mod profile;
pub mod service;
pub mod stages;

use cdpu_fleet::{Algorithm, AlgoOp, Direction};
use params::{CdpuParams, MemParams};
use profile::CallProfile;
use stages::StageCycles;

/// The three generated pipeline classes (Section 5.1) the six fleet
/// algorithms run on: Gipfeli and LZO behave like Snappy (LZ77, no entropy
/// stage), Brotli like ZStd (LZ77 + entropy + context), Flate is itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pipeline {
    Snappy,
    Zstd,
    Flate,
}

impl Pipeline {
    pub(crate) fn of(algo: Algorithm) -> Pipeline {
        match algo {
            Algorithm::Snappy | Algorithm::Gipfeli | Algorithm::Lzo => Pipeline::Snappy,
            Algorithm::Zstd | Algorithm::Brotli => Pipeline::Zstd,
            Algorithm::Flate => Pipeline::Flate,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Pipeline::Snappy => "snappy",
            Pipeline::Zstd => "zstd",
            Pipeline::Flate => "flate",
        }
    }
}

/// Per-stage cycles of one `op` call whose structure `profile` describes,
/// on the pipeline class `op`'s algorithm maps to.
///
/// # Panics
///
/// Panics if `p` is structurally invalid (see [`CdpuParams::validate`]).
pub fn stages(op: AlgoOp, profile: &CallProfile, p: &CdpuParams, mem: &MemParams) -> StageCycles {
    p.validate();
    let class = Pipeline::of(op.algo);
    match op.dir {
        Direction::Compress => comp::stages(class, profile, p, mem),
        Direction::Decompress => decomp::stages(class, profile, p, mem),
    }
}

/// Simulates one `op` call: prices [`stages()`] and, when telemetry is on,
/// records the call, its bounding stage and every stage's occupancy.
///
/// # Panics
///
/// Panics if `p` is structurally invalid (see [`CdpuParams::validate`]).
pub fn simulate(op: AlgoOp, profile: &CallProfile, p: &CdpuParams, mem: &MemParams) -> SimResult {
    let s = stages(op, profile, p, mem);
    if cdpu_telemetry::enabled() {
        record(op, &s, profile, p);
    }
    let (input_bytes, output_bytes) = match op.dir {
        Direction::Compress => (profile.uncompressed, profile.compressed),
        Direction::Decompress => (profile.compressed, profile.uncompressed),
    };
    SimResult {
        cycles: s.total(),
        input_bytes,
        output_bytes,
        freq_ghz: mem.freq_ghz,
    }
}

/// Publishes one call under `hwsim.{comp,decomp}.<class>.*`: the bound
/// (ties resolve as [`StageCycles::bound`] does) and the occupancy of each
/// unit the class instantiates, zero or not. The rANS and interleave
/// stages exist only for frames that use them, so they are recorded only
/// when nonzero and runs without such frames export no counter for them.
fn record(op: AlgoOp, s: &StageCycles, profile: &CallProfile, p: &CdpuParams) {
    let class = Pipeline::of(op.algo);
    let comp = op.dir == Direction::Compress;
    let dir = if comp { "comp" } else { "decomp" };
    let reg = cdpu_telemetry::registry();
    reg.counter(&format!("hwsim.{dir}.calls")).incr();
    reg.counter(&format!("hwsim.{dir}.dispatch_cycles")).add(s.dispatch);
    reg.counter(&format!("hwsim.{dir}.{}.bound.{}", class.name(), s.bound())).incr();
    let entropy = class != Pipeline::Snappy;
    let zstd = class == Pipeline::Zstd;
    for (stage, cycles, kept) in [
        ("input_stream", s.input_stream, true),
        ("matcher", s.matcher, comp),
        ("stats", s.stats, comp && zstd),
        ("huffman", s.huffman, entropy),
        ("fse", s.fse, zstd),
        ("writer", s.writer, !comp),
        (if comp { "dict_build" } else { "table_build" }, s.table_build, entropy),
        ("output_stream", s.output_stream, true),
        ("rans", s.rans, s.rans > 0),
        ("interleave", s.interleave, s.interleave > 0),
    ] {
        if kept {
            reg.counter(&format!("hwsim.{dir}.{}.{stage}_cycles", class.name())).add(cycles);
        }
    }
    if !comp {
        decomp::record(class, profile, p);
    }
}

/// Result of simulating one accelerator call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Total cycles from command dispatch to completion (end-to-end, as
    /// software observes it — Section 6.1).
    pub cycles: u64,
    /// Bytes read (compressed stream for decompression, raw input for
    /// compression).
    pub input_bytes: u64,
    /// Bytes written.
    pub output_bytes: u64,
    /// Clock the cycles are counted at, GHz.
    pub freq_ghz: f64,
}

impl SimResult {
    /// Wall-clock seconds for this call.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Throughput over *uncompressed* bytes per second — for
    /// decompression that is output bytes (the paper reports GB/s of
    /// uncompressed data).
    pub fn output_gbps(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.output_bytes as f64 / self.seconds() / 1e9
    }

    /// Throughput over input bytes per second (the uncompressed side of a
    /// compression call).
    pub fn input_gbps(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.input_bytes as f64 / self.seconds() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_result_arithmetic() {
        let r = SimResult {
            cycles: 2_000_000,
            input_bytes: 1 << 20,
            output_bytes: 2 << 20,
            freq_ghz: 2.0,
        };
        assert!((r.seconds() - 0.001).abs() < 1e-12);
        assert!((r.output_gbps() - 2.097).abs() < 0.01);
        assert!((r.input_gbps() - 1.048).abs() < 0.01);
    }

    #[test]
    fn zero_cycle_guard() {
        let r = SimResult {
            cycles: 0,
            input_bytes: 0,
            output_bytes: 0,
            freq_ghz: 2.0,
        };
        assert_eq!(r.output_gbps(), 0.0);
        assert_eq!(r.input_gbps(), 0.0);
    }
}
