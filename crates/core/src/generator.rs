//! The CDPU instance builder — the "generator" front-end.
//!
//! The paper's generator elaborates RTL for a chosen set of algorithms
//! and directions sharing common blocks (Section 5). Here an instance is
//! a validated parameter bundle plus the set of pipelines it instantiates;
//! its area is the sum of the per-pipeline area models, and it exposes the
//! simulation entry points for each supported operation.

use cdpu_fleet::{Algorithm, AlgoOp, Direction};
use cdpu_hwsim::params::{CdpuParams, MemParams, Placement};
use cdpu_hwsim::profile::CallProfile;
use cdpu_hwsim::{area, comp, SimResult};

/// One generated CDPU instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CdpuInstance {
    params: CdpuParams,
    mem: MemParams,
    pipelines: Vec<AlgoOp>,
}

/// Builder for [`CdpuInstance`].
#[derive(Debug, Clone)]
pub struct CdpuBuilder {
    params: CdpuParams,
    mem: MemParams,
    pipelines: Vec<AlgoOp>,
}

impl CdpuInstance {
    /// Starts a builder with the full-size default parameters and all four
    /// Snappy/ZStd pipelines.
    pub fn builder() -> CdpuBuilder {
        CdpuBuilder {
            params: CdpuParams::default(),
            mem: MemParams::default(),
            pipelines: vec![
                AlgoOp::new(Algorithm::Snappy, Direction::Compress),
                AlgoOp::new(Algorithm::Snappy, Direction::Decompress),
                AlgoOp::new(Algorithm::Zstd, Direction::Compress),
                AlgoOp::new(Algorithm::Zstd, Direction::Decompress),
            ],
        }
    }

    /// The hardware parameters.
    pub fn params(&self) -> &CdpuParams {
        &self.params
    }

    /// The memory-system model.
    pub fn mem(&self) -> &MemParams {
        &self.mem
    }

    /// Pipelines this instance supports.
    pub fn pipelines(&self) -> &[AlgoOp] {
        &self.pipelines
    }

    /// Whether an operation is supported (run-time algorithm dispatch —
    /// Section 5.8 parameter 2).
    pub fn supports(&self, op: AlgoOp) -> bool {
        self.pipelines.contains(&op)
    }

    /// Total silicon area of the instantiated pipelines, mm² (16nm-class).
    pub fn area_mm2(&self) -> f64 {
        self.pipelines.iter().map(|&op| area::mm2(op, &self.params)).sum()
    }

    /// Fraction of a Xeon core tile this instance occupies.
    pub fn area_vs_xeon_core(&self) -> f64 {
        area::fraction_of_xeon_core(self.area_mm2())
    }

    /// Simulates a compression call.
    ///
    /// # Panics
    ///
    /// Panics if the corresponding pipeline is not instantiated.
    pub fn compress(&self, algo: Algorithm, data: &[u8]) -> comp::CompressSim {
        let op = AlgoOp::new(algo, Direction::Compress);
        assert!(self.supports(op), "{op} pipeline not instantiated");
        comp::compress(algo, data, &self.params, &self.mem)
    }

    /// Simulates a decompression call from a pre-computed profile.
    ///
    /// # Panics
    ///
    /// Panics if the corresponding pipeline is not instantiated.
    pub fn decompress(&self, algo: Algorithm, profile: &CallProfile) -> SimResult {
        let op = AlgoOp::new(algo, Direction::Decompress);
        assert!(self.supports(op), "{op} pipeline not instantiated");
        cdpu_hwsim::simulate(op, profile, &self.params, &self.mem)
    }
}

impl CdpuBuilder {
    /// Restricts the instance to the given pipelines.
    ///
    /// # Panics
    ///
    /// Panics if any pipeline uses an algorithm other than Snappy/ZStd, or
    /// the list is empty.
    pub fn pipelines(mut self, ops: &[AlgoOp]) -> Self {
        assert!(!ops.is_empty(), "an instance needs at least one pipeline");
        for op in ops {
            assert!(
                matches!(op.algo, Algorithm::Snappy | Algorithm::Zstd | Algorithm::Flate),
                "{op}: the generator implements Snappy, ZStd and Flate pipelines"
            );
        }
        self.pipelines = ops.to_vec();
        self
    }

    /// Sets the placement.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.params.placement = placement;
        self
    }

    /// Sets the history SRAM size in bytes.
    pub fn history_bytes(mut self, bytes: usize) -> Self {
        self.params.history_bytes = bytes;
        self
    }

    /// Sets log2 of LZ77-encoder hash-table entries.
    pub fn hash_entries_log(mut self, log: u32) -> Self {
        self.params.hash_entries_log = log;
        self
    }

    /// Sets hash-table associativity.
    pub fn hash_ways(mut self, ways: u32) -> Self {
        self.params.hash_ways = ways;
        self
    }

    /// Sets the Huffman expander's speculation count.
    pub fn spec_ways(mut self, spec: u32) -> Self {
        self.params.spec_ways = spec;
        self
    }

    /// Sets the memory model.
    pub fn mem(mut self, mem: MemParams) -> Self {
        self.mem = mem;
        self
    }

    /// Finalizes the instance.
    ///
    /// # Panics
    ///
    /// Panics if the parameter bundle is structurally invalid (see
    /// `CdpuParams::validate`).
    pub fn build(self) -> CdpuInstance {
        self.params.validate();
        CdpuInstance {
            params: self.params,
            mem: self.mem,
            pipelines: self.pipelines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_instance_has_all_pipelines() {
        let inst = CdpuInstance::builder().build();
        assert_eq!(inst.pipelines().len(), 4);
        assert!(inst.supports(AlgoOp::new(Algorithm::Zstd, Direction::Decompress)));
        // Full four-pipeline area: Snappy ~1.3 + ZStd ~5.4.
        let a = inst.area_mm2();
        assert!((6.0..7.5).contains(&a), "area {a}");
    }

    #[test]
    fn snappy_only_instance_is_small() {
        let inst = CdpuInstance::builder()
            .pipelines(&[
                AlgoOp::new(Algorithm::Snappy, Direction::Compress),
                AlgoOp::new(Algorithm::Snappy, Direction::Decompress),
            ])
            .build();
        let a = inst.area_mm2();
        assert!((1.1..1.5).contains(&a), "snappy pipeline {a}");
        // Headline claim territory: a few percent of a Xeon core for the
        // pair; each individual engine is 2.4–4.7%.
        assert!(inst.area_vs_xeon_core() < 0.08);
    }

    #[test]
    fn flate_pipelines_supported() {
        // The generator's reuse story (Section 3.4): a Flate instance is a
        // ZStd instance minus the FSE blocks.
        let flate = CdpuInstance::builder()
            .pipelines(&[
                AlgoOp::new(Algorithm::Flate, Direction::Compress),
                AlgoOp::new(Algorithm::Flate, Direction::Decompress),
            ])
            .build();
        let zstd = CdpuInstance::builder()
            .pipelines(&[
                AlgoOp::new(Algorithm::Zstd, Direction::Compress),
                AlgoOp::new(Algorithm::Zstd, Direction::Decompress),
            ])
            .build();
        let delta = zstd.area_mm2() - flate.area_mm2();
        let fse = cdpu_hwsim::area::FSE_EXPANDER_MM2 + cdpu_hwsim::area::FSE_COMPRESSOR_MM2;
        assert!((delta - fse).abs() < 1e-9, "delta {delta} vs fse {fse}");
        // And it runs.
        let data = b"flate instance smoke ".repeat(300);
        let c = flate.compress(Algorithm::Flate, &data);
        assert!(c.ratio() > 1.0);
        let prof = cdpu_hwsim::profile::profile_flate(&data, 6);
        assert!(flate.decompress(Algorithm::Flate, &prof).cycles > 0);
    }

    #[test]
    fn unsupported_pipeline_rejected() {
        assert!(std::panic::catch_unwind(|| {
            CdpuInstance::builder()
                .pipelines(&[AlgoOp::new(Algorithm::Brotli, Direction::Compress)])
                .build()
        })
        .is_err());
    }

    #[test]
    fn dispatch_to_missing_pipeline_panics() {
        let inst = CdpuInstance::builder()
            .pipelines(&[AlgoOp::new(Algorithm::Snappy, Direction::Compress)])
            .build();
        assert!(std::panic::catch_unwind(|| {
            let prof = cdpu_hwsim::profile::profile_snappy(b"data");
            inst.decompress(Algorithm::Snappy, &prof)
        })
        .is_err());
    }

    #[test]
    fn builder_knobs_apply() {
        let inst = CdpuInstance::builder()
            .placement(Placement::Chiplet)
            .history_bytes(4096)
            .hash_entries_log(9)
            .spec_ways(32)
            .build();
        assert_eq!(inst.params().placement, Placement::Chiplet);
        assert_eq!(inst.params().history_bytes, 4096);
        assert_eq!(inst.params().hash_entries_log, 9);
        assert_eq!(inst.params().spec_ways, 32);
    }

    #[test]
    fn end_to_end_compress_and_decompress() {
        let inst = CdpuInstance::builder().build();
        let data = b"generator front-end smoke test ".repeat(200);
        let c = inst.compress(Algorithm::Snappy, &data);
        assert!(c.ratio() > 1.0);
        let prof = cdpu_hwsim::profile::profile_snappy(&data);
        let d = inst.decompress(Algorithm::Snappy, &prof);
        assert!(d.cycles > 0);
        assert!(d.output_gbps() > c.sim.input_gbps(), "decompression is faster");
    }
}
