//! The per-stage cycle breakdown every model call yields.
//!
//! Every modeled pipeline — Snappy/ZStd/Flate × compress/decompress — has
//! the same macro-structure: a serial dispatch, three streaming stages
//! (input, compute, output) of which the slowest bounds throughput, and a
//! compute stage that is itself the max of concurrent block-level unit
//! occupancies plus serial per-block table builds. [`StageCycles`] makes
//! that structure a value: [`crate::stages()`] returns one for any call,
//! live or profiled, and [`crate::simulate`] prices its [`total`] and
//! publishes its [`bound`] and parts, so the serving tier's observability
//! layer can attribute an individual slow call to the stage that actually
//! bounded it (queue wait aside).
//!
//! Stages a pipeline does not have simply stay at zero: a Snappy
//! decompressor is `{writer}`, a ZStd compressor is
//! `{matcher, stats, huffman, fse, table_build}`, and [`compute`]
//! degrades to the right expression in each case.
//!
//! [`compute`]: StageCycles::compute
//! [`total`]: StageCycles::total
//! [`bound`]: StageCycles::bound

/// Cycle occupancy of each pipeline stage for one simulated call.
///
/// Field semantics follow Figures 9/10: `matcher` is the LZ77 encoder
/// (compression only), `writer` the LZ77 decoder (decompression only),
/// `stats` the statistics collector, `huffman`/`fse` the entropy units
/// (decode or encode depending on direction), and `table_build` the
/// serial per-block dictionary/decode-table builds that cannot overlap
/// streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCycles {
    /// RoCC command dispatch + unit setup (serial, per call).
    pub dispatch: u64,
    /// Memloader: streaming the input through the SoC memory system.
    pub input_stream: u64,
    /// LZ77 encoder probe/skip/emit occupancy (compression).
    pub matcher: u64,
    /// Statistics-collection unit occupancy (ZStd-class compression).
    pub stats: u64,
    /// Huffman unit occupancy (expander or encoder).
    pub huffman: u64,
    /// FSE unit occupancy (expander or encoder).
    pub fse: u64,
    /// rANS unit occupancy (the alternative entropy expander; zero for
    /// frames that carry no rANS-coded sections).
    pub rans: u64,
    /// Stream splitter/reassembly occupancy for interleaved entropy
    /// streams (per-stream header parse plus lane muxing; zero for
    /// single-stream frames).
    pub interleave: u64,
    /// LZ77 writer occupancy incl. history fallbacks (decompression).
    pub writer: u64,
    /// Serial per-block table/dictionary builds.
    pub table_build: u64,
    /// Memwriter: streaming the output.
    pub output_stream: u64,
}

impl StageCycles {
    /// The compute-side occupancy: concurrent unit stages overlap (max),
    /// serial table builds stack on top.
    pub fn compute(&self) -> u64 {
        self.matcher
            .max(self.stats)
            .max(self.huffman)
            .max(self.fse)
            .max(self.rans)
            .max(self.interleave)
            .max(self.writer)
            + self.table_build
    }

    /// End-to-end cycles as software observes them: dispatch plus the
    /// slowest of the three streaming stages.
    pub fn total(&self) -> u64 {
        self.dispatch + self.input_stream.max(self.compute()).max(self.output_stream)
    }

    /// Which streaming stage bounded the call. Ties resolve toward
    /// compute, then input; the `hwsim.*.bound.*` telemetry counters
    /// publish this value.
    pub fn bound(&self) -> &'static str {
        let compute = self.compute();
        if compute >= self.input_stream && compute >= self.output_stream {
            "compute"
        } else if self.input_stream >= self.output_stream {
            "input"
        } else {
            "output"
        }
    }

    /// Non-zero stages as `(name, cycles)` pairs in pipeline order —
    /// the exemplar reports render this directly.
    pub fn parts(&self) -> Vec<(&'static str, u64)> {
        [
            ("dispatch", self.dispatch),
            ("input", self.input_stream),
            ("matcher", self.matcher),
            ("stats", self.stats),
            ("huffman", self.huffman),
            ("fse", self.fse),
            ("rans", self.rans),
            ("interleave", self.interleave),
            ("writer", self.writer),
            ("table_build", self.table_build),
            ("output", self.output_stream),
        ]
        .into_iter()
        .filter(|&(_, c)| c > 0)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_is_max_of_units_plus_builds() {
        let s = StageCycles {
            matcher: 100,
            stats: 80,
            huffman: 120,
            fse: 30,
            writer: 0,
            table_build: 50,
            ..Default::default()
        };
        assert_eq!(s.compute(), 170);
    }

    #[test]
    fn total_is_dispatch_plus_slowest_stream() {
        let s = StageCycles {
            dispatch: 60,
            input_stream: 500,
            writer: 300,
            output_stream: 400,
            ..Default::default()
        };
        assert_eq!(s.total(), 560);
        assert_eq!(s.bound(), "input");
    }

    #[test]
    fn bound_ties_resolve_to_compute_then_input() {
        let tied = StageCycles { input_stream: 10, writer: 10, output_stream: 10, ..Default::default() };
        assert_eq!(tied.bound(), "compute");
        let io_tied = StageCycles { input_stream: 10, output_stream: 10, ..Default::default() };
        assert_eq!(io_tied.bound(), "input");
        let out = StageCycles { input_stream: 5, output_stream: 10, ..Default::default() };
        assert_eq!(out.bound(), "output");
    }

    #[test]
    fn parts_skip_empty_stages() {
        let s = StageCycles { dispatch: 60, writer: 10, ..Default::default() };
        assert_eq!(s.parts(), vec![("dispatch", 60), ("writer", 10)]);
    }

    #[test]
    fn empty_breakdown_is_inert() {
        let s = StageCycles::default();
        assert_eq!(s.compute(), 0);
        assert_eq!(s.total(), 0);
        assert!(s.parts().is_empty());
    }
}
