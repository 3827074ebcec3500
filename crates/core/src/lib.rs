//! CDPU generator front-end and design-space-exploration driver.
//!
//! This crate ties the framework together the way the paper's evaluation
//! flow does (Section 6): HyperCompressBench suites (from `cdpu-hcbench`)
//! are run through the hardware model (`cdpu-hwsim`) across placements,
//! history-SRAM sizes, hash-table sizes and speculation counts, and every
//! point is normalized against the Xeon software baseline — producing
//! exactly the series of Figures 11–15 plus the Section 6.4/6.6 text
//! numbers.
//!
//! - [`generator`]: the user-facing CDPU instance builder (algorithms ×
//!   directions × parameters) with area reporting — the "generator"
//!   half of the paper's framework.
//! - [`baseline`]: the Xeon E5-2686 v4 software cost model (lzbench
//!   throughputs reported in Section 6).
//! - [`dse`]: per-figure sweep drivers.
//! - [`summary`]: the Section 6.6 "key lessons" aggregation (46× speedup
//!   span, area savings, crossovers).

pub mod baseline;
pub mod dse;
pub mod generator;
pub mod summary;

pub use generator::CdpuInstance;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_compile() {
        let inst = crate::CdpuInstance::builder().build();
        assert!(inst.area_mm2() > 0.0);
    }
}
