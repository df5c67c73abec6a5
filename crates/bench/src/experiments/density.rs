//! Operator density (Section 2.3): "RA operators ... exhibit low operation
//! density, ops per byte transferred from memory. Fusion naturally improves
//! operator density and hence performance."
//!
//! Measured directly from the simulator's counters: ALU operations per byte
//! of global-memory traffic, fused vs unfused.

use kw_tpch::Pattern;

use super::{resident, run_pair_on_devices, DEFAULT_N, SEED};

/// One pattern's operator-density measurement.
#[derive(Debug, Clone, Copy)]
pub struct DensityRow {
    /// Which micro-benchmark pattern.
    pub pattern: Pattern,
    /// ALU ops per global byte, baseline.
    pub baseline_density: f64,
    /// ALU ops per global byte, fused.
    pub fused_density: f64,
}

impl DensityRow {
    /// Density improvement factor from fusion.
    pub fn improvement(&self) -> f64 {
        self.fused_density / self.baseline_density
    }
}

/// Measure operator density across the five patterns.
pub fn run() -> Vec<DensityRow> {
    Pattern::all()
        .into_iter()
        .map(|pattern| {
            let w = pattern.build(DEFAULT_N, SEED);
            let ((_, fused_dev), (_, base_dev)) = run_pair_on_devices(&w, &resident());
            let (fused, base) = (fused_dev.stats(), base_dev.stats());
            DensityRow {
                pattern,
                baseline_density: base.alu_ops as f64 / base.global_bytes() as f64,
                fused_density: fused.alu_ops as f64 / fused.global_bytes() as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_improves_density_everywhere() {
        for r in run() {
            assert!(
                r.improvement() > 1.0,
                "{} density should improve: {r:?}",
                r.pattern.label()
            );
            // RA ops are memory-bound: density stays well below 1 op/byte.
            assert!(r.baseline_density < 1.0, "{r:?}");
        }
    }
}
