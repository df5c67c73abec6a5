//! Figure 18: GPU global-memory access cycles with and without fusion.
//!
//! Paper result: fusion cuts global-memory access time by ≈ 59% on average
//! across the patterns (the paper collects this with the `clock()`
//! intrinsic; the simulator reports the same quantity directly).

use kw_tpch::Pattern;

use super::{geomean, resident, run_pair_on_devices, DEFAULT_N, SEED};

/// One pattern's Figure 18 measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig18Row {
    /// Which micro-benchmark pattern.
    pub pattern: Pattern,
    /// Global-memory access cycles, baseline.
    pub baseline_cycles: u64,
    /// Global-memory access cycles, fused.
    pub fused_cycles: u64,
}

impl Fig18Row {
    /// Fractional reduction in memory access cycles (0.59 = 59% saved).
    pub fn reduction(&self) -> f64 {
        1.0 - self.fused_cycles as f64 / self.baseline_cycles as f64
    }
}

/// Run Figure 18 over all five patterns.
pub fn run() -> Vec<Fig18Row> {
    Pattern::all()
        .into_iter()
        .map(|pattern| {
            let w = pattern.build(DEFAULT_N, SEED);
            let ((_, fused_dev), (_, base_dev)) = run_pair_on_devices(&w, &resident());
            Fig18Row {
                pattern,
                baseline_cycles: base_dev.stats().global_access_cycles,
                fused_cycles: fused_dev.stats().global_access_cycles,
            }
        })
        .collect()
}

/// Average reduction across the patterns (the paper's 59%).
pub fn average_reduction(rows: &[Fig18Row]) -> f64 {
    1.0 - geomean(
        &rows
            .iter()
            .map(|r| r.fused_cycles as f64 / r.baseline_cycles as f64)
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_cycles_drop_substantially() {
        let rows = run();
        for r in &rows {
            assert!(
                r.reduction() > 0.1,
                "{} should cut memory cycles: {r:?}",
                r.pattern.label()
            );
        }
        let avg = average_reduction(&rows);
        // Paper: 59%. Accept a band around it.
        assert!(avg > 0.4 && avg < 0.85, "average reduction {avg}");
    }
}
