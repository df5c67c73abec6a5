//! Execution statistics counters.
//!
//! These counters back the paper's measurements: global-memory access cycles
//! (Fig. 18), allocated memory (Fig. 17, via [`crate::MemoryTracker`]), PCIe
//! traffic and time (Fig. 21), kernel launch counts and barrier counts.

/// Aggregate counters for one simulated execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Kernels launched.
    pub kernel_launches: u64,
    /// Cycles spent in kernel-launch overhead.
    pub launch_cycles: u64,
    /// Bytes read from global memory by kernels.
    pub global_bytes_read: u64,
    /// Bytes written to global memory by kernels.
    pub global_bytes_written: u64,
    /// Cycles attributed to global-memory access (the Fig. 18 metric).
    pub global_access_cycles: u64,
    /// Bytes read from shared memory.
    pub shared_bytes_read: u64,
    /// Bytes written to shared memory.
    pub shared_bytes_written: u64,
    /// Cycles attributed to shared-memory access.
    pub shared_access_cycles: u64,
    /// ALU operations executed.
    pub alu_ops: u64,
    /// Cycles attributed to ALU work.
    pub alu_cycles: u64,
    /// CTA-wide barrier synchronizations executed.
    pub barriers: u64,
    /// Cycles attributed to barriers.
    pub barrier_cycles: u64,
    /// Total GPU cycles (sum of all kernel costs).
    pub gpu_cycles: u64,
    /// Host-to-device PCIe transfers.
    pub h2d_transfers: u64,
    /// Host-to-device bytes.
    pub h2d_bytes: u64,
    /// Device-to-host PCIe transfers.
    pub d2h_transfers: u64,
    /// Device-to-host bytes.
    pub d2h_bytes: u64,
    /// Seconds spent on PCIe transfers.
    pub pcie_seconds: f64,
    /// Faults injected by the fault injector (all kinds).
    pub faults_injected: u64,
    /// Seconds spent in retry backoff, charged to the simulated clock.
    pub backoff_seconds: f64,
}

/// Apply `$op` (a method like `saturating_add`/`saturating_sub`) to every
/// `u64` counter pair and plain `$fop` to every `f64` pair.
macro_rules! for_each_counter {
    ($self:ident, $other:ident, $op:ident, $fop:tt) => {
        SimStats {
            kernel_launches: $self.kernel_launches.$op($other.kernel_launches),
            launch_cycles: $self.launch_cycles.$op($other.launch_cycles),
            global_bytes_read: $self.global_bytes_read.$op($other.global_bytes_read),
            global_bytes_written: $self.global_bytes_written.$op($other.global_bytes_written),
            global_access_cycles: $self.global_access_cycles.$op($other.global_access_cycles),
            shared_bytes_read: $self.shared_bytes_read.$op($other.shared_bytes_read),
            shared_bytes_written: $self.shared_bytes_written.$op($other.shared_bytes_written),
            shared_access_cycles: $self.shared_access_cycles.$op($other.shared_access_cycles),
            alu_ops: $self.alu_ops.$op($other.alu_ops),
            alu_cycles: $self.alu_cycles.$op($other.alu_cycles),
            barriers: $self.barriers.$op($other.barriers),
            barrier_cycles: $self.barrier_cycles.$op($other.barrier_cycles),
            gpu_cycles: $self.gpu_cycles.$op($other.gpu_cycles),
            h2d_transfers: $self.h2d_transfers.$op($other.h2d_transfers),
            h2d_bytes: $self.h2d_bytes.$op($other.h2d_bytes),
            d2h_transfers: $self.d2h_transfers.$op($other.d2h_transfers),
            d2h_bytes: $self.d2h_bytes.$op($other.d2h_bytes),
            pcie_seconds: $self.pcie_seconds $fop $other.pcie_seconds,
            faults_injected: $self.faults_injected.$op($other.faults_injected),
            backoff_seconds: $self.backoff_seconds $fop $other.backoff_seconds,
        }
    };
}

impl SimStats {
    /// Total bytes moved through global memory.
    pub fn global_bytes(&self) -> u64 {
        self.global_bytes_read + self.global_bytes_written
    }

    /// Total PCIe bytes in both directions.
    pub fn pcie_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }

    /// Accumulate another stats block into this one. Counter additions
    /// saturate: long chunked/retry accumulations clamp at `u64::MAX`
    /// instead of silently wrapping (and the drift is then caught by
    /// [`SimStats::cycles_consistent`] in debug builds).
    pub fn merge(&mut self, other: &SimStats) {
        *self = for_each_counter!(self, other, saturating_add, +);
    }

    /// The counter-wise difference `self - earlier` (saturating at zero).
    ///
    /// Counters only grow, so for two snapshots of the same device this is
    /// the cost charged between them (up to `f64` rounding in the two
    /// seconds counters; the exact per-operation amounts are the span
    /// deltas).
    pub fn diff(&self, earlier: &SimStats) -> SimStats {
        for_each_counter!(self, earlier, saturating_sub, -)
    }

    /// The kernel-side counters of this block, with every transfer, fault
    /// and backoff counter zeroed: what a streamed compute span may charge
    /// ([`crate::Device::compute_on`]) when the block's transfers are
    /// charged separately as transfer spans.
    pub fn compute_only(&self) -> SimStats {
        SimStats {
            h2d_transfers: 0,
            h2d_bytes: 0,
            d2h_transfers: 0,
            d2h_bytes: 0,
            pcie_seconds: 0.0,
            faults_injected: 0,
            backoff_seconds: 0.0,
            ..*self
        }
    }

    /// Whether `gpu_cycles` equals the sum of its component cycle counters
    /// (launch + global + shared + ALU + barrier). Holds for every honestly
    /// accumulated stats block; a saturated or hand-edited block breaks it.
    pub fn cycles_consistent(&self) -> bool {
        let parts = self
            .launch_cycles
            .checked_add(self.global_access_cycles)
            .and_then(|c| c.checked_add(self.shared_access_cycles))
            .and_then(|c| c.checked_add(self.alu_cycles))
            .and_then(|c| c.checked_add(self.barrier_cycles));
        parts == Some(self.gpu_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SimStats {
            kernel_launches: 1,
            global_bytes_read: 10,
            pcie_seconds: 0.5,
            ..SimStats::default()
        };
        let b = SimStats {
            kernel_launches: 2,
            global_bytes_written: 5,
            pcie_seconds: 0.25,
            ..SimStats::default()
        };
        a.merge(&b);
        assert_eq!(a.kernel_launches, 3);
        assert_eq!(a.global_bytes(), 15);
        assert!((a.pcie_seconds - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = SimStats {
            gpu_cycles: u64::MAX - 10,
            alu_ops: u64::MAX,
            ..SimStats::default()
        };
        let b = SimStats {
            gpu_cycles: 100,
            alu_ops: 1,
            ..SimStats::default()
        };
        a.merge(&b);
        assert_eq!(a.gpu_cycles, u64::MAX);
        assert_eq!(a.alu_ops, u64::MAX);
    }

    #[test]
    fn diff_recovers_merge() {
        let a = SimStats {
            kernel_launches: 3,
            gpu_cycles: 100,
            pcie_seconds: 1.5,
            ..SimStats::default()
        };
        let b = SimStats {
            kernel_launches: 1,
            gpu_cycles: 40,
            pcie_seconds: 0.5,
            ..SimStats::default()
        };
        let d = a.diff(&b);
        assert_eq!(d.kernel_launches, 2);
        assert_eq!(d.gpu_cycles, 60);
        assert!((d.pcie_seconds - 1.0).abs() < 1e-12);
        let mut back = b;
        back.merge(&d);
        assert_eq!(back.kernel_launches, a.kernel_launches);
        assert_eq!(back.gpu_cycles, a.gpu_cycles);
    }

    #[test]
    fn compute_only_keeps_kernel_counters_and_drops_the_rest() {
        let all = SimStats {
            kernel_launches: 2,
            gpu_cycles: 70,
            launch_cycles: 70,
            alu_ops: 5,
            h2d_transfers: 1,
            h2d_bytes: 64,
            d2h_transfers: 1,
            d2h_bytes: 32,
            pcie_seconds: 0.5,
            faults_injected: 3,
            backoff_seconds: 0.25,
            ..SimStats::default()
        };
        let compute = all.compute_only();
        assert_eq!(compute.compute_only(), compute, "idempotent");
        assert_eq!((compute.kernel_launches, compute.gpu_cycles), (2, 70));
        assert_eq!(compute.alu_ops, 5);
        assert_eq!(compute.pcie_bytes() + compute.h2d_transfers, 0);
        assert_eq!(compute.faults_injected, 0);
        assert_eq!((compute.pcie_seconds, compute.backoff_seconds), (0.0, 0.0));
        // What compute_only drops is exactly what a transfer-only block holds.
        let mut back = compute;
        back.merge(&all.diff(&compute));
        assert_eq!(back, all);
    }

    #[test]
    fn cycles_consistency() {
        assert!(SimStats::default().cycles_consistent());
        let ok = SimStats {
            launch_cycles: 10,
            global_access_cycles: 20,
            shared_access_cycles: 5,
            alu_cycles: 3,
            barrier_cycles: 2,
            gpu_cycles: 40,
            ..SimStats::default()
        };
        assert!(ok.cycles_consistent());
        let drifted = SimStats {
            gpu_cycles: 41,
            ..ok
        };
        assert!(!drifted.cycles_consistent());
    }
}
