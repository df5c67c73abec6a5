//! The Figure 21 scenario: inputs too large for GPU residency, so every
//! unfused operator stages its result over PCIe — kernel fusion removes
//! those round trips.
//!
//! ```bash
//! cargo run --release -p kw-examples --example large_inputs
//! ```

use kw_core::{ExecMode, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_tpch::Pattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let staged = WeaverConfig {
        mode: ExecMode::Staged,
        ..WeaverConfig::default()
    };

    println!("pattern                          GPU      PCIe   overall   PCIe bytes saved");
    for pattern in Pattern::all() {
        let workload = pattern.build(1 << 20, 99);

        let mut fused_dev = Device::new(DeviceConfig::fermi_c2050());
        let fused = workload.run(&mut fused_dev, &staged)?;
        let mut base_dev = Device::new(DeviceConfig::fermi_c2050());
        let base = workload.run(&mut base_dev, &staged.baseline())?;
        assert_eq!(fused.outputs, base.outputs);

        println!(
            "{} {:<28} {:>5.2}x  {:>6.2}x  {:>6.2}x   {:>10} MiB",
            pattern.label(),
            pattern.description(),
            base.gpu_seconds / fused.gpu_seconds,
            base.pcie_seconds / fused.pcie_seconds,
            // The paper's "overall" is the serialized compute + transfer
            // cost; staged total_seconds now measures streamed overlap.
            base.serialized_seconds / fused.serialized_seconds,
            (base_dev
                .stats()
                .pcie_bytes()
                .saturating_sub(fused_dev.stats().pcie_bytes()))
                >> 20,
        );
    }
    println!(
        "\n(paper averages: 2.91x GPU, 2.08x PCIe, 1.98x overall; \
         pattern (d) gains nothing on PCIe)"
    );
    Ok(())
}
