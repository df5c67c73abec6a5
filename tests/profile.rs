//! Acceptance tests for the bottleneck-attribution profiler: the pinned
//! classifications the ISSUE demands (pattern (d) transfer-bound on the
//! discrete Fermi; pattern (a) fused launch/compute-bound once the PCIe
//! link is removed), plus sanity bounds on every derived figure.

use kw_core::{Bottleneck, ExecMode, WeaverConfig};
use kw_gpu_sim::{validate_json, Device, DeviceConfig};
use kw_tpch::Pattern;

fn run(
    pattern: Pattern,
    n: usize,
    config: DeviceConfig,
    mode: ExecMode,
    fusion: bool,
) -> (kw_core::PlanReport, Device) {
    let w = pattern.build(n, 0xC2050);
    let weaver = WeaverConfig {
        fusion,
        mode,
        ..WeaverConfig::default()
    };
    let mut dev = Device::new(config);
    let report = w.run(&mut dev, &weaver).expect("workload executes");
    (report, dev)
}

/// Pattern (d) stages a shared input over an 8 GB/s PCIe link whose
/// latency alone dwarfs the half-selectivity SELECTs it feeds: the link
/// is the busiest resource at any size, which is the paper's argument for
/// why input-dependent patterns don't profit from fusion on Fermi.
#[test]
fn pattern_d_staged_is_transfer_bound_on_fermi() {
    for fusion in [true, false] {
        let (report, _) = run(
            Pattern::D,
            1 << 16,
            DeviceConfig::fermi_c2050(),
            ExecMode::Staged,
            fusion,
        );
        println!(
            "pattern d staged fusion={fusion}: {:?} gpu={:.6} pcie={:.6} launch_share={:.3}",
            report.profile.bottleneck,
            report.profile.gpu_busy_seconds,
            report.profile.pcie_busy_seconds,
            report.profile.launch_share
        );
        assert_eq!(
            report.profile.bottleneck,
            Bottleneck::Transfer,
            "fusion={fusion}"
        );
        assert!(report.profile.pcie_busy_seconds >= report.profile.gpu_busy_seconds);
    }
}

/// Pattern (a) fused on the paper's fused (APU-style) device — §2.3
/// removes the PCIe bus — at a small input: with transfers cheap and the
/// whole chain woven into one kernel, what remains is launch overhead and
/// the kernel's own cycles.
#[test]
fn pattern_a_fused_is_launch_or_compute_bound_without_pcie() {
    let (report, _) = run(
        Pattern::A,
        2048,
        DeviceConfig::fused_apu(),
        ExecMode::Resident,
        true,
    );
    println!(
        "pattern a fused apu: {:?} gpu={:.9} pcie={:.9} launch_share={:.3} mem_share={:.3} ops={}",
        report.profile.bottleneck,
        report.profile.gpu_busy_seconds,
        report.profile.pcie_busy_seconds,
        report.profile.launch_share,
        report.profile.memory_share,
        report.operator_count,
    );
    assert_eq!(report.operator_count, 1, "the whole chain fuses");
    assert!(
        matches!(
            report.profile.bottleneck,
            Bottleneck::Launch | Bottleneck::Compute
        ),
        "got {:?}",
        report.profile.bottleneck
    );
}

/// Fusion must shrink absolute launch overhead: pattern (a) unfused runs
/// four kernels where fused runs one over the same data. (The launch
/// *share* may rise — fusion shrinks the cycle total even faster.)
#[test]
fn fusion_reduces_launch_overhead_on_pattern_a() {
    let cfg = DeviceConfig::fused_apu();
    let (fused, fused_dev) = run(Pattern::A, 2048, cfg.clone(), ExecMode::Resident, true);
    let (base, base_dev) = run(Pattern::A, 2048, cfg, ExecMode::Resident, false);
    println!(
        "launch seconds fused={:.9} base={:.9}",
        fused.profile.launch_seconds, base.profile.launch_seconds
    );
    assert!(fused.profile.launch_seconds < base.profile.launch_seconds);
    assert!(fused_dev.stats().kernel_launches < base_dev.stats().kernel_launches);
}

/// Every derived figure stays in its mathematical range, and the JSON
/// export is parseable, for all five patterns in both modes.
#[test]
fn profile_figures_are_bounded_and_exportable() {
    for pattern in Pattern::all() {
        for mode in [ExecMode::Resident, ExecMode::Staged] {
            let (report, _) = run(pattern, 4096, DeviceConfig::fermi_c2050(), mode, true);
            let p = &report.profile;
            assert!(p.wall_seconds > 0.0, "{pattern:?} {mode:?}");
            for (name, v) in [
                ("launch_share", p.launch_share),
                ("memory_share", p.memory_share),
                ("global_bw_utilization", p.global_bw_utilization),
                ("pcie_bw_utilization", p.pcie_bw_utilization),
            ] {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&v),
                    "{pattern:?} {mode:?} {name}={v}"
                );
            }
            // Busy fractions can't exceed 1 against the run's own wall
            // time for a serial run; staged runs overlap engines, so each
            // engine's fraction is still individually <= 1.
            assert!(p.gpu_busy_fraction <= 1.0 + 1e-9, "{pattern:?} {mode:?}");
            assert!(p.pcie_busy_fraction <= 1.0 + 1e-9, "{pattern:?} {mode:?}");
            assert!(!p.operators.is_empty());
            validate_json(&p.to_json()).expect("profile JSON parses");
        }
    }
}

/// The per-operator rows carry the same rule as the run verdict: a
/// staged pattern (d) sees its stage-in scope classified transfer-bound.
#[test]
fn operator_rows_attribute_transfers_to_staging_scopes() {
    let (report, _) = run(
        Pattern::D,
        1 << 16,
        DeviceConfig::fermi_c2050(),
        ExecMode::Staged,
        true,
    );
    for op in &report.profile.operators {
        println!(
            "  {} -> {:?} (gpu {:.6}, pcie {:.6})",
            op.operator, op.bottleneck, op.gpu_seconds, op.pcie_seconds
        );
    }
    assert!(report
        .profile
        .operators
        .iter()
        .any(|op| op.bottleneck == Bottleneck::Transfer));
}
