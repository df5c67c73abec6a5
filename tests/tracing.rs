//! Integration tests for the structured tracing layer: determinism of the
//! Chrome trace export, the reconciliation invariant (per-span deltas sum
//! to the aggregate `SimStats`) for fused and unfused runs under fault
//! injection, and the fusion signature visible in the spans themselves.

use proptest::prelude::*;

use kw_core::{execute_resilient, RetryPolicy, WeaverConfig};
use kw_gpu_sim::{
    chrome_trace_json, reconcile, sum_deltas, validate_chrome_json, Device, DeviceConfig,
    FaultConfig, SpanKind,
};
use kw_tpch::{Pattern, Workload};

fn q1() -> Workload {
    kw_tpch::q1(2.0, 7)
}

fn run(w: &Workload, fusion: bool) -> (Device, kw_core::PlanReport) {
    let config = WeaverConfig {
        fusion,
        ..WeaverConfig::default()
    };
    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let report = w.run(&mut dev, &config).expect("q1 executes");
    (dev, report)
}

#[test]
fn identical_runs_export_byte_identical_traces() {
    let w = q1();
    let (d1, _) = run(&w, true);
    let (d2, _) = run(&w, true);
    let j1 = chrome_trace_json(d1.spans(), d1.config().clock_ghz);
    let j2 = chrome_trace_json(d2.spans(), d2.config().clock_ghz);
    assert_eq!(j1, j2, "trace export must be deterministic");
    validate_chrome_json(&j1).expect("valid Chrome trace JSON");
}

#[test]
fn per_span_deltas_sum_to_aggregate_stats() {
    let w = q1();
    for fusion in [true, false] {
        let (dev, report) = run(&w, fusion);
        // The aggregate is the span log's sum, every counter bit for bit,
        // and the report's seconds are read off that same sum.
        reconcile(dev.spans(), dev.stats())
            .unwrap_or_else(|e| panic!("device (fusion={fusion}): {e}"));
        let sum = sum_deltas(dev.spans());
        assert_eq!(sum, *dev.stats(), "fusion={fusion}");
        assert_eq!(report.pcie_seconds, sum.pcie_seconds, "fusion={fusion}");
        assert_eq!(
            report.gpu_seconds,
            dev.config().cycles_to_seconds(sum.gpu_cycles),
            "fusion={fusion}"
        );
    }
}

#[test]
fn traces_reconcile_under_fault_injection() {
    let w = q1();
    // Generous budget with gentle backoff: at a 10% per-op fault rate most
    // attempts see at least one fault, so retries stack up well past the
    // default budget of 4.
    let policy = RetryPolicy {
        max_retries: 64,
        base_backoff_seconds: 1e-4,
        backoff_multiplier: 1.1,
    };
    let mut reports = Vec::new();
    for fusion in [true, false] {
        let config = WeaverConfig {
            fusion,
            ..WeaverConfig::default()
        };
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        dev.inject_faults(FaultConfig::uniform(0xC2050, 0.10));
        let report = execute_resilient(&w.plan, &w.bindings(), &mut dev, &config, &policy)
            .expect("resilient q1 under faults");
        // The span log covers the whole resilient episode: failed attempts,
        // fault markers, backoff, and the attempt that landed. Its deltas
        // must still sum exactly to the device's aggregate counters.
        reconcile(dev.spans(), dev.stats())
            .unwrap_or_else(|e| panic!("faulted device (fusion={fusion}): {e}"));
        // Fault and backoff charges are span deltas like any other.
        let res = report.resilience.as_ref().expect("resilience report");
        let sum = sum_deltas(dev.spans());
        assert_eq!(sum.backoff_seconds, res.backoff_seconds, "fusion={fusion}");
        assert_eq!(
            sum.faults_injected,
            dev.spans()
                .iter()
                .filter(|s| s.kind == SpanKind::Fault)
                .count() as u64,
            "fusion={fusion}"
        );

        let spans = dev.spans();
        if res.faults_survived > 0 {
            assert!(
                spans.iter().any(|s| s.kind == SpanKind::Fault),
                "survived faults must appear as fault spans (fusion={fusion})"
            );
            assert!(
                spans.iter().any(|s| s.kind == SpanKind::Backoff),
                "retries must appear as backoff spans (fusion={fusion})"
            );
            // Retry provenance frames mark which attempt each span fed.
            assert!(
                spans.iter().any(|s| s.provenance.starts_with("attempt")),
                "spans must carry attempt provenance (fusion={fusion})"
            );
        }
        let json = chrome_trace_json(spans, 1.15);
        validate_chrome_json(&json).expect("faulted trace exports valid JSON");
        reports.push(report);
    }
    assert_eq!(
        reports[0].outputs, reports[1].outputs,
        "fault injection changed the answer"
    );
}

#[test]
fn fused_trace_has_fewer_kernel_spans_and_less_global_traffic() {
    let w = q1();
    let (fused_dev, fused) = run(&w, true);
    let (base_dev, base) = run(&w, false);
    assert_eq!(fused.outputs, base.outputs);

    let kernels = |d: &Device| {
        d.spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .count()
    };
    assert!(
        kernels(&fused_dev) < kernels(&base_dev),
        "fused {} vs baseline {}",
        kernels(&fused_dev),
        kernels(&base_dev)
    );
    assert!(
        fused_dev.stats().global_bytes() < base_dev.stats().global_bytes(),
        "fused {} vs baseline {}",
        fused_dev.stats().global_bytes(),
        base_dev.stats().global_bytes()
    );
    // Fusion-candidate provenance flows from the compiler into span labels.
    assert!(fused_dev
        .spans()
        .iter()
        .any(|s| s.provenance.contains("fused[")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The metrics registry is part of the deterministic surface: two
    /// identical seeded runs export byte-identical Prometheus text and
    /// JSON snapshots, whatever the pattern, size, seed or fusion mode.
    #[test]
    fn metrics_snapshots_are_deterministic(
        pat_idx in 0usize..Pattern::all().len(),
        n in 512usize..4_096,
        seed in any::<u64>(),
        fusion in any::<bool>(),
    ) {
        let w = Pattern::all()[pat_idx].build(n, seed);
        let config = WeaverConfig { fusion, ..WeaverConfig::default() };
        let mut d1 = Device::new(DeviceConfig::fermi_c2050());
        let mut d2 = Device::new(DeviceConfig::fermi_c2050());
        w.run(&mut d1, &config).expect("first run");
        w.run(&mut d2, &config).expect("second run");
        prop_assert_eq!(
            d1.metrics().prometheus_text(),
            d2.metrics().prometheus_text()
        );
        prop_assert_eq!(d1.metrics().to_json(), d2.metrics().to_json());
    }

    /// The histogram/counter layer reconciles with the span log and the
    /// aggregate `SimStats` it was folded from: the kernel-cycle histogram
    /// counts exactly the kernel spans and sums exactly their durations,
    /// and every mirrored counter equals its `SimStats` source.
    #[test]
    fn metric_totals_reconcile_with_stats_and_spans(
        pat_idx in 0usize..Pattern::all().len(),
        n in 512usize..4_096,
        seed in any::<u64>(),
        fusion in any::<bool>(),
    ) {
        let w = Pattern::all()[pat_idx].build(n, seed);
        let config = WeaverConfig { fusion, ..WeaverConfig::default() };
        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        w.run(&mut dev, &config).expect("workload executes");

        let kernel_spans: Vec<_> = dev
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .collect();
        let hist = dev
            .metrics()
            .histogram("kw_kernel_cycles")
            .expect("kernel histogram populated");
        prop_assert_eq!(hist.count(), kernel_spans.len() as u64);
        let span_cycles: u64 = kernel_spans.iter().map(|s| s.cycles()).sum();
        prop_assert_eq!(hist.sum(), span_cycles);
        // Serial resident runs charge GPU cycles only through kernel spans.
        prop_assert_eq!(span_cycles, dev.stats().gpu_cycles);

        let m = dev.metrics();
        prop_assert_eq!(m.counter("kw_gpu_cycles_total"), dev.stats().gpu_cycles);
        prop_assert_eq!(m.counter("kw_launch_cycles_total"), dev.stats().launch_cycles);
        prop_assert_eq!(
            m.counter("kw_kernel_launches_total"),
            dev.stats().kernel_launches
        );
        prop_assert_eq!(m.counter("kw_global_bytes_total"), dev.stats().global_bytes());
        prop_assert_eq!(m.counter("kw_h2d_bytes_total"), dev.stats().h2d_bytes);
        prop_assert_eq!(m.counter("kw_d2h_bytes_total"), dev.stats().d2h_bytes);
        prop_assert_eq!(m.counter("kw_spans_total"), dev.spans().len() as u64);
        prop_assert_eq!(m.counter("kw_plans_executed_total"), 1);
    }
}
