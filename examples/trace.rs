//! Structured execution tracing — export a fused vs unfused TPC-H Q1 run
//! as Chrome trace-event JSON and a per-operator summary.
//!
//! Every kernel launch, PCIe transfer, allocation and injected fault the
//! simulator performs becomes one span carrying the operator provenance the
//! executor pushed and the exact `SimStats` delta it charged. This example
//! runs Q1 both ways, checks the reconciliation invariant (per-span deltas
//! sum to the aggregate counters), validates the emitted JSON against the
//! trace-event schema, and writes the files for Perfetto.
//!
//! ```bash
//! cargo run --release -p kw-examples --example trace [-- <output-dir>]
//! # then open <output-dir>/q1.fused.trace.json in https://ui.perfetto.dev
//! ```
//!
//! Exits non-zero if any trace fails reconciliation or schema validation,
//! which is how `ci.sh` uses it.

use kw_core::WeaverConfig;
use kw_gpu_sim::{
    chrome_trace_json, operator_summary, reconcile, summary_table, validate_chrome_json, Device,
    DeviceConfig, SpanKind, TraceSink,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "traces".into());
    let sink = TraceSink::new(&dir)?;
    let workload = kw_tpch::q1(8.0, 7);
    println!("lineitem: {} rows", workload.data[0].1.len());

    let mut fused_dev = Device::new(DeviceConfig::fermi_c2050());
    let fused = workload.run(&mut fused_dev, &WeaverConfig::default())?;
    let mut base_dev = Device::new(DeviceConfig::fermi_c2050());
    let base = workload.run(&mut base_dev, &WeaverConfig::default().baseline())?;
    assert_eq!(fused.outputs, base.outputs, "tracing changed the answer");

    let mut paths = Vec::new();
    for (name, dev) in [("q1.fused", &fused_dev), ("q1.baseline", &base_dev)] {
        // The invariant TraceSink::export also enforces, spelled out.
        reconcile(dev.spans(), dev.stats())
            .map_err(|e| format!("{name}: trace does not reconcile: {e}"))?;
        let json = chrome_trace_json(dev.spans(), dev.config().clock_ghz);
        let events = validate_chrome_json(&json)
            .map_err(|e| format!("{name}: invalid Chrome trace JSON: {e}"))?;

        let kernels = dev
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .count();
        println!(
            "\n{name}: {} spans ({kernels} kernels), {events} trace events, \
             {} global bytes",
            dev.spans().len(),
            dev.stats().global_bytes()
        );
        print!("{}", summary_table(&operator_summary(dev.spans())));
        paths.push(sink.export(name, dev)?);
    }

    // Fusion, visible in the trace itself: fewer kernel spans, less global
    // memory moved.
    let count = |d: &Device| {
        d.spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .count()
    };
    assert!(
        count(&fused_dev) < count(&base_dev),
        "fused trace should contain fewer kernel spans"
    );
    assert!(
        fused_dev.stats().global_bytes() < base_dev.stats().global_bytes(),
        "fused trace should move less global memory"
    );

    println!();
    for p in paths {
        println!("wrote {}", p.display());
    }
    println!("open the .trace.json files in https://ui.perfetto.dev");
    Ok(())
}
