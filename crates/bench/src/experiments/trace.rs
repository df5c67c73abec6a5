//! Structured execution traces for a fused vs unfused TPC-H query.
//!
//! Runs the same workload twice on fresh devices — fusion on and off —
//! and returns both span logs with their aggregate counters, after
//! asserting the paper's acceptance criteria for the tracing layer:
//!
//! 1. both runs produce identical outputs,
//! 2. each run's per-span [`kw_gpu_sim::SimStats`] deltas sum exactly to
//!    its aggregate stats ([`kw_gpu_sim::reconcile`]),
//! 3. the fused trace contains *fewer kernel spans* and moves *less
//!    global memory* — fusion's benefit, visible span-by-span.
//!
//! The `paper_tables` binary renders these as per-operator summary tables
//! and (with `--trace-dir`) exports Perfetto-loadable Chrome trace JSON.

use kw_gpu_sim::{Device, SimStats, Span, SpanKind};
use kw_tpch::Workload;

use super::{device, resident, SEED};

/// One captured execution: the span log plus the aggregate counters it
/// must reconcile against.
#[derive(Debug, Clone)]
pub struct TraceCapture {
    /// `"{workload}.fused"` or `"{workload}.baseline"` — used as the
    /// export file stem.
    pub name: String,
    /// The device's complete span log for the run.
    pub spans: Vec<Span>,
    /// Aggregate device counters for the run.
    pub stats: SimStats,
    /// Device clock rate, for cycle→wall-time conversion in exports.
    pub clock_ghz: f64,
}

impl TraceCapture {
    /// Number of kernel spans in the trace.
    pub fn kernel_spans(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .count()
    }

    /// Number of PCIe transfer spans in the trace.
    pub fn transfer_spans(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Transfer)
            .count()
    }
}

/// Fused and baseline captures of one workload.
#[derive(Debug, Clone)]
pub struct TraceComparison {
    /// Workload name.
    pub workload: String,
    /// Trace with fusion enabled.
    pub fused: TraceCapture,
    /// Trace with fusion disabled.
    pub baseline: TraceCapture,
}

fn capture(w: &Workload, fusion: bool) -> TraceCapture {
    let mut dev: Device = device();
    let config = if fusion {
        resident()
    } else {
        resident().baseline()
    };
    w.run(&mut dev, &config)
        .unwrap_or_else(|e| panic!("{} (fusion={fusion}) failed while tracing: {e}", w.name));
    let variant = if fusion { "fused" } else { "baseline" };
    // File-system-friendly stem: "TPC-H Q1" -> "tpc-h_q1.fused".
    let stem = w.name.to_lowercase().replace([' ', '/'], "_");
    let cap = TraceCapture {
        name: format!("{stem}.{variant}"),
        spans: dev.spans().to_vec(),
        stats: *dev.stats(),
        clock_ghz: dev.config().clock_ghz,
    };
    // Acceptance criterion: per-span deltas sum exactly to the aggregate.
    kw_gpu_sim::reconcile(&cap.spans, &cap.stats)
        .unwrap_or_else(|e| panic!("{} trace does not reconcile: {e}", cap.name));
    cap
}

/// Trace TPC-H Q1 at `scale` (relative to the generator's base size),
/// fused and unfused, and check the acceptance criteria.
pub fn q1(scale: f64) -> TraceComparison {
    run(&kw_tpch::q1(scale, SEED))
}

/// Trace any workload fused and unfused.
pub fn run(w: &Workload) -> TraceComparison {
    let fused = capture(w, true);
    let baseline = capture(w, false);

    assert!(
        fused.kernel_spans() < baseline.kernel_spans(),
        "{}: fused trace should have fewer kernel spans ({} vs {})",
        w.name,
        fused.kernel_spans(),
        baseline.kernel_spans()
    );
    assert!(
        fused.stats.global_bytes() < baseline.stats.global_bytes(),
        "{}: fused trace should move less global memory ({} vs {})",
        w.name,
        fused.stats.global_bytes(),
        baseline.stats.global_bytes()
    );

    TraceComparison {
        workload: w.name.clone(),
        fused,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_traces_reconcile_and_show_fusion() {
        let cmp = q1(2.0);
        assert!(cmp.fused.kernel_spans() > 0);
        assert!(cmp.fused.transfer_spans() > 0);
        // Spans carry operator provenance from the executor scopes.
        assert!(
            cmp.fused
                .spans
                .iter()
                .any(|s| s.provenance.contains("fused[")),
            "no span carries fusion-candidate provenance"
        );
        assert!(cmp
            .baseline
            .spans
            .iter()
            .all(|s| !s.provenance.contains("fused[")));
    }

    #[test]
    fn chrome_export_of_q1_validates() {
        let cmp = q1(1.0);
        let json = kw_gpu_sim::chrome_trace_json(&cmp.fused.spans, cmp.fused.clock_ghz);
        let events = kw_gpu_sim::validate_chrome_json(&json).expect("valid Chrome trace");
        assert!(events >= cmp.fused.spans.len());
    }
}
