//! The traced run: per-layer metrics.
//!
//! Spans are recorded here, around calls into each layer's public entry
//! points; the program itself is not instrumented. A layer that runs inside
//! another call (the interpreter inside the executor, admission inside the
//! resilient driver, the scheduler inside the service) is *replayed*: the
//! same public function is called again on the same inputs, timed, and its
//! span is attributed to the enclosing layer's span, whose self time it is
//! subtracted from. Replays run after the measured call, on fresh devices.
//!
//! Untraced executions of the same queries alternate with the traced ones,
//! so `trace.coverage` (layer self time over untraced end-to-end time) and
//! `trace.overhead_ms_per_query` compare like with like. Spans are kept in
//! memory and written to `perfbench/traces/<workload>-seed<n>.json` at the
//! end.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use kw_core::{
    admit, compile, execute_batch_compiled_with_policy, execute_chunked_compiled, execute_compiled,
    execute_compiled_resilient, run_service, AdmittedMode, CompiledPlan, NodeId, PlanNode,
    PlanReport, QueryPlan, RetryPolicy, WeaverConfig,
};
use kw_gpu_sim::{chrome_trace_json, Device, DeviceConfig};
use kw_kernel_ir::OptLevel;
use kw_relational::Relation;

use crate::exec::{self, Session, Shapes, ARRIVALS, RATE_HI_QPS, RATE_LO_QPS};
use crate::report::Report;
use crate::workloads::{self, Kind, Query};
use crate::Args;
use crate::{measure, oracle};

const MB: f64 = 1e6;

/// Layers whose self times make up `trace.coverage`. Root spans (`query`,
/// `session`) and `export` are not layers of an end-to-end call.
const LAYERS: [&str; 8] = [
    "compile",
    "admission",
    "executor",
    "interp",
    "resilient",
    "chunked",
    "scheduler",
    "service",
];

/// One timed interval.
struct Span {
    layer: &'static str,
    /// The query (closed loops) or session (service-mix) it belongs to.
    request: u64,
    /// The span this one's time is attributed to.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that other spans nest in; close it with [`Tracer::close`].
    fn open(&mut self, layer: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    fn time<T>(
        &mut self,
        layer: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(layer, request, parent);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Self seconds per layer: each span's duration minus the durations of
    /// the spans attributed to it.
    fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += dur(s);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            *out.entry(s.layer).or_insert(0.0) += dur(s) - c;
        }
        out
    }

    /// Total seconds and count of the spans of `layer`.
    fn total(&self, layer: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0.0, 0), |(t, n), s| {
                (t + (s.end_ns - s.start_ns) as f64 * 1e-9, n + 1)
            })
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"layer\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.layer,
                    s.request,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Counts taken at the layer boundaries, summed over traced executions.
#[derive(Default)]
struct Counters {
    /// Traced queries (closed loops) or arrivals (service-mix).
    units: u64,
    /// Untraced end-to-end seconds and their count, in the same units.
    untraced_seconds: f64,
    untraced_units: u64,
    interp_tuples: u64,
    compiles: u64,
    steps: u64,
    plan_ops: u64,
    fused_ops: u64,
    fused_sim_seconds: f64,
    unfused_sim_seconds: f64,
    spans: u64,
    launches: u64,
    gpu_seconds: f64,
    pcie_seconds: f64,
    pcie_bytes: u64,
    arena_high_water: u64,
    admissions: u64,
    predicted_peak: f64,
    measured_peak: f64,
    chunks: u64,
    pipelined_seconds: f64,
    serialized_seconds: f64,
    rungs: u64,
}

/// Trace `args.kind` for `--seconds`, then one round (one session pair)
/// of each other workload. No workload calls every layer, so a per-layer
/// metric the traced workload cannot give is taken from the first other
/// workload, in [`Kind::ALL`] order, that gives it. Every workload's spans
/// go to `perfbench/traces/<workload>-seed<n>-<traced workload>.json`.
pub fn run(args: &Args, queries: Vec<Query>) -> Result<Report, String> {
    let mut report = run_one(args, args.kind, args.seconds, &queries)?;
    drop(queries);
    for kind in Kind::ALL.into_iter().filter(|&k| k != args.kind) {
        let (_, queries) = workloads::setup(kind, args.seed, false)?;
        let taken = report.absorb(run_one(args, kind, 0.0, &queries)?);
        eprintln!("from {}: {}", kind.name(), taken.join(" "));
    }
    Ok(report)
}

/// The traced run of one workload for `seconds` (at least one round).
fn run_one(args: &Args, kind: Kind, seconds: f64, queries: &[Query]) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    match kind {
        Kind::ResidentScan | Kind::OutOfCore => {
            closed_loop(kind, seconds, queries, &mut tr, &mut c, &mut report)
        }
        Kind::ServiceMix => service(args.seed, seconds, queries, &mut tr, &mut c, &mut report)?,
    }
    if c.units == 0 || c.untraced_units == 0 {
        return Err(format!("{}: nothing was traced", kind.name()));
    }
    let path = std::path::PathBuf::from(format!(
        "perfbench/traces/{}-seed{}-{}.json",
        args.workload,
        args.seed,
        kind.name()
    ));
    tr.write(&path)?;
    eprintln!("{} spans written to {}", tr.spans.len(), path.display());

    let units = c.units as f64;
    let untraced = c.untraced_seconds / c.untraced_units as f64;
    let own = tr.self_seconds();
    let per_unit = |layer: &str| own.get(layer).copied().unwrap_or(0.0) / units;
    let share = |layer: &str| per_unit(layer) / untraced;
    let covered: f64 = LAYERS.iter().map(|l| per_unit(l)).sum();
    let (traced_roots, _) = tr.total(if kind == Kind::ServiceMix {
        "session"
    } else {
        "query"
    });

    report.metric("trace.coverage", covered / untraced, "ratio");
    report.metric(
        "trace.overhead_ms_per_query",
        (traced_roots / units - untraced) * 1e3,
        "ms",
    );
    report.metric("interp.host_ms", per_unit("interp") * 1e3, "ms");
    report.metric(
        "interp.ns_per_tuple",
        own.get("interp").copied().unwrap_or(0.0) * 1e9 / c.interp_tuples as f64,
        "ns",
    );
    report.metric("interp.share", share("interp"), "ratio");
    let (compile_s, compile_n) = tr.total("compile");
    report.metric("compile.host_us", compile_s * 1e6 / compile_n as f64, "us");
    report.metric("compile.steps", c.steps as f64 / c.compiles as f64, "count");
    report.metric(
        "compile.fused_op_frac",
        c.fused_ops as f64 / c.plan_ops as f64,
        "frac",
    );
    if c.unfused_sim_seconds > 0.0 {
        report.metric(
            "compile.fusion_speedup",
            c.unfused_sim_seconds / c.fused_sim_seconds,
            "ratio",
        );
    }
    if kind != Kind::OutOfCore {
        report.metric("executor.self_host_ms", per_unit("executor") * 1e3, "ms");
        report.metric("executor.share", share("executor"), "ratio");
    }
    if c.admissions > 0 {
        let (admit_s, admit_n) = tr.total("admission");
        report.metric("admission.host_us", admit_s * 1e6 / admit_n as f64, "us");
    }
    if kind == Kind::OutOfCore {
        report.metric(
            "admission.peak_fidelity",
            c.predicted_peak / c.measured_peak,
            "ratio",
        );
        report.metric("resilient.self_host_ms", per_unit("resilient") * 1e3, "ms");
        report.metric("resilient.rungs_tried", c.rungs as f64 / units, "count");
        report.metric("chunked.host_ms", per_unit("chunked") * 1e3, "ms");
        report.metric("chunked.share", share("chunked"), "ratio");
        report.metric("chunked.chunks", c.chunks as f64 / units, "count");
        report.metric(
            "chunked.overlap_ratio",
            c.pipelined_seconds / c.serialized_seconds,
            "ratio",
        );
    }
    report.metric("device.spans_per_query", c.spans as f64 / units, "count");
    report.metric(
        "device.launches_per_query",
        c.launches as f64 / units,
        "count",
    );
    report.metric("device.sim_gpu_ms", c.gpu_seconds * 1e3 / units, "ms");
    report.metric("device.sim_pcie_ms", c.pcie_seconds * 1e3 / units, "ms");
    report.metric("device.sim_pcie_mb", c.pcie_bytes as f64 / MB / units, "MB");
    if kind != Kind::ServiceMix {
        report.metric(
            "device.arena_high_water_mb",
            c.arena_high_water as f64 / MB,
            "MB",
        );
    }
    let (export_s, _) = tr.total("export");
    report.metric("export.host_ms_per_query", export_s * 1e3 / units, "ms");
    if kind == Kind::ServiceMix {
        report.metric(
            "service.self_host_ms_per_arrival",
            per_unit("service") * 1e3,
            "ms",
        );
        report.metric("service.share", share("service"), "ratio");
        report.metric(
            "scheduler.overhead_ms_per_query",
            per_unit("scheduler") * 1e3,
            "ms",
        );
        report.metric("scheduler.share", share("scheduler"), "ratio");
    }
    Ok(report)
}

/// Compile-side counts of one compiled plan.
fn count_compiled(c: &mut Counters, plan: &QueryPlan, compiled: &CompiledPlan) {
    c.compiles += 1;
    c.steps += compiled.steps.len() as u64;
    c.plan_ops += plan.operator_nodes().count() as u64;
    c.fused_ops += compiled
        .fusion_sets
        .iter()
        .map(|s| s.len() as u64)
        .sum::<u64>();
}

/// Device-side counts of one execution's device.
fn count_device(c: &mut Counters, device: &Device) {
    let stats = device.stats();
    c.spans += device.spans().len() as u64;
    c.launches += stats.kernel_launches;
    c.pcie_bytes += stats.h2d_bytes + stats.d2h_bytes;
}

/// Render the device's span log as a Chrome trace and its metrics registry
/// as JSON, as a user exporting a run would.
fn export(tr: &mut Tracer, request: u64, device: &Device) {
    tr.time("export", request, None, || {
        let trace = chrome_trace_json(device.spans(), device.config().clock_ghz);
        let metrics = device.metrics().to_json();
        black_box((trace.len(), metrics.len()))
    });
}

/// Replay each compiled step's `kw_kernel_ir::execute` in plan order over
/// the whole inputs on a fresh device, timing each call as an `interp`
/// span attributed to `parent`. Returns the input tuples the steps read.
/// The replay must reproduce the oracle's answer.
#[allow(clippy::too_many_arguments)]
fn replay_interp(
    tr: &mut Tracer,
    request: u64,
    parent: usize,
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bindings: &[(&str, &Relation)],
    device: DeviceConfig,
    opt: OptLevel,
    expected: &oracle::Outputs,
) -> Result<u64, String> {
    let mut device = Device::new(device);
    let mut base: BTreeMap<NodeId, &Relation> = BTreeMap::new();
    for id in plan.node_ids() {
        if let PlanNode::Input { name, .. } = plan.node(id) {
            if let Some((_, r)) = bindings.iter().find(|(n, _)| n == name) {
                base.insert(id, r);
            }
        }
    }
    let mut values: BTreeMap<NodeId, Relation> = BTreeMap::new();
    let mut tuples = 0u64;
    for step in &compiled.steps {
        let result = {
            let args: Vec<&Relation> = step
                .inputs
                .iter()
                .map(|i| values.get(i).or_else(|| base.get(i).copied()))
                .collect::<Option<_>>()
                .ok_or("interp replay: step input not computed")?;
            tuples += args.iter().map(|r| r.len() as u64).sum::<u64>();
            let (_, result) = tr.time("interp", request, Some(parent), || {
                kw_kernel_ir::execute(&step.op, &args, &mut device, opt)
            });
            result.map_err(|e| format!("interp replay of {}: {e}", step.op.label))?
        };
        values.extend(step.outputs.iter().copied().zip(result.outputs));
    }
    let got: oracle::Outputs = expected
        .keys()
        .filter_map(|n| values.remove(n).map(|r| (*n, r)))
        .collect();
    if !oracle::identical(&got, expected) {
        return Err("interp replay differs from the CPU oracle".into());
    }
    Ok(tuples)
}

/// Closed loops: rounds of untraced then traced executions of every query
/// while another round fits in `seconds` (at least one).
fn closed_loop(
    kind: Kind,
    seconds: f64,
    queries: &[Query],
    tr: &mut Tracer,
    c: &mut Counters,
    report: &mut Report,
) {
    let start = Instant::now();
    let mut rounds = 0u32;
    let mut request = 0u64;
    loop {
        for q in queries {
            let (elapsed, result, device) = exec::run_solo(kind, q);
            report.check(exec::solo_failure(q, &result, &device));
            c.untraced_seconds += elapsed.as_secs_f64();
            c.untraced_units += 1;
        }
        for q in queries {
            let failure = match kind {
                Kind::OutOfCore => traced_out_of_core(q, request, rounds == 0, tr, c),
                _ => traced_resident(q, request, rounds == 0, tr, c),
            };
            report.check(failure.err());
            request += 1;
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * f64::from(rounds + 1) / f64::from(rounds) > seconds {
            break;
        }
    }
    eprintln!("{}: {rounds} traced rounds", kind.name());
}

/// Simulated seconds of an unfused (baseline) run of the query's plan
/// through the same entry point, for `compile.fusion_speedup`.
fn unfused_seconds(q: &Query, resilient: bool) -> Result<f64, String> {
    let config = WeaverConfig::default().baseline();
    let bindings = q.bindings();
    let plan = &q.workload.plan;
    let compiled = compile(plan, &config).map_err(|e| e.to_string())?;
    let mut device = Device::new(q.device.clone());
    let report = if resilient {
        execute_compiled_resilient(
            plan,
            &compiled,
            &bindings,
            &mut device,
            &config,
            &RetryPolicy::default(),
        )
    } else {
        execute_compiled(plan, &compiled, &bindings, &mut device, &config)
    };
    report
        .map(|r| r.total_seconds)
        .map_err(|e| format!("{} unfused: {e}", q.workload.name))
}

/// Time `compile`, then `layer` (the rest of the end-to-end call, given the
/// compiled plan), nested in one query span on a fresh device; check the
/// result and take its counts. Returns the compiled plan, the `layer` span,
/// the report and the device.
fn traced_query(
    q: &Query,
    request: u64,
    layer: &'static str,
    tr: &mut Tracer,
    c: &mut Counters,
    run: impl FnOnce(&CompiledPlan, &mut Device) -> kw_core::Result<PlanReport>,
) -> Result<(CompiledPlan, usize, PlanReport, Device), String> {
    let plan = &q.workload.plan;
    let mut device = Device::new(q.device.clone());
    let root = tr.open("query", request, None);
    let (_, compiled) = tr.time("compile", request, Some(root), || {
        compile(plan, &WeaverConfig::default())
    });
    let executed = compiled
        .as_ref()
        .ok()
        .map(|compiled| tr.time(layer, request, Some(root), || run(compiled, &mut device)));
    tr.close(root);
    let compiled = compiled.map_err(|e| format!("{}: {e}", q.workload.name))?;
    let (span, result) = executed.expect("compiled plans execute");
    if let Some(e) = exec::solo_failure(q, &result, &device) {
        return Err(e);
    }
    let r = result.map_err(|e| e.to_string())?;
    c.units += 1;
    count_compiled(c, plan, &compiled);
    count_device(c, &device);
    c.gpu_seconds += r.gpu_seconds;
    c.pcie_seconds += r.pcie_seconds;
    if let Some(a) = r.arena {
        c.arena_high_water = c.arena_high_water.max(a.high_water);
    }
    Ok((compiled, span, r, device))
}

/// resident-scan: `compile` and `execute_compiled` (the two halves of
/// `execute_plan`) nested in the query span, the interpreter replayed
/// under the executor.
fn traced_resident(
    q: &Query,
    request: u64,
    first: bool,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    let config = WeaverConfig::default();
    let bindings = q.bindings();
    let plan = &q.workload.plan;
    let (compiled, exec_span, r, device) =
        traced_query(q, request, "executor", tr, c, |compiled, device| {
            execute_compiled(plan, compiled, &bindings, device, &config)
        })?;
    c.interp_tuples += replay_interp(
        tr,
        request,
        exec_span,
        plan,
        &compiled,
        &bindings,
        q.device.clone(),
        config.opt,
        &q.expected,
    )?;
    export(tr, request, &device);
    if first {
        c.fused_sim_seconds += r.total_seconds;
        c.unfused_sim_seconds += unfused_seconds(q, false)?;
    }
    Ok(())
}

/// out-of-core: `compile` and `execute_compiled_resilient` (the two halves
/// of `execute_resilient`) nested in the query span. Under the resilient
/// driver, `admit` and the chunked rung's `execute_chunked_compiled` are
/// replayed; under the chunked rung, the interpreter is replayed over the
/// whole inputs, the work the chunks split between them.
fn traced_out_of_core(
    q: &Query,
    request: u64,
    first: bool,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    let config = WeaverConfig::default();
    let bindings = q.bindings();
    let plan = &q.workload.plan;
    let (compiled, resilient_span, r, device) =
        traced_query(q, request, "resilient", tr, c, |compiled, device| {
            let policy = RetryPolicy::default();
            execute_compiled_resilient(plan, compiled, &bindings, device, &config, &policy)
        })?;
    let res = r
        .resilience
        .as_ref()
        .ok_or("resilient run without a resilience report")?;
    c.rungs += 1 + res.degradations.len() as u64;
    c.pipelined_seconds += r.pipelined_seconds.unwrap_or(r.total_seconds);
    c.serialized_seconds += r.serialized_seconds;

    let capacity = q.device.global_mem_bytes;
    let (_, admission) = tr.time("admission", request, Some(resilient_span), || {
        admit(plan, &compiled, &bindings, capacity)
    });
    let admission = admission.map_err(|e| format!("{}: admission replay: {e}", q.workload.name))?;
    c.admissions += 1;
    let predicted = match admission.chosen {
        AdmittedMode::Resident => Some(admission.resident_peak),
        AdmittedMode::Staged => Some(admission.staged_peak),
        AdmittedMode::Chunked { .. } => admission.chunked.map(|(_, peak)| peak),
    };
    c.predicted_peak += predicted.unwrap_or(0) as f64;
    c.measured_peak += r.peak_device_bytes as f64;

    let mut interp_parent = resilient_span;
    if let AdmittedMode::Chunked { chunks } = res.final_mode {
        c.chunks += chunks as u64;
        let mut scratch = Device::new(q.device.clone());
        let (chunked_span, chunked) = tr.time("chunked", request, Some(resilient_span), || {
            execute_chunked_compiled(plan, &compiled, &bindings, &mut scratch, &config, chunks)
        });
        let chunked = chunked.map_err(|e| format!("{}: chunked replay: {e}", q.workload.name))?;
        if !oracle::identical(&chunked.outputs, &q.expected) {
            return Err(format!(
                "{}: chunked replay differs from the CPU oracle",
                q.workload.name
            ));
        }
        interp_parent = chunked_span;
    }
    c.interp_tuples += replay_interp(
        tr,
        request,
        interp_parent,
        plan,
        &compiled,
        &bindings,
        q.device.clone(),
        config.opt,
        &q.expected,
    )?;
    export(tr, request, &device);
    if first {
        c.fused_sim_seconds += r.total_seconds;
        c.unfused_sim_seconds += unfused_seconds(q, true)?;
    }
    Ok(())
}

/// service-mix: sessions at the two fixed rates, each run untraced and
/// then traced, while another pair fits in `seconds` (at least one).
/// Before them, one untraced pass over the knee ladder gives the open-loop
/// metrics on the simulated clock, and the session-growth probe times
/// untraced sessions of N and 2N arrivals.
fn service(
    seed: u64,
    seconds: f64,
    queries: &[Query],
    tr: &mut Tracer,
    c: &mut Counters,
    report: &mut Report,
) -> Result<(), String> {
    let shapes = Shapes::new(queries);
    if let (_, Some(sims)) = measure::ladder_pass(&shapes, seed, report) {
        measure::ladder_metrics(&sims, report);
    }
    let config = WeaverConfig::default();
    let compiled: Vec<CompiledPlan> = queries
        .iter()
        .map(|q| {
            compile(&q.workload.plan, &config).map_err(|e| format!("{}: {e}", q.workload.name))
        })
        .collect::<Result<_, _>>()?;

    let mut per_arrival = Vec::new();
    for arrivals in [ARRIVALS, 2 * ARRIVALS] {
        let session = Session {
            qps: RATE_LO_QPS,
            arrivals,
            stream: 0,
        };
        let (elapsed, result, device) = exec::run_session(&shapes, session, seed);
        report.tally(
            arrivals as u64,
            exec::session_failure(session, &result, &device),
        );
        per_arrival.push(elapsed.as_secs_f64() / arrivals as f64);
    }
    report.metric(
        "service.host_growth_2x",
        per_arrival[1] / per_arrival[0],
        "ratio",
    );

    let start = Instant::now();
    let mut passes = 0u32;
    let mut request = 0u64;
    loop {
        for qps in [RATE_LO_QPS, RATE_HI_QPS] {
            let session = Session {
                qps,
                arrivals: ARRIVALS,
                stream: u64::from(passes),
            };
            let (elapsed, result, device) = exec::run_session(&shapes, session, seed);
            report.tally(
                ARRIVALS as u64,
                exec::session_failure(session, &result, &device),
            );
            c.untraced_seconds += elapsed.as_secs_f64();
            c.untraced_units += ARRIVALS as u64;

            let traced = traced_session(&shapes, queries, &compiled, session, seed, request, tr, c);
            request += 1;
            match traced {
                Err(failure) => report.tally(ARRIVALS as u64, Some(failure)),
                Ok(r) => {
                    report.tally(ARRIVALS as u64, None);
                    if passes == 0 && qps == RATE_HI_QPS {
                        let hits = r.cache_hits as f64;
                        report.metric("service.dispatches", r.dispatches as f64, "count");
                        report.metric("service.max_queue_depth", r.max_queue_depth as f64, "count");
                        report.metric(
                            "service.sim_queueing_ms_p99",
                            r.queueing.p99_seconds * 1e3,
                            "ms",
                        );
                        report.metric(
                            "service.sim_exec_ms_p99",
                            r.execution.p99_seconds * 1e3,
                            "ms",
                        );
                        report.metric(
                            "plan_cache.hit_ratio",
                            hits / (hits + r.cache_misses as f64),
                            "frac",
                        );
                        report.metric(
                            "scheduler.queries_per_batch",
                            r.arrivals as f64 / r.dispatches as f64,
                            "count",
                        );
                    }
                }
            }
        }
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * f64::from(passes + 1) / f64::from(passes) > seconds {
            break;
        }
    }
    eprintln!("service-mix: {passes} traced session pairs");
    let untraced = c.untraced_seconds / c.untraced_units as f64;
    report.metric("service.host_ms_per_arrival", untraced * 1e3, "ms");
    Ok(())
}

/// One traced session: `run_service` nested in the session span. Under the
/// service, each dispatch's batch (recovered from the arrivals' dispatch
/// times; a dispatch takes a FIFO prefix of the queue) is replayed through
/// `execute_batch_compiled_with_policy`; under that, each of its queries
/// runs solo through `execute_compiled`, so the scheduler's self time is the
/// batch minus the solo runs; under each solo run, the interpreter is
/// replayed. `admit` is replayed once per arrival and `compile` once per
/// plan-cache miss. Replays run on fresh devices, so any cost that grows
/// with the session device's span log shows as service self time.
#[allow(clippy::too_many_arguments)]
fn traced_session(
    shapes: &Shapes<'_>,
    queries: &[Query],
    compiled: &[CompiledPlan],
    session: Session,
    seed: u64,
    request: u64,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<kw_core::ServiceReport, (u64, String)> {
    let all = session.arrivals as u64;
    let fail = |e: String| (all, e);
    let config = WeaverConfig::default();
    let policy = RetryPolicy::default();
    let batch = shapes.batch_queries();
    let n = batch.len();
    let service_config = session.config(seed);
    let mut device = Device::new(DeviceConfig::fermi_c2050());
    let root = tr.open("session", request, None);
    let (svc, result) = tr.time("service", request, Some(root), || {
        run_service(&batch, &mut device, &config, &service_config)
    });
    tr.close(root);
    if let Some(failure) = exec::session_failure(session, &result, &device) {
        return Err(failure);
    }
    let r = result.map_err(|e| fail(e.to_string()))?;
    c.units += all;
    count_device(c, &device);
    c.gpu_seconds += device.gpu_seconds();
    c.pcie_seconds += device.pcie_secs();

    let mut dispatches: Vec<Vec<usize>> = Vec::new();
    let mut last_start = f64::NAN;
    for (a, qr) in r.queries.iter().enumerate() {
        let start = qr.arrival_seconds + qr.queueing_seconds;
        if dispatches.is_empty() || (start - last_start).abs() > 1e-9 {
            dispatches.push(Vec::new());
        }
        dispatches.last_mut().expect("pushed above").push(a);
        last_start = start;
    }
    if dispatches.len() != r.dispatches {
        return Err(fail(format!(
            "recovered {} dispatches, the service reports {}",
            dispatches.len(),
            r.dispatches
        )));
    }
    for group in &dispatches {
        let group_queries: Vec<_> = group.iter().map(|&a| batch[a % n]).collect();
        let group_compiled: Vec<CompiledPlan> =
            group.iter().map(|&a| compiled[a % n].clone()).collect();
        let mut scratch = Device::new(DeviceConfig::fermi_c2050());
        let (sched, batch_report) = tr.time("scheduler", request, Some(svc), || {
            execute_batch_compiled_with_policy(
                &group_queries,
                &group_compiled,
                &mut scratch,
                &config,
                &policy,
            )
        });
        let batch_report = batch_report.map_err(|e| fail(format!("batch replay: {e}")))?;
        for (&a, qr) in group.iter().zip(&batch_report.queries) {
            let q = &queries[a % n];
            if !oracle::identical(&qr.outputs, &q.expected) {
                return Err(fail(format!(
                    "{}: batch replay differs from the CPU oracle",
                    q.workload.name
                )));
            }
            let bindings = q.bindings();
            let plan = &q.workload.plan;
            let mut solo = Device::new(q.device.clone());
            let (exec_span, solo_report) = tr.time("executor", request, Some(sched), || {
                execute_compiled(plan, &compiled[a % n], &bindings, &mut solo, &config)
            });
            if let Some(e) = exec::solo_failure(q, &solo_report, &solo) {
                return Err(fail(e));
            }
            c.interp_tuples += replay_interp(
                tr,
                request,
                exec_span,
                plan,
                &compiled[a % n],
                &bindings,
                q.device.clone(),
                config.opt,
                &q.expected,
            )
            .map_err(fail)?;
        }
    }
    let capacity = device.memory().capacity();
    for (a, qr) in r.queries.iter().enumerate() {
        let q = &queries[a % n];
        let bindings = q.bindings();
        let plan = &q.workload.plan;
        let (_, admission) = tr.time("admission", request, Some(svc), || {
            admit(plan, &compiled[a % n], &bindings, capacity)
        });
        admission.map_err(|e| fail(format!("admission replay: {e}")))?;
        c.admissions += 1;
        if !qr.cache_hit {
            let (_, recompiled) = tr.time("compile", request, Some(svc), || compile(plan, &config));
            let recompiled = recompiled.map_err(|e| fail(e.to_string()))?;
            count_compiled(c, plan, &recompiled);
        }
    }
    export(tr, request, &device);
    Ok(r)
}
