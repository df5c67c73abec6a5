//! Structured execution tracing.
//!
//! Every kernel launch, PCIe transfer, allocation event, injected fault and
//! retry backoff recorded by a [`crate::Device`] becomes one [`Span`]: a
//! labelled interval on the device's unified cycle clock carrying the exact
//! [`SimStats`] delta that operation charged, plus the operator provenance
//! the executor pushed via [`crate::Device::push_scope`].
//!
//! Spans make the simulator's aggregate counters *attributable*: the paper
//! argues through end-of-run totals (global-memory cycles of Fig. 18,
//! allocation of Fig. 17, PCIe traffic of Fig. 21), and spans show which
//! woven kernel each cycle and byte belongs to.
//!
//! The span log is the device's only record of cost. The aggregate
//! [`SimStats`] a device reports is the running sum of its span deltas
//! ([`reconcile`] checks that a stats block is exactly [`sum_deltas`] of a
//! span list), its span metrics are folded from the log when read, and
//! per-operator breakdowns such as the paper's "SORT is ~71% of Q1" fold
//! kernel spans by label ([`cycles_for_label`]).
//!
//! [`TraceSink`] exports a span list as Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) and as a per-operator summary table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::{parse_json, Engine, JsonValue, SimStats};

/// What kind of device operation a [`Span`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A kernel execution (duration = the kernel's total cycles).
    Kernel,
    /// A PCIe transfer (duration = transfer seconds on the cycle clock).
    Transfer,
    /// A device allocation (instant).
    Alloc,
    /// A device free (instant).
    Free,
    /// An injected fault; the faulted operation was charged nothing, the
    /// fault itself is the record (instant).
    Fault,
    /// Retry backoff charged to the simulated clock (duration).
    Backoff,
}

impl SpanKind {
    /// Short category name (used as the Chrome trace `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Kernel => "kernel",
            SpanKind::Transfer => "pcie",
            SpanKind::Alloc => "alloc",
            SpanKind::Free => "free",
            SpanKind::Fault => "fault",
            SpanKind::Backoff => "backoff",
        }
    }
}

/// One traced device operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Sequence number on the recording device (0-based).
    pub id: u64,
    /// Operation kind.
    pub kind: SpanKind,
    /// Operation label (kernel label, transfer direction, buffer label…).
    pub label: String,
    /// The `/`-joined provenance scope stack at record time — operator,
    /// fusion set, attempt and mode frames pushed by the executor layers.
    pub provenance: String,
    /// Start position on the device's unified cycle clock.
    pub start_cycle: u64,
    /// End position on the cycle clock (equal to `start_cycle` for instant
    /// events).
    pub end_cycle: u64,
    /// Exactly what this operation charged; the device's aggregate
    /// [`SimStats`] is the sum of these over its span log.
    pub delta: SimStats,
    /// The hardware engine this operation occupied, when it went through
    /// the stream model (`None` for serial-path and instant events). Used
    /// by the Chrome export to give each engine its own lane, so
    /// copy-compute overlap is visible instead of collapsing into one row.
    pub engine: Option<Engine>,
}

impl Span {
    /// Duration in cycles (zero for instant events).
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// Sum the [`SimStats`] deltas of `spans`.
pub fn sum_deltas(spans: &[Span]) -> SimStats {
    let mut sum = SimStats::default();
    for s in spans {
        sum.merge(&s.delta);
    }
    sum
}

/// Check that the per-span deltas of `spans` sum to `aggregate`.
///
/// Every counter must match exactly, the two `f64` counters
/// (`pcie_seconds`, `backoff_seconds`) included: a device's aggregate is
/// the in-order sum of its span deltas, which [`sum_deltas`] repeats
/// operation for operation.
///
/// # Errors
///
/// Returns a description of the first mismatching counter.
pub fn reconcile(spans: &[Span], aggregate: &SimStats) -> Result<(), String> {
    let sum = sum_deltas(spans);
    if sum == *aggregate {
        return Ok(());
    }
    macro_rules! first_mismatch {
        ($($field:ident),*) => {$(
            if sum.$field != aggregate.$field {
                return Err(format!(
                    "trace does not reconcile: sum of span deltas has {0}={1}, \
                     aggregate SimStats has {0}={2}",
                    stringify!($field),
                    sum.$field,
                    aggregate.$field
                ));
            }
        )*};
    }
    first_mismatch!(
        kernel_launches,
        launch_cycles,
        global_bytes_read,
        global_bytes_written,
        global_access_cycles,
        shared_bytes_read,
        shared_bytes_written,
        shared_access_cycles,
        alu_ops,
        alu_cycles,
        barriers,
        barrier_cycles,
        gpu_cycles,
        h2d_transfers,
        h2d_bytes,
        d2h_transfers,
        d2h_bytes,
        pcie_seconds,
        faults_injected,
        backoff_seconds
    );
    Err(format!(
        "trace does not reconcile: sum of span deltas {sum:?}, aggregate SimStats {aggregate:?}"
    ))
}

/// Aggregated cost of all spans sharing one provenance scope.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSummary {
    /// The provenance scope (or `"(unscoped)"`).
    pub operator: String,
    /// Kernel spans under this scope.
    pub kernels: u64,
    /// PCIe transfer spans under this scope.
    pub transfers: u64,
    /// Injected faults under this scope.
    pub faults: u64,
    /// Total GPU cycles charged.
    pub gpu_cycles: u64,
    /// Cycles attributed to global-memory access.
    pub global_access_cycles: u64,
    /// Bytes moved through global memory.
    pub global_bytes: u64,
    /// Bytes moved over PCIe.
    pub pcie_bytes: u64,
}

/// Group `spans` by provenance scope and total each group's costs.
///
/// Rows are ordered by first appearance in the trace, which for a plan
/// execution is operator execution order.
pub fn operator_summary(spans: &[Span]) -> Vec<OperatorSummary> {
    let mut order: Vec<String> = Vec::new();
    let mut rows: BTreeMap<String, OperatorSummary> = BTreeMap::new();
    for s in spans {
        let key = if s.provenance.is_empty() {
            "(unscoped)".to_string()
        } else {
            s.provenance.clone()
        };
        let row = rows.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            OperatorSummary {
                operator: key,
                kernels: 0,
                transfers: 0,
                faults: 0,
                gpu_cycles: 0,
                global_access_cycles: 0,
                global_bytes: 0,
                pcie_bytes: 0,
            }
        });
        match s.kind {
            SpanKind::Kernel => row.kernels += 1,
            SpanKind::Transfer => row.transfers += 1,
            SpanKind::Fault => row.faults += 1,
            _ => {}
        }
        row.gpu_cycles += s.delta.gpu_cycles;
        row.global_access_cycles += s.delta.global_access_cycles;
        row.global_bytes += s.delta.global_bytes();
        row.pcie_bytes += s.delta.pcie_bytes();
    }
    order
        .into_iter()
        .map(|k| rows.remove(&k).expect("inserted"))
        .collect()
}

/// Render [`operator_summary`] rows as an aligned text table.
pub fn summary_table(rows: &[OperatorSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>7} {:>5} {:>6} {:>14} {:>14} {:>12} {:>12}",
        "operator",
        "kernels",
        "xfers",
        "faults",
        "gpu cycles",
        "gmem cycles",
        "gmem bytes",
        "pcie bytes"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<52} {:>7} {:>5} {:>6} {:>14} {:>14} {:>12} {:>12}",
            r.operator,
            r.kernels,
            r.transfers,
            r.faults,
            r.gpu_cycles,
            r.global_access_cycles,
            r.global_bytes,
            r.pcie_bytes
        );
    }
    out
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render `spans` as Chrome trace-event JSON, loadable in Perfetto and
/// `chrome://tracing`.
///
/// Timestamps are microseconds on the device's unified cycle clock at
/// `clock_ghz`. Duration spans (kernels, transfers, backoff) become `"X"`
/// complete events; instant events (alloc/free/fault) become `"i"` events.
/// Every event carries its provenance and `SimStats` delta in `args`.
pub fn chrome_trace_json(spans: &[Span], clock_ghz: f64) -> String {
    // Lanes: the serial-path families keep the three fixed rows; every
    // distinct stream-model engine gets its own row above them. Deriving
    // the lane purely from SpanKind used to collapse concurrent ops on
    // different engines into one Perfetto row, hiding the very overlap
    // the stream model exists to show.
    let kind_tid = |k: SpanKind| match k {
        SpanKind::Kernel => 0,
        SpanKind::Transfer | SpanKind::Backoff => 1,
        SpanKind::Alloc | SpanKind::Free | SpanKind::Fault => 2,
    };
    let mut engine_lanes: BTreeMap<Engine, u64> = BTreeMap::new();
    for s in spans {
        if let Some(e) = s.engine {
            if !engine_lanes.contains_key(&e) {
                engine_lanes.insert(e, 3 + engine_lanes.len() as u64);
            }
        }
    }
    let tid = |s: &Span| match s.engine {
        Some(e) => engine_lanes[&e],
        None => kind_tid(s.kind),
    };
    let us = |cycles: u64| cycles as f64 / (clock_ghz * 1e3);

    let mut lanes: Vec<(u64, String)> = vec![
        (0, "compute".to_string()),
        (1, "pcie+backoff".to_string()),
        (2, "memory+faults".to_string()),
    ];
    lanes.extend(
        engine_lanes
            .iter()
            .map(|(e, &t)| (t, format!("engine:{}", e.name()))),
    );
    lanes.sort_by_key(|&(t, _)| t);

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (t, name) in &lanes {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    if spans.is_empty() {
        // No span events follow: drop the last metadata line's trailing
        // comma (",\n") so the array stays well-formed JSON.
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    for (i, s) in spans.iter().enumerate() {
        let d = &s.delta;
        let args = format!(
            "{{\"provenance\":\"{}\",\"cycles\":{},\"global_bytes_read\":{},\
             \"global_bytes_written\":{},\"global_access_cycles\":{},\
             \"shared_access_cycles\":{},\"alu_cycles\":{},\"barrier_cycles\":{},\
             \"launch_cycles\":{},\"h2d_bytes\":{},\"d2h_bytes\":{},\
             \"faults_injected\":{}}}",
            escape_json(&s.provenance),
            s.cycles(),
            d.global_bytes_read,
            d.global_bytes_written,
            d.global_access_cycles,
            d.shared_access_cycles,
            d.alu_cycles,
            d.barrier_cycles,
            d.launch_cycles,
            d.h2d_bytes,
            d.d2h_bytes,
            d.faults_injected,
        );
        if s.start_cycle == s.end_cycle {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{:.4},\"pid\":0,\"tid\":{},\"args\":{}}}",
                escape_json(&s.label),
                s.kind.name(),
                us(s.start_cycle),
                tid(s),
                args
            );
        } else {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                 \"ts\":{:.4},\"dur\":{:.4},\"pid\":0,\"tid\":{},\"args\":{}}}",
                escape_json(&s.label),
                s.kind.name(),
                us(s.start_cycle),
                us(s.cycles()),
                tid(s),
                args
            );
        }
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

/// Validate that `text` is one well-formed JSON document (any value shape,
/// no schema requirements beyond syntax). The bench harness uses this to
/// gate its machine-readable result files in the offline CI environment.
///
/// # Errors
///
/// Returns the [`parse_json`] error: what failed and at which byte.
pub fn validate_json(text: &str) -> Result<(), String> {
    parse_json(text).map(|_| ()).map_err(|e| e.to_string())
}

/// Validate that `text` is well-formed Chrome trace-event JSON: a top-level
/// object whose `traceEvents` array members each carry a string `ph`, a
/// string `name`, and (for durable/instant phases) a numeric `ts`.
///
/// Returns the number of non-metadata trace events.
///
/// # Errors
///
/// Returns a message naming the first syntax or schema violation.
pub fn validate_chrome_json(text: &str) -> Result<usize, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    if doc.entries().is_none() {
        return Err("expected top-level object".to_string());
    }
    let members = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let mut events = 0;
    for (i, ev) in members.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("trace event {i} missing string \"ph\""))?;
        if ev.get("name").and_then(JsonValue::as_str).is_none() {
            return Err(format!("trace event {i} missing string \"name\""));
        }
        if matches!(ph, "X" | "i") {
            if ev.get("ts").and_then(JsonValue::as_f64).is_none() {
                return Err(format!("trace event {i} missing numeric \"ts\""));
            }
            events += 1;
        }
    }
    if events == 0 {
        return Err("trace contains no events".to_string());
    }
    Ok(events)
}

/// Whether `label` matches `needle` under delimiter-aware matching: either
/// the full label equals the needle, or the needle's `.`-separated segments
/// appear as a contiguous run of the label's segments.
///
/// Substring matching is deliberately *not* used: `"join"` must not count
/// `"n5.semijoin.compute"` kernels, which a `contains`-based filter silently
/// did.
///
/// ```
/// use kw_gpu_sim::label_matches;
/// assert!(label_matches("n7.sort.pass3", "sort"));
/// assert!(label_matches("n7.sort.pass3", "n7.sort"));
/// assert!(!label_matches("n5.semijoin.compute", "join"));
/// assert!(!label_matches("n7.sort.pass3", "sort.compute"));
/// ```
pub fn label_matches(label: &str, needle: &str) -> bool {
    if label == needle {
        return true;
    }
    let segs: Vec<&str> = label.split('.').collect();
    let want: Vec<&str> = needle.split('.').filter(|s| !s.is_empty()).collect();
    if want.is_empty() || want.len() > segs.len() {
        return false;
    }
    segs.windows(want.len()).any(|w| w == want.as_slice())
}

/// Sum the GPU cycles of all kernel spans whose label matches `needle`
/// (see [`label_matches`] — exact segment matching, not substring). This
/// is the per-operator breakdown behind the paper's "SORT is ~71% of Q1".
pub fn cycles_for_label(spans: &[Span], needle: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel && label_matches(&s.label, needle))
        .map(|s| s.delta.gpu_cycles)
        .sum()
}

/// Writes traces captured from a [`crate::Device`] to a directory.
///
/// ```no_run
/// use kw_gpu_sim::{Device, DeviceConfig, TraceSink};
/// let dev = Device::new(DeviceConfig::fermi_c2050());
/// let sink = TraceSink::new("traces")?;
/// let path = sink.export("run", &dev)?;
/// println!("open {} in https://ui.perfetto.dev", path.display());
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceSink {
    dir: PathBuf,
}

impl TraceSink {
    /// Create a sink rooted at `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<TraceSink> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceSink { dir })
    }

    /// The sink's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Export `device`'s spans as `<name>.trace.json` (Chrome trace-event
    /// JSON) plus `<name>.summary.txt` (the per-operator table), after
    /// verifying the trace reconciles against the device's aggregate stats.
    ///
    /// Returns the path of the JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if the trace fails
    /// reconciliation, and propagates filesystem errors.
    pub fn export(&self, name: &str, device: &crate::Device) -> io::Result<PathBuf> {
        self.export_spans(
            name,
            device.spans(),
            device.stats(),
            device.config().clock_ghz,
        )
    }

    /// [`TraceSink::export`] for a span log held apart from its device
    /// (e.g. spans and stats copied out of a device that has since been
    /// dropped). `aggregate` is the stats block the spans must reconcile
    /// against.
    ///
    /// # Errors
    ///
    /// Same contract as [`TraceSink::export`].
    pub fn export_spans(
        &self,
        name: &str,
        spans: &[Span],
        aggregate: &SimStats,
        clock_ghz: f64,
    ) -> io::Result<PathBuf> {
        reconcile(spans, aggregate).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let json = chrome_trace_json(spans, clock_ghz);
        let path = self.dir.join(format!("{name}.trace.json"));
        std::fs::write(&path, &json)?;
        let table = summary_table(&operator_summary(spans));
        std::fs::write(self.dir.join(format!("{name}.summary.txt")), table)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, label: &str, prov: &str, start: u64, cycles: u64, d: SimStats) -> Span {
        Span {
            id: 0,
            kind,
            label: label.into(),
            provenance: prov.into(),
            start_cycle: start,
            end_cycle: start + cycles,
            delta: d,
            engine: None,
        }
    }

    fn kernel_delta(cycles: u64, bytes: u64) -> SimStats {
        SimStats {
            kernel_launches: 1,
            gpu_cycles: cycles,
            global_access_cycles: cycles,
            global_bytes_read: bytes,
            ..SimStats::default()
        }
    }

    #[test]
    fn empty_span_list_exports_well_formed_json() {
        // Regression: the metadata lines used to leave a trailing comma
        // when no span events followed, producing syntactically invalid
        // JSON. An empty trace is still *semantically* empty — the
        // validator reports "no events", not a parse error.
        let json = chrome_trace_json(&[], 1.15);
        let err = validate_chrome_json(&json).unwrap_err();
        assert_eq!(err, "trace contains no events", "got: {err}");
    }

    #[test]
    fn reconcile_accepts_matching_and_rejects_drift() {
        let spans = vec![
            span(SpanKind::Kernel, "k0", "step0", 0, 10, kernel_delta(10, 64)),
            span(SpanKind::Kernel, "k1", "step1", 10, 5, kernel_delta(5, 32)),
        ];
        let mut agg = SimStats::default();
        agg.merge(&spans[0].delta);
        agg.merge(&spans[1].delta);
        assert!(reconcile(&spans, &agg).is_ok());

        agg.global_bytes_read += 1;
        let err = reconcile(&spans, &agg).unwrap_err();
        assert!(err.contains("global_bytes_read"), "{err}");
    }

    #[test]
    fn summary_groups_by_provenance_in_first_seen_order() {
        let spans = vec![
            span(
                SpanKind::Kernel,
                "b.compute",
                "step0:b",
                0,
                10,
                kernel_delta(10, 100),
            ),
            span(
                SpanKind::Kernel,
                "a.compute",
                "step1:a",
                10,
                5,
                kernel_delta(5, 50),
            ),
            span(
                SpanKind::Kernel,
                "b.gather",
                "step0:b",
                15,
                1,
                kernel_delta(1, 8),
            ),
            span(SpanKind::Fault, "fault", "", 16, 0, SimStats::default()),
        ];
        let rows = operator_summary(&spans);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].operator, "step0:b");
        assert_eq!(rows[0].kernels, 2);
        assert_eq!(rows[0].global_bytes, 108);
        assert_eq!(rows[1].operator, "step1:a");
        assert_eq!(rows[2].operator, "(unscoped)");
        assert_eq!(rows[2].faults, 1);
        let table = summary_table(&rows);
        assert!(table.contains("step0:b"));
    }

    #[test]
    fn chrome_json_is_valid_and_counts_events() {
        let spans = vec![
            span(
                SpanKind::Kernel,
                "k\"quoted\"",
                "p\\q",
                0,
                10,
                kernel_delta(10, 64),
            ),
            span(SpanKind::Alloc, "buf", "", 10, 0, SimStats::default()),
            span(
                SpanKind::Transfer,
                "HostToDevice",
                "stage-in",
                10,
                7,
                SimStats {
                    h2d_transfers: 1,
                    h2d_bytes: 64,
                    pcie_seconds: 1e-6,
                    ..SimStats::default()
                },
            ),
        ];
        let json = chrome_trace_json(&spans, 1.15);
        assert_eq!(validate_chrome_json(&json).unwrap(), 3);
    }

    #[test]
    fn streamed_spans_get_one_lane_per_engine() {
        // Three concurrent ops on three distinct engines must land on
        // three distinct rows (tids 3+), each with its own thread_name
        // metadata; an engine-less serial span keeps the legacy lane.
        let mut spans = vec![
            span(SpanKind::Kernel, "k", "q0", 0, 10, kernel_delta(10, 64)),
            span(SpanKind::Transfer, "h2d", "q1", 0, 8, SimStats::default()),
            span(SpanKind::Transfer, "d2h", "q2", 0, 6, SimStats::default()),
            span(SpanKind::Kernel, "serial", "", 20, 4, kernel_delta(4, 16)),
        ];
        spans[0].engine = Some(Engine::Compute(0));
        spans[1].engine = Some(Engine::CopyH2D);
        spans[2].engine = Some(Engine::CopyD2H);
        let json = chrome_trace_json(&spans, 1.15);
        validate_chrome_json(&json).unwrap();
        for lane in ["\"tid\":3", "\"tid\":4", "\"tid\":5"] {
            assert!(json.contains(lane), "missing {lane} in:\n{json}");
        }
        for name in ["engine:compute0", "engine:copy.h2d", "engine:copy.d2h"] {
            assert!(json.contains(name), "missing lane metadata {name}");
        }
        // The serial kernel stays on the fixed compute lane.
        assert!(json.contains("\"name\":\"serial\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":"));
        let serial_evt = json
            .lines()
            .find(|l| l.contains("\"name\":\"serial\""))
            .unwrap();
        assert!(serial_evt.contains("\"tid\":0"), "{serial_evt}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_json("").is_err());
        assert!(validate_chrome_json("[]").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[]}").is_err());
        // Event without "ph".
        assert!(validate_chrome_json("{\"traceEvents\":[{\"name\":\"x\",\"ts\":1}]}").is_err());
        // Event with a string ts.
        assert!(validate_chrome_json(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":\"1\"}]}"
        )
        .is_err());
        // Trailing garbage.
        assert!(validate_chrome_json(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"dur\":1}]} junk"
        )
        .is_err());
    }

    #[test]
    fn validator_rejects_non_numeric_ts() {
        for ts in ["null", "[1]", "{}", "true"] {
            let json = format!("{{\"traceEvents\":[{{\"name\":\"x\",\"ph\":\"X\",\"ts\":{ts}}}]}}");
            let err = validate_chrome_json(&json).unwrap_err();
            assert!(err.contains("numeric \"ts\""), "ts:{ts} got: {err}");
        }
    }

    #[test]
    fn validators_reject_deep_nesting_without_overflowing() {
        let bomb = "[".repeat(200_000);
        let err = validate_json(&bomb).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        let err = validate_chrome_json(&format!("{{\"traceEvents\":{bomb}")).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
    }

    fn kernels(labelled: &[(&str, u64)]) -> Vec<Span> {
        labelled
            .iter()
            .map(|&(label, cycles)| {
                span(
                    SpanKind::Kernel,
                    label,
                    "",
                    0,
                    cycles,
                    kernel_delta(cycles, 0),
                )
            })
            .collect()
    }

    #[test]
    fn label_filtering() {
        let mut spans = kernels(&[
            ("sort.partition", 10),
            ("sort.compute", 20),
            ("select.compute", 5),
        ]);
        // Only kernel spans count, even when another kind shares the label.
        spans.push(span(SpanKind::Alloc, "sort", "", 35, 0, kernel_delta(7, 0)));
        assert_eq!(cycles_for_label(&spans, "sort"), 30);
        assert_eq!(cycles_for_label(&spans, "select"), 5);
    }

    #[test]
    fn matching_is_segment_exact_not_substring() {
        let spans = kernels(&[
            ("n4.join.compute", 100),
            ("n5.semijoin.compute", 10),
            ("n6.antijoin.gather", 1),
        ]);
        // "join" previously (substring matching) counted all three.
        assert_eq!(cycles_for_label(&spans, "join"), 100);
        assert_eq!(cycles_for_label(&spans, "semijoin"), 10);
        // Dotted needles match contiguous segment runs, with or without the
        // legacy surrounding dots.
        assert_eq!(cycles_for_label(&spans, "n4.join"), 100);
        assert_eq!(cycles_for_label(&spans, ".join."), 100);
        assert_eq!(cycles_for_label(&spans, "join.gather"), 0);
        // A needle longer than the label never matches.
        assert!(!label_matches("sort", "n7.sort"));
        assert!(label_matches("sort", "sort"));
    }

    #[test]
    fn empty_trace_reconciles_with_empty_stats() {
        assert!(reconcile(&[], &SimStats::default()).is_ok());
        assert!(reconcile(&[], &kernel_delta(1, 1)).is_err());
    }
}
