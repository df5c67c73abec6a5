//! Deterministic metrics: counters, gauges, and log-bucketed histograms.
//!
//! The registry is the operational face of the simulator. A
//! [`Device`](crate::Device) stores only the series no span carries —
//! memory and arena gauges, and the kw-core drivers' own series (plans
//! executed, retries, degradations, batch latency) — and folds the
//! span-derived ones (span counts per kind, duration histograms, the
//! `SimStats` mirrors) from its span log when the registry is read. Every
//! value is derived from the simulated cycle clock or from byte counts —
//! no wallclock ever enters the registry — so two identical seeded runs
//! export byte-identical snapshots. That byte-stability is what lets CI
//! diff benchmark metrics against committed baselines instead of
//! eyeballing them.
//!
//! Two exporters are provided:
//!
//! * [`MetricsRegistry::prometheus_text`] — Prometheus text exposition
//!   (`# TYPE` annotations, cumulative `le`-labelled histogram buckets,
//!   `_sum`/`_count` series), suitable for scraping or for a quick
//!   human read.
//! * [`MetricsRegistry::to_json`] — machine-readable JSON, hand-rolled
//!   like every other serializer in this workspace (no serde), with
//!   per-histogram `p50`/`p95`/`p99` precomputed for downstream tables.
//!
//! Histograms use fixed power-of-two buckets: bucket 0 holds the value
//! `0`, bucket `i` (for `i >= 1`) holds values in `[2^(i-1), 2^i - 1]`.
//! The bucket layout is independent of the data, so merging, diffing and
//! comparing histograms across runs is well-defined. Quantiles are
//! resolved to the *upper bound* of the bucket containing the requested
//! rank — a deterministic over-estimate that is within 2x of the true
//! value, which is plenty for a cycle-accurate simulator whose inputs
//! are themselves models.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::escape_json;

/// A fixed log2-bucketed histogram of `u64` observations (cycle counts,
/// byte counts).
///
/// Bucket 0 holds the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. The layout never depends on the observed data,
/// so identical runs produce identical histograms bucket-for-bucket.
///
/// ```
/// use kw_gpu_sim::Histogram;
/// let mut h = Histogram::default();
/// for v in [0, 1, 3, 900, 1000] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 1904);
/// // p50 resolves to the upper bound of the bucket holding the median.
/// assert_eq!(h.quantile(0.5), 3);
/// assert!(h.quantile(0.99) >= 1000);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[i]` = number of observations in bucket `i`.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

/// Bucket index for a value: 0 for 0, else the value's bit length.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = bucket_index(value);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs in
    /// ascending bucket order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }

    /// Deterministic quantile estimate: the inclusive upper bound of the
    /// bucket containing the `ceil(q * count)`-th observation (rank
    /// clamped to `[1, count]`). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(self.counts.len().saturating_sub(1))
    }
}

/// A deterministic registry of named counters, gauges, and histograms.
///
/// Series are stored in `BTreeMap`s, so iteration — and therefore both
/// exporters — is in lexicographic name order regardless of publication
/// order. All mutation is by plain `&mut` access: the simulator is
/// single-threaded and the registry inherits its determinism from the
/// cycle clock that feeds it.
///
/// ```
/// use kw_gpu_sim::MetricsRegistry;
/// let mut m = MetricsRegistry::default();
/// m.inc("kw_kernels_total", 2);
/// m.set_gauge("kw_mem_in_use_bytes", 4096.0);
/// m.observe("kw_kernel_cycles", 900);
/// assert_eq!(m.counter("kw_kernels_total"), 2);
/// let text = m.prometheus_text();
/// assert!(text.contains("kw_kernels_total 2"));
/// kw_gpu_sim::validate_json(&m.to_json()).expect("exporter emits valid JSON");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Add `by` to the named counter, creating it at zero if absent.
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation has been recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True if no series exist.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Drop every series (used by `Device::reset_stats`).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Prometheus text exposition of the whole registry.
    ///
    /// Counters first, then gauges, then histograms, each preceded by a
    /// `# TYPE` line. Histograms emit cumulative `le`-labelled buckets
    /// up to the highest non-empty bucket, a `+Inf` bucket, `_sum`, and
    /// `_count` — the standard Prometheus histogram shape. Output is
    /// byte-stable for identical registries.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", fmt_f64(*v));
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }

    /// Machine-readable JSON snapshot of the whole registry.
    ///
    /// Shape: `{"counters": {..}, "gauges": {..}, "histograms": {name:
    /// {"count", "sum", "p50", "p95", "p99", "buckets": [{"le",
    /// "count"}, ..]}}}`. Buckets are cumulative, matching the
    /// Prometheus exposition. Byte-stable for identical registries.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {v}", escape_json(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape_json(name), fmt_f64(*v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                escape_json(name),
                h.count(),
                h.sum(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                cumulative += c;
                let _ = write!(
                    out,
                    "{{\"le\": {}, \"count\": {cumulative}}}",
                    bucket_upper(i)
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// JSON/Prometheus-safe float formatting: Rust's shortest-roundtrip
/// `Display` for finite values, `0` for non-finite (which JSON cannot
/// represent; gauges in this workspace are byte counts and fractions, so
/// a non-finite value is already a bug upstream).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i));
            if i > 0 {
                assert!(v > bucket_upper(i - 1));
            }
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bound_the_max() {
        let mut h = Histogram::default();
        for v in 0..1000u64 {
            h.observe(v * 17);
        }
        let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 >= 999 * 17 / 2, "p99 way below the tail: {p99}");
        assert!(h.quantile(1.0) >= 999 * 17, "q=1.0 must cover the max");
        assert_eq!(Histogram::default().quantile(0.99), 0);
    }

    #[test]
    fn registry_exports_are_deterministic_and_ordered() {
        let build = |order_flip: bool| {
            let mut m = MetricsRegistry::default();
            let names = if order_flip { ["b", "a"] } else { ["a", "b"] };
            for n in names {
                m.inc(n, 3);
                m.observe(n, 42);
            }
            m.set_gauge("g", 0.25);
            m
        };
        let (m1, m2) = (build(false), build(true));
        assert_eq!(m1.prometheus_text(), m2.prometheus_text());
        assert_eq!(m1.to_json(), m2.to_json());
        assert!(m1.prometheus_text().contains("# TYPE a counter"));
        assert!(m1.prometheus_text().contains("a_bucket{le=\"+Inf\"} 1"));
        crate::validate_json(&m1.to_json()).expect("valid JSON");
    }

    #[test]
    fn histogram_sum_and_count_reconcile() {
        let mut m = MetricsRegistry::default();
        let values = [0u64, 5, 5, 900, 1 << 20];
        for v in values {
            m.observe("h", v);
        }
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.sum(), values.iter().sum::<u64>());
        let bucket_total: u64 = h.buckets().iter().map(|&(_, c)| c).sum();
        assert_eq!(bucket_total, h.count(), "bucket counts must sum to count");
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = MetricsRegistry::default();
        m.inc("c", 1);
        m.set_gauge("g", 1.0);
        m.observe("h", 1);
        assert!(!m.is_empty());
        m.reset();
        assert!(m.is_empty());
        assert_eq!(m.counter("c"), 0);
    }
}
