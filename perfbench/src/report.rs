//! The result line the benchmark prints last.

/// Outcome of one benchmark run.
#[derive(Default)]
pub struct Report {
    /// Executions attempted and those whose outputs, leak check or
    /// determinism check failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every error met on the way; a non-empty list makes the run incorrect.
    pub errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Count one checked execution, with the reason when it failed.
    pub fn check(&mut self, failure: Option<String>) {
        self.tally(1, failure.map(|e| (1, e)));
    }

    /// Count `attempted` checked queries, `failed.0` of them wrong for the
    /// reason `failed.1`.
    pub fn tally(&mut self, attempted: u64, failed: Option<(u64, String)>) {
        self.attempted += attempted;
        if let Some((n, e)) = failed {
            self.failed += n;
            self.errors.push(e);
        }
    }

    /// Share of attempted queries that were right.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.errors
                .push(format!("metric {name} is not finite: {value}"));
        }
    }

    fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| *n == name)
    }

    /// Add `other`'s checks and errors, and those of its metrics this report
    /// lacks; returns the names of the metrics taken.
    pub fn absorb(&mut self, other: Report) -> Vec<&'static str> {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        let mut taken = Vec::new();
        for m in other.metrics {
            if !self.has(m.0) {
                taken.push(m.0);
                self.metrics.push(m);
            }
        }
        taken
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// One JSON object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
