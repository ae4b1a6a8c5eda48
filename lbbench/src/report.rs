//! Result accounting and the final JSON line.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (iterations, isolates, requests).
    pub attempted: u64,
    /// Operations that failed: every [`Report::fail`] and
    /// [`Report::miss`].
    pub failed: u64,
    /// Operations that failed a correctness check: traps, errors,
    /// checksum mismatches, strategy fallbacks, failed or lost requests,
    /// broken server invariants.
    pub incorrect: u64,
    /// The first few failure messages.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result (one row per
    /// module, named values, sample counts).
    pub rows: Vec<String>,
    /// Strategy the workload requested.
    pub requested: &'static str,
    /// Strategy the instances got (`mixed` if they disagreed).
    pub effective: String,
}

impl Report {
    /// Count one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count `n` operations that were refused (a serve rejection or shed
    /// below capacity): failed, but not wrong.
    pub fn miss(&mut self, n: u64) {
        self.failed += n;
    }

    /// Count one operation that failed a correctness check and keep its
    /// message.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.incorrect += 1;
        if self.problems.len() < 16 {
            self.problems.push(msg.into());
        }
    }

    /// A check that is not tied to one operation failed: counted as a
    /// failed operation of its own.
    pub fn fail_check(&mut self, msg: impl Into<String>) {
        self.attempted += 1;
        self.fail(msg);
    }

    /// Record the strategy an instance actually ran with.
    pub fn saw_strategy(&mut self, effective: &str) {
        if self.effective.is_empty() {
            self.effective = effective.to_string();
        } else if self.effective != effective {
            self.effective = "mixed".to_string();
        }
    }

    /// Add an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add a human-readable row.
    pub fn row(&mut self, line: impl Into<String>) {
        self.rows.push(line.into());
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.incorrect == 0 && self.attempted > 0
    }

    /// The result line: per-layer metrics for a traced run, end-to-end
    /// metrics otherwise.
    pub fn to_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            // JSON has no infinity; a latency percentile that falls on a
            // missed request reads as the largest finite number.
            let value = if m.value.is_nan() {
                0.0
            } else {
                m.value.min(f64::MAX)
            };
            let _ = write!(
                out,
                "{}\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                if i == 0 { "" } else { "," },
                m.name,
                value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.attempt();
        r.e2e("setup_s", 0.5, "s");
        r.layer("core.mmap", 1.0, "count");
        assert_eq!(
            r.to_json(false),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert!(r.to_json(true).contains("\"core.mmap\":{\"value\":1.0"));
        r.fail("boom");
        assert!(!r.correct());
        assert_eq!(r.problems, vec!["boom".to_string()]);
    }
}
