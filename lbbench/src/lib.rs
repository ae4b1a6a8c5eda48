//! The repository benchmark: three workloads driven through the public
//! API of the leaps-and-bounds crates, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! * `kernels` — all PolyBench kernels and SPEC proxies at Small size,
//!   WAVM profile, `trap` strategy, one thread, a fresh isolate per
//!   iteration, each interleaved with its native Rust twin.
//! * `churn` — the PolyBench kernels at Mini size under `uffd`, one
//!   closed-loop thread per CPU, a fresh isolate every time.
//! * `serve` — open-loop traffic into `lb-serve` under `uffd` with the
//!   instance pool on.
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`])
//! and, when traced, the same per-layer metrics ([`PER_LAYER`]); a layer
//! a workload does not exercise reads 0.
//!
//! The bounded end-to-end metrics are the ones that hold still from one
//! process to the next on a shared VM: set-up CPU time (median of
//! repeated set-ups), the share of operations that succeeded, peak RSS,
//! and wasm time over the time of the native twin measured next to it.
//! Absolute times and rates (kernel time, latency percentiles,
//! throughput) move by up to 1.7x between processes there, wasm and
//! native alike, so they are reported in the traced run without a bound.

pub mod churn;
pub mod host;
pub mod kernels;
pub mod modules;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::HashMap;

/// Run options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed for every random choice of the workload.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
}

/// A metric: name, unit, and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, in report order.
pub const END_TO_END: [MetricDef; 4] = [
    ("setup_s", "s", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("slowdown_vs_native", "x", "lower"),
];

/// Per-layer metrics, in report order: the absolute end-to-end figures
/// first, then one group per layer, named by its prefix.
pub const PER_LAYER: [MetricDef; 51] = [
    ("kernel_ms_geomean", "ms", "lower"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("isolates_per_s", "1/s", "higher"),
    ("serve.max_rps", "1/s", "higher"),
    ("wasm.decode_ms", "ms", "lower"),
    ("wasm.validate_ms", "ms", "lower"),
    ("analysis.ms", "ms", "lower"),
    ("analysis.max_ms", "ms", "lower"),
    ("analysis.elided", "count", "higher"),
    ("analysis.emitted", "count", "lower"),
    ("jit.codegen_ms", "ms", "lower"),
    ("jit.code_bytes", "bytes", "lower"),
    ("jit.checks.emitted", "count", "lower"),
    ("jit.checks.hoisted", "count", "higher"),
    ("jit.checks.fused", "count", "higher"),
    ("jit.invoke_ms_geomean", "ms", "lower"),
    ("core.instantiate_us.p50", "us", "lower"),
    ("core.instantiate_us.p99", "us", "lower"),
    ("core.teardown_us.p50", "us", "lower"),
    ("core.teardown_us.p99", "us", "lower"),
    ("core.mmap", "count", "lower"),
    ("core.munmap", "count", "lower"),
    ("core.uffd_register", "count", "lower"),
    ("core.uffd_zeropage", "count", "lower"),
    ("core.uffd_fault_ns.p50", "ns", "lower"),
    ("core.pool_attempts", "count", "lower"),
    ("core.pool_hit_ratio", "ratio", "higher"),
    ("core.pool_reset_us", "us", "lower"),
    ("serve.submit_us.p50", "us", "lower"),
    ("serve.submit_us.p99", "us", "lower"),
    ("serve.queue_us.p50", "us", "lower"),
    ("serve.queue_us.p99", "us", "lower"),
    ("serve.run_us.p50", "us", "lower"),
    ("serve.run_us.p99", "us", "lower"),
    ("serve.lo.p50_us", "us", "lower"),
    ("serve.lo.p99_us", "us", "lower"),
    ("serve.rejected.queue_full", "count", "lower"),
    ("serve.rejected.other", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("serve.gen_lag_us.p99", "us", "lower"),
    ("native.ms_geomean", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("layer.wasm.self_pct", "%", "lower"),
    ("layer.analysis.self_pct", "%", "lower"),
    ("layer.jit.self_pct", "%", "lower"),
    ("layer.core.self_pct", "%", "lower"),
    ("layer.serve.self_pct", "%", "lower"),
    ("layer.native.self_pct", "%", "lower"),
    ("layer.bench.self_pct", "%", "lower"),
];

/// Values a workload measured, keyed by metric name; emitted in catalog
/// order with 0 for anything the workload does not exercise.
#[derive(Debug, Default)]
pub struct Values(HashMap<&'static str, f64>);

impl Values {
    /// Set `name` (must be a catalog name).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Current value of `name` (0 if unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Move measured values into the report's metric lists, in catalog order.
pub fn emit(values: &Values, report: &mut report::Report) {
    for (name, unit, _) in END_TO_END {
        report.e2e(name, values.get(name), unit);
    }
    for (name, unit, _) in PER_LAYER {
        report.layer(name, values.get(name), unit);
    }
}

/// Self time of each layer from a finished trace, as `layer.*.self_pct`.
pub fn set_self_pct(values: &mut Values, trace: &trace::Trace) {
    use trace::Layer;
    for layer in Layer::ALL {
        let name = match layer {
            Layer::Wasm => "layer.wasm.self_pct",
            Layer::Analysis => "layer.analysis.self_pct",
            Layer::Jit => "layer.jit.self_pct",
            Layer::Core => "layer.core.self_pct",
            Layer::Serve => "layer.serve.self_pct",
            Layer::Native => "layer.native.self_pct",
            Layer::Bench => "layer.bench.self_pct",
        };
        values.set(name, trace.self_pct(layer));
    }
}

/// Set-up metrics shared by the workloads that prepare modules: totals
/// of the per-module set-up measurements.
pub fn set_setup_values(values: &mut Values, prepared: &[modules::Prepared]) {
    let sum =
        |f: fn(&modules::SetupStats) -> u64| prepared.iter().map(|p| f(&p.setup)).sum::<u64>();
    values.set("setup_s", stats::ns_to(sum(|s| s.setup_ns), stats::S));
    values.set(
        "wasm.decode_ms",
        stats::ns_to(sum(|s| s.decode_ns), stats::MS),
    );
    values.set(
        "wasm.validate_ms",
        stats::ns_to(sum(|s| s.validate_ns), stats::MS),
    );
    values.set(
        "analysis.ms",
        stats::ns_to(sum(|s| s.analysis_ns), stats::MS),
    );
    let max = prepared
        .iter()
        .map(|p| p.setup.analysis_ns)
        .max()
        .unwrap_or(0);
    values.set("analysis.max_ms", stats::ns_to(max, stats::MS));
    values.set("analysis.elided", sum(|s| s.elided) as f64);
    values.set("analysis.emitted", sum(|s| s.emitted) as f64);
    values.set(
        "jit.codegen_ms",
        stats::ns_to(sum(|s| s.codegen_ns), stats::MS),
    );
    values.set("jit.code_bytes", sum(|s| s.code_bytes) as f64);
    values.set("jit.checks.emitted", sum(|s| s.checks[0]) as f64);
    values.set("jit.checks.hoisted", sum(|s| s.checks[1]) as f64);
    values.set("jit.checks.fused", sum(|s| s.checks[2]) as f64);
}

/// The module behind `analysis.max_ms`, if any analysis ran.
pub fn slowest_analysis(prepared: &[modules::Prepared]) -> Option<&str> {
    prepared
        .iter()
        .filter(|p| p.setup.analysis_ns > 0)
        .max_by_key(|p| p.setup.analysis_ns)
        .map(|p| p.name())
}

/// Per-isolate `lb-core` counts as `core.*` values.
pub fn set_core_counts(values: &mut Values, c: &modules::CoreCounts) {
    values.set("core.mmap", c.mmap);
    values.set("core.munmap", c.munmap);
    values.set("core.uffd_register", c.uffd_register);
    values.set("core.uffd_zeropage", c.uffd_zeropage);
}

/// Pool and uffd-fault figures from a telemetry delta over the measured
/// phase.
pub fn set_memory_telemetry(values: &mut Values, delta: &lb_telemetry::TelemetrySnapshot) {
    let hits = delta.counter("pool.hit") as f64;
    let attempts = hits + delta.counter("pool.miss") as f64;
    values.set("core.pool_attempts", attempts);
    values.set(
        "core.pool_hit_ratio",
        if attempts > 0.0 { hits / attempts } else { 0.0 },
    );
    if let Some(h) = delta.histogram("pool.reset_us") {
        values.set("core.pool_reset_us", h.mean());
    }
    if let Some(h) = delta.histogram("uffd.fault_service_ns") {
        values.set("core.uffd_fault_ns.p50", h.quantile(0.5) as f64);
    }
}

/// Checks for a workload that runs with the pool off (the library
/// default): the pool saw no attempt and no memory fell back to another
/// strategy.
pub fn check_pool_off(report: &mut report::Report, delta: &lb_telemetry::TelemetrySnapshot) {
    let attempts = delta.counter("pool.hit") + delta.counter("pool.miss");
    if attempts != 0 {
        report.fail_check(format!("the pool is off but saw {attempts} attempts"));
    }
    let fallbacks = delta.counter("core.strategy.fallback");
    if fallbacks != 0 {
        report.fail_check(format!(
            "{fallbacks} memories fell back to another strategy"
        ));
    }
}

/// p50 and p99 (µs) of span durations named `name` into two metrics.
pub fn set_span_percentiles(
    values: &mut Values,
    trace: &trace::Trace,
    name: trace::Name,
    p50: &'static str,
    p99: &'static str,
) {
    let mut d = trace.durations(name);
    values.set(p50, stats::percentile(&mut d, 0.5) / stats::US);
    values.set(p99, stats::percentile(&mut d, 0.99) / stats::US);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_valid() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate {n}");
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for (_, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(*better == "higher" || *better == "lower");
        }
    }
}
