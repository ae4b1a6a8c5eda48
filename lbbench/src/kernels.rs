//! `kernels`: generated-code quality and software bounds checks.
//!
//! All 30 PolyBench kernels and the 7 SPEC proxies at Small size, WAVM
//! profile, `trap` strategy, pool off (the library default), one thread.
//! One iteration is instantiate → `init` → `kernel` → drop on a fresh
//! isolate; each is followed or preceded (seeded) by a run of the
//! module's native twin. Rounds visit every module in a seeded order
//! until the time is up.

use crate::modules::{self, run_isolate, run_native, shuffled, Prepared};
use crate::report::Report;
use crate::stats::{self, geomean, median, percentile};
use crate::trace::{Name, Recorder, Trace};
use crate::{Opts, Values};
use lb_core::{BoundsStrategy, Linker, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};

/// The strategy this workload measures.
pub const STRATEGY: BoundsStrategy = BoundsStrategy::Trap;

/// Per-module samples from the measured phase.
#[derive(Default)]
struct Samples {
    wasm: Vec<f64>,
    wasm_traced: Vec<f64>,
    /// wasm / native of each iteration and the native run next to it.
    ratio: Vec<f64>,
    native: Vec<f64>,
    kernel: Vec<f64>,
}

/// Run the workload.
pub fn run(opts: &Opts, report: &mut Report, trace: &mut Trace, values: &mut Values) {
    report.requested = STRATEGY.name();
    let mut subjects = modules::polybench(lb_polybench::Dataset::Small);
    subjects.extend(modules::spec(lb_spec_proxy::Scale::Small));
    let engine = JitEngine::new(JitProfile::wavm());
    let cfg = MemoryConfig::new(STRATEGY, 0, lb_wasm::MAX_PAGES);
    let linker = Linker::new();
    let mut rec = Recorder::new(0, opts.traced);

    let prepared = modules::prepare_all(subjects, &engine, &cfg, &mut rec, report);
    crate::set_setup_values(values, &prepared);

    let before = lb_telemetry::snapshot();
    let mut samples: Vec<Samples> = prepared.iter().map(|_| Samples::default()).collect();
    let mut rng = lb_chaos::SplitMix64::new(opts.seed);
    let deadline = crate::trace::now_ns() + (opts.seconds * stats::S) as u64;
    let mut id = 0u64;
    'rounds: for round in 0u64.. {
        // The traced run alternates untraced and traced rounds so the
        // tracing overhead is measured on the same run.
        rec.set_enabled(opts.traced && round % 2 == 1);
        for m in shuffled(prepared.len(), &mut rng) {
            if crate::trace::now_ns() >= deadline {
                break 'rounds;
            }
            let p = &prepared[m];
            let native_first = rng.below(2) == 0;
            id += 1;
            let mut nat = None;
            if native_first {
                nat = native(report, p, &mut rec, id);
            }
            report.attempt();
            let wasm = match run_isolate(p, &cfg, &linker, &mut rec, id) {
                Ok(r) => Some(r),
                Err(e) => {
                    report.fail(e);
                    None
                }
            };
            if !native_first {
                nat = native(report, p, &mut rec, id);
            }
            let (Some(r), Some(nat)) = (wasm, nat) else {
                continue;
            };
            report.saw_strategy(r.effective);
            let s = &mut samples[m];
            if rec.enabled() {
                s.wasm_traced.push(r.ns as f64);
            } else {
                s.wasm.push(r.ns as f64);
                s.native.push(nat);
                s.ratio.push(r.ns as f64 / nat);
                s.kernel.push(r.kernel_ns as f64);
            }
        }
    }
    rec.set_enabled(false);
    let delta = lb_telemetry::snapshot().delta_since(&before);
    values.set("peak_rss_mb", crate::host::peak_rss_mb());
    crate::set_memory_telemetry(values, &delta);
    crate::check_pool_off(report, &delta);

    let mut all = Vec::new();
    let mut wasm_med = Vec::new();
    let mut native_med = Vec::new();
    let mut ratio_med = Vec::new();
    let mut kernel_med = Vec::new();
    let mut overhead = Vec::new();
    for (p, s) in prepared.iter().zip(samples.iter_mut()) {
        let n = s.wasm.len();
        let w = median(&mut s.wasm);
        let nat = median(&mut s.native);
        let k = median(&mut s.kernel);
        if w > 0.0 && nat > 0.0 {
            wasm_med.push(w);
            native_med.push(nat);
            ratio_med.push(median(&mut s.ratio));
            kernel_med.push(k);
            if !s.wasm_traced.is_empty() {
                overhead.push(median(&mut s.wasm_traced) / w);
            }
        }
        all.extend_from_slice(&s.wasm);
        report.row(format!(
            "module {:<16} setup_cpu_ms {:>10.3} (median of {}) wasm_ms {:>9.4} native_ms {:>9.4} ratio {:>6.3} n {}",
            p.name(),
            stats::ns_to(p.setup.setup_ns, stats::MS),
            p.setup.reps,
            w / stats::MS,
            nat / stats::MS,
            median(&mut s.ratio),
            n
        ));
    }
    if wasm_med.len() < prepared.len() {
        report.fail_check("a module finished the run without samples");
    }
    values.set(
        "kernel_ms_geomean",
        geomean(wasm_med.iter().copied()) / stats::MS,
    );
    values.set("slowdown_vs_native", geomean(ratio_med));
    values.set(
        "native.ms_geomean",
        geomean(native_med.iter().copied()) / stats::MS,
    );
    values.set("jit.invoke_ms_geomean", geomean(kernel_med) / stats::MS);
    // Isolates per second of isolate time: the native twins run in
    // between on the same thread.
    let busy: f64 = all.iter().sum();
    values.set(
        "isolates_per_s",
        all.len() as f64 / (busy / stats::S).max(1e-9),
    );
    values.set("latency_p50_us", percentile(&mut all, 0.5) / stats::US);
    values.set("latency_p99_us", percentile(&mut all, 0.99) / stats::US);
    report.row(format!("samples iterations {}", all.len()));

    if opts.traced {
        values.set("trace.overhead_pct", (geomean(overhead) - 1.0) * 100.0);
        match modules::count_core(&prepared, &cfg, &linker) {
            Ok(c) => crate::set_core_counts(values, &c),
            Err(e) => report.fail_check(e),
        }
        if let Some(name) = crate::slowest_analysis(&prepared) {
            report.row(format!("analysis.max_module {name}"));
        }
    }
    trace.absorb(rec);
    if opts.traced {
        crate::set_span_percentiles(
            values,
            trace,
            Name::Instantiate,
            "core.instantiate_us.p50",
            "core.instantiate_us.p99",
        );
        crate::set_span_percentiles(
            values,
            trace,
            Name::Teardown,
            "core.teardown_us.p50",
            "core.teardown_us.p99",
        );
    }
}

fn native(report: &mut Report, p: &Prepared, rec: &mut Recorder, id: u64) -> Option<f64> {
    report.attempt();
    match run_native(&p.subject, rec, id) {
        Ok(ns) => Some(ns as f64),
        Err(e) => {
            report.fail(e);
            None
        }
    }
}
