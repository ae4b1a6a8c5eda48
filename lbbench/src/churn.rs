//! `churn`: the memory lifecycle of short-lived isolates under
//! concurrency.
//!
//! The 30 PolyBench kernels at Mini size under `uffd` with the pool off,
//! one closed-loop thread per CPU. Each thread visits the modules in its
//! own seeded order, a fresh isolate every time, each followed by a run
//! of the module's native twin, until the time is up.

use crate::modules::{self, run_isolate, run_native, shuffled, Prepared};
use crate::report::Report;
use crate::stats::{self, geomean, median, percentile, Reservoir};
use crate::trace::{now_ns, Name, Recorder, Trace};
use crate::{host, Opts, Values};
use lb_core::{BoundsStrategy, Linker, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use std::sync::Barrier;

/// The strategy this workload measures.
pub const STRATEGY: BoundsStrategy = BoundsStrategy::Uffd;

/// Samples kept per module and thread, and of all isolates per thread.
const PER_MODULE_SAMPLES: usize = 1024;
const POOLED_SAMPLES: usize = 65_536;

/// Per-module samples from untraced rounds.
struct Samples {
    isolate: Reservoir,
    kernel: Reservoir,
    native: Reservoir,
    /// isolate / native of each isolate and the native run after it.
    ratio: Reservoir,
}

/// What one worker thread saw.
struct Worker {
    modules: Vec<Samples>,
    /// Wall time of every untraced isolate.
    all: Reservoir,
    /// Wall time of every traced isolate.
    traced: Reservoir,
    effective: Vec<&'static str>,
    problems: Vec<String>,
    rec: Recorder,
}

/// Run the workload.
pub fn run(opts: &Opts, report: &mut Report, trace: &mut Trace, values: &mut Values) {
    report.requested = STRATEGY.name();
    let engine = JitEngine::new(JitProfile::wavm());
    let cfg = MemoryConfig::new(STRATEGY, 0, lb_wasm::MAX_PAGES);
    let linker = Linker::new();
    let mut rec = Recorder::new(0, opts.traced);
    let prepared = modules::prepare_all(
        modules::polybench(lb_polybench::Dataset::Mini),
        &engine,
        &cfg,
        &mut rec,
        report,
    );
    crate::set_setup_values(values, &prepared);
    if prepared.is_empty() {
        trace.absorb(rec);
        return;
    }

    let threads = host::nproc();
    let start = Barrier::new(threads);
    let before = lb_telemetry::snapshot();
    let t0 = now_ns();
    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (prepared, cfg, linker, start) = (&prepared, &cfg, &linker, &start);
                scope.spawn(move || worker(t, opts, prepared, cfg, linker, start, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("churn worker panicked"))
            .collect()
    });
    let elapsed = now_ns() - t0;
    let delta = lb_telemetry::snapshot().delta_since(&before);
    values.set("peak_rss_mb", crate::host::peak_rss_mb());
    crate::set_memory_telemetry(values, &delta);
    crate::check_pool_off(report, &delta);

    let n = prepared.len();
    let mut per_module: Vec<[Vec<f64>; 4]> = vec![Default::default(); n];
    let (mut all, mut traced_all) = (Vec::new(), Vec::new());
    let (mut isolates, mut untraced) = (0u64, 0u64);
    for w in workers {
        for (acc, s) in per_module.iter_mut().zip(&w.modules) {
            acc[0].extend_from_slice(s.isolate.values());
            acc[1].extend_from_slice(s.kernel.values());
            acc[2].extend_from_slice(s.native.values());
            acc[3].extend_from_slice(s.ratio.values());
        }
        all.extend_from_slice(w.all.values());
        traced_all.extend_from_slice(w.traced.values());
        isolates += w.all.seen() + w.traced.seen();
        untraced += w.all.seen();
        for e in w.effective {
            report.saw_strategy(e);
        }
        for p in w.problems {
            report.fail_check(p);
        }
        trace.absorb(w.rec);
    }
    // Each isolate is followed by a native twin run: two operations.
    report.attempted += 2 * isolates;

    let (mut iso_med, mut ratios, mut kernel_med, mut native_med) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (p, [iso, kern, native, ratio]) in prepared.iter().zip(per_module.iter_mut()) {
        let n = iso.len();
        let w = median(iso);
        let nat = median(native);
        if w > 0.0 && nat > 0.0 {
            iso_med.push(w);
            ratios.push(median(ratio));
            kernel_med.push(median(kern));
            native_med.push(nat);
        } else {
            report.fail_check(format!("{}: no samples", p.name()));
        }
        report.row(format!(
            "module {:<16} setup_cpu_ms {:>8.3} (median of {}) isolate_us {:>9.3} native_us {:>8.3} n {}",
            p.name(),
            stats::ns_to(p.setup.setup_ns, stats::MS),
            p.setup.reps,
            w / stats::US,
            nat / stats::US,
            n
        ));
    }
    values.set("kernel_ms_geomean", geomean(iso_med) / stats::MS);
    values.set("slowdown_vs_native", geomean(ratios));
    values.set("native.ms_geomean", geomean(native_med) / stats::MS);
    values.set("jit.invoke_ms_geomean", geomean(kernel_med) / stats::MS);
    values.set(
        "isolates_per_s",
        isolates as f64 / (elapsed as f64 / stats::S).max(1e-9),
    );
    let p50 = percentile(&mut all, 0.5);
    values.set("latency_p50_us", p50 / stats::US);
    values.set("latency_p99_us", percentile(&mut all, 0.99) / stats::US);
    report.row(format!(
        "samples isolates {isolates} (untraced {untraced}, percentiles from a uniform sample of {}) threads {threads}",
        all.len()
    ));

    if opts.traced {
        let traced_p50 = percentile(&mut traced_all, 0.5);
        values.set(
            "trace.overhead_pct",
            (traced_p50 / p50.max(1.0) - 1.0) * 100.0,
        );
        match modules::count_core(&prepared, &cfg, &linker) {
            Ok(c) => crate::set_core_counts(values, &c),
            Err(e) => report.fail_check(e),
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

/// One closed-loop thread: rounds over the modules in a seeded order,
/// each round traced or not (the traced run alternates), until the time
/// is up.
fn worker(
    t: usize,
    opts: &Opts,
    prepared: &[Prepared],
    cfg: &MemoryConfig,
    linker: &Linker,
    start: &Barrier,
    t0: u64,
) -> Worker {
    let mut rng =
        lb_chaos::SplitMix64::new(opts.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let seed = rng.next_u64();
    let reservoir = |cap, k: u64| Reservoir::new(cap, seed.wrapping_add(k));
    let mut w = Worker {
        modules: (0..prepared.len() as u64)
            .map(|m| Samples {
                isolate: reservoir(PER_MODULE_SAMPLES, 4 * m),
                kernel: reservoir(PER_MODULE_SAMPLES, 4 * m + 1),
                native: reservoir(PER_MODULE_SAMPLES, 4 * m + 2),
                ratio: reservoir(PER_MODULE_SAMPLES, 4 * m + 3),
            })
            .collect(),
        all: reservoir(POOLED_SAMPLES, u64::MAX),
        traced: reservoir(POOLED_SAMPLES, u64::MAX - 1),
        effective: Vec::new(),
        problems: Vec::new(),
        rec: Recorder::new(t as u64 + 1, false),
    };
    start.wait();
    let deadline = t0 + (opts.seconds * stats::S) as u64;
    let mut id = (t as u64) << 40;
    'rounds: for round in 0u64.. {
        w.rec.set_enabled(opts.traced && round % 2 == 1);
        for m in shuffled(prepared.len(), &mut rng) {
            if now_ns() >= deadline {
                break 'rounds;
            }
            id += 1;
            let p = &prepared[m];
            let iso = run_isolate(p, cfg, linker, &mut w.rec, id);
            let native = run_native(&p.subject, &mut w.rec, id);
            match (iso, native) {
                (Ok(r), Ok(native_ns)) => {
                    if !w.effective.contains(&r.effective) {
                        w.effective.push(r.effective);
                    }
                    if w.rec.enabled() {
                        w.traced.push(r.ns as f64);
                    } else {
                        w.all.push(r.ns as f64);
                        let s = &mut w.modules[m];
                        s.isolate.push(r.ns as f64);
                        s.kernel.push(r.kernel_ns as f64);
                        s.native.push(native_ns as f64);
                        s.ratio.push(r.ns as f64 / native_ns.max(1) as f64);
                    }
                }
                (a, b) => w.problems.extend(a.err().into_iter().chain(b.err())),
            }
        }
    }
    w.rec.set_enabled(false);
    w
}
