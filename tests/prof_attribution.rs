//! Attribution-correctness test for the sampling profiler (lb-prof).
//!
//! The profiler's whole point is telling bounds-check time apart from
//! compute time, so the one thing it must get right is *direction*: a
//! JIT configuration that emits every guard must show at least as much
//! guard self-time as one that elides them all. We run the same kernel
//! under the wasmtime profile with analysis-driven elision disabled and
//! enabled and compare `guard_pct_resolved`.
//!
//! Sampling is statistical, so the assertions are gated on a minimum
//! resolved-sample count and allow slack; the accounting invariants
//! (every sample lands in exactly one bucket, unresolved is counted, not
//! discarded) are asserted unconditionally. A gated-off direction check
//! is counted and reported on stderr, never skipped silently.
//!
//! The profiler has one process-wide session and one global sampling
//! rate, so every test here holds [`profiler_lock`]: otherwise one test's
//! live session or `set_sampling(0)` starves another's `lb_prof::start()`
//! when the harness runs them on parallel threads.

mod common;

use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use lb_polybench::{by_name, common::Dataset};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serializes this file's tests around the global profiler state.
fn profiler_lock() -> MutexGuard<'static, ()> {
    static PROFILER: Mutex<()> = Mutex::new(());
    PROFILER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Direction checks gated off for lack of resolved samples, process-wide.
static DIRECTION_SKIPS: AtomicUsize = AtomicUsize::new(0);

/// Whether both runs resolved enough samples for direction assertions.
/// Container CPU limits or a low-resolution ITIMER can starve the
/// sampler; rather than flake, a starved check is counted and a summary
/// line goes straight to stderr, past the harness's output capture.
fn direction_has_signal(test: &str, a: (&str, u64), b: (&str, u64)) -> bool {
    const MIN_RESOLVED: u64 = 50;
    if a.1 >= MIN_RESOLVED && b.1 >= MIN_RESOLVED {
        return true;
    }
    let skips = DIRECTION_SKIPS.fetch_add(1, Ordering::Relaxed) + 1;
    let _ = writeln!(
        std::io::stderr(),
        "prof_attribution: {test}: SKIPPED direction assertions, too few resolved \
         samples ({} {}, {} {}; need {MIN_RESOLVED} each); {skips} skipped in this run",
        a.0,
        a.1,
        b.0,
        b.1
    );
    false
}

/// Run gemm for ~half a second under one JIT configuration with the
/// profiler attached, and resolve the profile.
fn profile_run(analysis: bool) -> lb_prof::ProfReport {
    // Enable sampling *before* `load`: code regions register with the
    // profiler at publish time only while it is enabled.
    lb_prof::set_sampling(4000);
    let bench = by_name("gemm", Dataset::Small).expect("gemm");
    let engine = JitEngine::new(JitProfile::wasmtime().with_analysis(analysis));
    let loaded = engine.load(&bench.module).expect("load");
    let config = MemoryConfig {
        strategy: BoundsStrategy::Trap,
        initial_pages: 0,
        max_pages: 512,
        reserve_bytes: 64 << 20,
    };
    let linker = Linker::new();
    let session = lb_prof::start().expect("profiler session");
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(500) {
        let mut inst = loaded.instantiate(&config, &linker).expect("instantiate");
        inst.invoke("init", &[]).expect("init");
        inst.invoke("kernel", &[]).expect("kernel");
    }
    let report = lb_prof::resolve_profile(session.stop());
    lb_prof::set_sampling(0);
    report
}

#[test]
fn guard_attribution_tracks_check_elision() {
    let _profiler = profiler_lock();
    let with_checks = profile_run(false);
    let elided = profile_run(true);

    // Accounting invariants hold regardless of sample counts: the class
    // buckets partition the samples, and every sample either resolved to
    // a region or was counted unresolved — none vanish.
    for (name, r) in [("with_checks", &with_checks), ("elided", &elided)] {
        let sum: u64 = r.class_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(sum, r.total, "{name}: class buckets must partition samples");
        assert_eq!(r.samples.len() as u64, r.total, "{name}");
        assert!(r.resolved() + r.unresolved == r.total, "{name}");
    }

    if !direction_has_signal(
        "guard_attribution_tracks_check_elision",
        ("with_checks", with_checks.resolved()),
        ("elided", elided.resolved()),
    ) {
        return;
    }

    // Full elision leaves (almost) no guard instructions to sample: the
    // acceptance bound is ≤2% self-time, asserted with slack for the
    // odd mid-sequence misclassification.
    assert!(
        elided.guard_pct_resolved() <= 5.0,
        "elided kernel shows {:.2}% guard self-time ({} of {} resolved)",
        elided.guard_pct_resolved(),
        elided.guard,
        elided.resolved()
    );
    // And emitting every check can only move guard time up.
    assert!(
        with_checks.guard_pct_resolved() >= elided.guard_pct_resolved() - 0.5,
        "guard self-time went the wrong way: {:.2}% with checks vs {:.2}% elided",
        with_checks.guard_pct_resolved(),
        elided.guard_pct_resolved()
    );
}

/// Run the dynamic-bound store loop for ~half a second with the profiler
/// attached. Its loop bound is a parameter, so *static* elision can never
/// remove the per-store guard — only the hoisted preheader guard can.
fn profile_hoist_run(hoisting: bool) -> lb_prof::ProfReport {
    lb_prof::set_sampling(4000);
    let m = common::dynamic_bound_module();
    let engine = JitEngine::new(JitProfile::wavm().with_hoisting(hoisting));
    let loaded = engine.load(&m).expect("load");
    let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 1).with_reserve(1 << 22);
    let linker = Linker::new();
    let mut inst = loaded.instantiate(&config, &linker).expect("instantiate");
    let session = lb_prof::start().expect("profiler session");
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(500) {
        inst.invoke("go", &[lb_wasm::Value::I32(common::MAX_N)])
            .expect("go stays in bounds");
    }
    let report = lb_prof::resolve_profile(session.stop());
    lb_prof::set_sampling(0);
    report
}

/// Hoisting moves the bounds check out of the loop: guard self-time on a
/// kernel whose checks static analysis *cannot* remove must measurably
/// drop when the loop is versioned behind a preheader guard.
#[test]
fn guard_self_time_drops_with_hoisting() {
    let _profiler = profiler_lock();
    let checked = profile_hoist_run(false);
    let hoisted = profile_hoist_run(true);

    for (name, r) in [("checked", &checked), ("hoisted", &hoisted)] {
        let sum: u64 = r.class_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(sum, r.total, "{name}: class buckets must partition samples");
        assert!(r.resolved() + r.unresolved == r.total, "{name}");
    }

    if !direction_has_signal(
        "guard_self_time_drops_with_hoisting",
        ("checked", checked.resolved()),
        ("hoisted", hoisted.resolved()),
    ) {
        return;
    }

    // The versioned fast body is check-free; the preheader guard runs
    // once per call, which is statistically invisible.
    assert!(
        hoisted.guard_pct_resolved() <= 5.0,
        "hoisted kernel shows {:.2}% guard self-time ({} of {} resolved)",
        hoisted.guard_pct_resolved(),
        hoisted.guard,
        hoisted.resolved()
    );
    // Per-store guards dominate a 4-instruction loop body: the drop must
    // be real signal, not slack.
    assert!(
        checked.guard_pct_resolved() >= hoisted.guard_pct_resolved() + 5.0,
        "guard self-time did not drop with hoisting: {:.2}% checked vs {:.2}% hoisted",
        checked.guard_pct_resolved(),
        hoisted.guard_pct_resolved()
    );
}
