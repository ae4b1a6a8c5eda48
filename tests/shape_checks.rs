//! Shape checks: the paper's qualitative claims, asserted with generous
//! tolerances so they hold on any host. Comparisons are restricted to
//! JIT-generated code vs JIT-generated code (unaffected by debug-mode host
//! compilation) or to syscall counts, which are exact.

use lb_chaos::SplitMix64;
use lb_telemetry::clock::thread_cpu_ns;
use leaps_and_bounds::core::exec::{Engine, Linker};
use leaps_and_bounds::core::{stats, BoundsStrategy, MemoryConfig};
use leaps_and_bounds::interp::InterpEngine;
use leaps_and_bounds::jit::{JitEngine, JitProfile};
use leaps_and_bounds::polybench::{by_name, Dataset};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serializes this file's tests. The timing checks compare strategies
/// measured side by side, which holds only while no other test of this
/// binary competes for the CPUs (the v8 test alone keeps a tier-up and a
/// pauser thread busy).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn kernel_time(
    engine: &dyn Engine,
    module: &leaps_and_bounds::wasm::Module,
    s: BoundsStrategy,
) -> Duration {
    let loaded = engine.load(module).unwrap();
    let config = MemoryConfig::new(s, 0, 512).with_reserve(256 << 20);
    let mut inst = loaded.instantiate(&config, &Linker::new()).unwrap();
    inst.invoke("init", &[]).unwrap();
    inst.invoke("kernel", &[]).unwrap(); // warm (tiering, faults)
    inst.invoke("kernel", &[]).unwrap();
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        inst.invoke("kernel", &[]).unwrap();
        best = best.min(t.elapsed());
    }
    best
}

/// `kernel` CPU times of `module` on `engine` under each of
/// `strategies`: `times[s][r]` is strategy `s` in round `r`. Every round
/// calls each strategy once, in a seeded random order.
///
/// Host noise on a shared machine is of two kinds at this scale.
/// Preemption by other processes adds whole scheduler slices to a call;
/// the thread's CPU-time clock leaves those out. Contention for the
/// core's shared resources (e.g. a busy SMT sibling) slows every call for
/// a while, most calls of a run landing in a slow mode and a random
/// minority in a fast one; a best-of-few time per strategy, taken one
/// strategy after another, pits a fast-mode sample against a slow-mode
/// one often enough to fail a 10–15% margin. Calls of one round run back
/// to back, so a round's ratio compares the strategies under the same
/// conditions (see [`median_ratio`]), and the shuffle keeps a periodic
/// disturbance from always landing on the same strategy.
fn interleaved_times(
    engine: &dyn Engine,
    module: &leaps_and_bounds::wasm::Module,
    strategies: &[BoundsStrategy],
) -> Vec<Vec<Duration>> {
    const ROUNDS: usize = 21;
    let loaded = engine.load(module).unwrap();
    let mut insts: Vec<_> = strategies
        .iter()
        .map(|&s| {
            let config = MemoryConfig::new(s, 0, 512).with_reserve(256 << 20);
            let mut inst = loaded.instantiate(&config, &Linker::new()).unwrap();
            inst.invoke("init", &[]).unwrap();
            inst.invoke("kernel", &[]).unwrap(); // warm (tiering, faults)
            inst.invoke("kernel", &[]).unwrap();
            inst
        })
        .collect();
    let mut times = vec![Vec::with_capacity(ROUNDS); strategies.len()];
    let mut rng = SplitMix64::new(0x5ead);
    let mut order: Vec<usize> = (0..strategies.len()).collect();
    for _ in 0..ROUNDS {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &s in &order {
            let t = thread_cpu_ns();
            insts[s].invoke("kernel", &[]).unwrap();
            times[s].push(Duration::from_nanos(thread_cpu_ns() - t));
        }
    }
    times
}

/// Median over rounds of `a[r] / b[r]`: how many times as long `a` took
/// as `b` in a typical round.
fn median_ratio(a: &[Duration], b: &[Duration]) -> f64 {
    let mut ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(a, b)| a.as_secs_f64() / b.as_secs_f64())
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Paper §4.1: "Software checks are significantly slower in a number of
/// configurations, most notably in WAVM, with clamping addresses
/// unconditionally behaving worse than generating conditional traps."
///
/// Measured with the static bounds-check analysis *off*: the claim is
/// about the cost of the emitted checks themselves, and `lb-analysis` now
/// elides most of them on PolyBench (see
/// `analysis_closes_the_software_check_gap_on_gemm`).
#[test]
fn software_checks_cost_more_than_guard_pages_on_gemm() {
    let _serial = serial();
    let bench = by_name("gemm", Dataset::Small).unwrap();
    let engine = JitEngine::new(JitProfile::wavm().with_analysis(false));
    let [none, clamp, trap, mprotect] = &interleaved_times(
        &engine,
        &bench.module,
        &[
            BoundsStrategy::None,
            BoundsStrategy::Clamp,
            BoundsStrategy::Trap,
            BoundsStrategy::Mprotect,
        ],
    )[..] else {
        unreachable!("one series per strategy")
    };

    // Guard pages ≈ none (paper: 1-2 percentage points; allow 15%).
    let r = median_ratio(mprotect, none);
    assert!(r < 1.15, "mprotect should be near none: {r:.3}x");
    // Software clamp visibly slower than none on a load-heavy kernel.
    let r = median_ratio(clamp, none);
    assert!(r > 1.10, "clamp should exceed none: {r:.3}x");
    // Clamp worse than trap (the paper's WAVM observation).
    let r = median_ratio(clamp, trap);
    assert!(r > 0.95, "clamp should not beat trap: {r:.3}x");
}

/// The flip side: with `lb-analysis` consuming its plan, most of gemm's
/// checks are proven in-bounds and the software-check strategies land
/// close to unchecked code.
#[test]
fn analysis_closes_the_software_check_gap_on_gemm() {
    let _serial = serial();
    let bench = by_name("gemm", Dataset::Small).unwrap();
    let engine = JitEngine::new(JitProfile::wavm());
    let [none, trap] = &interleaved_times(
        &engine,
        &bench.module,
        &[BoundsStrategy::None, BoundsStrategy::Trap],
    )[..] else {
        unreachable!("one series per strategy")
    };
    let r = median_ratio(trap, none);
    assert!(r < 1.10, "trap with analysis should be near none: {r:.3}x");
}

/// Paper §4.4 (Titzer): the interpreter is several times slower than the
/// tiered JIT.
#[test]
fn interpreter_is_many_times_slower_than_jit() {
    let _serial = serial();
    let bench = by_name("atax", Dataset::Small).unwrap();
    let jit = JitEngine::new(JitProfile::wavm());
    let interp = InterpEngine::new();
    let t_jit = kernel_time(&jit, &bench.module, BoundsStrategy::Mprotect);
    let t_int = kernel_time(&interp, &bench.module, BoundsStrategy::Mprotect);
    assert!(
        t_int > t_jit * 3,
        "interp {t_int:?} should be several times slower than jit {t_jit:?}"
    );
}

/// Paper §3.1/§4.2.1: strategy-specific syscall behavior, exactly counted.
#[test]
fn strategies_issue_the_expected_syscalls() {
    let _serial = serial();
    let bench = by_name("trisolv", Dataset::Mini).unwrap();
    let engine = JitEngine::new(JitProfile::wasmtime());
    let loaded = engine.load(&bench.module).unwrap();

    let churn = |s: BoundsStrategy| {
        let config = MemoryConfig::new(s, 0, 64).with_reserve(16 << 20);
        let before = stats::snapshot();
        for _ in 0..10 {
            let mut inst = loaded.instantiate(&config, &Linker::new()).unwrap();
            inst.invoke("init", &[]).unwrap();
            inst.invoke("kernel", &[]).unwrap();
        }
        stats::snapshot().delta(&before)
    };

    let mp = churn(BoundsStrategy::Mprotect);
    assert!(
        mp.mprotect >= 10,
        "one mprotect per isolate: {}",
        mp.mprotect
    );
    assert_eq!(mp.uffd_zeropage, 0);

    let tr = churn(BoundsStrategy::Trap);
    assert_eq!(tr.mprotect, 0, "software checks need no mprotect");

    if leaps_and_bounds::core::uffd::sigbus_mode_available() {
        let uf = churn(BoundsStrategy::Uffd);
        assert_eq!(uf.mprotect, 0, "uffd must not call mprotect");
        assert!(
            uf.uffd_zeropage >= 10,
            "uffd resolves faults in the handler"
        );
        assert!(uf.uffd_register >= 10);
    }

    // Every strategy churns one reservation per isolate.
    assert!(mp.mmap >= 10 && tr.mmap >= 10);
}

/// The V8 profile's background machinery exists: tier-up changes the code
/// executing behind a long-lived instance without breaking it.
#[test]
fn v8_profile_survives_concurrent_tier_up() {
    let _serial = serial();
    let bench = by_name("bicg", Dataset::Mini).unwrap();
    let expected = bench.native_checksum();
    let engine = JitEngine::new(JitProfile::v8());
    let loaded = engine.load(&bench.module).unwrap();
    let config = MemoryConfig::new(BoundsStrategy::Mprotect, 0, 64).with_reserve(16 << 20);
    let mut inst = loaded.instantiate(&config, &Linker::new()).unwrap();
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(150) {
        inst.invoke("init", &[]).unwrap();
        inst.invoke("kernel", &[]).unwrap();
        let cs = inst
            .invoke("checksum", &[])
            .unwrap()
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(cs.to_bits(), expected.to_bits());
    }
}
