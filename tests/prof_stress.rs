//! Signal-coexistence stress for the sampling profiler.
//!
//! The profiler's SIGPROF handler has to run concurrently with the
//! runtime's own signal traffic — SIGBUS/userfaultfd fault service on
//! the uffd strategy, SIGSEGV guard-page traps — and with chaos-injected
//! mprotect failures on the grow path. The test's primary assertion is
//! that it *finishes*: no deadlock between handlers, no crash from a
//! sample landing mid-fault-service. On top of that we check the sample
//! accounting is bounded (every handler hit is either drained, counted
//! dropped, or counted incomplete — nothing silently lost) and that the
//! timer is fully disarmed afterwards so later tests are unaffected. A
//! phase whose session drained no samples at all (a starved sampler under
//! container CPU limits) still passes, but is counted and reported on
//! stderr past the harness's output capture, never silently.

use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig};
use lb_harness::{run_benchmark_checked, EngineSel, RunOutcome, RunSpec};
use lb_polybench::{by_name, common::Dataset};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Phases whose profiler session drained no samples, process-wide.
static STARVED: AtomicUsize = AtomicUsize::new(0);

/// Report a phase whose session drained no samples: its workload still
/// ran and was checked, but the profiler was not shown to sample it.
fn report_if_starved(phase: &str, report: &lb_prof::ProfReport, taken: u64) {
    if report.total > 0 {
        return;
    }
    let starved = STARVED.fetch_add(1, Ordering::Relaxed) + 1;
    let _ = writeln!(
        std::io::stderr(),
        "prof_stress: {phase}: STARVED, the session drained no samples \
         ({taken} handler hits, {} dropped, {} incomplete); {starved} starved in this run",
        report.dropped,
        report.incomplete
    );
}

/// Bounded loss for one session: the handler ran at least once per
/// drained sample, and every drained, dropped or incomplete sample was a
/// handler hit (`taken` may also include hits from earlier sessions of
/// the same window).
fn assert_bounded_loss(phase: &str, report: &lb_prof::ProfReport, taken: u64) {
    let accounted = report.total + report.dropped + report.incomplete;
    assert!(
        taken >= report.total,
        "{phase}: drained {} samples but the handler only ran {taken} times",
        report.total
    );
    assert!(
        accounted <= taken,
        "{phase}: accounted {accounted} samples exceeds {taken} handler hits"
    );
}

fn spec(strategy: BoundsStrategy) -> RunSpec {
    let mut s = RunSpec::new(EngineSel::Wavm, strategy);
    s.threads = 4;
    s.warmup_iters = 1;
    s.measured_iters = 40;
    s.reserve_bytes = 64 << 20;
    s.max_pages = 512;
    s.timeout = Some(Duration::from_secs(120));
    s.retries = 2;
    s
}

#[test]
fn profiler_coexists_with_fault_service_and_chaos() {
    lb_prof::set_sampling(4000);
    let bench = by_name("gemm", Dataset::Small).expect("gemm");

    // Phase 1: uffd strategy (SIGBUS/uffd fault service on every page
    // touch) with SIGPROF firing at 4 kHz. Must complete correctly.
    let before = lb_telemetry::snapshot();
    let outcome = run_benchmark_checked(&bench, &spec(BoundsStrategy::Uffd));
    let taken = lb_telemetry::snapshot()
        .delta_since(&before)
        .counter("prof.samples.taken");
    let r = match outcome {
        RunOutcome::Completed(r) => r,
        RunOutcome::Failed(f) => panic!("uffd run must survive profiling: {f}"),
    };
    assert!(r.checksum_ok, "profiling must not corrupt results");
    let report = r.prof.as_ref().expect("profiler session ran");
    // The handler-hit counter can only exceed what this session accounted
    // for by hits from the retry path's earlier sessions.
    assert_bounded_loss("uffd phase", report, taken);
    report_if_starved("uffd phase", report, taken);

    // Phase 2: hammer the mprotect grow path directly — the PolyBench
    // kernels never execute `memory.grow`, so this is the only way to
    // put SIGPROF on top of grow-time mprotect failures. One in five
    // grow calls gets an injected ENOMEM; each must surface as a clean
    // `None` (wasm -1), never a wedge or crash, while the profiler keeps
    // sampling the grow workers.
    let before = lb_telemetry::snapshot();
    let session = lb_prof::start().expect("session for grow stress");
    let chaos = lb_chaos::install("core.mprotect.grow:rate=0.2:ENOMEM;seed=11").expect("plan");
    let cfg = MemoryConfig {
        strategy: BoundsStrategy::Mprotect,
        initial_pages: 1,
        max_pages: 64,
        reserve_bytes: 16 << 20,
    };
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                lb_prof::ensure_thread();
                for _ in 0..50 {
                    let m = LinearMemory::new(&cfg).expect("memory");
                    for _ in 0..20 {
                        // Some(..) or a chaos-injected None: both fine.
                        let _ = m.grow(1);
                    }
                }
            });
        }
    });
    drop(chaos);
    let grow_report = lb_prof::resolve_profile(session.stop());
    let delta = lb_telemetry::snapshot().delta_since(&before);
    let taken = delta.counter("prof.samples.taken");
    assert_bounded_loss("grow phase", &grow_report, taken);
    report_if_starved("grow phase", &grow_report, taken);
    assert!(
        delta.counter("chaos.fired.core.mprotect.grow") > 0,
        "the chaos plan never fired — grow path not exercised"
    );
    // The successful grows must have recorded their mprotect latency
    // spans even with the profiler interrupting the path.
    let drained = lb_telemetry::snapshot_and_drain();
    assert!(
        !drained.spans_named("mem.protect_grow").is_empty(),
        "no mem.protect_grow spans recorded under chaos + profiling"
    );

    // The sampler must be fully disarmed between sessions: a fresh
    // session starts (nothing left holding the ACTIVE latch) and the
    // process-wide timer reads back zeroed after stop.
    let session = lb_prof::start().expect("fresh session after stress");
    let _ = lb_prof::resolve_profile(session.stop());
    lb_prof::set_sampling(0);
    unsafe {
        let mut cur: libc::itimerval = std::mem::zeroed();
        assert_eq!(libc::getitimer(libc::ITIMER_PROF, &mut cur), 0);
        assert_eq!(cur.it_value.tv_sec, 0);
        assert_eq!(cur.it_value.tv_usec, 0);
    }
}
