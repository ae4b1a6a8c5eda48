//! `serve`: admission, queueing and pooled acquire/reset in `lb-serve`.
//!
//! Open-loop traffic from one generator thread into a server with
//! `nproc - 1` shards (at least 1), `uffd` strategy, instance pool on,
//! a shard queue deep enough to absorb the generator's catch-up bursts.
//! Each request picks a seeded tenant out of 4 and a seeded PolyBench
//! Mini kernel and runs its `kernel` export on a fresh (pooled) isolate.
//!
//! The measured phase alternates short blocks at two fixed offered rates
//! (`lo`, `hi`), with the native twins timed after each pair; then it
//! climbs a fixed rate ladder, stopping after two steps in a row miss the
//! p99 limit (`serve.max_rps` is the completion rate of the highest step
//! that met it). Latency runs from the time a request was due: submit
//! delay + queue time + run time. A rejected or shed request
//! misses every limit; below capacity (`lo`, `hi`) it also counts as a
//! failed operation. `slowdown_vs_native` is, per kernel, the median run
//! time inside the server (pooled instantiate + `kernel`) over the
//! median time of the native `kernel` on a fresh state, geomean over the
//! kernels.

use crate::modules::{self, Prepared, Subject};
use crate::report::Report;
use crate::stats::{self, geomean, median, percentile, Reservoir};
use crate::trace::{now_ns, Name, Recorder, Trace};
use crate::{host, Opts, Values};
use lb_core::pool::{self, MemoryPoolConfig};
use lb_core::{BoundsStrategy, Linker, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use lb_serve::{KernelSpec, Outcome, Overload, ServeConfig, Server, Ticket};
use std::collections::VecDeque;
use std::time::Duration;

/// The strategy this workload measures.
pub const STRATEGY: BoundsStrategy = BoundsStrategy::Uffd;
/// Pooled memories kept per strategy.
pub const POOL_CAPACITY: usize = 16;
/// Tenants requests are spread over.
pub const TENANTS: u64 = 4;
/// Queue depth of the shard and the server's in-flight cap. When the
/// host stalls the generator for a few milliseconds, it then submits
/// the requests that fell due back to back; at the default depth of 64
/// a 14 ms stall at the `hi` rate is enough to fill the queue. This
/// depth takes a stall of most of a second at `hi`, so below capacity
/// every request is admitted and a refusal means the server is at fault.
pub const QUEUE_DEPTH: usize = 4096;
/// Completion rate of the parent commit when offered more than it can
/// take, on a 2-vCPU x86-64 VM (one shard); the offered rates below are
/// fixed fractions of it.
pub const CAPACITY_RPS: f64 = 20_000.0;
/// Offered rate of the `lo` blocks.
pub const LO_RPS: f64 = 0.1 * CAPACITY_RPS;
/// Offered rate of the `hi` blocks.
pub const HI_RPS: f64 = 0.25 * CAPACITY_RPS;
/// Offered rates of the ladder, as fractions of [`CAPACITY_RPS`].
pub const LADDER: [f64; 11] = [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8];
/// Blocks per ladder step; a step meets the limit if the median of its
/// blocks' p99 does.
const STEP_BLOCKS: usize = 3;
/// p99 limit a ladder step must meet, µs.
pub const P99_LIMIT_US: f64 = 1000.0;
/// Share of the measured time spent in `lo`/`hi` blocks; the rest goes
/// to the ladder.
const LOHI_SHARE: f64 = 0.6;
/// Length of one `lo` or `hi` block.
const BLOCK_S: f64 = 0.3;
/// Native twin samples per kernel after each `lo`/`hi` pair.
const NATIVE_REPS: usize = 5;
/// Shortest batch of back-to-back native runs that makes one sample.
const NATIVE_BATCH_NS: u64 = 20_000;
/// Server set-ups (start + pool warm-up) per run; the median is kept.
const START_REPS: usize = 3;
/// How long to wait for an admitted request before calling it lost.
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(10);
/// Size of every sample the benchmark keeps across blocks.
const SAMPLES: usize = 65_536;

/// Samples of one phase (the untraced `lo` or `hi` blocks).
struct Phase {
    /// Due-to-done latency of completed requests.
    latency: Reservoir,
    /// Requests sent and missed, for percentiles that count misses.
    sent: u64,
    missed: u64,
    /// Run time per kernel.
    run_by_kernel: Vec<Vec<f64>>,
    /// How late the generator submitted, how long `submit` took, and
    /// the queue and run times the server reported.
    lag: Reservoir,
    submit: Reservoir,
    queue: Reservoir,
    run: Reservoir,
}

impl Phase {
    fn new(kernels: usize, seed: u64) -> Phase {
        Phase {
            latency: Reservoir::new(SAMPLES, seed),
            sent: 0,
            missed: 0,
            run_by_kernel: vec![Vec::new(); kernels],
            lag: Reservoir::new(SAMPLES, seed.wrapping_add(1)),
            submit: Reservoir::new(SAMPLES, seed.wrapping_add(2)),
            queue: Reservoir::new(SAMPLES, seed.wrapping_add(3)),
            run: Reservoir::new(SAMPLES, seed.wrapping_add(4)),
        }
    }

    /// Latency percentile `q` over the phase, µs, misses counted as
    /// infinitely late.
    fn latency_us(&self, q: f64) -> f64 {
        let mut v = self.latency.values().to_vec();
        percentile_with_misses(&mut v, self.sent, self.missed, q) / stats::US
    }
}

/// Percentile `q` of `sent` requests of which `missed` never completed
/// and `completed` is a uniform sample of the rest; misses sort last.
fn percentile_with_misses(completed: &mut [f64], sent: u64, missed: u64, q: f64) -> f64 {
    if sent == 0 {
        return 0.0;
    }
    let done_share = 1.0 - missed as f64 / sent as f64;
    if completed.is_empty() || q > done_share {
        return f64::INFINITY;
    }
    percentile(completed, q / done_share)
}

/// What one block of traffic produced.
#[derive(Default)]
struct Block {
    sent: u64,
    done: u64,
    /// Requests that missed: rejected, shed, failed or lost.
    missed: u64,
    rejected_queue_full: u64,
    rejected_other: u64,
    shed: u64,
    failed: Vec<String>,
    elapsed_ns: u64,
    /// Due-to-done latency percentiles of the block, µs.
    p50_us: f64,
    p99_us: f64,
}

fn memory_config() -> MemoryConfig {
    MemoryConfig::new(STRATEGY, 0, lb_wasm::MAX_PAGES)
}

fn start_server(prepared: &[Prepared]) -> Server {
    let config = ServeConfig {
        shards: host::nproc().saturating_sub(1).max(1),
        queue_depth: QUEUE_DEPTH,
        max_inflight: QUEUE_DEPTH,
        ..ServeConfig::default()
    };
    let kernels = prepared
        .iter()
        .map(|p| KernelSpec {
            name: p.name().to_string(),
            module: p.module.clone(),
            entry: "kernel".to_string(),
            args: Vec::new(),
        })
        .collect();
    Server::start(config, kernels, memory_config(), Linker::new())
}

/// Submit one request per kernel, one at a time, and check each
/// completes.
fn one_each(server: &Server, n: usize, report: &mut Report) {
    for k in 0..n {
        report.attempt();
        match server.submit((k as u64 % TENANTS) as u32, k, None) {
            Ok(t) => match t.wait_timeout(RESOLVE_TIMEOUT) {
                Some(Outcome::Completed { .. }) => {}
                other => report.fail(format!("kernel {k}: sequential request ended {other:?}")),
            },
            Err(e) => report.fail(format!("kernel {k}: sequential request rejected: {e}")),
        }
    }
}

/// The generator's state across blocks.
struct Generator<'a> {
    server: &'a Server,
    kernels: usize,
    rng: lb_chaos::SplitMix64,
    next_id: u64,
}

impl Generator<'_> {
    /// Offer `rate` requests/s for `seconds`, collecting outcomes as they
    /// resolve, then wait for the rest.
    fn block(
        &mut self,
        rate: f64,
        seconds: f64,
        rec: &mut Recorder,
        mut phase: Option<&mut Phase>,
    ) -> Block {
        let mut b = Block::default();
        let interval = stats::S / rate;
        let total = (rate * seconds).round() as u64;
        let mut latency = Vec::with_capacity(total as usize);
        let mut pending: VecDeque<(usize, u64, Ticket)> = VecDeque::new();
        let t0 = now_ns();
        rec.span(Name::Block, self.next_id, |rec| {
            for i in 0..total {
                let due = t0 + (i as f64 * interval) as u64;
                let now = now_ns();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let tenant = self.rng.below(TENANTS) as u32;
                let kernel = self.rng.below(self.kernels as u64) as usize;
                self.next_id += 1;
                let s0 = now_ns();
                let r = rec.span(Name::Submit, self.next_id, |_| {
                    self.server.submit(tenant, kernel, None)
                });
                let s1 = now_ns();
                b.sent += 1;
                if let Some(p) = phase.as_deref_mut() {
                    p.lag.push((s0 - due) as f64);
                    p.submit.push((s1 - s0) as f64);
                }
                match r {
                    Ok(t) => pending.push_back((kernel, s0 - due, t)),
                    Err(Overload::QueueFull) => {
                        b.missed += 1;
                        b.rejected_queue_full += 1;
                    }
                    Err(_) => {
                        b.missed += 1;
                        b.rejected_other += 1;
                    }
                }
                while let Some(outcome) = pending.front().and_then(|(_, _, t)| t.try_outcome()) {
                    if let Some((kernel, delay, _)) = pending.pop_front() {
                        self.record(
                            &mut b,
                            &mut latency,
                            phase.as_deref_mut(),
                            kernel,
                            delay,
                            Some(outcome),
                        );
                    }
                }
            }
        });
        b.elapsed_ns = now_ns() - t0;
        for (kernel, delay, t) in pending {
            let outcome = t.wait_timeout(RESOLVE_TIMEOUT);
            self.record(
                &mut b,
                &mut latency,
                phase.as_deref_mut(),
                kernel,
                delay,
                outcome,
            );
        }
        b.p50_us = percentile_with_misses(&mut latency, b.sent, b.missed, 0.5) / stats::US;
        b.p99_us = percentile_with_misses(&mut latency, b.sent, b.missed, 0.99) / stats::US;
        if let Some(p) = phase {
            p.sent += b.sent;
            p.missed += b.missed;
        }
        b
    }

    fn record(
        &mut self,
        b: &mut Block,
        latency: &mut Vec<f64>,
        phase: Option<&mut Phase>,
        kernel: usize,
        delay: u64,
        outcome: Option<Outcome>,
    ) {
        match outcome {
            Some(Outcome::Completed { queue_ns, run_ns }) => {
                let lat = (delay + queue_ns + run_ns) as f64;
                b.done += 1;
                latency.push(lat);
                if let Some(p) = phase {
                    p.latency.push(lat);
                    p.queue.push(queue_ns as f64);
                    p.run.push(run_ns as f64);
                    p.run_by_kernel[kernel].push(run_ns as f64);
                }
            }
            Some(Outcome::Shed { .. }) => {
                b.missed += 1;
                b.shed += 1;
            }
            Some(Outcome::Failed { stage, error }) => {
                b.missed += 1;
                b.failed.push(format!(
                    "kernel {kernel}: failed at {}: {error}",
                    stage.name()
                ));
            }
            None => {
                b.missed += 1;
                b.failed.push(format!(
                    "kernel {kernel}: unresolved after {RESOLVE_TIMEOUT:?}"
                ));
            }
        }
    }
}

/// Time the native twin's `kernel` on a freshly constructed state, the
/// same work a request does on a fresh zeroed memory. Runs back to back
/// for at least [`NATIVE_BATCH_NS`] and returns the time per run, so
/// sub-microsecond kernels are not lost in timer noise.
fn native_kernel_ns(s: &Subject, rec: &mut Recorder, id: u64) -> f64 {
    rec.span(Name::Native, id, |_| {
        let t0 = now_ns();
        let mut runs = 0u64;
        while runs == 0 || now_ns() - t0 < NATIVE_BATCH_NS {
            let mut k = (s.bench.native)();
            k.kernel();
            std::hint::black_box(k.checksum());
            runs += 1;
        }
        (now_ns() - t0) as f64 / runs as f64
    })
}

/// One rung of the rate ladder.
struct Step {
    frac: f64,
    blocks: Vec<Block>,
    /// Median over the step's blocks of each block's p99, µs.
    p99_us: f64,
    ok: bool,
}

/// Requests completed per second of offered traffic over `blocks`.
fn completion_rate(blocks: &[Block]) -> f64 {
    let (done, ns) = blocks
        .iter()
        .fold((0u64, 0u64), |(d, n), b| (d + b.done, n + b.elapsed_ns));
    done as f64 / (ns as f64 / stats::S).max(1e-9)
}

/// Median of a per-block figure, µs.
fn block_median(blocks: &[Block], f: fn(&Block) -> f64) -> f64 {
    let mut v: Vec<f64> = blocks.iter().map(f).collect();
    median(&mut v)
}

/// Ask the kernel to wake this thread's sleeps on time: the default
/// 50 µs timer slack would show up as generator lag.
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Run the workload.
pub fn run(opts: &Opts, report: &mut Report, trace: &mut Trace, values: &mut Values) {
    report.requested = STRATEGY.name();
    let engine = JitEngine::new(JitProfile::wavm());
    let cfg = memory_config();
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

    measure(opts, report, values, &mut rec, &prepared);
    rec.set_enabled(false);
    trace.absorb(rec);
}

/// The server part of the workload: server set-up, traffic, checks and
/// figures.
fn measure(
    opts: &Opts,
    report: &mut Report,
    values: &mut Values,
    rec: &mut Recorder,
    prepared: &[Prepared],
) {
    let n = prepared.len();
    // Server set-up: configure the pool, start, warm the pool with one
    // request per kernel. Repeated from an empty pool; the last server
    // stays up.
    let telemetry_start = lb_telemetry::snapshot();
    let mut starts = Vec::new();
    let mut server = None;
    for rep in 0..START_REPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        pool::drain();
        let cpu0 = host::process_cpu_ns();
        pool::configure(MemoryPoolConfig {
            capacity: POOL_CAPACITY,
            verify_zero: false,
        });
        let s = rec.span(Name::ServerStart, rep as u64, |_| start_server(prepared));
        one_each(&s, n, report);
        starts.push(host::process_cpu_ns() - cpu0);
        server = Some(s);
    }
    let Some(server) = server else { return };
    starts.sort_unstable();
    let start_ns = starts[starts.len() / 2];
    report.row(format!(
        "setup modules_s {:.6} server_start_s {:.6} (median of {START_REPS})",
        values.get("setup_s"),
        stats::ns_to(start_ns, stats::S)
    ));
    values.set(
        "setup_s",
        values.get("setup_s") + stats::ns_to(start_ns, stats::S),
    );

    tight_timer_slack();
    let mut rng = lb_chaos::SplitMix64::new(opts.seed);
    let seed = rng.next_u64();
    let mut gen = Generator {
        server: &server,
        kernels: n,
        rng,
        next_id: 0,
    };
    let (mut lo, mut hi) = (Phase::new(n, seed), Phase::new(n, seed ^ (1 << 32)));
    let mut blocks: Vec<Block> = Vec::new();
    let (mut lo_blocks, mut hi_blocks, mut lo_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut native: Vec<Vec<f64>> = vec![Vec::new(); n];
    let before = lb_telemetry::snapshot();
    let pairs = ((opts.seconds * LOHI_SHARE / (2.0 * BLOCK_S)).floor() as usize).max(1);
    for pair in 0..pairs {
        // The traced run traces every other pair, to measure the tracing
        // overhead on the same run.
        let traced = opts.traced && pair % 2 == 1;
        rec.set_enabled(traced);
        let l = gen.block(LO_RPS, BLOCK_S, rec, (!traced).then_some(&mut lo));
        let h = gen.block(HI_RPS, BLOCK_S, rec, (!traced).then_some(&mut hi));
        if traced {
            lo_traced.push(l.p50_us);
        } else {
            lo_blocks.push(l.p50_us);
            hi_blocks.push(h.p50_us);
        }
        blocks.extend([l, h]);
        // Native twins between pairs, so both sides see the same host.
        for (k, p) in prepared.iter().enumerate() {
            for _ in 0..NATIVE_REPS {
                native[k].push(native_kernel_ns(&p.subject, rec, k as u64));
            }
        }
    }
    // Peak RSS at the fixed offered rates: on the ladder the deadline
    // wheel holds every admitted request until its deadline, so memory
    // there follows how far up the ladder this host got.
    values.set("peak_rss_mb", host::peak_rss_mb());
    rec.set_enabled(opts.traced);
    let block_s = opts.seconds * (1.0 - LOHI_SHARE) / (LADDER.len() * STEP_BLOCKS) as f64;
    let mut ladder: Vec<Step> = Vec::new();
    let mut max_rps = 0.0;
    for frac in LADDER {
        let step_blocks: Vec<Block> = (0..STEP_BLOCKS)
            .map(|_| gen.block(frac * CAPACITY_RPS, block_s, rec, None))
            .collect();
        let p99_us = block_median(&step_blocks, |b| b.p99_us);
        let ok = p99_us <= P99_LIMIT_US;
        if ok {
            max_rps = completion_rate(&step_blocks);
        }
        ladder.push(Step {
            frac,
            blocks: step_blocks,
            p99_us,
            ok,
        });
        // Stop after two misses in a row: one miss can be a host stall.
        if ladder.iter().rev().take(2).filter(|st| !st.ok).count() == 2 {
            break;
        }
    }
    let delta = lb_telemetry::snapshot().delta_since(&before);
    crate::set_memory_telemetry(values, &delta);
    if let Some(h) = delta.histogram("jit.instantiate_ns") {
        values.set(
            "core.instantiate_us.p50",
            h.quantile(0.5) as f64 / stats::US,
        );
        values.set(
            "core.instantiate_us.p99",
            h.quantile(0.99) as f64 / stats::US,
        );
    }

    // lo/hi blocks sit below capacity, so a rejection or shed there is
    // a failed operation; on the ladder it is expected.
    // A failed or lost request is a correctness failure anywhere.
    let ladder_blocks = ladder.iter().flat_map(|st| st.blocks.iter());
    for (b, below_capacity) in blocks
        .iter()
        .map(|b| (b, true))
        .chain(ladder_blocks.clone().map(|b| (b, false)))
    {
        report.attempted += b.sent;
        if below_capacity {
            report.miss(b.missed - b.failed.len() as u64);
        }
        for f in &b.failed {
            report.fail(f.clone());
        }
    }

    // Exact syscall counts per request, one request at a time.
    if opts.traced {
        let vm = lb_core::stats::snapshot();
        one_each(&server, n, report);
        let c = modules::CoreCounts::per(&lb_core::stats::snapshot().delta(&vm), n);
        crate::set_core_counts(values, &c);
    }
    Server::shutdown(server);
    pool::drain();

    let totals = lb_telemetry::snapshot().delta_since(&telemetry_start);
    let admitted = totals.counter("serve.admitted");
    let resolved = totals.counter("serve.completed")
        + totals.counter("serve.failed")
        + totals.counter("serve.shed");
    if admitted != resolved {
        report.fail_check(format!(
            "admitted {admitted} != completed + failed + shed {resolved}"
        ));
    }
    let doubles = totals.counter("serve.double_complete");
    if doubles != 0 {
        report.fail_check(format!("serve.double_complete = {doubles}"));
    }
    if totals.counter("core.strategy.fallback") != 0 {
        report.fail_check("uffd fell back to another strategy");
    } else {
        report.saw_strategy(STRATEGY.name());
    }

    // Service time per kernel (instantiate + kernel inside the server)
    // against the native kernel.
    let (mut run_med, mut ratios, mut native_med) = (Vec::new(), Vec::new(), Vec::new());
    for (k, p) in prepared.iter().enumerate() {
        let mut runs = std::mem::take(&mut lo.run_by_kernel[k]);
        runs.append(&mut hi.run_by_kernel[k]);
        let samples = runs.len();
        let w = median(&mut runs);
        let nat = median(&mut native[k]);
        if w > 0.0 && nat > 0.0 {
            run_med.push(w);
            ratios.push(w / nat);
            native_med.push(nat);
        } else {
            report.fail_check(format!("{}: no samples", p.name()));
        }
        report.row(format!(
            "kernel {:<16} run_us {:>9.3} native_kernel_us {:>8.3} ratio {:>7.3} n {samples}",
            p.name(),
            w / stats::US,
            nat / stats::US,
            w / nat
        ));
    }
    values.set("kernel_ms_geomean", geomean(run_med) / stats::MS);
    values.set("slowdown_vs_native", geomean(ratios));
    values.set("native.ms_geomean", geomean(native_med) / stats::MS);
    values.set("latency_p50_us", median(&mut hi_blocks));
    values.set("latency_p99_us", hi.latency_us(0.99));
    values.set("serve.lo.p50_us", median(&mut lo_blocks));
    values.set("serve.lo.p99_us", lo.latency_us(0.99));
    values.set("serve.max_rps", max_rps);
    report.row(format!(
        "serve lo {LO_RPS:.0} rps p50_us {:.3} (median of {} blocks) p99_us {:.3} (n {}); hi {HI_RPS:.0} rps p50_us {:.3} (median of {} blocks) p99_us {:.3} (n {})",
        values.get("serve.lo.p50_us"),
        lo_blocks.len(),
        values.get("serve.lo.p99_us"),
        lo.sent,
        values.get("latency_p50_us"),
        hi_blocks.len(),
        values.get("latency_p99_us"),
        hi.sent,
    ));
    for st in &ladder {
        report.row(format!(
            "ladder offered_rps {:.0} completed_rps {:.1} missed {} p99_us {:.3} (median of {} blocks) {}",
            st.frac * CAPACITY_RPS,
            completion_rate(&st.blocks),
            st.blocks.iter().map(|b| b.missed).sum::<u64>(),
            st.p99_us,
            st.blocks.len(),
            if st.ok { "meets" } else { "misses" }
        ));
    }
    report.row(format!(
        "serve max_rps {max_rps:.1} (p99 limit {P99_LIMIT_US} us, shards {})",
        host::nproc().saturating_sub(1).max(1),
    ));

    // Per-layer figures, over the untraced lo and hi blocks.
    let both = |f: fn(&Phase) -> &Reservoir| {
        let mut v = f(&lo).values().to_vec();
        v.extend_from_slice(f(&hi).values());
        v
    };
    for (mut v, p50, p99) in [
        (
            both(|p| &p.submit),
            "serve.submit_us.p50",
            "serve.submit_us.p99",
        ),
        (
            both(|p| &p.queue),
            "serve.queue_us.p50",
            "serve.queue_us.p99",
        ),
        (both(|p| &p.run), "serve.run_us.p50", "serve.run_us.p99"),
    ] {
        values.set(p50, percentile(&mut v, 0.5) / stats::US);
        values.set(p99, percentile(&mut v, 0.99) / stats::US);
    }
    let mut lag = both(|p| &p.lag);
    values.set(
        "serve.gen_lag_us.p99",
        percentile(&mut lag, 0.99) / stats::US,
    );
    let sum = |f: fn(&Block) -> u64| {
        blocks
            .iter()
            .chain(ladder_blocks.clone())
            .map(f)
            .sum::<u64>() as f64
    };
    values.set("serve.rejected.queue_full", sum(|b| b.rejected_queue_full));
    values.set("serve.rejected.other", sum(|b| b.rejected_other));
    values.set("serve.shed", sum(|b| b.shed));
    values.set("serve.failed", sum(|b| b.failed.len() as u64));
    if opts.traced {
        let traced = median(&mut lo_traced);
        let plain = values.get("serve.lo.p50_us");
        values.set(
            "trace.overhead_pct",
            (traced / plain.max(1e-9) - 1.0) * 100.0,
        );
    }
}
