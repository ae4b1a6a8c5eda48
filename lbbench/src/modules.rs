//! The modules under test and the operations every workload is built
//! from: set-up (bytes to first runnable instance), one fresh-isolate
//! run, one native twin run, and the exact per-isolate syscall count.

use crate::host::process_cpu_ns;
use crate::report::Report;
use crate::trace::{now_ns, Name, Recorder};
use lb_core::{Engine, Linker, LoadedModule, MemoryConfig};
use lb_dsl::kernel::checksums_match;
use lb_dsl::Benchmark;
use lb_jit::JitEngine;
use lb_wasm::Value;
use std::sync::Arc;

/// A module whose first set-up is shorter than this is set up
/// [`SETUP_REPS`] times and the median is kept; a longer one is set up
/// once.
const REPEAT_BELOW_NS: u64 = 1_000_000_000;
/// Set-ups per module when it is cheap enough to repeat.
const SETUP_REPS: usize = 5;
/// Extra instantiations after set-up that give the steady instantiate
/// time (traced run only).
const STEADY_REPS: usize = 3;

/// One benchmark with its wasm bytes and its native reference checksum.
pub struct Subject {
    /// The benchmark (module and native twin).
    pub bench: Benchmark,
    /// The module in the binary format, as a user would ship it.
    pub bytes: Vec<u8>,
    /// Checksum of one native init + kernel run.
    pub reference: f64,
}

impl Subject {
    /// Encode `bench` and compute its native reference checksum.
    pub fn new(bench: Benchmark) -> Subject {
        let bytes = lb_wasm::binary::encode(&bench.module);
        let reference = bench.native_checksum();
        Subject {
            bench,
            bytes,
            reference,
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.bench.name
    }
}

/// The 30 PolyBench kernels at `d`.
pub fn polybench(d: lb_polybench::Dataset) -> Vec<Subject> {
    lb_polybench::all(d).into_iter().map(Subject::new).collect()
}

/// The 7 SPEC proxies at `s`.
pub fn spec(s: lb_spec_proxy::Scale) -> Vec<Subject> {
    lb_spec_proxy::all(s)
        .into_iter()
        .map(Subject::new)
        .collect()
}

/// What set-up measured for one module.
#[derive(Debug, Clone, Default)]
pub struct SetupStats {
    /// Median CPU time from bytes to the first runnable instance.
    pub setup_ns: u64,
    /// Set-ups made.
    pub reps: usize,
    /// Median `decode` time.
    pub decode_ns: u64,
    /// Median `validate` time.
    pub validate_ns: u64,
    /// Median `analyze_module_with` time (traced run only).
    pub analysis_ns: u64,
    /// Checks the analysis elides, from `ModulePlan::totals()`.
    pub elided: u64,
    /// Checks the analysis leaves for the JIT to emit.
    pub emitted: u64,
    /// First instantiate minus steady instantiate (traced run only).
    pub codegen_ns: u64,
    /// Code bytes the first set-up generated (`jit.code_bytes.*`).
    pub code_bytes: u64,
    /// `jit.checks.{emitted,hoisted,fused}` deltas of the first set-up.
    pub checks: [u64; 3],
}

/// A module ready to instantiate.
pub struct Prepared {
    /// What it was built from.
    pub subject: Subject,
    /// The loaded module.
    pub module: Arc<dyn LoadedModule>,
    /// Set-up measurements.
    pub setup: SetupStats,
}

impl Prepared {
    /// Module name.
    pub fn name(&self) -> &str {
        self.subject.name()
    }
}

fn timed<T>(rec: &mut Recorder, name: Name, id: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = now_ns();
    let v = rec.span(name, id, |_| f());
    (v, now_ns() - t0)
}

fn median_u64(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

fn code_bytes(s: &lb_telemetry::TelemetrySnapshot) -> u64 {
    s.counters
        .iter()
        .filter(|c| c.name.starts_with("jit.code_bytes."))
        .map(|c| c.value)
        .sum()
}

/// A module part-way through set-up: its samples so far.
struct Draft {
    subject: Subject,
    module: Option<Arc<dyn LoadedModule>>,
    stats: SetupStats,
    total: Vec<u64>,
    decode: Vec<u64>,
    validate: Vec<u64>,
    analysis: Vec<u64>,
    first_inst: Vec<u64>,
    failed: bool,
}

impl Draft {
    /// One set-up: decode, validate, (traced: analyze), load, first
    /// instantiate. The first one also records the exact counts.
    fn setup_once(
        &mut self,
        engine: &JitEngine,
        cfg: &MemoryConfig,
        rec: &mut Recorder,
        id: u64,
    ) -> Result<(), String> {
        let name = self.subject.name().to_string();
        let linker = Linker::new();
        let before = self.total.is_empty().then(lb_telemetry::snapshot);
        let cpu0 = process_cpu_ns();
        let lm = rec.span(Name::Setup, id, |rec| -> Result<_, String> {
            let (module, d) = timed(rec, Name::Decode, id, || {
                lb_wasm::binary::decode(&self.subject.bytes)
            });
            let module = module.map_err(|e| format!("{name}: decode: {e}"))?;
            self.decode.push(d);
            let (meta, d) = timed(rec, Name::Validate, id, || lb_wasm::validate(&module));
            let meta = meta.map_err(|e| format!("{name}: validate: {e}"))?;
            self.validate.push(d);
            if rec.enabled() {
                let cfg = lb_analysis::AnalysisConfig::default();
                let (plan, d) = timed(rec, Name::Analyze, id, || {
                    lb_analysis::analyze_module_with(&module, &meta, &cfg)
                });
                self.analysis.push(d);
                let (_, elided, emitted, _) = plan.totals();
                self.stats.elided = elided;
                self.stats.emitted = emitted;
            }
            let (lm, _) = timed(rec, Name::Load, id, || engine.load(&module));
            let lm = lm.map_err(|e| format!("{name}: load: {e}"))?;
            let (inst, d) = timed(rec, Name::FirstInstantiate, id, || {
                lm.instantiate(cfg, &linker)
            });
            let inst = inst.map_err(|e| format!("{name}: instantiate: {e}"))?;
            self.first_inst.push(d);
            self.total.push(process_cpu_ns() - cpu0);
            rec.span(Name::Teardown, id, |_| drop(inst));
            Ok(lm)
        })?;
        if let Some(before) = before {
            let delta = lb_telemetry::snapshot().delta_since(&before);
            self.stats.code_bytes = code_bytes(&delta);
            self.stats.checks = [
                delta.counter("jit.checks.emitted"),
                delta.counter("jit.checks.hoisted"),
                delta.counter("jit.checks.fused"),
            ];
        }
        self.module = Some(lm);
        Ok(())
    }

    /// Medians, and (traced) the code generation time: first instantiate
    /// minus steady instantiate.
    fn finish(
        mut self,
        cfg: &MemoryConfig,
        rec: &mut Recorder,
        id: u64,
    ) -> Result<Prepared, String> {
        let name = self.subject.name().to_string();
        let module = self
            .module
            .ok_or_else(|| format!("{name}: no set-up ran"))?;
        if rec.enabled() {
            let linker = Linker::new();
            let steady = rec.span(Name::Setup, id, |rec| -> Result<_, String> {
                let mut steady = Vec::new();
                for _ in 0..STEADY_REPS {
                    let (inst, d) = timed(rec, Name::Instantiate, id, || {
                        module.instantiate(cfg, &linker)
                    });
                    let inst = inst.map_err(|e| format!("{name}: instantiate: {e}"))?;
                    steady.push(d);
                    rec.span(Name::Teardown, id, |_| drop(inst));
                }
                Ok(steady)
            })?;
            self.stats.codegen_ns = median_u64(self.first_inst).saturating_sub(median_u64(steady));
        }
        self.stats.reps = self.total.len();
        self.stats.setup_ns = median_u64(self.total);
        self.stats.decode_ns = median_u64(self.decode);
        self.stats.validate_ns = median_u64(self.validate);
        self.stats.analysis_ns = median_u64(self.analysis);
        Ok(Prepared {
            subject: self.subject,
            module,
            setup: self.stats,
        })
    }
}

/// Set every subject up, each [`SETUP_REPS`] times (once if its first
/// set-up takes [`REPEAT_BELOW_NS`] or more), keeping per-module medians.
/// Repetitions go round all modules in turn, so a module's samples come
/// from different moments of the run. Each subject counts as one
/// operation of `report`; a module that fails any set-up is dropped.
pub fn prepare_all(
    subjects: Vec<Subject>,
    engine: &JitEngine,
    cfg: &MemoryConfig,
    rec: &mut Recorder,
    report: &mut Report,
) -> Vec<Prepared> {
    let mut drafts: Vec<Draft> = subjects
        .into_iter()
        .map(|subject| Draft {
            subject,
            module: None,
            stats: SetupStats::default(),
            total: Vec::new(),
            decode: Vec::new(),
            validate: Vec::new(),
            analysis: Vec::new(),
            first_inst: Vec::new(),
            failed: false,
        })
        .collect();
    report.attempted += drafts.len() as u64;
    for rep in 0..SETUP_REPS {
        for (i, d) in drafts.iter_mut().enumerate() {
            if d.failed || (rep > 0 && d.total[0] >= REPEAT_BELOW_NS) {
                continue;
            }
            if let Err(e) = d.setup_once(engine, cfg, rec, i as u64) {
                report.fail(e);
                d.failed = true;
            }
        }
    }
    let mut prepared = Vec::new();
    for (i, d) in drafts.into_iter().enumerate().filter(|(_, d)| !d.failed) {
        match d.finish(cfg, rec, i as u64) {
            Ok(p) => prepared.push(p),
            Err(e) => report.fail(e),
        }
    }
    prepared
}

/// Timing of one fresh isolate.
pub struct IsolateRun {
    /// instantiate → init → kernel → drop, excluding the checksum call.
    pub ns: u64,
    /// Time in the `kernel` call alone.
    pub kernel_ns: u64,
    /// Strategy the instance's memory got.
    pub effective: &'static str,
}

/// Run one fresh isolate of `p`: instantiate, `init`, `kernel`,
/// `checksum`, drop. The checksum must match the native reference and
/// the memory must have the requested strategy.
///
/// # Errors
/// Instantiation failure, a trap, a strategy fallback, or a checksum
/// mismatch.
pub fn run_isolate(
    p: &Prepared,
    cfg: &MemoryConfig,
    linker: &Linker,
    rec: &mut Recorder,
    id: u64,
) -> Result<IsolateRun, String> {
    let name = p.name();
    rec.span(Name::Isolate, id, |rec| {
        let t0 = now_ns();
        let mut inst = rec
            .span(Name::Instantiate, id, |_| p.module.instantiate(cfg, linker))
            .map_err(|e| format!("{name}: instantiate: {e}"))?;
        let (effective, fell_back) = inst.memory().map_or((cfg.strategy.name(), false), |m| {
            (m.strategy().name(), m.fell_back())
        });
        rec.span(Name::Init, id, |_| inst.invoke("init", &[]))
            .map_err(|t| format!("{name}: init trapped: {t}"))?;
        let k0 = now_ns();
        rec.span(Name::Kernel, id, |_| inst.invoke("kernel", &[]))
            .map_err(|t| format!("{name}: kernel trapped: {t}"))?;
        let c0 = now_ns();
        let sum = rec
            .span(Name::Checksum, id, |_| inst.invoke("checksum", &[]))
            .map_err(|t| format!("{name}: checksum trapped: {t}"))?;
        let c1 = now_ns();
        rec.span(Name::Teardown, id, |_| drop(inst));
        let ns = now_ns() - t0 - (c1 - c0);
        if fell_back {
            return Err(format!(
                "{name}: strategy fell back from {} to {effective}",
                cfg.strategy.name()
            ));
        }
        match sum {
            Some(Value::F64(v)) if checksums_match(v, p.subject.reference) => Ok(IsolateRun {
                ns,
                kernel_ns: c0 - k0,
                effective,
            }),
            other => Err(format!(
                "{name}: checksum {other:?} != native {}",
                p.subject.reference
            )),
        }
    })
}

/// Run the native twin of `s` once: construct, `init`, `kernel`; returns
/// the time excluding the checksum, which must match the reference.
///
/// # Errors
/// A checksum mismatch.
pub fn run_native(s: &Subject, rec: &mut Recorder, id: u64) -> Result<u64, String> {
    rec.span(Name::Native, id, |_| {
        let t0 = now_ns();
        let mut k = (s.bench.native)();
        k.init();
        k.kernel();
        let ns = now_ns() - t0;
        let sum = k.checksum();
        if checksums_match(sum, s.reference) {
            Ok(ns)
        } else {
            Err(format!(
                "{}: native checksum {sum} != {}",
                s.name(),
                s.reference
            ))
        }
    })
}

/// Exact `lb-core` syscall counts per isolate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreCounts {
    /// `mmap` calls.
    pub mmap: f64,
    /// `munmap` calls.
    pub munmap: f64,
    /// `UFFDIO_REGISTER` ioctls.
    pub uffd_register: f64,
    /// `UFFDIO_ZEROPAGE` ioctls.
    pub uffd_zeropage: f64,
}

impl CoreCounts {
    /// Average of the counter deltas over `n` isolates.
    pub fn per(delta: &lb_core::stats::VmSnapshot, n: usize) -> CoreCounts {
        let n = n.max(1) as f64;
        CoreCounts {
            mmap: delta.mmap as f64 / n,
            munmap: delta.munmap as f64 / n,
            uffd_register: delta.uffd_register as f64 / n,
            uffd_zeropage: delta.uffd_zeropage as f64 / n,
        }
    }
}

/// Count syscalls over one isolate of each module, one after another on
/// this thread, so the count does not depend on timing.
///
/// # Errors
/// Any isolate failure.
pub fn count_core(
    prepared: &[Prepared],
    cfg: &MemoryConfig,
    linker: &Linker,
) -> Result<CoreCounts, String> {
    let mut rec = Recorder::new(0, false);
    let before = lb_core::stats::snapshot();
    for (i, p) in prepared.iter().enumerate() {
        run_isolate(p, cfg, linker, &mut rec, i as u64)?;
    }
    let delta = lb_core::stats::snapshot().delta(&before);
    Ok(CoreCounts::per(&delta, prepared.len()))
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut lb_chaos::SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}
