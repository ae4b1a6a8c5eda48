//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark around its own calls into the
//! program's public API; nothing inside the program is instrumented. Each
//! span has a name, a start and end (ns since the process epoch), the
//! sequence number of the span that encloses it, and the id of the
//! isolate or request it belongs to. A recorder is owned by one thread;
//! [`Trace`] merges them when the run ends.
//!
//! Self time (a span's duration minus the time its children cover) is
//! accumulated per layer as spans close, so it stays exact even when the
//! raw span list is capped. Self time and the per-name durations cover
//! the measured phase: spans under a set-up root go to the trace file
//! only.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Raw spans kept per recorder for the trace file; later spans still
/// count towards durations and self time.
const KEEP_SPANS: usize = 100_000;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The program layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `lb-wasm`: decode and validate.
    Wasm,
    /// `lb-analysis`: the bounds-check analysis.
    Analysis,
    /// `lb-jit`: load, and running generated code.
    Jit,
    /// `lb-core`: instantiate (linear memory set-up) and teardown.
    Core,
    /// `lb-serve`: server start and request submission.
    Serve,
    /// The native Rust twins.
    Native,
    /// The benchmark's own loop (root spans).
    Bench,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Wasm,
        Layer::Analysis,
        Layer::Jit,
        Layer::Core,
        Layer::Serve,
        Layer::Native,
        Layer::Bench,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Wasm => "wasm",
            Layer::Analysis => "analysis",
            Layer::Jit => "jit",
            Layer::Core => "core",
            Layer::Serve => "serve",
            Layer::Native => "native",
            Layer::Bench => "bench",
        }
    }
}

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Root: one module's set-up.
    Setup,
    /// Root: one kernels iteration or churn isolate.
    Isolate,
    /// Root: one block of serve traffic.
    Block,
    /// `lb_wasm::binary::decode`.
    Decode,
    /// `lb_wasm::validate`.
    Validate,
    /// `lb_analysis::analyze_module_with`.
    Analyze,
    /// `Engine::load`.
    Load,
    /// The first `LoadedModule::instantiate` of a loaded module, which
    /// also generates its code.
    FirstInstantiate,
    /// `LoadedModule::instantiate`.
    Instantiate,
    /// `Instance::invoke("init")`.
    Init,
    /// `Instance::invoke("kernel")`.
    Kernel,
    /// `Instance::invoke("checksum")`.
    Checksum,
    /// Dropping an instance.
    Teardown,
    /// One native twin run.
    Native,
    /// `lb_serve::Server::start`.
    ServerStart,
    /// `lb_serve::Server::submit`.
    Submit,
}

impl Name {
    /// Every name, in report order.
    pub const ALL: [Name; 16] = [
        Name::Setup,
        Name::Isolate,
        Name::Block,
        Name::Decode,
        Name::Validate,
        Name::Analyze,
        Name::Load,
        Name::FirstInstantiate,
        Name::Instantiate,
        Name::Init,
        Name::Kernel,
        Name::Checksum,
        Name::Teardown,
        Name::Native,
        Name::ServerStart,
        Name::Submit,
    ];

    fn index(self) -> usize {
        Name::ALL.iter().position(|n| *n == self).unwrap_or(0)
    }

    /// Report name.
    pub fn label(self) -> &'static str {
        match self {
            Name::Setup => "setup",
            Name::Isolate => "isolate",
            Name::Block => "block",
            Name::Decode => "wasm.decode",
            Name::Validate => "wasm.validate",
            Name::Analyze => "analysis.analyze",
            Name::Load => "jit.load",
            Name::FirstInstantiate => "jit.first_instantiate",
            Name::Instantiate => "core.instantiate",
            Name::Init => "jit.invoke.init",
            Name::Kernel => "jit.invoke.kernel",
            Name::Checksum => "jit.invoke.checksum",
            Name::Teardown => "core.teardown",
            Name::Native => "native.run",
            Name::ServerStart => "serve.start",
            Name::Submit => "serve.submit",
        }
    }

    /// The layer this span's self time belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Setup | Name::Isolate | Name::Block => Layer::Bench,
            Name::Decode | Name::Validate => Layer::Wasm,
            Name::Analyze => Layer::Analysis,
            Name::Load | Name::FirstInstantiate | Name::Init | Name::Kernel | Name::Checksum => {
                Layer::Jit
            }
            Name::Instantiate | Name::Teardown => Layer::Core,
            Name::Native => Layer::Native,
            Name::ServerStart | Name::Submit => Layer::Serve,
        }
    }
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Sequence number, unique within its recorder.
    pub seq: u64,
    /// Sequence number of the enclosing span (0 for a root).
    pub parent: u64,
    /// What was timed.
    pub name: Name,
    /// Isolate or request id.
    pub id: u64,
    /// Start, ns since the process epoch.
    pub start: u64,
    /// End, ns since the process epoch.
    pub end: u64,
}

struct Open {
    seq: u64,
    name: Name,
    id: u64,
    start: u64,
    child_ns: u64,
}

/// A per-thread span recorder. When disabled, [`Recorder::span`] only
/// runs its closure.
pub struct Recorder {
    enabled: bool,
    thread: u64,
    next_seq: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    durations: Vec<Vec<u64>>,
    self_ns: [u64; Layer::ALL.len()],
}

impl Recorder {
    /// A recorder for thread number `thread`; `enabled` starts it on.
    pub fn new(thread: u64, enabled: bool) -> Recorder {
        Recorder {
            enabled,
            thread,
            next_seq: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            durations: vec![Vec::new(); Name::ALL.len()],
            self_ns: [0; Layer::ALL.len()],
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off; only between root spans.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Run `f` inside a span named `name` for isolate/request `id`.
    pub fn span<T>(&mut self, name: Name, id: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let seq = (self.thread << 48) | self.next_seq;
        self.next_seq += 1;
        self.stack.push(Open {
            seq,
            name,
            id,
            start: now_ns(),
            child_ns: 0,
        });
        let out = f(self);
        let end = now_ns();
        if let Some(open) = self.stack.pop() {
            let dur = end.saturating_sub(open.start);
            let parent = self.stack.last_mut().map_or(0, |p| {
                p.child_ns += dur;
                p.seq
            });
            let root = self.stack.first().map_or(open.name, |r| r.name);
            if !matches!(root, Name::Setup | Name::ServerStart) {
                self.self_ns[layer_index(open.name.layer())] += dur.saturating_sub(open.child_ns);
                self.durations[open.name.index()].push(dur);
            }
            if self.spans.len() < KEEP_SPANS {
                self.spans.push(Span {
                    seq: open.seq,
                    parent,
                    name: open.name,
                    id: open.id,
                    start: open.start,
                    end,
                });
            } else {
                self.dropped += 1;
            }
        }
        out
    }
}

fn layer_index(layer: Layer) -> usize {
    Layer::ALL.iter().position(|l| *l == layer).unwrap_or(0)
}

/// The merged spans of every recorder in a run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    dropped: u64,
    durations: Vec<Vec<u64>>,
    self_ns: [u64; Layer::ALL.len()],
}

impl Trace {
    /// Fold a finished recorder in.
    pub fn absorb(&mut self, rec: Recorder) {
        if self.durations.is_empty() {
            self.durations = vec![Vec::new(); Name::ALL.len()];
        }
        self.spans.extend(rec.spans);
        self.dropped += rec.dropped;
        for (acc, d) in self.durations.iter_mut().zip(rec.durations) {
            acc.extend(d);
        }
        for (acc, s) in self.self_ns.iter_mut().zip(rec.self_ns) {
            *acc += s;
        }
    }

    /// Durations (ns) of every span named `name` outside set-up, as `f64`.
    pub fn durations(&self, name: Name) -> Vec<f64> {
        self.durations
            .get(name.index())
            .map(|d| d.iter().map(|&v| v as f64).collect())
            .unwrap_or_default()
    }

    /// Self time of `layer` as a share (%) of all self time recorded in
    /// the measured phase.
    pub fn self_pct(&self, layer: Layer) -> f64 {
        let total: u64 = self.self_ns.iter().sum();
        if total == 0 {
            0.0
        } else {
            100.0 * self.self_ns[layer_index(layer)] as f64 / total as f64
        }
    }

    /// Spans recorded, whether or not kept for the trace file.
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// The kept spans as JSON lines, ordered by start time.
    pub fn to_jsonl(&self) -> String {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start, s.seq));
        let mut out = String::with_capacity(spans.len() * 96);
        for s in &spans {
            let _ = writeln!(
                out,
                "{{\"seq\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.seq,
                s.parent,
                s.name.label(),
                s.name.layer().name(),
                s.id,
                s.start,
                s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(0, true);
        rec.span(Name::Isolate, 7, |r| {
            r.span(Name::Instantiate, 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let mut trace = Trace::default();
        trace.absorb(rec);
        assert!(trace.self_pct(Layer::Core) > 90.0);
        assert_eq!(trace.durations(Name::Isolate).len(), 1);
        let lines = trace.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"core.instantiate\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(0, false);
        let v = rec.span(Name::Kernel, 1, |_| 5);
        assert_eq!(v, 5);
        let mut trace = Trace::default();
        trace.absorb(rec);
        assert!(trace.durations(Name::Kernel).is_empty());
        assert_eq!(trace.span_count(), 0);
    }
}
