//! Differential testing for the optimizing tier (`Full`, the wavm
//! profile): pinned locals and plan-driven check elision must be
//! *invisible* to program behavior. Modules with dynamic
//! (unprovable-at-compile-time) loop bounds, calls, spill pressure,
//! same-address access runs and a `memory.grow` between accesses run on
//! interpreter and JIT configurations with the analysis plan consumed
//! and withheld (and the boundary cases also on the v8 profile's tier-up
//! code), at exact memory boundaries, and must agree bit-for-bit on
//! results, trap points, and pre-trap partial side effects.

mod common;

use common::{
    dynamic_bound_module, grow_between_module, multi_function_module, redefine_module, rmw_module,
    A_BASE, K, MAX_N,
};
use lb_core::exec::{Engine, Linker, LoadedModule};
use lb_core::{BoundsStrategy, MemoryConfig, Trap};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{BlockType, FuncType, Instr, Limits, MemArg, MemoryType, Module, ValType, Value};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The tier-up tests read the process-wide `jit.tierup.count`, so every
/// test that compiles code holds this lock and they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine matrix every differential test runs: interpreter (analysis
/// on/off) against the `Full` tier with the plan consumed and withheld
/// (every check emitted), plus the `Basic` tier.
fn engines() -> Vec<(&'static str, Box<dyn Engine>)> {
    vec![
        ("interp", Box::new(InterpEngine::new())),
        (
            "interp-noanalysis",
            Box::new(InterpEngine::new().with_analysis(false)),
        ),
        ("wavm", Box::new(JitEngine::new(JitProfile::wavm()))),
        (
            "wavm-noanalysis",
            Box::new(JitEngine::new(JitProfile::wavm().with_analysis(false))),
        ),
        ("wasmtime", Box::new(JitEngine::new(JitProfile::wasmtime()))),
    ]
}

fn repr(r: &Result<Option<Value>, Trap>) -> String {
    match r {
        Ok(Some(v)) => format!("ok:{:016x}", v.to_bits()),
        Ok(None) => "ok:void".into(),
        Err(t) => format!("trap:{:?}", t.kind()),
    }
}

/// Invoke `go(n)` on every engine under `strategy` and assert agreement.
fn agreed(module: &Module, strategy: BoundsStrategy, n: i32, ctx: &str) -> String {
    agreed_with(module, strategy, 1, &[Value::I32(n)], ctx)
}

/// Invoke `go(args)` on every engine under `strategy`, in a memory of at
/// most `max_pages`, and assert agreement.
fn agreed_with(
    module: &Module,
    strategy: BoundsStrategy,
    max_pages: u32,
    args: &[Value],
    ctx: &str,
) -> String {
    agreed_among(&load_all(module), strategy, max_pages, args, ctx)
}

/// `module` loaded on every engine of the matrix.
fn load_all(module: &Module) -> Vec<(&'static str, Arc<dyn LoadedModule>)> {
    engines()
        .into_iter()
        .map(|(name, engine)| (name, engine.load(module).expect("module loads")))
        .collect()
}

/// Invoke `go(args)` on a fresh instance of every loaded module under
/// `strategy`, in a memory of at most `max_pages`, and assert agreement.
fn agreed_among(
    loaded: &[(&str, Arc<dyn LoadedModule>)],
    strategy: BoundsStrategy,
    max_pages: u32,
    args: &[Value],
    ctx: &str,
) -> String {
    let mut first: Option<(&str, String)> = None;
    for (name, loaded) in loaded {
        let config = MemoryConfig::new(strategy, 1, max_pages).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        let got = repr(&inst.invoke("go", args));
        match &first {
            None => first = Some((name, got)),
            Some((f, want)) => {
                assert_eq!(want, &got, "{ctx}: {args:?}: `{f}` and `{name}` disagree")
            }
        }
    }
    first.unwrap().1
}

/// `module` loaded on the v8 profile once its background tier-up for
/// `strategy` has swapped in the optimizing tier's code (`Full`, with
/// safepoint polls): every instance made from it runs that code.
fn tiered_up(module: &Module, strategy: BoundsStrategy) -> Arc<dyn LoadedModule> {
    // The caller holds `serial()`, so this is the only tier-up running.
    let published = lb_telemetry::counter("jit.tierup.count");
    let before = published.get();
    let loaded = JitEngine::new(JitProfile::v8())
        .load(module)
        .expect("module loads");
    let config = MemoryConfig::new(strategy, 1, 1).with_reserve(1 << 22);
    loaded
        .instantiate(&config, &Linker::new())
        .expect("instantiate"); // starts the tier-up
    let t0 = Instant::now();
    while published.get() == before {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "v8 tier-up never published"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    loaded
}

/// The dynamic-bound loop at the exact memory boundary, under trap and
/// clamp.
#[test]
fn versioned_loop_boundary_agrees() {
    let _serial = serial();
    let m = dynamic_bound_module();
    dynamic_bound_sweep(|strategy, n, ctx| agreed(&m, strategy, n, ctx));
}

/// The same sweep on the v8 profile after its tier-up, against the
/// interpreter: the background recompile (`Full` with safepoint polls)
/// must not move a result or a trap.
#[test]
fn tiered_up_boundary_agrees() {
    let _serial = serial();
    let m = dynamic_bound_module();
    let interp = InterpEngine::new().load(&m).expect("module loads");
    let trap = tiered_up(&m, BoundsStrategy::Trap);
    let clamp = tiered_up(&m, BoundsStrategy::Clamp);
    dynamic_bound_sweep(|strategy, n, ctx| {
        let v8 = match strategy {
            BoundsStrategy::Trap => &trap,
            _ => &clamp,
        };
        let loaded = [("interp", interp.clone()), ("v8-tiered-up", v8.clone())];
        agreed_among(&loaded, strategy, 1, &[Value::I32(n)], ctx)
    });
}

/// Boundary sweep on [`dynamic_bound_module`]: `agree(strategy, n, ctx)`
/// runs `go(n)` on every configuration under test, asserts they agree,
/// and returns the agreed result.
fn dynamic_bound_sweep(agree: impl Fn(BoundsStrategy, i32, &str) -> String) {
    for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
        // In-bounds `n` (the largest ends exactly at the page edge:
        // `(n-1)*4 + 68 <= 65536`).
        for n in [0, 1, 7, MAX_N - 1, MAX_N] {
            let got = agree(strategy, n, "dynamic-bound loop in bounds");
            let want = if n == 0 {
                "ok:0000000000000000".to_string()
            } else {
                format!("ok:{:016x}", n - 1)
            };
            assert_eq!(got, want, "{strategy:?} n={n}");
        }
    }
    // First `n` past the edge: the strategies diverge from each other
    // (trap vs redirect) but never across engines.
    assert!(
        agree(BoundsStrategy::Trap, MAX_N + 1, "first oob").starts_with("trap:"),
        "trap strategy must trap one element past the end"
    );
    assert!(
        agree(BoundsStrategy::Clamp, MAX_N + 1, "first oob clamped").starts_with("ok:"),
        "clamp strategy redirects instead of trapping"
    );
    // A bound that wraps as signed traps at the same point.
    assert!(
        agree(BoundsStrategy::Trap, -1, "wrapping bound").starts_with("trap:"),
        "huge unsigned bound still traps at the boundary"
    );
}

/// `go(n)` (traps past the edge) plus `peek(j) -> a[j]`: after the trap,
/// every store the wasm program executed before the faulting iteration —
/// and none after — must be visible, identically on every engine.
#[test]
fn pre_trap_stores_visible_identically() {
    let _serial = serial();
    pre_trap_stores_agree(&load_all(&peek_module()));
}

/// The same check on the v8 profile after its tier-up, against the
/// interpreter.
#[test]
fn tiered_up_pre_trap_stores_visible_identically() {
    let _serial = serial();
    let m = peek_module();
    let interp = InterpEngine::new().load(&m).expect("module loads");
    pre_trap_stores_agree(&[
        ("interp", interp),
        ("v8-tiered-up", tiered_up(&m, BoundsStrategy::Trap)),
    ]);
}

/// [`dynamic_bound_module`] plus an exported `peek(j) -> a[j]`.
fn peek_module() -> Module {
    let mut m = dynamic_bound_module();
    // peek(j) = a[j]
    m.functions.push(Function {
        type_idx: 0,
        locals: vec![],
        body: vec![
            Instr::LocalGet(0),
            Instr::I32Const(2),
            Instr::I32Shl,
            Instr::I32Load(MemArg::offset(A_BASE)),
            Instr::End,
        ],
        name: Some("peek".into()),
    });
    m.exports.push(Export {
        name: "peek".into(),
        kind: ExportKind::Func(1),
    });
    lb_wasm::validate(&m).expect("module validates");
    m
}

/// Run `go(MAX_N + 1)` (traps) and then `peek` on a fresh instance of
/// every loaded module, and assert the stores before the trap are all
/// visible and the logs agree.
fn pre_trap_stores_agree(loaded: &[(&str, Arc<dyn LoadedModule>)]) {
    let n = MAX_N + 1; // traps on the last iteration
    let mut first: Option<(&str, Vec<String>)> = None;
    for (name, loaded) in loaded {
        let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 1).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        let mut log = vec![repr(&inst.invoke("go", &[Value::I32(n)]))];
        assert!(log[0].starts_with("trap:"), "{name}: go({n}) must trap");
        for j in [0, 1, 4096, MAX_N - 1] {
            log.push(repr(&inst.invoke("peek", &[Value::I32(j)])));
        }
        match &first {
            None => {
                // Every store before the faulting iteration landed.
                for (k, j) in [0, 1, 4096, MAX_N - 1].iter().enumerate() {
                    assert_eq!(
                        log[k + 1],
                        format!("ok:{:016x}", j),
                        "{name}: store a[{j}] must be visible after the trap"
                    );
                }
                first = Some((name, log));
            }
            Some((f, want)) => assert_eq!(
                want, &log,
                "`{f}` and `{name}` disagree on pre-trap visibility"
            ),
        }
    }
}

/// Multi-function module: `go(n)` calls an internal `fill(m)` (whose loop
/// keeps its check — its bound joins a ⊤ argument) and sizes a second loop with an internal
/// `len()` helper whose constant return interval the interprocedural
/// analysis propagates (that loop needs no check at all).
#[test]
fn multi_function_versioned_boundary_agrees() {
    let _serial = serial();
    let m = multi_function_module();
    let meta = lb_wasm::validate(&m).unwrap();

    // Plan shape: `go`'s second loop is fully statically elided through
    // `len`'s propagated return interval.
    let plan = lb_analysis::analyze_module(&m, &meta);
    assert_eq!(
        plan.funcs[0].summary.emitted, 1,
        "only the post-loop a[n-1] read keeps its check"
    );
    assert!(
        plan.funcs[0].summary.elided_in_bounds >= 2,
        "len()'s return interval proves go's b-loop store (and the b[k-1] \
         read) in bounds: {:?}",
        plan.funcs[0].summary
    );
    assert_eq!(plan.funcs[2].summary.ret_iv, Some((K as u64, K as u64)));

    for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
        for n in [0, 1, K, MAX_N] {
            let got = agreed(&m, strategy, n, "multi-function in bounds");
            let want = if n == 0 {
                format!("ok:{:016x}", K - 1)
            } else {
                format!("ok:{:016x}", (n - 1) + (K - 1))
            };
            assert_eq!(got, want, "{strategy:?} n={n}");
        }
    }
    assert!(
        agreed(&m, BoundsStrategy::Trap, MAX_N + 1, "multi-function oob").starts_with("trap:"),
        "callee loop traps one element past the end"
    );
}

/// A one-page module exporting `go` (type 0) and defining the given
/// functions in order.
fn module_of(types: Vec<FuncType>, funcs: Vec<(u32, Vec<ValType>, Vec<Instr>)>) -> Module {
    let mut m = Module::new();
    m.types = types;
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(1),
        },
    });
    for (type_idx, locals, body) in funcs {
        m.functions.push(Function {
            type_idx,
            locals,
            body,
            name: None,
        });
    }
    m.exports.push(Export {
        name: "go".into(),
        kind: ExportKind::Func(0),
    });
    lb_wasm::validate(&m).expect("module validates");
    m
}

/// `go(n)`: `l1 = n + 1`, `l2 = 3n`, then `a[n] = clobber(n)` and return
/// `a[n] + l1 + l2`. Under `Full`, `n`, `l1` and `l2` are pinned in
/// rbx/r12/r13 across the call, and `clobber(v)` pins its own three
/// integer locals in the same registers and overwrites them, so the
/// result and the post-call bounds check on `a[n]` are right only if the
/// callee restores them.
fn call_crossing_module() -> Module {
    use Instr::*;
    let i32_to_i32 = FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    };
    let go = vec![
        LocalGet(0),
        I32Const(1),
        I32Add,
        LocalSet(1),
        LocalGet(0),
        I32Const(3),
        I32Mul,
        LocalSet(2),
        LocalGet(0),
        I32Const(2),
        I32Shl,
        LocalGet(0),
        Call(1),
        I32Store(MemArg::offset(A_BASE)),
        LocalGet(0),
        I32Const(2),
        I32Shl,
        I32Load(MemArg::offset(A_BASE)),
        LocalGet(1),
        I32Add,
        LocalGet(2),
        I32Add,
        End,
    ];
    // clobber(v) = (v ^ 0x5555) + 77 + 99
    let clobber = vec![
        LocalGet(0),
        I32Const(0x5555),
        I32Xor,
        LocalSet(0),
        I32Const(77),
        LocalSet(1),
        I32Const(99),
        LocalSet(2),
        LocalGet(0),
        LocalGet(1),
        I32Add,
        LocalGet(2),
        I32Add,
        End,
    ];
    module_of(
        vec![i32_to_i32],
        vec![
            (0, vec![ValType::I32; 2], go),
            (0, vec![ValType::I32; 2], clobber),
        ],
    )
}

/// Locals pinned in callee-saved registers survive a call, and the
/// bounds check after it reads the restored address register: in
/// bounds up to the page edge, trapping one element past it.
#[test]
fn calls_preserve_pinned_locals() {
    let _serial = serial();
    let m = call_crossing_module();
    let want = |n: i32| ((n ^ 0x5555) + 77 + 99 + (n + 1) + 3 * n) as u32;
    for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
        for n in [0, 1, K, MAX_N - 1] {
            let got = agreed(&m, strategy, n, "call-crossing in bounds");
            assert_eq!(got, format!("ok:{:016x}", want(n)), "{strategy:?} n={n}");
        }
    }
    assert!(
        agreed(&m, BoundsStrategy::Trap, MAX_N, "call-crossing oob").starts_with("trap:"),
        "the post-call store traps one element past the end"
    );
    assert!(
        agreed(
            &m,
            BoundsStrategy::Clamp,
            MAX_N,
            "call-crossing oob clamped"
        )
        .starts_with("ok:"),
        "clamp strategy redirects instead of trapping"
    );
}

/// `go(n)` accumulates 8 loop-carried counters (counter `l` gains `l` per
/// iteration) in 10 integer locals, so under `Full` three are pinned and
/// the rest live in frame slots. Returns `sum_{l=1..8} l*n = 36*n`.
fn spill_pressure_module() -> Module {
    use Instr::*;
    // Locals: 0 = n (param), 1..=8 = counters, 9 = i.
    let mut body = vec![
        Block(BlockType::Empty),
        LocalGet(0),
        I32Eqz,
        BrIf(0),
        Loop(BlockType::Empty),
    ];
    for l in 1..=8u32 {
        body.extend([LocalGet(l), I32Const(l as i32), I32Add, LocalSet(l)]);
    }
    body.extend([
        LocalGet(9),
        I32Const(1),
        I32Add,
        LocalTee(9),
        LocalGet(0),
        I32LtU,
        BrIf(0),
        End,
        End,
    ]);
    body.push(LocalGet(1));
    for l in 2..=8u32 {
        body.extend([LocalGet(l), I32Add]);
    }
    body.push(End);
    module_of(
        vec![FuncType {
            params: vec![ValType::I32],
            results: vec![ValType::I32],
        }],
        vec![(0, vec![ValType::I32; 9], body)],
    )
}

/// Spill pressure: the mix of pinned and slot-resident locals computes
/// the same sums as the reference engines.
#[test]
fn spill_pressure_agrees() {
    let _serial = serial();
    let m = spill_pressure_module();
    for n in [0, 1, 2, 1000] {
        let got = agreed(&m, BoundsStrategy::Trap, n, "spill pressure");
        assert_eq!(got, format!("ok:{:016x}", 36u64 * n as u64), "n={n}");
    }
}

/// Last `t` for which `a[t]` (extent `A_BASE + 4`) fits in one page.
const LAST_IN: i32 = 65536 - (A_BASE as i32 + 4);

/// Append a `peek(j) -> i32` export reading `a[j]`, for post-trap
/// memory inspection.
fn with_peek(mut m: Module) -> Module {
    m.types.push(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    let type_idx = m.types.len() as u32 - 1;
    m.functions.push(Function {
        type_idx,
        locals: vec![],
        body: vec![
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(A_BASE)),
            Instr::End,
        ],
        name: Some("peek".into()),
    });
    m.exports.push(Export {
        name: "peek".into(),
        kind: ExportKind::Func(m.functions.len() as u32 - 1),
    });
    lb_wasm::validate(&m).expect("module validates");
    m
}

/// Same-address access runs at the exact page edge, under trap and
/// clamp: the read-modify-write module (three accesses to `a[t]`, the
/// later two dominated by the first) and the redefinition module (whose
/// `local.set` moves the address between two stores).
#[test]
fn same_address_runs_boundary_agree() {
    let _serial = serial();
    let rmw = rmw_module();
    let redefine = redefine_module();
    let go = |m: &Module, strategy, t: i32, ctx| {
        agreed_with(m, strategy, 2, &[Value::I32(t), Value::I32(7)], ctx)
    };
    for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
        for t in [0, 1, 1000, LAST_IN - 1, LAST_IN] {
            let got = go(&rmw, strategy, t, "rmw in bounds");
            assert_eq!(
                got, "ok:0000000000000007",
                "{strategy:?} t={t}: rmw on zeroed memory returns x"
            );
        }
        // The redefinition adds 64 to the address: both stores are in
        // bounds only up to LAST_IN - 64.
        for t in [0, 1000, LAST_IN - 65, LAST_IN - 64] {
            let got = go(&redefine, strategy, t, "redefine in bounds");
            assert_eq!(
                got,
                format!("ok:{:016x}", (t + 64) as u32 as u64),
                "{strategy:?} t={t}: redefine returns the shifted address"
            );
        }
    }
    // One past the edge: trap traps, clamp redirects — identically on
    // every engine.
    for (m, t, ctx) in [
        (&rmw, LAST_IN + 1, "rmw first oob"),
        (&rmw, -1, "rmw wrapped address"),
        (&redefine, LAST_IN - 63, "redefine second-store oob"),
        (&redefine, LAST_IN + 1, "redefine first-store oob"),
        (&redefine, -1, "redefine wrapped address"),
    ] {
        assert!(
            go(m, BoundsStrategy::Trap, t, ctx).starts_with("trap:"),
            "{ctx}: trap strategy must trap at t={t}"
        );
        assert!(
            go(m, BoundsStrategy::Clamp, t, ctx).starts_with("ok:"),
            "{ctx}: clamp strategy redirects instead of trapping"
        );
    }
}

/// Trap timing on a redefined address: when the *second* store traps,
/// the first — already executed — must be visible, identically on every
/// engine (a check traps before its access, never after).
#[test]
fn redefined_address_pre_trap_store_visible() {
    let _serial = serial();
    let m = with_peek(redefine_module());
    let t = LAST_IN - 63; // first store lands, second (t+64) is oob
    let mut first: Option<(&str, Vec<String>)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(&m).expect("module loads");
        let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 2).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        let mut log = vec![repr(&inst.invoke("go", &[Value::I32(t), Value::I32(7)]))];
        assert!(log[0].starts_with("trap:"), "{name}: go({t}) must trap");
        for j in [t, 0] {
            log.push(repr(&inst.invoke("peek", &[Value::I32(j)])));
        }
        assert_eq!(
            log[1], "ok:0000000000000007",
            "{name}: the first store must be visible after the trap"
        );
        match &first {
            None => first = Some((name, log)),
            Some((f, want)) => assert_eq!(
                want, &log,
                "`{f}` and `{name}` disagree on pre-trap visibility"
            ),
        }
    }
}

/// `memory.grow` between same-address accesses: in-bounds and page-edge
/// calls agree everywhere, and after the first call grows memory to two
/// pages, a second call may address page two — where the first call's
/// `t` would have trapped — on every engine.
#[test]
fn memory_grow_between_accesses_agrees() {
    let _serial = serial();
    let m = grow_between_module();
    let go = |t: i32, x: i32, ctx| {
        agreed_with(
            &m,
            BoundsStrategy::Trap,
            2,
            &[Value::I32(t), Value::I32(x)],
            ctx,
        )
    };
    for t in [0, 1000, LAST_IN] {
        assert_eq!(
            go(t, 9, "grow in bounds"),
            "ok:0000000000000009",
            "t={t}: returns the stored x"
        );
    }
    assert!(
        go(LAST_IN + 1, 9, "grow first oob").starts_with("trap:"),
        "the first store traps before the grow runs"
    );

    let two_page_t = 70000;
    let mut first: Option<(&str, Vec<String>)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(&m).expect("module loads");
        let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 2).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        let log = vec![
            repr(&inst.invoke("go", &[Value::I32(0), Value::I32(1)])),
            repr(&inst.invoke("go", &[Value::I32(two_page_t), Value::I32(2)])),
        ];
        assert_eq!(log[0], "ok:0000000000000001", "{name}: first call grows");
        assert_eq!(
            log[1], "ok:0000000000000002",
            "{name}: page two must be addressable after the grow"
        );
        match &first {
            None => first = Some((name, log)),
            Some((f, want)) => assert_eq!(want, &log, "`{f}` and `{name}` disagree after grow"),
        }
    }
}
