//! Differential test of instruction selection in the lowering `Basic` and
//! `Full` share: constant right operands (the immediate forms of
//! `add/sub/and/or/xor`, `imul d, s, imm`, shifts and rotates by a masked
//! count, `cmp r, imm`) and integer compares fused with the `br_if`/`if`
//! they feed.
//!
//! Every case is a small function over one operand source — a local the
//! `Full` tier pins in a register, or one it keeps in its frame slot — and
//! a constant on each side of the imm8/imm32 boundary, at the shift-count
//! masks, at the imm32 extremes, and (for i64) outside the imm32 range,
//! where the register fallback must be taken. The branch cases cover
//! compare → `br_if` with and without a kept block value (the shuffle
//! path), compare → `if`/`else` with a live value below it, `eqz` →
//! `br_if`, and a compare that reaches its `br_if` only through a block
//! end, where a label binds and no fusion may happen. A memory case
//! computes addresses with constant operands, so the bounds strategies
//! see in-bounds, boundary and trapping accesses.
//!
//! Each case runs on fixed edge inputs plus seeded SplitMix64 draws (the
//! seed is printed) on the interpreter — the reference — and on the wavm,
//! wasmtime and v8 profiles, v8 both on its baseline code and after its
//! tier-up has published, under all five bounds strategies. Values and
//! traps must agree. `scripts/ci.sh` also runs this file under
//! `LB_VERIFY=strict`, so `lb-verify` re-proves every function compiled.

use lb_chaos::SplitMix64;
use lb_core::exec::{Engine, Linker, LoadedModule};
use lb_core::{BoundsStrategy, MemoryConfig, Trap};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{BlockType, FuncType, Instr, Limits, MemArg, MemoryType, Module, ValType, Value};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Seed of the random inputs (printed by every test).
const SEED: u64 = 0x15E1_D1FF;

/// Constant right operands: both sides of the imm8/imm32 boundary, the
/// shift-count masks and their neighbours, and the imm32 extremes.
const IMM_CONSTS: [i64; 13] = [
    0,
    1,
    -1,
    31,
    32,
    33,
    63,
    64,
    127,
    128,
    -129,
    i32::MIN as i64,
    i32::MAX as i64,
];

/// i64 constants no sign-extended imm32 holds: the register fallback.
const WIDE_CONSTS: [i64; 6] = [
    1 << 31,
    -(1 << 31) - 1,
    1 << 32,
    0x1_0000_0021,
    i64::MIN,
    i64::MAX,
];

/// Fixed inputs: zero, the constants' edges, and the 64 KiB memory edge.
const EDGE_INPUTS: [i64; 14] = [
    0,
    1,
    -1,
    31,
    32,
    127,
    -129,
    65528,
    65536,
    i32::MIN as i64,
    i32::MAX as i64,
    1 << 32,
    i64::MIN,
    i64::MAX,
];

/// Random inputs added to the fixed ones.
const RANDOM_INPUTS: usize = 6;

/// Every function is `(p0, p1, p2, p3: ty) -> i64`; `Full` pins p0..p2
/// and keeps p3 in its frame slot.
const SOURCES: [u32; 2] = [0, 3];

/// Serializes the tests of this file (see [`agree`]).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Case {
    name: String,
    ty: ValType,
    /// Function body, ending in `End`, leaving one i64.
    body: Vec<Instr>,
}

fn konst(ty: ValType, v: i64) -> Instr {
    match ty {
        ValType::I32 => Instr::I32Const(v as i32),
        _ => Instr::I64Const(v),
    }
}

/// The constants a right operand of type `ty` takes.
fn consts(ty: ValType) -> Vec<i64> {
    let mut v = IMM_CONSTS.to_vec();
    if ty == ValType::I64 {
        v.extend(WIDE_CONSTS);
    }
    v
}

/// Widen an i32 on top of the stack to the i64 every case returns.
fn to_i64(ty: ValType) -> Vec<Instr> {
    match ty {
        ValType::I32 => vec![Instr::I64ExtendI32U],
        _ => vec![],
    }
}

fn binops(ty: ValType) -> Vec<(&'static str, Instr)> {
    use Instr::*;
    match ty {
        ValType::I32 => vec![
            ("add", I32Add),
            ("sub", I32Sub),
            ("mul", I32Mul),
            ("and", I32And),
            ("or", I32Or),
            ("xor", I32Xor),
            ("shl", I32Shl),
            ("shr_s", I32ShrS),
            ("shr_u", I32ShrU),
            ("rotl", I32Rotl),
            ("rotr", I32Rotr),
        ],
        _ => vec![
            ("add", I64Add),
            ("sub", I64Sub),
            ("mul", I64Mul),
            ("and", I64And),
            ("or", I64Or),
            ("xor", I64Xor),
            ("shl", I64Shl),
            ("shr_s", I64ShrS),
            ("shr_u", I64ShrU),
            ("rotl", I64Rotl),
            ("rotr", I64Rotr),
        ],
    }
}

fn compares(ty: ValType) -> Vec<(&'static str, Instr)> {
    use Instr::*;
    match ty {
        ValType::I32 => vec![
            ("eq", I32Eq),
            ("ne", I32Ne),
            ("lt_s", I32LtS),
            ("lt_u", I32LtU),
            ("gt_s", I32GtS),
            ("gt_u", I32GtU),
            ("le_s", I32LeS),
            ("le_u", I32LeU),
            ("ge_s", I32GeS),
            ("ge_u", I32GeU),
        ],
        _ => vec![
            ("eq", I64Eq),
            ("ne", I64Ne),
            ("lt_s", I64LtS),
            ("lt_u", I64LtU),
            ("gt_s", I64GtS),
            ("gt_u", I64GtU),
            ("le_s", I64LeS),
            ("le_u", I64LeU),
            ("ge_s", I64GeS),
            ("ge_u", I64GeU),
        ],
    }
}

const TYPES: [ValType; 2] = [ValType::I32, ValType::I64];

fn tyname(ty: ValType) -> &'static str {
    match ty {
        ValType::I32 => "i32",
        _ => "i64",
    }
}

/// `local.get src; const c; op` for every binop, constant and source.
fn binop_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for ty in TYPES {
        for (name, op) in binops(ty) {
            for c in consts(ty) {
                for src in SOURCES {
                    let mut body = vec![Instr::LocalGet(src), konst(ty, c), op.clone()];
                    body.extend(to_i64(ty));
                    body.push(Instr::End);
                    out.push(Case {
                        name: format!("{}.{name} p{src}, {c}", tyname(ty)),
                        ty,
                        body,
                    });
                }
            }
        }
    }
    out
}

/// Every compare with a constant right operand, its boolean returned.
fn compare_value_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for ty in TYPES {
        for (name, op) in compares(ty) {
            for c in consts(ty) {
                for src in SOURCES {
                    out.push(Case {
                        name: format!("{}.{name} p{src}, {c}", tyname(ty)),
                        ty,
                        body: vec![
                            Instr::LocalGet(src),
                            konst(ty, c),
                            op.clone(),
                            Instr::I64ExtendI32U,
                            Instr::End,
                        ],
                    });
                }
            }
        }
    }
    out
}

/// The four branch shapes around one condition `cond` (leaving an i32).
fn branch_shapes(ty: ValType, what: &str, cond: &[Instr], out: &mut Vec<Case>) {
    use Instr::*;
    let mut push = |shape: &str, body: Vec<Instr>| {
        out.push(Case {
            name: format!("{shape}: {what}"),
            ty,
            body,
        });
    };
    // block { cond; br_if 0; return 10 } 20
    let mut b = vec![Block(BlockType::Empty)];
    b.extend_from_slice(cond);
    b.extend([BrIf(0), I64Const(10), Return, End, I64Const(20), End]);
    push("br_if", b);
    // block (i64) { 1000; p1; cond; br_if 0 (keeps p1 above 1000); add }
    let mut b = vec![
        Block(BlockType::Value(ValType::I64)),
        I64Const(1000),
        LocalGet(1),
    ];
    b.extend(to_i64(ty));
    b.extend_from_slice(cond);
    b.extend([BrIf(0), I64Add, End, End]);
    push("br_if keeping a value", b);
    // p2 + (cond ? 30 : 40)
    let mut b = vec![LocalGet(2)];
    b.extend(to_i64(ty));
    b.extend_from_slice(cond);
    b.extend([
        If(BlockType::Value(ValType::I64)),
        I64Const(30),
        Else,
        I64Const(40),
        End,
        I64Add,
        End,
    ]);
    push("if/else", b);
    // The compare ends a block that a `br_if` also leaves, so a label
    // binds between the compare and the `br_if` it reaches.
    let mut b = vec![
        Block(BlockType::Empty),
        Block(BlockType::Value(ValType::I32)),
        I32Const(1),
        LocalGet(1),
    ];
    if ty == ValType::I64 {
        b.push(I64Eqz);
    }
    b.extend([BrIf(0), Drop]);
    b.extend_from_slice(cond);
    b.extend([End, BrIf(0), I64Const(10), Return, End, I64Const(20), End]);
    push("br_if behind a label", b);
}

fn branch_cases() -> Vec<Case> {
    let mut out = Vec::new();
    for ty in TYPES {
        for src in SOURCES {
            for (name, op) in compares(ty) {
                for c in consts(ty) {
                    let cond = [Instr::LocalGet(src), konst(ty, c), op.clone()];
                    let what = format!("{}.{name} p{src}, {c}", tyname(ty));
                    branch_shapes(ty, &what, &cond, &mut out);
                }
            }
            let eqz = match ty {
                ValType::I32 => Instr::I32Eqz,
                _ => Instr::I64Eqz,
            };
            let what = format!("{}.eqz p{src}", tyname(ty));
            branch_shapes(ty, &what, &[Instr::LocalGet(src), eqz], &mut out);
        }
    }
    out
}

/// Store `p1` at an address computed with a constant operand, then load
/// it back: in bounds, at the 64 KiB edge, or trapping.
fn memory_cases() -> Vec<Case> {
    use Instr::*;
    let mut out = Vec::new();
    for (name, op) in binops(ValType::I32) {
        for c in IMM_CONSTS {
            for src in SOURCES {
                let addr = [LocalGet(src), I32Const(c as i32), op.clone()];
                let mut body = addr.to_vec();
                body.extend([LocalGet(1), I64ExtendI32U, I64Store(MemArg::offset(8))]);
                body.extend(addr);
                body.extend([I64Load(MemArg::offset(8)), End]);
                out.push(Case {
                    name: format!("i64.store/load at i32.{name} p{src}, {c}"),
                    ty: ValType::I32,
                    body,
                });
            }
        }
    }
    out
}

/// One module exporting every case as `c<k>`, with a one-page memory.
fn module_of(cases: &[Case]) -> Module {
    let mut m = Module::new();
    for ty in TYPES {
        m.types.push(FuncType {
            params: vec![ty; 4],
            results: vec![ValType::I64],
        });
    }
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(1),
        },
    });
    for (k, case) in cases.iter().enumerate() {
        m.functions.push(Function {
            type_idx: u32::from(case.ty == ValType::I64),
            locals: vec![],
            body: case.body.clone(),
            name: Some(format!("c{k}")),
        });
        m.exports.push(Export {
            name: format!("c{k}"),
            kind: ExportKind::Func(k as u32),
        });
    }
    lb_wasm::validate(&m).expect("module validates");
    m
}

/// The edge inputs plus seeded random ones.
fn inputs(seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    let mut v = EDGE_INPUTS.to_vec();
    v.extend((0..RANDOM_INPUTS).map(|_| rng.next_u64() as i64));
    v
}

/// `(p0, p1, p2, p3)` for input `k`: the operand source (p0 and p3) is
/// input `k`; p1 and p2 are other inputs.
fn args(ty: ValType, xs: &[i64], k: usize) -> Vec<Value> {
    let pick = |i: usize| {
        let x = xs[i % xs.len()];
        match ty {
            ValType::I32 => Value::I32(x as i32),
            _ => Value::I64(x),
        }
    };
    vec![pick(k), pick(k + 1), pick(k * 7 + 3), pick(k)]
}

fn repr(r: &Result<Option<Value>, Trap>) -> String {
    match r {
        Ok(Some(v)) => format!("ok:{:016x}", v.to_bits()),
        Ok(None) => "ok:void".into(),
        Err(t) => format!("trap:{:?}", t.kind()),
    }
}

/// Process-wide count of published tier-ups.
fn tierups() -> lb_telemetry::Counter {
    lb_telemetry::counter("jit.tierup.count")
}

/// `module` loaded on the v8 profile once its background tier-up for
/// `strategy` has published (`Full` with safepoint polls). Every tier-up
/// this test started — `started` of them, this one included — has
/// published once the count reaches `base + started`.
fn tiered_up(
    module: &Module,
    strategy: BoundsStrategy,
    base: u64,
    started: u64,
) -> Arc<dyn LoadedModule> {
    let loaded = JitEngine::new(JitProfile::v8())
        .load(module)
        .expect("module loads");
    loaded
        .instantiate(&MemoryConfig::new(strategy, 1, 1), &Linker::new())
        .expect("instantiate"); // starts the tier-up
    let t0 = Instant::now();
    while tierups().get() < base + started {
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "v8 tier-up never published"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    loaded
}

/// Every case on every input, in order, on one instance of `loaded`
/// under `strategy` (a trap leaves a wasm instance usable, so every engine
/// sees the same call sequence and the same memory).
fn outcomes(
    loaded: &dyn LoadedModule,
    cases: &[Case],
    xs: &[i64],
    strategy: BoundsStrategy,
) -> Vec<String> {
    let mut inst = loaded
        .instantiate(&MemoryConfig::new(strategy, 1, 1), &Linker::new())
        .expect("instantiate");
    let mut out = Vec::with_capacity(cases.len() * xs.len());
    for (k, case) in cases.iter().enumerate() {
        let name = format!("c{k}");
        for i in 0..xs.len() {
            out.push(repr(&inst.invoke(&name, &args(case.ty, xs, i))));
        }
    }
    out
}

/// Run `cases` on the interpreter and every JIT configuration under all
/// five strategies and require identical values and traps.
fn agree(what: &str, cases: &[Case]) {
    // The tier-up wait reads a process-wide count: one test at a time.
    let _serial = serial();
    let base = tierups().get();
    let mut started = 0;
    println!("{what}: {} cases, input seed {SEED:#x}", cases.len());
    let module = module_of(cases);
    let xs = inputs(SEED);
    let interp: Arc<dyn LoadedModule> = InterpEngine::new().load(&module).expect("loads");
    let jits = [
        ("wavm", JitProfile::wavm()),
        ("wasmtime", JitProfile::wasmtime()),
        ("v8", JitProfile::v8()),
    ];
    for strategy in BoundsStrategy::ALL {
        let want = outcomes(&*interp, cases, &xs, strategy);
        let check = |engine: &str, loaded: &dyn LoadedModule| {
            let got = outcomes(loaded, cases, &xs, strategy);
            for (j, (w, g)) in want.iter().zip(&got).enumerate() {
                let (k, i) = (j / xs.len(), j % xs.len());
                assert_eq!(
                    w,
                    g,
                    "{what}: `{}` on {:?} (seed {SEED:#x}): interp and {engine} \
                     under {strategy} disagree",
                    cases[k].name,
                    args(cases[k].ty, &xs, i)
                );
            }
        };
        for (engine, profile) in jits {
            // A fresh load per strategy: its first instance starts exactly
            // one v8 tier-up, even when the memory falls back to another
            // strategy (uffd → mprotect) whose code an earlier load built.
            let loaded = JitEngine::new(profile).load(&module).expect("loads");
            check(engine, &*loaded);
        }
        // The v8 load above started one tier-up; the tier-up module
        // starts another.
        started += 2;
        check("v8 tier-up", &*tiered_up(&module, strategy, base, started));
    }
}

#[test]
fn binops_with_constant_operands_agree() {
    agree("binops", &binop_cases());
}

#[test]
fn compares_with_constant_operands_agree() {
    agree("compares", &compare_value_cases());
}

#[test]
fn fused_compare_branches_agree() {
    agree("branches", &branch_cases());
}

#[test]
fn constant_operand_addresses_agree() {
    agree("memory", &memory_cases());
}
