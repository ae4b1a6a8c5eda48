//! Plan-identity oracle: the analysis must produce exactly the recorded
//! `ModulePlan` for every workload module.
//!
//! Each line of `plan_digests.tsv` holds the FNV-1a-64 digest of
//! `format!("{:?}", plan)` for one module, over the 30 PolyBench kernels
//! and the 7 SPEC proxies, at Mini scale and again at Small scale (module
//! names suffixed `@small`; the benchmark's `kernels` workload analyzes
//! these). The analysis has a single configuration; the middle column
//! still names it `none` (no interprocedural propagation, which the
//! analysis once offered as an option) so that lines recorded before
//! the option was removed compare byte-for-byte. A synthetic module with
//! a call graph ([`callgraph_module`]: internal callees, self- and mutual
//! recursion, uncalled functions) rides along at Mini; among the
//! workloads only deepsjeng has an internal callee. The Small check analyzes x264 at Small, which is only
//! practical in release builds, so it is `#[ignore]`d and run by name:
//!
//! ```text
//! cargo test --release -p lb-analysis --test plan_stability -- --ignored \
//!     small_plans_match_recorded_digests
//! ```
//!
//! A change that only makes the analysis cheaper must leave every digest
//! untouched; a change that deliberately alters plans must regenerate
//! the file and justify each moved line:
//!
//! ```text
//! cargo test --release -q -p lb-analysis --test plan_stability -- --ignored \
//!     --nocapture print_plan_digests | grep -E '^(# FNV|[a-z]+/)' \
//!     > crates/analysis/tests/plan_digests.tsv
//! ```

use lb_analysis::analyze_module;
use lb_wasm::instr::{Instr, MemArg};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::types::{BlockType, FuncType, Limits, MemoryType};
use lb_wasm::{Module, ValType};

const GOLDEN: &str = include_str!("plan_digests.tsv");

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An exported `go` calling internal functions whose plans must not
/// depend on their callers or callees: three loads addressed by i32 call
/// results (of a masking callee, a self-recursive function and one of a
/// mutually recursive pair), a void callee whose loop bound is its
/// argument, and two uncalled internal functions (one i32, one void with
/// a loop). Every call result and every parameter is ⊤, so the three
/// loads in `go` and the callee's loop store keep their checks.
fn callgraph_module() -> Module {
    use Instr::*;
    const I32: ValType = ValType::I32;
    let ty = |params: &[ValType], results: &[ValType]| FuncType {
        params: params.to_vec(),
        results: results.to_vec(),
    };
    let func = |type_idx: u32, locals: &[ValType], body: Vec<Instr>| Function {
        type_idx,
        locals: locals.to_vec(),
        body,
        name: None,
    };
    let load = || I32Load(MemArg::offset(0));
    // `for i in 0..local(bound)` store at `(i << 2) + 64`; `i` is `local(i)`.
    let counted_loop = |bound: u32, i: u32, end: u32| {
        vec![
            I32Const(0),
            LocalSet(i),
            LocalGet(bound),
            LocalSet(end),
            Block(BlockType::Empty),
            LocalGet(i),
            LocalGet(end),
            I32GeU,
            BrIf(0),
            Loop(BlockType::Empty),
            LocalGet(i),
            I32Const(2),
            I32Shl,
            LocalGet(i),
            I32Store(MemArg::offset(64)),
            LocalGet(i),
            I32Const(1),
            I32Add,
            LocalTee(i),
            LocalGet(end),
            I32LtU,
            BrIf(0),
            End,
            End,
        ]
    };
    let mut m = Module::new();
    m.types = vec![
        ty(&[], &[]),
        ty(&[I32], &[I32]),
        ty(&[I32], &[]),
        ty(&[], &[I32]),
    ];
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(1),
        },
    });
    let go = vec![
        I32Const(5),
        Call(1),
        I32Const(2),
        I32Shl,
        load(),
        Drop,
        I32Const(10),
        Call(2),
        I32Const(7),
        Call(3),
        I32Const(2),
        I32Shl,
        load(),
        Drop,
        Call(5),
        I32Const(2),
        I32Shl,
        load(),
        Drop,
        End,
    ];
    let mask = vec![LocalGet(0), I32Const(255), I32And, End];
    let mut arg_loop = counted_loop(0, 1, 2);
    arg_loop.push(End);
    let self_rec = vec![
        LocalGet(0),
        I32Eqz,
        If(BlockType::Value(I32)),
        I32Const(3),
        Else,
        LocalGet(0),
        I32Const(1),
        I32Sub,
        Call(3),
        I32Const(15),
        I32And,
        End,
        End,
    ];
    let uncalled_i32 = vec![I32Const(42), End];
    let mutual_a = vec![Call(6), I32Const(1023), I32And, End];
    let mutual_b = vec![Call(5), I32Const(4), I32Add, End];
    let uncalled_void = arg_loop.clone();
    m.functions = vec![
        func(0, &[], go),
        func(1, &[], mask),
        func(2, &[I32, I32], arg_loop),
        func(1, &[], self_rec),
        func(3, &[], uncalled_i32),
        func(3, &[], mutual_a),
        func(3, &[], mutual_b),
        func(2, &[I32, I32], uncalled_void),
    ];
    m.exports.push(Export {
        name: "go".into(),
        kind: ExportKind::Func(0),
    });
    m
}

/// One TSV line per module: `suite/name<TAB>none<TAB>digest`, the name
/// suffixed `@small` at Small scale.
fn current_digests(small: bool) -> Vec<String> {
    let (mut benches, suffix) = if small {
        (lb_polybench::all(lb_polybench::Dataset::Small), "@small")
    } else {
        (lb_polybench::all(lb_polybench::Dataset::Mini), "")
    };
    benches.extend(lb_spec_proxy::all(if small {
        lb_spec_proxy::Scale::Small
    } else {
        lb_spec_proxy::Scale::Mini
    }));
    let mut modules: Vec<(String, Module)> = benches
        .into_iter()
        .map(|b| (format!("{}/{}{suffix}", b.suite, b.name), b.module))
        .collect();
    if !small {
        modules.push(("synthetic/callgraph".into(), callgraph_module()));
    }
    let mut lines = Vec::new();
    for (name, module) in &modules {
        let meta = lb_wasm::validate(module).expect("module validates");
        let plan = analyze_module(module, &meta);
        let digest = fnv1a64(format!("{plan:?}").as_bytes());
        lines.push(format!("{name}\tnone\t{digest:016x}"));
    }
    lines
}

/// Compares the recorded lines of one scale against the current plans.
fn check_digests(small: bool) {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter(|l| l.split('\t').next().is_some_and(|m| m.ends_with("@small")) == small)
        .collect();
    let current = current_digests(small);
    assert_eq!(
        golden.len(),
        current.len(),
        "plan_digests.tsv covers {} modules, the suite has {}",
        golden.len(),
        current.len()
    );
    let moved: Vec<String> = golden
        .iter()
        .zip(&current)
        .filter(|(g, c)| **g != c.as_str())
        .map(|(g, c)| format!("  recorded {g}\n  now      {c}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} plans changed:\n{}",
        moved.len(),
        current.len(),
        moved.join("\n")
    );
}

#[test]
fn plans_match_recorded_digests() {
    check_digests(false);
}

#[test]
#[ignore = "release-only: Small analysis"]
fn small_plans_match_recorded_digests() {
    check_digests(true);
}

/// Prints the digest file body (see the module docs for regeneration).
#[test]
#[ignore]
fn print_plan_digests() {
    println!("# FNV-1a-64 of format!(\"{{:?}}\", ModulePlan): module<TAB>config<TAB>digest");
    for small in [false, true] {
        for line in current_digests(small) {
            println!("{line}");
        }
    }
}
