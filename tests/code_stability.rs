//! Code-identity oracle: the JIT must emit exactly the recorded machine
//! code for every workload module, strategy and tier configuration the
//! engine profiles compile.
//!
//! Each line of `code_digests.tsv` holds one FNV-1a-64 digest over every
//! defined function's code for a (module, strategy, config) triple: the 30
//! PolyBench kernels and the 7 SPEC proxies at Mini scale, all five
//! bounds strategies, and the four tier configurations behind the
//! profiles — `full` (wavm), `basic` (wasmtime), `none+sp` (v8's baseline)
//! and `full+sp` (v8's tier-up). Every configuration consumes the
//! `lb-analysis` plan with hoisting on, as the profiles do.
//!
//! Function-pointer calls embed a fixed `funcptrs_base`. Helper calls embed
//! a host function's address (`mov r11, imm; call r11`), which moves with
//! every build and with ASLR, so that immediate is masked; every other
//! byte must match. A change that only removes dead mechanisms must leave
//! every digest untouched; one that deliberately alters code must
//! regenerate the file and justify each moved line:
//!
//! ```text
//! cargo test --release -q --test code_stability -- --ignored --nocapture \
//!     print_code_digests | grep -E '^(# FNV|[a-z]+/)' > tests/code_digests.tsv
//! ```

use lb_core::BoundsStrategy;
use lb_jit::codegen::{compile_function, CompileParams, OptLevel};
use lb_wasm::Module;

const GOLDEN: &str = include_str!("code_digests.tsv");

/// Function-pointer table base embedded in direct and indirect calls.
const FUNCPTRS_BASE: usize = 0x7e00_0000_0000;

/// `(name, tier, safepoints)` per profile compile.
const CONFIGS: [(&str, OptLevel, bool); 4] = [
    ("full", OptLevel::Full, false),
    ("basic", OptLevel::Basic, false),
    ("none+sp", OptLevel::None, true),
    ("full+sp", OptLevel::Full, true),
];

fn fnv1a64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Zero the immediate of every `mov r11, imm; call r11` helper call, in
/// both the 10-byte `movabs` form and the 6-byte zero-extending form.
fn mask_helper_addrs(code: &mut [u8]) {
    const CALL_R11: [u8; 3] = [0x41, 0xFF, 0xD3];
    let mut i = 0;
    while i + 2 <= code.len() {
        let imm = match code[i..] {
            [0x49, 0xBB, ..] => 8,
            [0x41, 0xBB, ..] => 4,
            _ => {
                i += 1;
                continue;
            }
        };
        let call = i + 2 + imm;
        if code.get(call..call + 3) == Some(&CALL_R11[..]) {
            code[i + 2..call].fill(0);
            i = call + 3;
        } else {
            i += 1;
        }
    }
}

/// One TSV line per (module, strategy, config):
/// `suite/name<TAB>strategy<TAB>config<TAB>digest`.
fn current_digests() -> Vec<String> {
    let mut benches = lb_polybench::all(lb_polybench::Dataset::Mini);
    benches.extend(lb_spec_proxy::all(lb_spec_proxy::Scale::Mini));
    let modules: Vec<(String, Module)> = benches
        .into_iter()
        .map(|b| (format!("{}/{}", b.suite, b.name), b.module))
        .collect();
    let cfg = lb_analysis::AnalysisConfig {
        interprocedural: true,
        hoist: true,
    };
    let mut lines = Vec::new();
    for (name, module) in &modules {
        let meta = lb_wasm::validate(module).expect("module validates");
        let plan = lb_analysis::analyze_module_with(module, &meta, &cfg);
        for strategy in BoundsStrategy::ALL {
            for (cname, opt, safepoints) in CONFIGS {
                let params = CompileParams {
                    module,
                    metas: &meta.funcs,
                    strategy,
                    opt,
                    safepoints,
                    funcptrs_base: FUNCPTRS_BASE,
                    plans: Some(&plan),
                };
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for di in 0..module.functions.len() {
                    let mut code = compile_function(params, di);
                    mask_helper_addrs(&mut code);
                    fnv1a64(&mut h, &(code.len() as u64).to_le_bytes());
                    fnv1a64(&mut h, &code);
                }
                lines.push(format!("{name}\t{}\t{cname}\t{h:016x}", strategy.name()));
            }
        }
    }
    lines
}

#[test]
fn helper_immediates_are_masked() {
    // movabs r11, imm64; call r11 — then mov r11d, imm32; call r11 — then
    // a funcptr load (`call [r11]`), whose immediate is kept.
    let mut code = vec![0x49, 0xBB, 1, 2, 3, 4, 5, 6, 7, 8, 0x41, 0xFF, 0xD3];
    code.extend([0x41, 0xBB, 9, 9, 9, 9, 0x41, 0xFF, 0xD3]);
    code.extend([0x49, 0xBB, 1, 2, 3, 4, 5, 6, 7, 8, 0x41, 0xFF, 0x13]);
    let mut masked = code.clone();
    mask_helper_addrs(&mut masked);
    let mut want = code;
    want[2..10].fill(0);
    want[15..19].fill(0);
    assert_eq!(masked, want);
}

#[test]
fn code_matches_recorded_digests() {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let current = current_digests();
    assert_eq!(
        golden.len(),
        current.len(),
        "code_digests.tsv covers {} (module, strategy, config) triples, the suite has {}",
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
        "{} of {} code digests changed:\n{}",
        moved.len(),
        current.len(),
        moved.join("\n")
    );
}

/// Prints the digest file body (see the module docs for regeneration).
#[test]
#[ignore]
fn print_code_digests() {
    println!("# FNV-1a-64 of masked JIT code: module<TAB>strategy<TAB>config<TAB>digest");
    for line in current_digests() {
        println!("{line}");
    }
}
