//! Mutation testing for the translation validator: seed-deterministic,
//! targeted corruptions of the *guard machinery* in real compiled code
//! (every PolyBench kernel and a read-modify-write module whose accesses
//! share one address at `Basic`; every SPEC proxy at `None`, `Basic` and
//! `Full`), each of which genuinely weakens the linear-memory sandbox —
//! and `lb-verify` must flag every one.
//!
//! Mutation classes (all are safety-breaking by construction):
//!
//! * `guard-cc-flip` — invert the `ja` of a trap guard (`ja` → `jbe`):
//!   out-of-bounds falls through to the access.
//! * `guard-nop` — NOP out one guard (cmp + ja), any guard of the
//!   function: its access runs unchecked. A check left out of an `Emit`
//!   site is a finding even when an earlier guard still covers the
//!   access, because codegen emits a check at every such site.
//! * `guard-cmp-disp` — repoint the guard compare from `mem_size`
//!   (`[r15+8]`) to `stack_limit` (`[r15+40]`): compares against a huge
//!   host address, the guard never fires.
//! * `guard-cmp-rexw` — drop REX.W from the guard compare: a 32-bit
//!   compare ignores the high bits of `addr + extent`.
//! * `guard-ja-rel` — corrupt the guard's branch displacement so the OOB
//!   path jumps mid-instruction (kept only when the target is *not* an
//!   instruction boundary — a boundary target keeps every access behind
//!   its own check at this tier, which is corrupted-but-not-unsafe).
//! * `access-disp` — grow an access displacement past its guarded extent:
//!   reads/writes up to 64 bytes beyond `mem_size` (the trap strategy's
//!   reservation is read-write, so nothing faults).
//! * `access-rexb` — flip REX.B on the access SIB base (`r14` → `rsi`):
//!   the access goes through an arbitrary host pointer.
//! * `clamp-cc-flip` / `clamp-nop` — invert or remove the clamp `cmova`:
//!   out-of-bounds indices are no longer redirected.

mod common;

use lb_chaos::SplitMix64;
use lb_core::BoundsStrategy;
use lb_jit::codegen::{compile_function, CompileParams, OptLevel};
use lb_verify::isa::{Cc, Inst, Reg, W};
use lb_verify::{decode::decode_all, verify_function, FuncInput};
use lb_wasm::PAGE_SIZE;

/// Per-function, per-class cap on generated mutants (keeps the sweep
/// seconds-fast while still sampling every kernel).
const MUTANTS_PER_CLASS: usize = 3;

const SEED: u64 = 0x1B5E_C0DE_D00D_F00D;

struct Ctx<'a> {
    module: &'a lb_wasm::Module,
    meta: &'a lb_wasm::ModuleMeta,
    strategy: BoundsStrategy,
    di: usize,
    mem_min_bytes: u64,
}

/// Instruction stream with byte extents: (offset, length, inst).
fn decode_spans(code: &[u8]) -> Vec<(usize, usize, Inst)> {
    let insts = decode_all(code).expect("unmutated code decodes");
    let mut spans = Vec::with_capacity(insts.len());
    for (i, &(off, inst)) in insts.iter().enumerate() {
        let end = insts.get(i + 1).map_or(code.len(), |&(o, _)| o);
        spans.push((off, end - off, inst));
    }
    spans
}

/// Index of the REX byte inside one instruction's bytes (skips mandatory
/// `66`/`F2`/`F3` prefixes).
fn rex_index(bytes: &[u8]) -> Option<usize> {
    for (i, &b) in bytes.iter().enumerate().take(3) {
        match b {
            0x66 | 0xF2 | 0xF3 => continue,
            0x40..=0x4F => return Some(i),
            _ => return None,
        }
    }
    None
}

/// The guard compare: `cmp r, [r15 + MEM_SIZE]`, 64-bit.
fn is_guard_cmp(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::CmpRm { w: W::W64, m, .. }
            if m.base == Reg::R15 && m.index.is_none() && m.disp == 8
    )
}

fn has_r14_operand(inst: &Inst) -> Option<lb_verify::isa::Mem> {
    let m = match *inst {
        Inst::MovRm { m, .. }
        | Inst::MovMr { m, .. }
        | Inst::MovMr8 { m, .. }
        | Inst::MovMr16 { m, .. }
        | Inst::Movzx8 { m, .. }
        | Inst::Movzx16 { m, .. }
        | Inst::Movsx8 { m, .. }
        | Inst::Movsx16 { m, .. }
        | Inst::MovsxdM { m, .. }
        | Inst::Fload { m, .. }
        | Inst::Fstore { m, .. } => m,
        _ => return None,
    };
    (m.base == Reg::R14).then_some(m)
}

/// One byte-level corruption of compiled code.
struct Mutant {
    class: &'static str,
    /// (offset, replacement bytes) patches.
    patches: Vec<(usize, Vec<u8>)>,
}

fn nop_patch(off: usize, len: usize) -> (usize, Vec<u8>) {
    (off, vec![0x90; len])
}

/// Enumerate every safety-breaking mutant of `code` for the given
/// strategy (see the module docs for the class definitions).
fn enumerate_mutants(code: &[u8], strategy: BoundsStrategy) -> Vec<Mutant> {
    let spans = decode_spans(code);
    let boundaries: std::collections::HashSet<usize> = spans.iter().map(|&(off, ..)| off).collect();
    let mut out = Vec::new();
    for (i, &(off, len, inst)) in spans.iter().enumerate() {
        if is_guard_cmp(&inst) {
            // The ja immediately follows the compare.
            let Some(&(ja_off, ja_len, Inst::Jcc { cc: Cc::A, rel })) = spans.get(i + 1) else {
                continue;
            };
            out.push(Mutant {
                class: "guard-cc-flip",
                // 0F 87 (ja) -> 0F 86 (jbe): second opcode byte.
                patches: vec![(ja_off + 1, vec![code[ja_off + 1] ^ 0x01])],
            });
            out.push(Mutant {
                class: "guard-cmp-disp",
                // disp8 8 -> 40: mem_size -> stack_limit.
                patches: vec![(off + len - 1, vec![0x28])],
            });
            if let Some(r) = rex_index(&code[off..off + len]) {
                out.push(Mutant {
                    class: "guard-cmp-rexw",
                    patches: vec![(off + r, vec![code[off + r] ^ 0x08])],
                });
            }
            out.push(Mutant {
                class: "guard-nop",
                patches: vec![nop_patch(off, len), nop_patch(ja_off, ja_len)],
            });
            // Corrupt the low rel32 byte; keep the mutant only when the
            // new target is mid-instruction (see module docs).
            let new_rel = rel ^ 0x15;
            let new_target = (ja_off + ja_len) as i64 + i64::from(new_rel);
            if new_target < 0
                || new_target >= code.len() as i64
                || !boundaries.contains(&(new_target as usize))
            {
                out.push(Mutant {
                    class: "guard-ja-rel",
                    patches: vec![(ja_off + 2, vec![(new_rel & 0xFF) as u8])],
                });
            }
        }
        if let Some(m) = has_r14_operand(&inst) {
            if strategy == BoundsStrategy::Trap {
                // Grow the displacement without changing the encoding
                // length (disp8 stays disp8, disp32 stays disp32).
                let grown = m.disp + 0x40;
                if (1..=0x3F).contains(&m.disp) || m.disp > 0x7F {
                    let disp_bytes = if m.disp <= 0x7F { 1 } else { 4 };
                    let at = off + len - disp_bytes;
                    let bytes = if disp_bytes == 1 {
                        vec![grown as u8]
                    } else {
                        grown.to_le_bytes().to_vec()
                    };
                    out.push(Mutant {
                        class: "access-disp",
                        patches: vec![(at, bytes)],
                    });
                }
                if let Some(r) = rex_index(&code[off..off + len]) {
                    out.push(Mutant {
                        class: "access-rexb",
                        patches: vec![(off + r, vec![code[off + r] ^ 0x01])],
                    });
                }
            }
        }
        if strategy == BoundsStrategy::Clamp {
            if let Inst::Cmov {
                w: W::W64,
                cc: Cc::A,
                ..
            } = inst
            {
                // REX 0F 47 modrm: find the 0F, flip the cc byte after it.
                let bytes = &code[off..off + len];
                if let Some(p) = bytes.iter().position(|&b| b == 0x0F) {
                    out.push(Mutant {
                        class: "clamp-cc-flip",
                        patches: vec![(off + p + 1, vec![bytes[p + 1] ^ 0x01])],
                    });
                }
                out.push(Mutant {
                    class: "clamp-nop",
                    patches: vec![nop_patch(off, len)],
                });
            }
        }
    }
    out
}

fn verify(ctx: &Ctx<'_>, code: &[u8]) -> lb_verify::FuncReport {
    verify_function(&FuncInput {
        func_index: ctx.di,
        code,
        body: &ctx.module.functions[ctx.di].body,
        meta: &ctx.meta.funcs[ctx.di],
        strategy: ctx.strategy,
        plan: None,
        mem_min_bytes: ctx.mem_min_bytes,
        reserve_bytes: lb_core::DEFAULT_RESERVE_BYTES as u64,
    })
}

/// Detected and generated mutant counts per class, plus every survivor.
#[derive(Default)]
struct Tally {
    by_class: std::collections::BTreeMap<&'static str, (u64, u64)>,
    survivors: Vec<String>,
}

impl Tally {
    /// Compile every function of every module under trap and clamp at
    /// each tier in `opts` (no analysis plan: every check emitted), check
    /// that the unmutated code verifies, and verify up to
    /// [`MUTANTS_PER_CLASS`] sampled mutants per class per function.
    fn sweep(
        &mut self,
        rng: &mut SplitMix64,
        modules: &[(String, lb_wasm::Module)],
        opts: &[OptLevel],
    ) {
        for (name, module) in modules {
            let meta = lb_wasm::validate(module).expect("module validates");
            let mem_min_bytes = module
                .memory
                .as_ref()
                .map_or(0, |m| u64::from(m.limits.min) * PAGE_SIZE as u64);
            for &opt in opts {
                for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
                    let params = CompileParams {
                        module,
                        metas: &meta.funcs,
                        strategy,
                        opt,
                        safepoints: false,
                        funcptrs_base: 0,
                        plans: None,
                    };
                    for di in 0..module.functions.len() {
                        let code = compile_function(params, di);
                        let ctx = Ctx {
                            module,
                            meta: &meta,
                            strategy,
                            di,
                            mem_min_bytes,
                        };
                        let at = format!("{name}/{strategy:?}/{opt:?} func {di}");
                        self.mutate_and_verify(rng, &ctx, &code, &at);
                    }
                }
            }
        }
    }

    fn mutate_and_verify(&mut self, rng: &mut SplitMix64, ctx: &Ctx<'_>, code: &[u8], at: &str) {
        let clean = verify(ctx, code);
        assert!(
            clean.findings.is_empty(),
            "{at}: unmutated code must verify: {}",
            clean
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );

        // Sample up to MUTANTS_PER_CLASS per class per function.
        let mut all = enumerate_mutants(code, ctx.strategy);
        let mut picked: std::collections::HashMap<&'static str, usize> =
            std::collections::HashMap::new();
        // Deterministic shuffle (Fisher–Yates).
        for i in (1..all.len()).rev() {
            all.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for mutant in all {
            let n = picked.entry(mutant.class).or_insert(0);
            if *n >= MUTANTS_PER_CLASS {
                continue;
            }
            *n += 1;
            let mut mutated = code.to_vec();
            for (at, bytes) in &mutant.patches {
                mutated[*at..*at + bytes.len()].copy_from_slice(bytes);
            }
            let report = verify(ctx, &mutated);
            let e = self.by_class.entry(mutant.class).or_insert((0, 0));
            e.0 += 1;
            if report.findings.is_empty() {
                self.survivors.push(format!("{at}: {}", mutant.class));
            } else {
                e.1 += 1;
            }
        }
    }

    /// Print the per-class table and require a population of more than
    /// `min_total` mutants, every one of them detected.
    fn assert_all_detected(&self, min_total: u64) {
        let total: u64 = self.by_class.values().map(|(t, _)| t).sum();
        let detected: u64 = self.by_class.values().map(|(_, d)| d).sum();
        assert!(
            total > min_total,
            "expected a substantial mutant population, got {total}"
        );
        let rate = detected as f64 / total as f64;
        println!(
            "mutation detection: {detected}/{total} = {:.2}%",
            rate * 100.0
        );
        for (class, (t, d)) in &self.by_class {
            println!("  {class}: {d}/{t}");
        }
        assert!(
            self.survivors.is_empty(),
            "detection rate {:.2}% below 100% — survivors:\n{}",
            rate * 100.0,
            self.survivors.join("\n")
        );
    }
}

#[test]
fn validator_detects_safety_breaking_mutants() {
    // Every PolyBench kernel, plus three same-address accesses in a row:
    // there a dropped guard leaves an earlier guard covering its access.
    let mut modules: Vec<(String, lb_wasm::Module)> = lb_polybench::NAMES
        .iter()
        .map(|&name| {
            let bench =
                lb_polybench::by_name(name, lb_polybench::Dataset::Mini).expect("known kernel");
            (name.to_string(), bench.module)
        })
        .collect();
    modules.push(("rmw".to_string(), common::rmw_module()));
    let mut tally = Tally::default();
    // Basic: every check emitted, maximal guard density.
    tally.sweep(&mut SplitMix64::new(SEED), &modules, &[OptLevel::Basic]);
    tally.assert_all_detected(500);
}

/// The SPEC proxies at every tier: their runtime-sized loops and
/// data-dependent indices hold every check the benchmark workloads still
/// emit, in the register shapes each tier gives them (spilled at `None`,
/// pinned in callee-saved registers at `Full`).
#[test]
fn validator_detects_mutants_in_spec_proxies() {
    let modules: Vec<(String, lb_wasm::Module)> = lb_spec_proxy::all(lb_spec_proxy::Scale::Mini)
        .into_iter()
        .map(|b| (b.name, b.module))
        .collect();
    let mut tally = Tally::default();
    tally.sweep(
        &mut SplitMix64::new(SEED),
        &modules,
        &[OptLevel::None, OptLevel::Basic, OptLevel::Full],
    );
    tally.assert_all_detected(500);
}
