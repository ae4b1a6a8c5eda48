//! Instruction classification for profile attribution.
//!
//! `lb-prof` samples program counters inside JIT code and needs to know,
//! per sampled instruction, whether time went to the bounds check itself
//! (the paper's subject) or to the access it protects. This module reuses
//! the translation validator's decoder ([`crate::decode`]) — the one
//! component already trusted to understand every byte the JIT emits — to
//! lift a function body back into [`crate::isa::Inst`] form and bucket
//! each instruction:
//!
//! * **GuardCompare** — the trap-strategy check: `lea scratch, [addr+ext]`
//!   / `cmp scratch, [r15 + mem_size]` / `ja trap` (plus the `movabs`+`add`
//!   form for extents that overflow an i32 displacement).
//! * **Clamp** — the clamp-strategy redirect: `lea` / `mov t, [r15 +
//!   mem_size]` / `sub t, size` / `cmp scratch, t` / `cmova scratch, t`.
//! * **TrapPath** — `ud2` trap stubs (out-of-line; sampled only when a
//!   check actually fails).
//! * **MemoryAccess** — any instruction whose memory operand is based on
//!   r14, the linear-memory base register.
//! * **Compute** — everything else (including context-struct traffic such
//!   as the stack-limit compare, whose displacement differs from
//!   `mem_size`).
//!
//! Classification is purely syntactic and anchored on the context-pointer
//! register (r15) plus the `mem_size` field displacement, which the caller
//! passes in so this crate needs no dependency on the JIT's layout
//! constants. Sequence *widening* (folding the `lea`/`ja` around a compare
//! into the check's cost) runs after per-instruction bucketing, mirroring
//! exactly the shapes `mem_operand` in `crates/jit/src/codegen.rs` emits.

use crate::decode::{decode_all, DecodeErr};
use crate::isa::{AluRi, AluRr, Cc, Inst, Mem, Reg};

/// What a sampled instruction was doing, from the bounds-checking
/// point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Trap-strategy guard sequence (lea/cmp-vs-mem-size/ja).
    GuardCompare,
    /// Clamp-strategy clamp sequence (lea/mov/sub/cmp/cmova).
    Clamp,
    /// Out-of-line `ud2` trap stub.
    TrapPath,
    /// Linear-memory access (r14-based operand).
    MemoryAccess,
    /// Anything else.
    Compute,
}

impl InstClass {
    /// Stable lowercase label, used in trace JSON and report tables.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::GuardCompare => "guard",
            InstClass::Clamp => "clamp",
            InstClass::TrapPath => "trap_path",
            InstClass::MemoryAccess => "mem_access",
            InstClass::Compute => "compute",
        }
    }
}

/// One classified instruction: `[offset, offset + len)` within the
/// function body.
#[derive(Debug, Clone, Copy)]
pub struct ClassifiedInst {
    /// Byte offset of the instruction's first byte.
    pub offset: u32,
    /// Encoded length in bytes.
    pub len: u32,
    /// Attribution bucket.
    pub class: InstClass,
}

/// The linear-memory base register (`MEM_BASE` lives in a register, not
/// the context struct): every guest load/store operand is based on it.
const MEM_BASE_REG: Reg = Reg::R14;
/// The VM context pointer; bounds checks compare against
/// `[r15 + mem_size_disp]`.
const CTX_REG: Reg = Reg::R15;

fn mem_of(inst: &Inst) -> Option<Mem> {
    match *inst {
        Inst::MovRm { m, .. }
        | Inst::MovMr { m, .. }
        | Inst::MovMr8 { m, .. }
        | Inst::MovMr16 { m, .. }
        | Inst::Movzx8 { m, .. }
        | Inst::Movzx16 { m, .. }
        | Inst::Movsx8 { m, .. }
        | Inst::Movsx16 { m, .. }
        | Inst::MovsxdM { m, .. }
        | Inst::MovMi { m, .. }
        | Inst::CmpRm { m, .. }
        | Inst::CallM { m }
        | Inst::Fload { m, .. }
        | Inst::Fstore { m, .. } => Some(m),
        // `lea` computes an address but performs no access.
        _ => None,
    }
}

fn is_ctx_field(m: &Mem, disp: i32) -> bool {
    m.base == CTX_REG && m.index.is_none() && m.disp == disp
}

/// True for the address-materialization instructions that may precede a
/// check's compare: `lea scratch, [addr+ext]`, or the wide-extent form
/// `movabs scratch, ext` / `add scratch, addr`.
fn is_addr_setup(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Lea { .. }
            | Inst::MovAbs { .. }
            | Inst::MovRi64Sx { .. }
            | Inst::AluRr { op: AluRr::Add, .. }
    )
}

/// Decode and classify a single function body.
///
/// `code` must be exactly the emitted bytes of one function (prologue
/// through trap stubs, without inter-function `int3` padding);
/// `mem_size_disp` is the byte offset of the memory-size field in the VM
/// context struct (`ctx_off::MEM_SIZE` in `lb-jit`). Fails only if the
/// bytes contain an encoding the JIT cannot produce.
pub fn classify_function(
    code: &[u8],
    mem_size_disp: i32,
) -> Result<Vec<ClassifiedInst>, DecodeErr> {
    let insts = decode_all(code)?;
    let n = insts.len();
    let mut classes: Vec<InstClass> = Vec::with_capacity(n);

    // Pass 1: per-instruction bucketing.
    for (_, inst) in &insts {
        let class = match inst {
            Inst::Ud2Trap { .. } => InstClass::TrapPath,
            Inst::CmpRm { m, .. } if is_ctx_field(m, mem_size_disp) => InstClass::GuardCompare,
            _ => match mem_of(inst) {
                Some(m) if m.base == MEM_BASE_REG => InstClass::MemoryAccess,
                _ => InstClass::Compute,
            },
        };
        classes.push(class);
    }

    // Pass 2a: widen trap-strategy guards. The compare was found by its
    // `[r15 + mem_size]` operand; fold in the address setup before it and
    // the `ja trap` after it.
    for i in 0..n {
        if !matches!(&insts[i].1, Inst::CmpRm { m, .. } if is_ctx_field(m, mem_size_disp)) {
            continue;
        }
        let mut j = i;
        while j > 0 && classes[j - 1] == InstClass::Compute && is_addr_setup(&insts[j - 1].1) {
            classes[j - 1] = InstClass::GuardCompare;
            j -= 1;
            // At most two setup instructions (movabs + add) precede.
            if i - j == 2 {
                break;
            }
        }
        if let Some((_, Inst::Jcc { cc: Cc::A, .. })) = insts.get(i + 1) {
            classes[i + 1] = InstClass::GuardCompare;
        }
    }

    // Pass 2b: clamp sequences, anchored on the `mov t, [r15 + mem_size]`
    // load and matched forward over the exact emitted shape
    // `sub t, size` / `cmp scratch, t` / `cmova scratch, t`.
    for i in 0..n {
        let anchor = matches!(&insts[i].1,
            Inst::MovRm { m, .. } if is_ctx_field(m, mem_size_disp));
        if !anchor || i + 3 >= n {
            continue;
        }
        let shape = matches!(insts[i + 1].1, Inst::AluRi { op: AluRi::Sub, .. })
            && matches!(insts[i + 2].1, Inst::AluRr { op: AluRr::Cmp, .. })
            && matches!(insts[i + 3].1, Inst::Cmov { cc: Cc::A, .. });
        if !shape {
            continue;
        }
        for c in classes.iter_mut().take(i + 4).skip(i) {
            *c = InstClass::Clamp;
        }
        // Fold in the preceding address setup, as for guards.
        let mut j = i;
        while j > 0 && classes[j - 1] == InstClass::Compute && is_addr_setup(&insts[j - 1].1) {
            classes[j - 1] = InstClass::Clamp;
            j -= 1;
            if i - j == 2 {
                break;
            }
        }
    }

    let mut out = Vec::with_capacity(n);
    for (i, (off, _)) in insts.iter().enumerate() {
        let end = insts.get(i + 1).map_or(code.len(), |(o, _)| *o);
        out.push(ClassifiedInst {
            offset: *off as u32,
            len: (end - off) as u32,
            class: classes[i],
        });
    }
    Ok(out)
}

/// Find the class of the instruction containing byte `offset`, if any.
/// `classes` must be sorted by offset, as [`classify_function`] returns.
pub fn class_at(classes: &[ClassifiedInst], offset: u32) -> Option<InstClass> {
    let idx = classes.partition_point(|c| c.offset <= offset);
    let c = classes.get(idx.checked_sub(1)?)?;
    (offset < c.offset + c.len).then_some(c.class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{encode, Inst, Mem, Reg, W};

    const MEM_SIZE: i32 = 8;

    fn bytes(insts: &[Inst]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in insts {
            encode(i, &mut out);
        }
        out
    }

    #[test]
    fn trap_guard_sequence_is_guard() {
        // lea r11, [rcx+4]; cmp r11, [r15+8]; ja +0; mov eax, [r14+rcx]
        let code = bytes(&[
            Inst::Lea {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::RCX, 4),
            },
            Inst::CmpRm {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::R15, MEM_SIZE),
            },
            Inst::Jcc { cc: Cc::A, rel: 0 },
            Inst::MovRm {
                w: W::W32,
                d: Reg::RAX,
                m: Mem {
                    base: Reg::R14,
                    index: Some((Reg::RCX, 1)),
                    disp: 0,
                },
            },
            Inst::Ret,
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        let got: Vec<InstClass> = cl.iter().map(|c| c.class).collect();
        assert_eq!(
            got,
            vec![
                InstClass::GuardCompare,
                InstClass::GuardCompare,
                InstClass::GuardCompare,
                InstClass::MemoryAccess,
                InstClass::Compute,
            ]
        );
    }

    #[test]
    fn clamp_sequence_is_clamp() {
        let code = bytes(&[
            Inst::Lea {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::RCX, 0),
            },
            Inst::MovRm {
                w: W::W64,
                d: Reg::RDX,
                m: Mem::base(Reg::R15, MEM_SIZE),
            },
            Inst::AluRi {
                w: W::W64,
                op: AluRi::Sub,
                d: Reg::RDX,
                v: 4,
            },
            Inst::AluRr {
                w: W::W64,
                op: AluRr::Cmp,
                d: Reg::R11,
                s: Reg::RDX,
            },
            Inst::Cmov {
                w: W::W64,
                cc: Cc::A,
                d: Reg::R11,
                s: Reg::RDX,
            },
            Inst::MovRm {
                w: W::W32,
                d: Reg::RAX,
                m: Mem {
                    base: Reg::R14,
                    index: Some((Reg::R11, 1)),
                    disp: 0,
                },
            },
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        let got: Vec<InstClass> = cl.iter().map(|c| c.class).collect();
        assert_eq!(
            got,
            vec![
                InstClass::Clamp,
                InstClass::Clamp,
                InstClass::Clamp,
                InstClass::Clamp,
                InstClass::Clamp,
                InstClass::MemoryAccess,
            ]
        );
    }

    #[test]
    fn stack_limit_compare_stays_compute() {
        // The prologue stack-overflow check compares against a different
        // context field; it must not count as a bounds check.
        let code = bytes(&[
            Inst::CmpRm {
                w: W::W64,
                d: Reg::RSP,
                m: Mem::base(Reg::R15, 40),
            },
            Inst::Ud2Trap { code: 3 },
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        assert_eq!(cl[0].class, InstClass::Compute);
        assert_eq!(cl[1].class, InstClass::TrapPath);
    }

    #[test]
    fn select_cmov_is_not_clamp() {
        // `select` lowers to cmove without the mem-size load before it.
        let code = bytes(&[
            Inst::AluRr {
                w: W::W64,
                op: AluRr::Test,
                d: Reg::RCX,
                s: Reg::RCX,
            },
            Inst::Cmov {
                w: W::W64,
                cc: Cc::E,
                d: Reg::RAX,
                s: Reg::RDX,
            },
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        assert!(cl.iter().all(|c| c.class == InstClass::Compute));
    }

    #[test]
    fn immediate_alu_forms_are_compute() {
        // The shared lowering's immediate forms — `imul d, s, imm`,
        // `or`/`xor r, imm`, shifts by a constant — and a fused
        // `cmp r, imm; jl` loop test are compute, not bounds checks.
        let code = bytes(&[
            Inst::ImulRri {
                w: W::W32,
                d: Reg::RAX,
                s: Reg::RBX,
                v: 0x46,
            },
            Inst::ImulRri {
                w: W::W64,
                d: Reg::RCX,
                s: Reg::R12,
                v: 1 << 20,
            },
            Inst::AluRi {
                w: W::W32,
                op: AluRi::Or,
                d: Reg::RAX,
                v: 1,
            },
            Inst::AluRi {
                w: W::W64,
                op: AluRi::Xor,
                d: Reg::RCX,
                v: -129,
            },
            Inst::AluRi {
                w: W::W32,
                op: AluRi::Cmp,
                d: Reg::R12,
                v: 70,
            },
            Inst::Jcc { cc: Cc::L, rel: 0 },
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        assert_eq!(cl.len(), 6);
        assert!(cl.iter().all(|c| c.class == InstClass::Compute), "{cl:?}");
    }

    #[test]
    fn class_at_maps_offsets_through_lengths() {
        let code = bytes(&[
            Inst::Lea {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::RCX, 4),
            },
            Inst::CmpRm {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::R15, MEM_SIZE),
            },
            Inst::Ret,
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        // Every byte of every instruction resolves to that instruction's
        // class; one past the end resolves to nothing.
        for c in &cl {
            for b in c.offset..c.offset + c.len {
                assert_eq!(class_at(&cl, b), Some(c.class), "byte {b}");
            }
        }
        assert_eq!(class_at(&cl, code.len() as u32), None);
    }
}
