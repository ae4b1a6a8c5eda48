//! `lb-analysis` — module-level bounds-check elimination.
//!
//! The paper attributes a large share of WebAssembly's overhead to the
//! software bounds checks emitted under the `trap` and `clamp` strategies
//! (§3.1), and surveys how production compilers claw that cost back by
//! proving checks redundant. This crate is that reasoning layer for the
//! reproduction: a forward abstract interpretation over validated wasm
//! function bodies that
//!
//! * computes **interval/stride ranges** for every i32 value, tracking
//!   `local.get`/`const`/`add`/`shl`/`and` provenance symbolically
//!   (`value == (local << shift) + addend`),
//! * reconstructs the **structured control-flow tree** so dominating-check
//!   facts survive joins (an `if/else` both of whose arms inherit a check
//!   keeps it — unlike a per-basic-block peephole, which drops every
//!   fact at every label), and are carried across loop
//!   iterations via a widening/narrowing fixpoint at each loop header,
//! * analyzes each defined function **once, on its own**: parameters
//!   enter at ⊤ and every `call` result is ⊤, so a plan never depends on
//!   another function's body,
//! * emits a per-instruction [`CheckKind`] plan (`Emit`, `ElideInBounds`,
//!   `ElideDominated`, `StaticOob`) plus a per-function [`FuncSummary`]
//!   (access counts per kind, and the minimum memory size that makes the
//!   function check-free).
//!
//! # Soundness
//!
//! A check may only be skipped when one of two facts holds for **every**
//! execution reaching the access:
//!
//! * **In-bounds** — the largest possible effective address plus access
//!   width fits inside the module's *declared minimum* memory
//!   (`limits.min` pages). Instances never start smaller than the declared
//!   minimum (`build_instance_parts` floors the initial size there) and
//!   linear memory only grows, so this bound holds for the lifetime of any
//!   instance. Valid under both `trap` and `clamp`.
//! * **Dominated** — an earlier check on the *same provenance*
//!   `(local, shift)` already proved `(local << shift) + addend' + extent'
//!   <= mem_size` with `addend' + extent' >= addend + extent`, and the
//!   local has not been reassigned since. Facts are intersected at joins
//!   (kept only when established on every incoming path) and invalidated
//!   on `local.set`/`local.tee`, so no SSA renaming is needed. Valid under
//!   `trap` always: a passed check is a proof. Under `clamp` a dynamic
//!   dominating check proves nothing — it silently redirects its own
//!   effective address and leaves the local unchanged — so domination is
//!   consumed only when the dominator's coverage was itself *static*
//!   (established by an `ElideInBounds` proof); [`FuncPlan::clamp_elidable`]
//!   exposes exactly that set, and the JIT clamps the rest.
//!
//! `StaticOob` means the *smallest* possible effective address already
//! exceeds the declared maximum memory: the access must trap on every
//! execution that reaches it (under a trapping strategy). The state is
//! dead afterwards.
//!
//! Everything else is `Emit`. The analysis is deliberately conservative:
//! any interval that might wrap 2^32 goes to ⊤, signed comparisons only
//! refine when both sides are provably non-negative, and unmodeled
//! operations produce ⊤.

#![warn(missing_docs)]

use lb_wasm::instr::Instr;
use lb_wasm::types::{BlockType, MAX_PAGES, PAGE_SIZE};
use lb_wasm::validate::{FuncMeta, ModuleMeta};
use lb_wasm::{Module, ValType};
use std::collections::BTreeMap;

const U32_MAX: u64 = u32::MAX as u64;
/// Stride assigned to the constant 0 (divisible by any power of two we
/// track; capped so `min` works as gcd on the pow2 lattice).
const STRIDE_CAP: u64 = 1 << 32;

// ─────────────────────────────────── public API ──────────────────────────

/// The per-access decision the JIT and interpreter consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Emit the bounds check (the default; also used for unreachable code).
    Emit,
    /// Proven in-bounds against the declared minimum memory size; skip the
    /// check under `trap` *and* `clamp`.
    ElideInBounds,
    /// Covered by a dominating check on the same provenance; skip under
    /// `trap` only — and under `clamp` when the dominating fact was
    /// *static* (see [`FuncPlan::clamp_elidable`]).
    ElideDominated,
    /// Proven out of bounds against the declared maximum memory size; the
    /// access traps unconditionally under trapping strategies.
    StaticOob,
}

/// The argument of [`analyze_module_with`]. It has no fields: the analysis
/// has no options left. It exists only so that callers written against
/// the former interprocedural switch, such as the repository benchmark,
/// keep compiling until they call [`analyze_module`] directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisConfig;

/// Per-function access-footprint summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncSummary {
    /// Reachable memory accesses seen by the analysis.
    pub accesses: u32,
    /// Accesses proven in-bounds against the declared minimum memory.
    pub elided_in_bounds: u32,
    /// Accesses covered by a dominating check.
    pub elided_dominated: u32,
    /// Accesses proven statically out of bounds.
    pub static_oob: u32,
    /// Accesses that still need their check.
    pub emitted: u32,
    /// Smallest committed memory size (bytes) at which *every* reachable
    /// access in this function is in bounds — i.e. the size that makes the
    /// function check-free. `None` if some access has an unbounded
    /// address; `Some(0)` if the function performs no accesses.
    pub check_free_min_bytes: Option<u64>,
}

impl FuncSummary {
    /// Fraction of reachable accesses whose check is statically elided
    /// (in-bounds or dominated) under the `trap` strategy.
    pub fn elision_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        f64::from(self.elided_in_bounds + self.elided_dominated) / f64::from(self.accesses)
    }
}

/// The plan for one defined function: a [`CheckKind`] per instruction
/// index (memory accesses only; everything else stays `Emit`) and which
/// dominated accesses stay elidable under `clamp`.
#[derive(Debug, Clone)]
pub struct FuncPlan {
    kinds: Vec<CheckKind>,
    /// pcs of `ElideDominated` accesses whose dominating fact was static
    /// (in-bounds against the declared minimum), sorted.
    clamp_ok: Vec<u32>,
    /// Access-footprint summary.
    pub summary: FuncSummary,
}

impl FuncPlan {
    /// The decision for the instruction at `pc` (indices past the body
    /// conservatively report `Emit`).
    #[inline]
    pub fn kind_at(&self, pc: usize) -> CheckKind {
        self.kinds.get(pc).copied().unwrap_or(CheckKind::Emit)
    }

    /// Whether the `ElideDominated` access at `pc` may also skip its
    /// clamp: its dominating fact was a static in-bounds proof, so the
    /// clamp is the identity on every execution.
    #[inline]
    pub fn clamp_elidable(&self, pc: usize) -> bool {
        u32::try_from(pc).is_ok_and(|pc| self.clamp_ok.binary_search(&pc).is_ok())
    }
}

/// The whole-module plan: one [`FuncPlan`] per defined function.
#[derive(Debug, Clone)]
pub struct ModulePlan {
    /// Plans indexed by *defined* function index.
    pub funcs: Vec<FuncPlan>,
    /// Declared minimum memory size in bytes (0 when no memory).
    pub mem_min_bytes: u64,
    /// Declared maximum memory size in bytes (0 when no memory).
    pub mem_max_bytes: u64,
}

impl ModulePlan {
    /// Whether the instruction at `pc` of defined function `di` is a
    /// statically-out-of-bounds access (used by the interpreter to
    /// pre-trap).
    #[inline]
    pub fn is_static_oob(&self, di: usize, pc: usize) -> bool {
        self.funcs
            .get(di)
            .is_some_and(|f| f.kind_at(pc) == CheckKind::StaticOob)
    }

    /// Module totals: `(accesses, elided, emitted, static_oob)`.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0u64, 0u64, 0u64, 0u64);
        for f in &self.funcs {
            t.0 += u64::from(f.summary.accesses);
            t.1 += u64::from(f.summary.elided_in_bounds + f.summary.elided_dominated);
            t.2 += u64::from(f.summary.emitted);
            t.3 += u64::from(f.summary.static_oob);
        }
        t
    }
}

/// Analyze every defined function of a validated module, each once and in
/// index order. Every function starts from ⊤ parameters and every `call`
/// result is ⊤, so no function's plan depends on another function's body.
pub fn analyze_module(module: &Module, meta: &ModuleMeta) -> ModulePlan {
    let (mem_min_bytes, mem_max_bytes) = match &module.memory {
        Some(mt) => (
            u64::from(mt.limits.min) * PAGE_SIZE as u64,
            u64::from(mt.limits.max.unwrap_or(MAX_PAGES)) * PAGE_SIZE as u64,
        ),
        None => (0, 0),
    };
    let funcs = module
        .functions
        .iter()
        .zip(&meta.funcs)
        .map(|(f, fmeta)| Analyzer::new(module, fmeta, mem_min_bytes, mem_max_bytes).run(&f.body))
        .collect();
    ModulePlan {
        funcs,
        mem_min_bytes,
        mem_max_bytes,
    }
}

/// [`analyze_module`]; `cfg` selects nothing (see [`AnalysisConfig`]).
pub fn analyze_module_with(
    module: &Module,
    meta: &ModuleMeta,
    _cfg: &AnalysisConfig,
) -> ModulePlan {
    analyze_module(module, meta)
}

// ─────────────────────────────── abstract domain ─────────────────────────

/// Symbolic provenance: `value == (local << shift) + addend` over the
/// integers (no wrap anywhere in the chain). An operation that may wrap
/// drops the provenance: dominating-check facts compare checked extents
/// of the runtime value, which a mod-2^32 congruence cannot order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sym {
    local: u32,
    shift: u8,
    addend: u64,
}

/// Comparison operator of a predicate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    LtS,
    LtU,
    LeS,
    LeU,
    GtS,
    GtU,
    GeS,
    GeU,
    Eq,
    Ne,
}

impl CmpOp {
    /// The operator describing the *false* edge.
    fn inverse(self) -> CmpOp {
        match self {
            CmpOp::LtS => CmpOp::GeS,
            CmpOp::LtU => CmpOp::GeU,
            CmpOp::LeS => CmpOp::GtS,
            CmpOp::LeU => CmpOp::GtU,
            CmpOp::GtS => CmpOp::LeS,
            CmpOp::GtU => CmpOp::LeU,
            CmpOp::GeS => CmpOp::LtS,
            CmpOp::GeU => CmpOp::LtU,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// `a op b` rewritten as `b op' a`.
    fn mirror(self) -> CmpOp {
        match self {
            CmpOp::LtS => CmpOp::GtS,
            CmpOp::LtU => CmpOp::GtU,
            CmpOp::LeS => CmpOp::GeS,
            CmpOp::LeU => CmpOp::GeU,
            CmpOp::GtS => CmpOp::LtS,
            CmpOp::GtU => CmpOp::LtU,
            CmpOp::GeS => CmpOp::LeS,
            CmpOp::GeU => CmpOp::LeU,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

/// A comparison a boolean value came from, for branch refinement. The
/// operand intervals are snapshots from compare time (sound: the local
/// side is invalidated on reassignment, the interval side is only ever
/// *read*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pred {
    op: CmpOp,
    l_local: Option<u32>,
    l_iv: (u64, u64),
    r_local: Option<u32>,
    r_iv: (u64, u64),
}

impl Pred {
    fn mentions(&self, l: u32) -> bool {
        self.l_local == Some(l) || self.r_local == Some(l)
    }
}

/// Abstract i32 value: unsigned interval + power-of-two stride +
/// provenance + predicate origin. Non-i32 values ride along as ⊤ (their
/// intervals are never consulted for addresses).
#[derive(Debug, Clone, Copy, PartialEq)]
struct AbsVal {
    lo: u64,
    hi: u64,
    /// Power of two dividing every possible value.
    stride: u64,
    /// Wrapped-interval refinement: when present, the value lies in one of
    /// the two disjoint, ordered sub-intervals (`lo`/`hi` is their hull).
    /// Produced by `add`/`sub` with a constant when the interval wraps
    /// 2^32 (a decrementing induction variable is `(0, s-2)` ∪
    /// `(2^32-1, 2^32-1)`); consumed only by branch refinement, which
    /// intersects the parts against the constraint region set — this is
    /// how a descending loop's `i >= 0` back-edge guard recovers the
    /// bounded part. Every other operation uses the hull and drops it.
    split: Option<((u64, u64), (u64, u64))>,
    sym: Option<Sym>,
    pred: Option<Pred>,
}

impl AbsVal {
    fn top() -> AbsVal {
        AbsVal {
            lo: 0,
            hi: U32_MAX,
            stride: 1,
            split: None,
            sym: None,
            pred: None,
        }
    }

    fn cst(v: u32) -> AbsVal {
        let v = u64::from(v);
        AbsVal {
            lo: v,
            hi: v,
            stride: if v == 0 {
                STRIDE_CAP
            } else {
                1 << v.trailing_zeros()
            },
            split: None,
            sym: None,
            pred: None,
        }
    }

    fn iv(lo: u64, hi: u64) -> AbsVal {
        AbsVal {
            lo,
            hi,
            stride: 1,
            split: None,
            sym: None,
            pred: None,
        }
    }

    fn as_const(&self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Trivial provenance `value == local` (shift 0, addend 0).
    fn as_local(&self) -> Option<u32> {
        match self.sym {
            Some(Sym {
                local,
                shift: 0,
                addend: 0,
            }) => Some(local),
            _ => None,
        }
    }

    /// The value's parts: the split pair, or the whole interval.
    fn parts(&self) -> Vec<(u64, u64)> {
        match self.split {
            Some((a, b)) => vec![a, b],
            None => vec![(self.lo, self.hi)],
        }
    }
}

fn join_val(a: &AbsVal, b: &AbsVal) -> AbsVal {
    AbsVal {
        lo: a.lo.min(b.lo),
        hi: a.hi.max(b.hi),
        stride: a.stride.min(b.stride),
        // Equal part sets stay (the union is the same set); anything else
        // falls back to the (joined) hull.
        split: if a.split == b.split { a.split } else { None },
        sym: if a.sym == b.sym { a.sym } else { None },
        pred: if a.pred == b.pred { a.pred } else { None },
    }
}

// Interval arithmetic (wasm i32 semantics). Add/sub with a constant model
// the wrap exactly: a fully-wrapping interval translates, a partially
// wrapping one becomes a two-part split (hull ⊤); everything else that
// might wrap goes to ⊤.

/// Interval of `x + c (mod 2^32)` for `x ∈ [lo, hi]`, as
/// `(lo, hi, split)`.
fn wrap_add_iv(lo: u64, hi: u64, c: u64) -> (u64, u64, Option<((u64, u64), (u64, u64))>) {
    debug_assert!(c <= U32_MAX && hi <= U32_MAX);
    if hi + c <= U32_MAX {
        (lo + c, hi + c, None) // no wrap
    } else if lo + c > U32_MAX {
        (lo + c - (1 << 32), hi + c - (1 << 32), None) // all wrap
    } else {
        // Partial wrap: the high (non-wrapping) part and the low (wrapped)
        // part. Hull is ⊤-wide but the split keeps both ends tight.
        (
            0,
            U32_MAX,
            Some(((0, hi + c - (1 << 32)), (lo + c, U32_MAX))),
        )
    }
}

fn abs_add(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::cst((x as u32).wrapping_add(y as u32));
    }
    // Canonicalize to value + const when one side is constant.
    let (v, c) = match (b.as_const(), a.as_const()) {
        (Some(c), _) => (a, Some(c)),
        (_, Some(c)) => (b, Some(c)),
        _ => (a, None),
    };
    let Some(c) = c else {
        if a.hi + b.hi > U32_MAX {
            return AbsVal::top();
        }
        return AbsVal {
            lo: a.lo + b.lo,
            hi: a.hi + b.hi,
            stride: a.stride.min(b.stride),
            split: None,
            sym: None,
            pred: None,
        };
    };
    let (lo, hi, split) = wrap_add_iv(v.lo, v.hi, c);
    let wraps = v.hi + c > U32_MAX;
    let sym = v.sym.filter(|_| !wraps).map(|s| Sym {
        addend: s.addend + c,
        ..s
    });
    AbsVal {
        lo,
        hi,
        stride: a.stride.min(b.stride),
        split,
        sym,
        pred: None,
    }
}

fn abs_sub(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::cst((x as u32).wrapping_sub(y as u32));
    }
    if let Some(c) = b.as_const() {
        // a - c == a + (2^32 - c) mod 2^32.
        let (lo, hi, split) = wrap_add_iv(a.lo, a.hi, ((1u64 << 32) - c) & U32_MAX);
        let sym = a.sym.filter(|s| a.lo >= c && s.addend >= c).map(|s| Sym {
            addend: s.addend - c,
            ..s
        });
        return AbsVal {
            lo,
            hi,
            stride: a.stride.min(b.stride),
            split,
            sym,
            pred: None,
        };
    }
    if a.lo < b.hi {
        return AbsVal::top();
    }
    AbsVal {
        lo: a.lo - b.hi,
        hi: a.hi - b.lo,
        stride: a.stride.min(b.stride),
        split: None,
        sym: None,
        pred: None,
    }
}

fn abs_mul(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::cst((x as u32).wrapping_mul(y as u32));
    }
    // (2^32-1)^2 < 2^64, so the product fits u64.
    if a.hi * b.hi > U32_MAX {
        return AbsVal::top();
    }
    AbsVal {
        lo: a.lo * b.lo,
        hi: a.hi * b.hi,
        stride: (a.stride.saturating_mul(b.stride)).min(STRIDE_CAP),
        split: None,
        sym: None,
        pred: None,
    }
}

fn abs_and(a: &AbsVal, b: &AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::cst((x as u32) & (y as u32));
    }
    // Masking can only clear bits: result <= min(hi_a, mask) and keeps the
    // mask's low-zero-bit stride (the `addr & 0x3FF8`-style idiom).
    let (val, mask) = match (a.as_const(), b.as_const()) {
        (_, Some(m)) => (a, m),
        (Some(m), _) => (b, m),
        _ => {
            return AbsVal {
                lo: 0,
                hi: a.hi.min(b.hi),
                stride: 1,
                split: None,
                sym: None,
                pred: None,
            }
        }
    };
    AbsVal {
        lo: 0,
        hi: val.hi.min(mask),
        stride: if mask == 0 {
            STRIDE_CAP
        } else {
            1 << mask.trailing_zeros()
        },
        split: None,
        sym: None,
        pred: None,
    }
}

fn abs_shl(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let Some(k) = b.as_const() else {
        return AbsVal::top();
    };
    let k = (k as u32 & 31) as u8;
    if let Some(x) = a.as_const() {
        return AbsVal::cst((x as u32) << k);
    }
    if a.hi << k > U32_MAX {
        // The shift may wrap.
        return AbsVal::top();
    }
    let sym = a.sym.and_then(|s| {
        (u32::from(s.shift) + u32::from(k) <= 31).then(|| Sym {
            local: s.local,
            shift: s.shift + k,
            addend: s.addend << k,
        })
    });
    AbsVal {
        lo: a.lo << k,
        hi: a.hi << k,
        stride: (a.stride << k).min(STRIDE_CAP),
        split: None,
        sym,
        pred: None,
    }
}

fn abs_shr_u(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let Some(k) = b.as_const() else {
        return AbsVal::top();
    };
    let k = k as u32 & 31;
    if let Some(x) = a.as_const() {
        return AbsVal::cst((x as u32) >> k);
    }
    AbsVal {
        lo: a.lo >> k,
        hi: a.hi >> k,
        stride: (a.stride >> k).max(1),
        split: None,
        sym: None,
        pred: None,
    }
}

// ───────────────────────────────── machine state ─────────────────────────

/// The abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq)]
struct State {
    locals: Vec<AbsVal>,
    stack: Vec<AbsVal>,
    /// Dominating-check facts: `(local, shift)` → largest proven
    /// `addend + extent` plus whether that proof was *static* (in-bounds
    /// against the declared minimum, so it also licenses elision under
    /// `clamp`) rather than established by a runtime check. "The *current*
    /// value of this local, shifted, was checked to that extent" — a
    /// per-path truth preserved by intersection at joins and killed on
    /// reassignment.
    checked: BTreeMap<(u32, u8), (u64, bool)>,
    /// Relational facts between locals: `(a, b) → strict` means
    /// `a <u b` when strict, else `a ≤u b` (unsigned, over the current
    /// values). Established by branch refinement on unsigned (or
    /// provably-nonnegative signed) compares and by exact local-to-local
    /// copies; intersected at joins; killed when either side is
    /// reassigned. These power `a - b` narrowing.
    rel: BTreeMap<(u32, u32), bool>,
    live: bool,
}

impl State {
    /// Strip every fact, provenance, and predicate mentioning local `l`
    /// (called when `l` is reassigned, and by the conservative loop
    /// fallback).
    fn strip_local(&mut self, l: u32) {
        self.checked.retain(|&(cl, _), _| cl != l);
        self.rel.retain(|&(x, y), _| x != l && y != l);
        for v in self.locals.iter_mut().chain(self.stack.iter_mut()) {
            if v.sym.is_some_and(|s| s.local == l) {
                v.sym = None;
            }
            if v.pred.is_some_and(|p| p.mentions(l)) {
                v.pred = None;
            }
        }
    }

    /// Record `a <u b` (strict) or `a ≤u b`; strictness only upgrades.
    fn add_rel(&mut self, a: u32, b: u32, strict: bool) {
        if a == b {
            return;
        }
        let e = self.rel.entry((a, b)).or_insert(strict);
        *e |= strict;
    }

    /// Is `a <u b` (`Some(true)`) or `a ≤u b` (`Some(false)`) known,
    /// directly or through one intermediate local?
    fn rel_lt(&self, a: u32, b: u32) -> Option<bool> {
        if let Some(&s) = self.rel.get(&(a, b)) {
            return Some(s);
        }
        let mut best: Option<bool> = None;
        for (&(x, m), &s1) in self.rel.range((a, 0)..=(a, u32::MAX)) {
            debug_assert_eq!(x, a);
            if let Some(&s2) = self.rel.get(&(m, b)) {
                let s = s1 || s2;
                if s || best.is_none() {
                    best = Some(s);
                }
                if s {
                    break;
                }
            }
        }
        best
    }
}

fn join_state(a: &State, b: &State) -> State {
    if !a.live {
        return b.clone();
    }
    if !b.live {
        return a.clone();
    }
    debug_assert_eq!(a.stack.len(), b.stack.len(), "join at equal heights");
    let locals = a
        .locals
        .iter()
        .zip(&b.locals)
        .map(|(x, y)| join_val(x, y))
        .collect();
    let stack = a
        .stack
        .iter()
        .zip(&b.stack)
        .map(|(x, y)| join_val(x, y))
        .collect();
    let checked = a
        .checked
        .iter()
        .filter_map(|(k, &(va, sa))| {
            b.checked
                .get(k)
                .map(|&(vb, sb)| (*k, (va.min(vb), sa && sb)))
        })
        .collect();
    let rel = a
        .rel
        .iter()
        .filter_map(|(k, &sa)| b.rel.get(k).map(|&sb| (*k, sa && sb)))
        .collect();
    State {
        locals,
        stack,
        checked,
        rel,
        live: true,
    }
}

/// `b ⊑ a` — does `a` already cover `b`?
fn state_contains(a: &State, b: &State) -> bool {
    if !b.live {
        return true;
    }
    join_state(a, b) == *a
}

/// Record a dominating-check fact, keeping the largest extent and
/// upgrading to static when an equal extent is statically proven.
fn record_fact(st: &mut State, key: (u32, u8), need: u64, is_static: bool) {
    match st.checked.get_mut(&key) {
        Some(e) => {
            if need > e.0 {
                *e = (need, is_static);
            } else if need == e.0 {
                e.1 |= is_static;
            }
        }
        None => {
            st.checked.insert(key, (need, is_static));
        }
    }
}

// ─────────────────────────────── structured tree ─────────────────────────

enum Node {
    Plain(u32),
    Block(BlockType, Vec<Node>),
    /// A loop with its header pc (the `Loop` opcode).
    Loop(BlockType, Vec<Node>, u32),
    If(BlockType, Vec<Node>, Vec<Node>),
}

enum Term {
    End,
    Else,
    Eof,
}

fn parse_seq(body: &[Instr], pos: &mut usize) -> (Vec<Node>, Term) {
    let mut out = Vec::new();
    while *pos < body.len() {
        let pc = *pos;
        *pos += 1;
        match &body[pc] {
            Instr::Block(bt) => {
                let (inner, _) = parse_seq(body, pos);
                out.push(Node::Block(*bt, inner));
            }
            Instr::Loop(bt) => {
                let (inner, _) = parse_seq(body, pos);
                out.push(Node::Loop(*bt, inner, pc as u32));
            }
            Instr::If(bt) => {
                let (then_b, t) = parse_seq(body, pos);
                let else_b = if matches!(t, Term::Else) {
                    parse_seq(body, pos).0
                } else {
                    Vec::new()
                };
                out.push(Node::If(*bt, then_b, else_b));
            }
            Instr::Else => return (out, Term::Else),
            Instr::End => return (out, Term::End),
            _ => out.push(Node::Plain(pc as u32)),
        }
    }
    (out, Term::Eof)
}

fn collect_written_locals(nodes: &[Node], body: &[Instr], out: &mut Vec<u32>) {
    for n in nodes {
        match n {
            Node::Plain(pc) => {
                if let Instr::LocalSet(l) | Instr::LocalTee(l) = &body[*pc as usize] {
                    if !out.contains(l) {
                        out.push(*l);
                    }
                }
            }
            Node::Block(_, b) | Node::Loop(_, b, _) => collect_written_locals(b, body, out),
            Node::If(_, t, e) => {
                collect_written_locals(t, body, out);
                collect_written_locals(e, body, out);
            }
        }
    }
}

/// The widening thresholds for one function: every i32 constant that
/// reaches an i32 comparison operand, plus `c + 1`. A constant reaches one
/// when it is directly an operand of an `i32.{eq,ne,lt,gt,le,ge}`, or when
/// it is stored in an i32 local all of whose `local.set`/`local.tee`s store
/// constants (a loop-bound local; a declared local's zero-initialization
/// counts as a store). Constants no comparison reads — multipliers, masks,
/// shift amounts — cannot be a loop bound, and each extra threshold below
/// a bound costs one more probe of the loop body per widening step.
fn widening_thresholds(fmeta: &FuncMeta, body: &[Instr]) -> Vec<u64> {
    use Instr::*;
    let height = |pc: usize| fmeta.height_at.get(pc).map_or(0, |&h| h as usize);
    // The constant in each operand-stack slot, if it holds one, kept in
    // step with the validator's per-pc stack heights.
    let mut slots: Vec<Option<u32>> = Vec::new();
    // Per local, the constants it stores while every store is a constant.
    let n_params = fmeta.n_params as usize;
    let mut stores: Vec<Option<Vec<u32>>> = fmeta
        .local_types
        .iter()
        .enumerate()
        .map(|(i, &t)| (t == ValType::I32).then(|| if i < n_params { vec![] } else { vec![0] }))
        .collect();
    let mut out = Vec::new();
    for (pc, ins) in body.iter().enumerate() {
        match ins {
            I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS
            | I32GeU => out.extend(slots.iter().rev().take(2).flatten()),
            LocalSet(l) | LocalTee(l) => {
                if let Some(s) = stores.get_mut(*l as usize) {
                    match (s.as_mut(), slots.last().copied().flatten()) {
                        (Some(v), Some(c)) => v.push(c),
                        _ => *s = None,
                    }
                }
            }
            _ => {}
        }
        slots.resize(height(pc + 1), None);
        // Only `i32.const` leaves a constant on top. (After an instruction
        // that pushes nothing this also forgets the value below, which no
        // comparison operand in straight-line code can be.)
        if let Some(top) = slots.last_mut() {
            *top = match ins {
                I32Const(c) => Some(*c as u32),
                _ => None,
            };
        }
    }
    out.extend(stores.into_iter().flatten().flatten());
    let mut thresholds: Vec<u64> = out
        .into_iter()
        .flat_map(|c| [u64::from(c), (u64::from(c) + 1).min(U32_MAX)])
        .collect();
    thresholds.sort_unstable();
    thresholds.dedup();
    thresholds
}

// ────────────────────────────────── control frames ───────────────────────

struct Frame {
    is_loop: bool,
    entry_height: usize,
    keep: usize,
    /// Forward-branch merge (blocks/ifs).
    merged: Option<State>,
    /// Back-edge merge (loops).
    backedge: Option<State>,
}

fn merge_into(slot: &mut Option<State>, s: State) {
    match slot {
        Some(m) => *m = join_state(m, &s),
        None => *slot = Some(s),
    }
}

// ──────────────────────────────────── analyzer ───────────────────────────

struct Analyzer<'m> {
    module: &'m Module,
    fmeta: &'m FuncMeta,
    body: &'m [Instr],
    mem_min: u64,
    mem_max: u64,
    /// Widening thresholds ([`widening_thresholds`]).
    thresholds: Vec<u64>,
    kinds: Vec<CheckKind>,
    summary: FuncSummary,
    /// Largest end-of-access EA over bounded addresses, and whether any
    /// address is unbounded, for `check_free_min_bytes`.
    max_needed: u64,
    any_unbounded: bool,
    /// Plan/summary writes happen only on the single recording pass over
    /// each instruction; loop fixpoint probes run with this off.
    recording: bool,
    clamp_ok: Vec<u32>,
    /// The last `(entry, stabilized header)` pair per loop pc.
    headers: BTreeMap<u32, (State, State)>,
    /// Loop-body probes run so far (bounds the fixpoint work in tests).
    #[cfg(test)]
    probes: std::rc::Rc<std::cell::Cell<u64>>,
}

impl<'m> Analyzer<'m> {
    fn new(module: &'m Module, fmeta: &'m FuncMeta, mem_min: u64, mem_max: u64) -> Analyzer<'m> {
        Analyzer {
            module,
            fmeta,
            body: &[],
            mem_min,
            mem_max,
            thresholds: Vec::new(),
            kinds: Vec::new(),
            summary: FuncSummary::default(),
            max_needed: 0,
            any_unbounded: false,
            recording: true,
            clamp_ok: Vec::new(),
            headers: BTreeMap::new(),
            #[cfg(test)]
            probes: Default::default(),
        }
    }

    fn run(mut self, body: &'m [Instr]) -> FuncPlan {
        self.body = body;
        self.kinds = vec![CheckKind::Emit; body.len()];
        self.thresholds = widening_thresholds(self.fmeta, body);

        let n_params = self.fmeta.n_params as usize;
        let locals = self
            .fmeta
            .local_types
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if i < n_params {
                    AbsVal::top()
                } else {
                    // Declared locals are zero-initialized; numerically
                    // [0, 0] regardless of type.
                    AbsVal::cst(0)
                }
            })
            .collect();
        let mut st = State {
            locals,
            stack: Vec::new(),
            checked: BTreeMap::new(),
            rel: BTreeMap::new(),
            live: true,
        };

        let mut pos = 0usize;
        let (tree, _) = parse_seq(body, &mut pos);
        let mut frames = vec![Frame {
            is_loop: false,
            entry_height: 0,
            keep: usize::from(self.fmeta.result.is_some()),
            merged: None,
            backedge: None,
        }];
        self.exec_seq(&tree, &mut st, &mut frames, 0);

        self.summary.check_free_min_bytes = if self.summary.accesses == 0 {
            Some(0)
        } else if self.any_unbounded {
            None
        } else {
            Some(self.max_needed)
        };
        self.clamp_ok.sort_unstable();
        self.clamp_ok.dedup();
        FuncPlan {
            kinds: self.kinds,
            clamp_ok: self.clamp_ok,
            summary: self.summary,
        }
    }

    // ── structured execution ───────────────────────────────────────

    fn exec_seq(&mut self, nodes: &[Node], st: &mut State, frames: &mut Vec<Frame>, floor: usize) {
        for n in nodes {
            if !st.live {
                return;
            }
            match n {
                Node::Plain(pc) => self.step(*pc as usize, st, frames, floor),
                Node::Block(bt, inner) => {
                    let eh = st.stack.len();
                    let keep = bt.arity();
                    frames.push(Frame {
                        is_loop: false,
                        entry_height: eh,
                        keep,
                        merged: None,
                        backedge: None,
                    });
                    self.exec_seq(inner, st, frames, floor);
                    let fr = frames.pop().expect("block frame");
                    block_exit(st, fr.merged, eh, keep);
                }
                Node::Loop(bt, inner, loop_pc) => {
                    self.exec_loop(*bt, inner, *loop_pc, st, frames, floor)
                }
                Node::If(bt, then_b, else_b) => {
                    self.exec_if(*bt, then_b, else_b, st, frames, floor)
                }
            }
        }
    }

    fn exec_if(
        &mut self,
        bt: BlockType,
        then_b: &[Node],
        else_b: &[Node],
        st: &mut State,
        frames: &mut Vec<Frame>,
        floor: usize,
    ) {
        let cond = st.stack.pop().expect("validated if condition");
        let eh = st.stack.len();
        let keep = bt.arity();
        let mut then_s = st.clone();
        let mut else_s = std::mem::replace(st, then_s.clone());
        // Interval gating: a constant condition kills the untaken arm
        // entirely (e.g. a loop's `n > 0` pre-test on a constant `n`).
        if cond.hi == 0 {
            then_s.live = false;
        }
        if cond.lo > 0 {
            else_s.live = false;
        }
        if let Some(p) = cond.pred {
            refine(&mut then_s, &p, true);
            refine(&mut else_s, &p, false);
        }
        frames.push(Frame {
            is_loop: false,
            entry_height: eh,
            keep,
            merged: None,
            backedge: None,
        });
        if then_s.live {
            self.exec_seq(then_b, &mut then_s, frames, floor);
        }
        if else_s.live {
            self.exec_seq(else_b, &mut else_s, frames, floor);
        }
        let fr = frames.pop().expect("if frame");
        let mut acc: Option<State> = None;
        for s in [then_s, else_s] {
            if s.live {
                merge_into(&mut acc, s);
            }
        }
        if let Some(m) = fr.merged {
            merge_into(&mut acc, m);
        }
        match acc {
            Some(out) => *st = out,
            None => {
                st.live = false;
                st.stack.truncate(eh);
                st.stack.extend(std::iter::repeat_n(AbsVal::top(), keep));
            }
        }
    }

    fn exec_loop(
        &mut self,
        bt: BlockType,
        inner: &[Node],
        loop_pc: u32,
        st: &mut State,
        frames: &mut Vec<Frame>,
        floor: usize,
    ) {
        let eh = st.stack.len();
        let keep = bt.arity();
        if !st.live {
            block_exit(st, None, eh, keep);
            return;
        }
        // An enclosing loop's fixpoint re-enters this loop once per probe,
        // and its final pass re-enters it from the same state as its last
        // probe did: reuse the header stabilized for an identical entry
        // state instead of re-solving this loop (and the nest below it).
        let entry = st.clone();
        let header = match self.headers.get(&loop_pc) {
            Some((e, h)) if *e == entry => h.clone(),
            _ => {
                let h = self.stabilize(inner, &entry, frames);
                self.headers.insert(loop_pc, (entry, h.clone()));
                h
            }
        };

        // The single recording pass, from the stabilized header, with
        // forward exits live.
        *st = header;
        frames.push(Frame {
            is_loop: true,
            entry_height: eh,
            keep: 0,
            merged: None,
            backedge: None,
        });
        self.exec_seq(inner, st, frames, floor);
        frames.pop();
        block_exit(st, None, eh, keep);
    }

    /// The loop's stabilized header state for `entry`: a widening
    /// fixpoint followed by verified narrowing. Every probe runs without
    /// recording and sandboxed to the loop frame, so the result depends
    /// only on `(loop, entry)` — which is what lets [`Analyzer::exec_loop`]
    /// reuse it.
    fn stabilize(&mut self, inner: &[Node], entry: &State, frames: &mut Vec<Frame>) -> State {
        let eh = entry.stack.len();
        let saved_rec = self.recording;
        // Widening fixpoint over the header state. Probes run without
        // recording and with forward exits sandboxed (outer merges would
        // double-count); widening jumps `hi` to the next program constant
        // (threshold widening) so `i < N` loop bounds are found exactly,
        // and a short narrowing phase recovers the `[0, N-1]` header after
        // an overshoot.
        let mut header = entry.clone();
        let mut last_cand: Option<State>;
        let max_iters = self.thresholds.len() + 8;
        let mut it = 0usize;
        loop {
            if it >= max_iters {
                header = self.conservative_header(entry, inner);
                last_cand = None;
                break;
            }
            match self.probe(inner, &header, eh, frames) {
                None => {
                    // Body never reaches the back-edge: one trip from entry.
                    header = entry.clone();
                    last_cand = None;
                    break;
                }
                Some(be) => {
                    let cand = join_state(entry, &be);
                    if state_contains(&header, &cand) {
                        last_cand = Some(cand);
                        break;
                    }
                    let up = join_state(&header, &cand);
                    header = if it >= 2 {
                        self.widen(&header, &up)
                    } else {
                        up
                    };
                }
            }
            it += 1;
        }
        // Narrowing: each candidate is accepted only after verifying it is
        // itself a post-fixpoint, so the result stays sound even though
        // refinement is not exactly monotone.
        for _ in 0..2 {
            let Some(cand) = last_cand.take() else { break };
            if cand == header {
                break;
            }
            let next = match self.probe(inner, &cand, eh, frames) {
                None => entry.clone(),
                Some(be) => join_state(entry, &be),
            };
            if state_contains(&cand, &next) {
                header = cand;
                last_cand = Some(next);
            } else {
                break;
            }
        }
        self.recording = saved_rec;
        header
    }

    /// One non-recording pass over a loop body from `header`; returns the
    /// merged back-edge state, if any. Branches past the loop frame are
    /// dropped (they only mark the path dead).
    fn probe(
        &mut self,
        inner: &[Node],
        header: &State,
        eh: usize,
        frames: &mut Vec<Frame>,
    ) -> Option<State> {
        #[cfg(test)]
        self.probes.set(self.probes.get() + 1);
        let mut s = header.clone();
        frames.push(Frame {
            is_loop: true,
            entry_height: eh,
            keep: 0,
            merged: None,
            backedge: None,
        });
        let inner_floor = frames.len() - 1;
        self.recording = false;
        self.exec_seq(inner, &mut s, frames, inner_floor);
        frames.pop().expect("loop frame").backedge
    }

    /// Fixpoint failed to converge: fall back to the entry state with
    /// every local the loop writes at ⊤ and all facts dropped. Sound: the
    /// body cannot produce values outside ⊤ for written locals, cannot
    /// touch the others, and re-establishes facts itself.
    fn conservative_header(&self, entry: &State, inner: &[Node]) -> State {
        let mut h = entry.clone();
        let mut written = Vec::new();
        collect_written_locals(inner, self.body, &mut written);
        for l in written {
            h.locals[l as usize] = AbsVal::top();
            h.strip_local(l);
        }
        h.checked.clear();
        h
    }

    fn widen(&self, old: &State, up: &State) -> State {
        let mut w = up.clone();
        for (wv, ov) in w
            .locals
            .iter_mut()
            .chain(w.stack.iter_mut())
            .zip(old.locals.iter().chain(old.stack.iter()))
        {
            if wv.lo < ov.lo {
                wv.lo = self
                    .thresholds
                    .iter()
                    .rev()
                    .find(|&&t| t <= wv.lo)
                    .copied()
                    .unwrap_or(0);
            }
            if wv.hi > ov.hi {
                wv.hi = self
                    .thresholds
                    .iter()
                    .find(|&&t| t >= wv.hi)
                    .copied()
                    .unwrap_or(U32_MAX);
            }
        }
        w
    }

    // ── branching ──────────────────────────────────────────────────

    fn do_branch(&mut self, s: &State, frames: &mut [Frame], floor: usize, depth: usize) {
        if !s.live {
            return;
        }
        let idx = frames.len() - 1 - depth;
        let fr = &mut frames[idx];
        let mut t = s.clone();
        if fr.is_loop {
            t.stack.truncate(fr.entry_height);
            if idx >= floor {
                merge_into(&mut fr.backedge, t);
            }
        } else {
            let kept: Vec<AbsVal> = (0..fr.keep)
                .map(|_| t.stack.pop().expect("validated branch"))
                .collect();
            t.stack.truncate(fr.entry_height);
            t.stack.extend(kept.into_iter().rev());
            if idx >= floor {
                merge_into(&mut fr.merged, t);
            }
        }
    }

    // ── the per-access decision ────────────────────────────────────

    fn decide(&mut self, pc: usize, addr: &AbsVal, offset: u32, size: u32, st: &mut State) {
        let extent = u64::from(offset) + u64::from(size);
        let end_min = addr.lo + extent;
        let end_max = addr.hi + extent;
        let mut dom_static = false;
        let kind = if end_max <= self.mem_min {
            CheckKind::ElideInBounds
        } else if end_min > self.mem_max {
            CheckKind::StaticOob
        } else if let Some(sym) = addr.sym {
            let key = (sym.local, sym.shift);
            let need = sym.addend + extent;
            match st.checked.get(&key) {
                Some(&(have, st_have)) if have >= need => {
                    dom_static = st_have;
                    CheckKind::ElideDominated
                }
                _ => {
                    record_fact(st, key, need, false);
                    CheckKind::Emit
                }
            }
        } else {
            CheckKind::Emit
        };
        if kind == CheckKind::ElideInBounds {
            // A statically proven bound is also a dominating fact — a
            // *static* one, consumable under clamp too.
            if let Some(sym) = addr.sym {
                record_fact(st, (sym.local, sym.shift), sym.addend + extent, true);
            }
        }
        if kind == CheckKind::StaticOob {
            st.live = false;
        }
        if self.recording {
            self.kinds[pc] = kind;
            self.summary.accesses += 1;
            match kind {
                CheckKind::Emit => self.summary.emitted += 1,
                CheckKind::ElideInBounds => self.summary.elided_in_bounds += 1,
                CheckKind::ElideDominated => self.summary.elided_dominated += 1,
                CheckKind::StaticOob => self.summary.static_oob += 1,
            }
            if kind == CheckKind::ElideDominated && dom_static {
                self.clamp_ok.push(pc as u32);
            }
            if addr.hi == U32_MAX {
                self.any_unbounded = true;
            } else {
                self.max_needed = self.max_needed.max(end_max);
            }
        }
    }

    // ── instruction step ───────────────────────────────────────────

    #[allow(clippy::too_many_lines)]
    fn step(&mut self, pc: usize, st: &mut State, frames: &mut [Frame], floor: usize) {
        use Instr::*;
        let instr = &self.body[pc];
        match instr {
            Unreachable => st.live = false,
            Nop => {}
            Block(_) | Loop(_) | If(_) | Else | End => {
                unreachable!("structured ops handled by the tree walk")
            }
            Br(d) => {
                self.do_branch(st, frames, floor, *d as usize);
                st.live = false;
            }
            BrIf(d) => {
                let cond = st.stack.pop().expect("validated br_if");
                if cond.hi != 0 {
                    let mut taken = st.clone();
                    if let Some(p) = cond.pred {
                        refine(&mut taken, &p, true);
                    }
                    self.do_branch(&taken, frames, floor, *d as usize);
                }
                if cond.lo > 0 {
                    st.live = false;
                } else if let Some(p) = cond.pred {
                    refine(st, &p, false);
                }
            }
            BrTable(t) => {
                let _sel = st.stack.pop();
                for d in t.targets.iter().chain(std::iter::once(&t.default)) {
                    let s = st.clone();
                    self.do_branch(&s, frames, floor, *d as usize);
                }
                st.live = false;
            }
            Return => {
                self.do_branch(st, frames, floor, frames.len() - 1);
                st.live = false;
            }
            Call(fi) => {
                let ty = self.module.func_type(*fi).expect("validated call");
                for _ in 0..ty.params.len() {
                    st.stack.pop().expect("validated call args");
                }
                if ty.result().is_some() {
                    st.stack.push(AbsVal::top());
                }
                // Calls cannot touch our locals, and linear memory only
                // grows, so intervals and facts survive.
            }
            CallIndirect(ti) => {
                let ty = &self.module.types[*ti as usize];
                st.stack.pop(); // table index
                for _ in 0..ty.params.len() {
                    st.stack.pop();
                }
                if ty.result().is_some() {
                    st.stack.push(AbsVal::top());
                }
            }
            Drop => {
                st.stack.pop();
            }
            Select => {
                let _c = st.stack.pop();
                let b = st.stack.pop().expect("validated select");
                let a = st.stack.pop().expect("validated select");
                st.stack.push(join_val(&a, &b));
            }

            LocalGet(l) => {
                let mut v = st.locals[*l as usize];
                v.sym = Some(Sym {
                    local: *l,
                    shift: 0,
                    addend: 0,
                });
                st.stack.push(v);
            }
            LocalSet(l) | LocalTee(l) => {
                let tee = matches!(instr, LocalTee(_));
                let mut v = if tee {
                    *st.stack.last().expect("validated tee")
                } else {
                    st.stack.pop().expect("validated set")
                };
                if tee {
                    st.stack.pop();
                }
                st.strip_local(*l);
                // The stored value may itself mention the local being
                // overwritten (`i = i + 1`): relative to the *new* value
                // it is exactly the local.
                if v.sym.is_some_and(|s| s.local == *l) {
                    v.sym = None;
                }
                if v.pred.is_some_and(|p| p.mentions(*l)) {
                    v.pred = None;
                }
                // An exact copy of another local (`end = n`) makes the
                // two equal: record both ≤ directions so either can serve
                // as the other's loop-invariant bound.
                if let Some(m) = v.as_local() {
                    st.add_rel(*l, m, false);
                    st.add_rel(m, *l, false);
                }
                let mut stored = v;
                stored.sym = None;
                st.locals[*l as usize] = stored;
                if tee {
                    let mut top = v;
                    top.sym = Some(Sym {
                        local: *l,
                        shift: 0,
                        addend: 0,
                    });
                    st.stack.push(top);
                }
            }
            GlobalGet(_) => st.stack.push(AbsVal::top()),
            GlobalSet(_) => {
                st.stack.pop();
            }

            MemorySize => {
                st.stack
                    .push(AbsVal::iv(self.mem_min >> 16, self.mem_max >> 16));
            }
            MemoryGrow => {
                st.stack.pop();
                st.stack.push(AbsVal::top());
            }

            I32Const(v) => st.stack.push(AbsVal::cst(*v as u32)),
            I64Const(_) | F32Const(_) | F64Const(_) => st.stack.push(AbsVal::top()),

            I32Add => self.binop(st, abs_add),
            I32Sub => {
                let b = st.stack.pop().expect("validated binop");
                let a = st.stack.pop().expect("validated binop");
                let mut r = abs_sub(&a, &b);
                // Interval subtraction gave up, but a relational fact
                // `b <u a` proves `a - b` cannot wrap: it lies in
                // [strict, a.hi - b.lo].
                if r.lo == 0 && r.hi == U32_MAX {
                    if let (Some(la), Some(lb)) = (a.as_local(), b.as_local()) {
                        if b.lo <= a.hi {
                            if let Some(strict) = st.rel_lt(lb, la) {
                                r = AbsVal::iv(u64::from(strict), a.hi - b.lo);
                            }
                        }
                    }
                }
                st.stack.push(r);
            }
            I32Mul => self.binop(st, abs_mul),
            I32And => self.binop(st, abs_and),
            I32Shl => self.binop(st, abs_shl),
            I32ShrU => self.binop(st, abs_shr_u),
            I32Or | I32Xor => self.binop(st, |a, b| {
                match (a.as_const(), b.as_const()) {
                    (Some(_), Some(_)) => { /* folded below */ }
                    _ => return AbsVal::top(),
                }
                // Exact fold for constants (rare but free).
                let (x, y) = (a.lo as u32, b.lo as u32);
                AbsVal::cst(if matches!(instr, I32Or) { x | y } else { x ^ y })
            }),

            I32Eqz => {
                let a = st.stack.pop().expect("validated eqz");
                let v = match a.as_const() {
                    Some(c) => AbsVal::cst(u32::from(c == 0)),
                    None => {
                        let mut v = AbsVal::iv(0, 1);
                        v.pred = a.pred.map(|p| Pred {
                            op: p.op.inverse(),
                            ..p
                        });
                        // `x == 0` on a known-nonzero interval folds false.
                        if a.lo > 0 {
                            v = AbsVal::cst(0);
                        }
                        v
                    }
                };
                st.stack.push(v);
            }
            I32Eq => self.cmp(st, CmpOp::Eq),
            I32Ne => self.cmp(st, CmpOp::Ne),
            I32LtS => self.cmp(st, CmpOp::LtS),
            I32LtU => self.cmp(st, CmpOp::LtU),
            I32GtS => self.cmp(st, CmpOp::GtS),
            I32GtU => self.cmp(st, CmpOp::GtU),
            I32LeS => self.cmp(st, CmpOp::LeS),
            I32LeU => self.cmp(st, CmpOp::LeU),
            I32GeS => self.cmp(st, CmpOp::GeS),
            I32GeU => self.cmp(st, CmpOp::GeU),

            // Remaining two-operand ops: pop 2, push ⊤.
            I32DivS | I32DivU | I32RemS | I32RemU | I32ShrS | I32Rotl | I32Rotr | I64Add
            | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU | I64And | I64Or | I64Xor
            | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr | I64Eq | I64Ne | I64LtS | I64LtU
            | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS | I64GeU | F32Eq | F32Ne | F32Lt
            | F32Gt | F32Le | F32Ge | F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge | F32Add
            | F32Sub | F32Mul | F32Div | F32Min | F32Max | F32Copysign | F64Add | F64Sub
            | F64Mul | F64Div | F64Min | F64Max | F64Copysign => {
                st.stack.pop();
                st.stack.pop();
                st.stack.push(AbsVal::top());
            }
            // Remaining one-operand ops: pop 1, push ⊤.
            I32Clz | I32Ctz | I32Popcnt | I64Clz | I64Ctz | I64Popcnt | I64Eqz | F32Abs
            | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt | F64Abs | F64Neg
            | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt | I32WrapI64 | I64ExtendI32S
            | I64ExtendI32U | I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U
            | I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U | F32ConvertI32S
            | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U | F64ConvertI32S
            | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U | F32DemoteF64 | F64PromoteF32
            | I32ReinterpretF32 | I64ReinterpretF64 | F32ReinterpretI32 | F64ReinterpretI64 => {
                st.stack.pop();
                st.stack.push(AbsVal::top());
            }

            other => {
                let acc = other
                    .mem_access()
                    .unwrap_or_else(|| unreachable!("unhandled instruction {other:?}"));
                if acc.is_store {
                    st.stack.pop(); // value
                    let addr = st.stack.pop().expect("validated store");
                    self.decide(pc, &addr, acc.memarg.offset, acc.bytes, st);
                } else {
                    let addr = st.stack.pop().expect("validated load");
                    self.decide(pc, &addr, acc.memarg.offset, acc.bytes, st);
                    // Narrow loads have known result ranges — useful for
                    // masked-address chains.
                    let v = match (acc.bytes, acc.sign_extend, acc.ty) {
                        (1, false, ValType::I32) => AbsVal::iv(0, 0xFF),
                        (2, false, ValType::I32) => AbsVal::iv(0, 0xFFFF),
                        _ => AbsVal::top(),
                    };
                    st.stack.push(v);
                }
            }
        }
    }

    fn binop(&mut self, st: &mut State, f: impl FnOnce(&AbsVal, &AbsVal) -> AbsVal) {
        let b = st.stack.pop().expect("validated binop");
        let a = st.stack.pop().expect("validated binop");
        st.stack.push(f(&a, &b));
    }

    fn cmp(&mut self, st: &mut State, op: CmpOp) {
        let b = st.stack.pop().expect("validated cmp");
        let a = st.stack.pop().expect("validated cmp");
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            let (xs, ys) = (x as u32 as i32, y as u32 as i32);
            let r = match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::LtU => x < y,
                CmpOp::LeU => x <= y,
                CmpOp::GtU => x > y,
                CmpOp::GeU => x >= y,
                CmpOp::LtS => xs < ys,
                CmpOp::LeS => xs <= ys,
                CmpOp::GtS => xs > ys,
                CmpOp::GeS => xs >= ys,
            };
            st.stack.push(AbsVal::cst(u32::from(r)));
            return;
        }
        let mut v = AbsVal::iv(0, 1);
        v.pred = Some(Pred {
            op,
            l_local: a.as_local(),
            l_iv: (a.lo, a.hi),
            r_local: b.as_local(),
            r_iv: (b.lo, b.hi),
        });
        st.stack.push(v);
    }
}

fn block_exit(st: &mut State, merged: Option<State>, eh: usize, keep: usize) {
    if st.live {
        debug_assert_eq!(st.stack.len(), eh + keep, "validated block arity");
        if let Some(m) = merged {
            *st = join_state(st, &m);
        }
    } else if let Some(m) = merged {
        *st = m;
    } else {
        st.stack.truncate(eh);
        st.stack.extend(std::iter::repeat_n(AbsVal::top(), keep));
    }
}

// ─────────────────────────────── branch refinement ───────────────────────

/// Narrow `state` assuming `pred` evaluated to `truth`. Only refines
/// operands with trivial local provenance. Unsigned comparisons refine
/// directly; signed comparisons refine whenever the *other* side is
/// provably non-negative, by intersecting the value's parts with a signed
/// region set that includes the negative (high unsigned) half where the
/// operator allows it — this is what recovers a descending induction
/// variable from its wrapped-decrement split. An empty intersection marks
/// the state dead. Afterwards, relational `a <u b` facts are recorded
/// when both sides are locals and the comparison has an unsigned reading.
fn refine(state: &mut State, pred: &Pred, truth: bool) {
    if !state.live {
        return;
    }
    let op = if truth { pred.op } else { pred.op.inverse() };
    let l_iv = pred
        .l_local
        .map_or(pred.l_iv, |l| iv_of(&state.locals[l as usize]));
    let r_iv = pred
        .r_local
        .map_or(pred.r_iv, |l| iv_of(&state.locals[l as usize]));
    if let Some(l) = pred.l_local {
        apply_constraint(state, l, op, r_iv);
    }
    if !state.live {
        return;
    }
    if let Some(r) = pred.r_local {
        apply_constraint(state, r, op.mirror(), l_iv);
    }
    if !state.live {
        return;
    }
    // Unsigned reading of the comparison, for relational facts and
    // constant feasibility: native unsigned ops pass through; signed ops
    // convert when both (post-refinement) operands are non-negative.
    const NONNEG: u64 = 0x7FFF_FFFF;
    let l_now = pred
        .l_local
        .map_or(pred.l_iv, |l| iv_of(&state.locals[l as usize]));
    let r_now = pred
        .r_local
        .map_or(pred.r_iv, |l| iv_of(&state.locals[l as usize]));
    let uop = match op {
        CmpOp::LtU | CmpOp::LeU | CmpOp::GtU | CmpOp::GeU | CmpOp::Eq | CmpOp::Ne => Some(op),
        CmpOp::LtS | CmpOp::LeS | CmpOp::GtS | CmpOp::GeS
            if l_now.1 <= NONNEG && r_now.1 <= NONNEG =>
        {
            Some(match op {
                CmpOp::LtS => CmpOp::LtU,
                CmpOp::LeS => CmpOp::LeU,
                CmpOp::GtS => CmpOp::GtU,
                CmpOp::GeS => CmpOp::GeU,
                _ => unreachable!(),
            })
        }
        _ => None,
    };
    let Some(uop) = uop else { return };
    if let (Some(l), Some(r)) = (pred.l_local, pred.r_local) {
        match uop {
            CmpOp::LtU => state.add_rel(l, r, true),
            CmpOp::LeU => state.add_rel(l, r, false),
            CmpOp::GtU => state.add_rel(r, l, true),
            CmpOp::GeU => state.add_rel(r, l, false),
            CmpOp::Eq => {
                state.add_rel(l, r, false);
                state.add_rel(r, l, false);
            }
            _ => {}
        }
    }
    // Constant-vs-constant infeasibility (e.g. a folded `0 != 0` guard).
    if pred.l_local.is_none() && pred.r_local.is_none() {
        let feasible = match uop {
            CmpOp::LtU => l_iv.0 < r_iv.1,
            CmpOp::LeU => l_iv.0 <= r_iv.1,
            CmpOp::GtU => l_iv.1 > r_iv.0,
            CmpOp::GeU => l_iv.1 >= r_iv.0,
            CmpOp::Eq => l_iv.0 <= r_iv.1 && r_iv.0 <= l_iv.1,
            CmpOp::Ne => !(l_iv.0 == l_iv.1 && r_iv.0 == r_iv.1 && l_iv.0 == r_iv.0),
            _ => true,
        };
        if !feasible {
            state.live = false;
        }
    }
}

fn iv_of(v: &AbsVal) -> (u64, u64) {
    (v.lo, v.hi)
}

/// The allowed unsigned regions (at most 2, ordered, disjoint) for a
/// value satisfying `value op other`. `None` means no information; an
/// empty vector means the constraint is infeasible.
fn constraint_regions(op: CmpOp, other: (u64, u64)) -> Option<Vec<(u64, u64)>> {
    const NONNEG: u64 = 0x7FFF_FFFF;
    const NEG_LO: u64 = 0x8000_0000;
    Some(match op {
        CmpOp::LtU => {
            if other.1 == 0 {
                vec![]
            } else {
                vec![(0, other.1 - 1)]
            }
        }
        CmpOp::LeU => vec![(0, other.1)],
        CmpOp::GtU => {
            if other.0 == U32_MAX {
                vec![]
            } else {
                vec![(other.0 + 1, U32_MAX)]
            }
        }
        CmpOp::GeU => vec![(other.0, U32_MAX)],
        CmpOp::Eq => vec![(other.0, other.1)],
        CmpOp::Ne => {
            if other.0 == other.1 {
                let c = other.0;
                let mut v = Vec::new();
                if c > 0 {
                    v.push((0, c - 1));
                }
                if c < U32_MAX {
                    v.push((c + 1, U32_MAX));
                }
                v
            } else {
                return None;
            }
        }
        // Signed comparisons against a wholly non-negative other side:
        // `<s`/`<=s` admit the negative (high unsigned) half, `>s`/`>=s`
        // confine the value to the non-negative half.
        CmpOp::LtS if other.1 <= NONNEG => {
            let mut v = Vec::new();
            if other.1 > 0 {
                v.push((0, other.1 - 1));
            }
            v.push((NEG_LO, U32_MAX));
            v
        }
        CmpOp::LeS if other.1 <= NONNEG => vec![(0, other.1), (NEG_LO, U32_MAX)],
        CmpOp::GtS if other.1 <= NONNEG => {
            if other.0 == NONNEG {
                vec![]
            } else {
                vec![(other.0 + 1, NONNEG)]
            }
        }
        CmpOp::GeS if other.1 <= NONNEG => vec![(other.0, NONNEG)],
        _ => return None,
    })
}

fn apply_constraint(state: &mut State, l: u32, op: CmpOp, other: (u64, u64)) {
    let Some(regions) = constraint_regions(op, other) else {
        return;
    };
    if regions.is_empty() {
        state.live = false;
        return;
    }
    let v = &mut state.locals[l as usize];
    let parts = v.parts();
    let mut pieces: Vec<(u64, u64)> = Vec::new();
    for &(plo, phi) in &parts {
        for &(rlo, rhi) in &regions {
            let lo = plo.max(rlo);
            let hi = phi.min(rhi);
            if lo <= hi {
                pieces.push((lo, hi));
            }
        }
    }
    if pieces.is_empty() {
        state.live = false;
        return;
    }
    v.lo = pieces[0].0;
    v.hi = pieces[pieces.len() - 1].1;
    v.split = if pieces.len() == 1 {
        None
    } else {
        // 3+ pieces collapse to (first, hull of the rest): a sound
        // superset that keeps the leading gap.
        Some((pieces[0], (pieces[1].0, pieces[pieces.len() - 1].1)))
    };
}

// ──────────────────────────────────── tests ──────────────────────────────

#[cfg(test)]
mod tests {
    use super::*;
    use lb_wasm::instr::MemArg;
    use lb_wasm::module::Function;
    use lb_wasm::types::{FuncType, Limits, MemoryType};
    use lb_wasm::validate::validate;

    /// Build a one-function module with `pages` of memory.
    fn mk(
        params: &[ValType],
        locals: &[ValType],
        pages: u32,
        body: Vec<Instr>,
    ) -> (Module, ModuleMeta) {
        let mut m = Module::new();
        m.types.push(FuncType {
            params: params.to_vec(),
            results: vec![],
        });
        m.memory = Some(MemoryType {
            limits: Limits {
                min: pages,
                max: Some(pages),
            },
        });
        m.functions.push(Function {
            type_idx: 0,
            locals: locals.to_vec(),
            body,
            name: None,
        });
        let meta = validate(&m).expect("test module validates");
        (m, meta)
    }

    fn plan_of(m: &Module, meta: &ModuleMeta) -> FuncPlan {
        analyze_module(m, meta).funcs[0].clone()
    }

    const I32: ValType = ValType::I32;

    #[test]
    fn const_addresses_prove_in_bounds_and_oob() {
        use Instr::*;
        let (m, meta) = mk(
            &[],
            &[],
            1,
            vec![
                I32Const(0),
                I32Const(7),
                I32Store(MemArg {
                    align: 2,
                    offset: 100,
                }), // pc 2: in bounds
                I32Const(65533),
                I32Load(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 4: oob (65533+4 > 65536)
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(2), CheckKind::ElideInBounds);
        assert_eq!(p.kind_at(4), CheckKind::StaticOob);
        assert_eq!(p.summary.accesses, 2);
        assert_eq!(p.summary.elided_in_bounds, 1);
        assert_eq!(p.summary.static_oob, 1);
    }

    #[test]
    fn dominated_check_elided_across_if_else_join() {
        use Instr::*;
        // A per-basic-block peephole wipes its facts at every label, so it
        // re-checks the post-join load. The analysis keeps facts that hold
        // on all paths.
        let (m, meta) = mk(
            &[I32, I32], // p0: address (unbounded), p1: condition
            &[],
            1,
            vec![
                LocalGet(0),
                I32Const(1),
                I32Store(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 2: Emit, fact (p0,0) -> 4
                LocalGet(1),
                If(BlockType::Empty),
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 6: dominated
                Drop,
                Else,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 10: dominated
                Drop,
                End,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 14: dominated *after the join*
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(2), CheckKind::Emit);
        assert_eq!(p.kind_at(6), CheckKind::ElideDominated);
        assert_eq!(p.kind_at(10), CheckKind::ElideDominated);
        assert_eq!(
            p.kind_at(14),
            CheckKind::ElideDominated,
            "fact must survive the join"
        );
        assert_eq!(p.summary.elided_dominated, 3);
    }

    #[test]
    fn reassignment_kills_dominating_fact() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                LocalGet(0),
                I32Const(1),
                I32Store(MemArg {
                    align: 0,
                    offset: 0,
                }),
                I32Const(90000), // can't re-prove: past memory, forces Emit path
                LocalSet(0),
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 6: NOT dominated
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(2), CheckKind::Emit);
        // After the reassignment the old fact is gone; the new constant
        // address is statically out of bounds (90000+4 > 65536).
        assert_eq!(p.kind_at(6), CheckKind::StaticOob);
    }

    #[test]
    fn fact_only_on_one_path_does_not_survive_join() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32, I32],
            &[],
            1,
            vec![
                LocalGet(1),
                If(BlockType::Empty),
                LocalGet(0),
                I32Const(1),
                I32Store(MemArg {
                    align: 0,
                    offset: 0,
                }), // fact only in then-arm
                End,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 7: must Emit
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(7), CheckKind::Emit);
    }

    #[test]
    fn wider_access_not_covered_by_narrower_check() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                LocalGet(0),
                I32Load8U(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 1: checks extent 1
                Drop,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 4: extent 4 > 1 → Emit
                Drop,
                LocalGet(0),
                I32Load8U(MemArg {
                    align: 0,
                    offset: 3,
                }), // pc 7: 3+1 ≤ 4 → dominated
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(1), CheckKind::Emit);
        assert_eq!(p.kind_at(4), CheckKind::Emit);
        assert_eq!(p.kind_at(7), CheckKind::ElideDominated);
    }

    #[test]
    fn shifted_provenance_tracks_through_shl() {
        use Instr::*;
        // A guard bounds p0 below 100_000 so `p0 << 3` provably does not
        // wrap (provenance survives the shift) yet the access is not
        // provably in bounds — the second identical address is dominated.
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                Block(BlockType::Empty),
                LocalGet(0),
                I32Const(100_000),
                I32GeU,
                BrIf(0),
                LocalGet(0),
                I32Const(3),
                I32Shl,
                F64Load(MemArg {
                    align: 3,
                    offset: 0,
                }), // pc 8: checks (p0<<3) extent 8
                Drop,
                LocalGet(0),
                I32Const(3),
                I32Shl,
                F64Load(MemArg {
                    align: 3,
                    offset: 0,
                }), // pc 13: dominated
                Drop,
                End,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(8), CheckKind::Emit);
        assert_eq!(p.kind_at(13), CheckKind::ElideDominated);
    }

    #[test]
    fn counted_loop_proves_all_iteration_accesses_in_bounds() {
        use Instr::*;
        // for (i = 0; i < 1000; i++) mem[i<<3] — the DSL's loop shape:
        // pre-guard, loop, body, increment, back-edge guard. 1000*8 = 8000
        // bytes < 1 page, so every access is provably in bounds.
        let n = 1000;
        let (m, meta) = mk(
            &[],
            &[I32],
            1,
            vec![
                Block(BlockType::Empty),
                LocalGet(0),
                I32Const(n),
                I32GeS,
                BrIf(0),
                Loop(BlockType::Empty),
                LocalGet(0),
                I32Const(3),
                I32Shl,
                I32Const(7),
                I32Store(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 10: in bounds
                LocalGet(0),
                I32Const(1),
                I32Add,
                LocalTee(0),
                I32Const(n),
                I32LtS,
                BrIf(0),
                End,
                End,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(
            p.kind_at(10),
            CheckKind::ElideInBounds,
            "loop induction variable must be bounded by the back-edge guard"
        );
        assert_eq!(p.summary.accesses, 1);
        // i ∈ [0, 999] → max EA = 999*8 + 4 + 0 = 7996.
        assert_eq!(p.summary.check_free_min_bytes, Some(7996));
    }

    #[test]
    fn loop_with_growing_address_stays_sound() {
        use Instr::*;
        // i starts at 0 and doubles+1 each iteration with no guard: the
        // analysis must NOT claim in-bounds for mem[i].
        let (m, meta) = mk(
            &[I32],
            &[I32],
            1,
            vec![
                Loop(BlockType::Empty),
                LocalGet(1),
                I32Load(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 2
                Drop,
                LocalGet(1),
                I32Const(1),
                I32Shl,
                I32Const(1),
                I32Add,
                LocalSet(1),
                LocalGet(0),
                BrIf(0),
                End,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(2), CheckKind::Emit);
        assert_eq!(p.summary.check_free_min_bytes, None);
    }

    #[test]
    fn masked_address_proves_in_bounds() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                LocalGet(0),
                I32Const(0x3FF8),
                I32And,
                I32Load(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 3: ≤ 0x3FF8+4 < 65536
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(3), CheckKind::ElideInBounds);
    }

    #[test]
    fn offset_overflow_is_static_oob() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32],
            &[],
            1,
            vec![
                LocalGet(0),
                I32Load(MemArg {
                    align: 2,
                    offset: u32::MAX - 2,
                }), // pc 1
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        // Even addr=0 gives EA ≥ 2^32-3+4 > 4 GiB > any wasm memory.
        assert_eq!(p.kind_at(1), CheckKind::StaticOob);
    }

    #[test]
    fn nested_loops_record_each_access_once() {
        use Instr::*;
        // for i in 0..10 { for j in 0..10 { store(i*10+j)*4 } }
        let (m, meta) = mk(
            &[],
            &[I32, I32],
            1,
            vec![
                Block(BlockType::Empty),
                LocalGet(0),
                I32Const(10),
                I32GeS,
                BrIf(0),
                Loop(BlockType::Empty),
                I32Const(0),
                LocalSet(1),
                Block(BlockType::Empty),
                LocalGet(1),
                I32Const(10),
                I32GeS,
                BrIf(0),
                Loop(BlockType::Empty),
                LocalGet(0),
                I32Const(10),
                I32Mul,
                LocalGet(1),
                I32Add,
                I32Const(2),
                I32Shl,
                I32Const(5),
                I32Store(MemArg {
                    align: 2,
                    offset: 0,
                }), // pc 22
                LocalGet(1),
                I32Const(1),
                I32Add,
                LocalTee(1),
                I32Const(10),
                I32LtS,
                BrIf(0),
                End,
                End,
                LocalGet(0),
                I32Const(1),
                I32Add,
                LocalTee(0),
                I32Const(10),
                I32LtS,
                BrIf(0),
                End,
                End,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.summary.accesses, 1, "one static access site");
        assert_eq!(p.kind_at(22), CheckKind::ElideInBounds);
        // max EA = (9*10+9)*4 + 4 = 400.
        assert_eq!(p.summary.check_free_min_bytes, Some(400));
    }

    #[test]
    fn br_table_paths_merge_conservatively() {
        use Instr::*;
        let (m, meta) = mk(
            &[I32, I32],
            &[],
            1,
            vec![
                Block(BlockType::Empty),
                Block(BlockType::Empty),
                LocalGet(1),
                BrTable(Box::new(lb_wasm::instr::BrTable {
                    targets: vec![0],
                    default: 1,
                })),
                End,
                LocalGet(0),
                I32Const(1),
                I32Store(MemArg {
                    align: 0,
                    offset: 0,
                }), // only on one path
                End,
                LocalGet(0),
                I32Load(MemArg {
                    align: 0,
                    offset: 0,
                }), // pc 10: must Emit
                Drop,
                End,
            ],
        );
        let p = plan_of(&m, &meta);
        assert_eq!(p.kind_at(10), CheckKind::Emit);
    }

    #[test]
    fn descending_loop_interval_split_proves_accesses() {
        // `for i in (0..100).rev()` store at `(i<<2)`: the descending
        // update wraps through -1 on exit, so the index interval only
        // stays useful if the analysis splits it at the wrap.
        let body = vec![
            Instr::I32Const(99),
            Instr::LocalSet(0),
            Instr::Block(BlockType::Empty),
            Instr::Loop(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::I32Const(2),
            Instr::I32Shl,
            Instr::LocalGet(0),
            Instr::I32Store(MemArg::offset(0)),
            Instr::LocalGet(0),
            Instr::I32Const(1),
            Instr::I32Sub,
            Instr::LocalTee(0),
            Instr::I32Const(0),
            Instr::I32GeS,
            Instr::BrIf(0),
            Instr::End,
            Instr::End,
            Instr::End,
        ];
        let (m, meta) = mk(&[], &[I32], 1, body);
        let plan = plan_of(&m, &meta);
        assert_eq!(plan.summary.elided_in_bounds, 1, "{:?}", plan.summary);
        assert_eq!(plan.summary.emitted, 0);
    }

    /// Two-function module: exported `go()` + internal helper, for the
    /// tests that pin call boundaries at ⊤. Returns the plans for (go,
    /// helper).
    fn two_func_plans(
        go_body: Vec<Instr>,
        go_locals: &[ValType],
        helper_ty: FuncType,
        helper_body: Vec<Instr>,
    ) -> (FuncPlan, FuncPlan) {
        let mut m = Module::new();
        m.types.push(FuncType {
            params: vec![],
            results: vec![],
        });
        m.types.push(helper_ty);
        m.memory = Some(MemoryType {
            limits: Limits {
                min: 1,
                max: Some(1),
            },
        });
        m.functions.push(Function {
            type_idx: 0,
            locals: go_locals.to_vec(),
            body: go_body,
            name: Some("go".into()),
        });
        m.functions.push(Function {
            type_idx: 1,
            locals: vec![],
            body: helper_body,
            name: None,
        });
        m.exports.push(lb_wasm::module::Export {
            name: "go".into(),
            kind: lb_wasm::module::ExportKind::Func(0),
        });
        let meta = validate(&m).expect("test module validates");
        let plan = analyze_module(&m, &meta);
        (plan.funcs[0].clone(), plan.funcs[1].clone())
    }

    #[test]
    fn defined_callee_result_is_top() {
        // helper() = 100; go() loads at helper()<<2. Every function is
        // analyzed alone, so the call result is ⊤ and the load keeps its
        // check even though helper's constant return would prove it.
        let go = vec![
            Instr::Call(1),
            Instr::I32Const(2),
            Instr::I32Shl,
            Instr::I32Load(MemArg::offset(0)),
            Instr::Drop,
            Instr::End,
        ];
        let helper = vec![Instr::I32Const(100), Instr::End];
        let (go_plan, _) = two_func_plans(
            go,
            &[],
            FuncType {
                params: vec![],
                results: vec![I32],
            },
            helper,
        );
        assert_eq!(go_plan.summary.accesses, 1);
        assert_eq!(go_plan.summary.emitted, 1);
        assert_eq!(go_plan.kind_at(3), CheckKind::Emit);
    }

    #[test]
    fn internal_callee_parameter_is_top() {
        // go() calls helper(8) and nothing else does; helper stores at
        // `p0 << 2`. The parameter is ⊤ all the same (the only caller's
        // argument is not propagated), so the store keeps its check.
        let go = vec![Instr::I32Const(8), Instr::Call(1), Instr::End];
        let helper = vec![
            Instr::LocalGet(0),
            Instr::I32Const(2),
            Instr::I32Shl,
            Instr::I32Const(7),
            Instr::I32Store(MemArg::offset(0)),
            Instr::End,
        ];
        let (_, helper_plan) = two_func_plans(
            go,
            &[],
            FuncType {
                params: vec![I32],
                results: vec![],
            },
            helper,
        );
        assert_eq!(helper_plan.summary.accesses, 1);
        assert_eq!(helper_plan.summary.emitted, 1);
        assert_eq!(helper_plan.kind_at(4), CheckKind::Emit);
    }

    #[test]
    fn dynamic_dominator_is_not_clamp_consumable() {
        // Two identical loads from a ⊤ parameter: the first emits its
        // check and records a *dynamic* fact, so the second is
        // `ElideDominated` — but NOT clamp-consumable. Under `trap` the
        // dominating guard faults on OOB, so control never reaches the
        // second load with a bad address; under `clamp` the dominator
        // only clamped its own effective address (the local still holds
        // the raw value), so the dominated access must clamp again.
        let body = vec![
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(0)),
            Instr::Drop,
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(0)),
            Instr::Drop,
            Instr::End,
        ];
        let (m, meta) = mk(&[I32], &[], 1, body);
        let plan = plan_of(&m, &meta);
        assert_eq!(plan.summary.elided_dominated, 1);
        let pc = m.functions[0]
            .body
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Instr::I32Load(_)))
            .map(|(pc, _)| pc)
            .nth(1)
            .unwrap();
        assert_eq!(plan.kind_at(pc), CheckKind::ElideDominated);
        assert!(
            !plan.clamp_elidable(pc),
            "a dynamic dominating check must not lift the clamp"
        );
    }

    /// `for l_k in 0..bounds[k]` nested `bounds.len()` deep in the DSL's
    /// `for_i32` shape (index local `2k`, end local `2k+1`), the innermost
    /// body loading at `((l_0 * b_1 + l_1) * b_2 + …) << 2` — the shape of
    /// x264's motion-search nest.
    fn counted_nest(bounds: &[i32]) -> Vec<Instr> {
        use Instr::*;
        fn level(k: usize, bounds: &[i32], out: &mut Vec<Instr>) {
            let Some(&n) = bounds.get(k) else {
                out.push(LocalGet(0));
                for (j, &b) in bounds.iter().enumerate().skip(1) {
                    out.extend([I32Const(b), I32Mul, LocalGet(2 * j as u32), I32Add]);
                }
                out.extend([I32Const(2), I32Shl, I32Load(MemArg::offset(0)), Drop]);
                return;
            };
            let (i, end) = (2 * k as u32, 2 * k as u32 + 1);
            out.extend([
                I32Const(0),
                LocalSet(i),
                I32Const(n),
                LocalSet(end),
                Block(BlockType::Empty),
                LocalGet(i),
                LocalGet(end),
                I32GeS,
                BrIf(0),
                Loop(BlockType::Empty),
            ]);
            level(k + 1, bounds, out);
            out.extend([
                LocalGet(i),
                I32Const(1),
                I32Add,
                LocalTee(i),
                LocalGet(end),
                I32LtS,
                BrIf(0),
                End,
                End,
            ]);
        }
        let mut body = Vec::new();
        level(0, bounds, &mut body);
        body.push(End);
        body
    }

    #[test]
    fn nested_loop_fixpoint_reuses_stabilized_headers() {
        // Each loop's fixpoint probes its body k + n times (widening
        // iterations + narrowing rounds); the final pass from the
        // stabilized header re-enters the inner loop from the same state
        // as the last probe, so it reuses the inner header instead of
        // re-solving the nest below: Π(k + n) probes instead of
        // Π(k + n + 1). Before header reuse this nest took 359 probes;
        // with it, 152.
        let bounds = [2, 3, 4, 5];
        let (m, meta) = mk(&[], &[I32; 8], 1, counted_nest(&bounds));
        let mem = PAGE_SIZE as u64;
        let a = Analyzer::new(&m, &meta.funcs[0], mem, mem);
        let probes = std::rc::Rc::clone(&a.probes);
        let plan = a.run(&m.functions[0].body);
        assert_eq!(plan.summary.accesses, 1);
        assert_eq!(plan.summary.elided_in_bounds, 1, "{:?}", plan.summary);
        assert_eq!(probes.get(), 152);
    }

    #[test]
    fn unrelated_constants_cost_no_probes() {
        // Constants no comparison reads are not widening thresholds, so
        // they add no widening steps. When every i32 constant was a
        // threshold, the counters climbed through 5, 6, 7, 9, 10, 11 one
        // probe at a time: this nest took 516 probes with the unrelated
        // constants and 356 without (the shift amount 2 was a step too).
        let bounds = [4, 8, 16];
        let nest = |junk: &[i32]| {
            let mut body: Vec<Instr> = junk
                .iter()
                .flat_map(|&c| [Instr::I32Const(c), Instr::Drop])
                .collect();
            body.extend(counted_nest(&bounds));
            body
        };
        let probes_for = |body: Vec<Instr>| {
            let (m, meta) = mk(&[], &[I32; 6], 1, body);
            let mem = PAGE_SIZE as u64;
            let a = Analyzer::new(&m, &meta.funcs[0], mem, mem);
            let probes = std::rc::Rc::clone(&a.probes);
            let plan = a.run(&m.functions[0].body);
            assert_eq!(plan.summary.elided_in_bounds, 1, "{:?}", plan.summary);
            probes.get()
        };
        let plain = probes_for(nest(&[]));
        let noisy = probes_for(nest(&[5, 6, 7, 9, 10, 11, 64, 95, 159, 1 << 30]));
        assert_eq!((plain, noisy), (355, 355));
    }

    #[test]
    fn thresholds_are_constants_a_comparison_reads() {
        // Param 0 is compared; local 1 stores only constants; local 2
        // stores one constant and one computed value.
        use Instr::*;
        let body = vec![
            I32Const(10),
            LocalSet(1),
            I32Const(20),
            LocalTee(1),
            Drop,
            I32Const(30),
            LocalSet(2),
            LocalGet(0),
            LocalSet(2),
            // A direct second operand and a direct first operand (with a
            // computed second operand whose own constant is not compared).
            LocalGet(0),
            I32Const(40),
            I32LtU,
            Drop,
            I32Const(50),
            LocalGet(0),
            I32Const(3),
            I32Add,
            I32GtS,
            Drop,
            // Constants a comparison reads only after other arithmetic.
            I32Const(60),
            I32Const(70),
            I32Mul,
            Drop,
            I32Const(80),
            I32Eqz,
            LocalGet(0),
            I32LtU,
            Drop,
            End,
        ];
        let (m, meta) = mk(&[I32], &[I32, I32], 1, body);
        let t = widening_thresholds(&meta.funcs[0], &m.functions[0].body);
        assert_eq!(t, [0, 1, 10, 11, 20, 21, 40, 41, 50, 51]);
    }
}
