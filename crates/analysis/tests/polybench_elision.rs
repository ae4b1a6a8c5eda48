//! Acceptance: on the paper's own workloads, the analysis must statically
//! elide a substantial fraction of bounds checks under the `trap`
//! strategy (ISSUE 2 criterion: ≥ 25% on at least 3 PolyBench kernels —
//! in practice most kernels prove *every* access in-bounds, since their
//! loop bounds are compile-time constants and the DSL's array layouts fit
//! the declared minimum memory).

use lb_analysis::analyze_module;
use lb_polybench::{by_name, Dataset};

fn elision_ratio(name: &str) -> f64 {
    let bench = by_name(name, Dataset::Mini).expect("known benchmark");
    let meta = lb_wasm::validate(&bench.module).expect("polybench validates");
    let plan = analyze_module(&bench.module, &meta);
    let (accesses, elided, _emitted, _oob) = plan.totals();
    assert!(accesses > 0, "{name}: kernel has memory accesses");
    elided as f64 / accesses as f64
}

#[test]
fn at_least_a_quarter_of_checks_elided_on_representative_kernels() {
    for name in ["gemm", "atax", "mvt", "bicg", "jacobi-2d", "trisolv"] {
        let r = elision_ratio(name);
        assert!(
            r >= 0.25,
            "{name}: expected ≥25% of checks statically elided, got {:.1}%",
            100.0 * r
        );
    }
}

#[test]
fn constant_bound_kernels_prove_every_access_in_bounds() {
    // The common PolyBench shape — counted loops with constant trip
    // counts indexing constant-base arrays — is fully provable.
    for name in ["gemm", "atax", "mvt", "jacobi-2d"] {
        let r = elision_ratio(name);
        assert!(
            (r - 1.0).abs() < f64::EPSILON,
            "{name}: expected 100% elision, got {:.1}%",
            100.0 * r
        );
    }
}

#[test]
fn whole_suite_elides_a_majority_of_checks() {
    let (mut acc, mut el) = (0u64, 0u64);
    for name in lb_polybench::NAMES {
        let bench = by_name(name, Dataset::Mini).expect("known benchmark");
        let meta = lb_wasm::validate(&bench.module).expect("validates");
        let plan = analyze_module(&bench.module, &meta);
        let (a, e, _, _) = plan.totals();
        acc += a;
        el += e;
    }
    assert!(
        el * 2 > acc,
        "suite-wide elision should exceed 50% ({el}/{acc})"
    );
}

#[test]
fn check_free_memory_bound_is_reported() {
    // The footprint summary must name a finite memory size making gemm
    // check-free, and it must fit the declared memory.
    let bench = by_name("gemm", Dataset::Mini).expect("known benchmark");
    let meta = lb_wasm::validate(&bench.module).expect("validates");
    let plan = analyze_module(&bench.module, &meta);
    for f in &plan.funcs {
        let bytes = f
            .summary
            .check_free_min_bytes
            .expect("every gemm function has a bounded footprint");
        assert!(bytes <= plan.mem_min_bytes);
    }
}

#[test]
fn every_kernel_is_fully_elided() {
    // All 30 kernels prove every access, including the four whose index
    // shapes once kept some checks emitted. deriche, ludcmp and nussinov
    // count down past 0, and the wrapped-interval split recovers the
    // bounded part of the decremented counter; durbin reads `r[k - i - 1]`
    // under `i < k`, which the relational fact `i <u k` proves.
    let mut partial = Vec::new();
    for name in lb_polybench::NAMES {
        let bench = by_name(name, Dataset::Mini).expect("known benchmark");
        let meta = lb_wasm::validate(&bench.module).expect("validates");
        let plan = analyze_module(&bench.module, &meta);
        let (accesses, elided, emitted, oob) = plan.totals();
        assert_eq!(oob, 0, "{name}: no statically-OOB accesses");
        if emitted != 0 || elided != accesses {
            partial.push(format!("{name}: {elided}/{accesses} ({emitted} emitted)"));
        }
    }
    assert!(
        partial.is_empty(),
        "kernels with remaining checks:\n{}",
        partial.join("\n")
    );
}
