//! Instance-pool contract tests: the zero-fill guarantee after dirtying
//! runs, kept-alive uffd registration, and clean degradation when pooling
//! is off or shapes change (steady-state reuse is in `pool_maps.rs`).
//!
//! Lives in its own integration binary because the pool configuration is
//! process-global; every test serializes on `TEST_LOCK` and restores the
//! disabled-pool default before returning.

mod common;

use common::{cfg, strategies, PoolGuard};
use lb_core::pool;
use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig, WASM_PAGE};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn reused_memory_reads_all_zero_after_dirtying_run() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(2, true);
    for s in strategies() {
        let init_bytes = 2 * WASM_PAGE;
        {
            let m = LinearMemory::new(&cfg(s)).unwrap();
            // Dirty every page of the initial window.
            let junk = vec![0x5Au8; init_bytes];
            m.write_bytes(0, &junk).unwrap();
            let mut check = vec![0u8; 64];
            m.read_bytes((init_bytes - 64) as u32, &mut check).unwrap();
            assert!(check.iter().all(|&b| b == 0x5A));
        }
        // Reuse observes fresh zeros everywhere (verify_zero additionally
        // asserts this inside acquire before the memory is handed out).
        let m = LinearMemory::new(&cfg(s)).unwrap();
        assert!(m.from_pool(), "{s}: second instantiation must be pooled");
        let mut buf = vec![0xFFu8; init_bytes];
        m.read_bytes(0, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == 0),
            "{s}: recycled memory leaked previous contents"
        );
    }
}

#[test]
fn uffd_reuse_faults_and_traps_like_fresh_memory() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !lb_core::uffd::sigbus_mode_available() {
        eprintln!("skipping: uffd unavailable");
        return;
    }
    let _p = PoolGuard::enable(2, false);
    {
        let m = LinearMemory::new(&cfg(BoundsStrategy::Uffd)).unwrap();
        let v = lb_core::catch_traps(|| m.load::<u64>(64, 0)).unwrap();
        assert_eq!(v, 0);
    }
    let m = LinearMemory::new(&cfg(BoundsStrategy::Uffd)).unwrap();
    assert!(m.from_pool());
    // Lazy fault service still works on the recycled registration...
    let v = lb_core::catch_traps(|| m.load::<u64>(WASM_PAGE as u32, 0)).unwrap();
    assert_eq!(v, 0);
    // ...and out-of-bounds detection is intact.
    let e = lb_core::catch_traps(|| m.load::<u8>((2 * WASM_PAGE) as u32, 0)).unwrap_err();
    assert_eq!(*e.kind(), lb_core::TrapKind::OutOfBounds);
}

#[test]
fn mprotect_reuse_restores_guard_pages_for_smaller_instances() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(2, false);
    {
        let m = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
        // Grow to 5 pages: the RW high-water mark now exceeds the next
        // instance's 2-page initial window.
        m.grow(3).unwrap();
        lb_core::catch_traps(|| m.store::<u8>((4 * WASM_PAGE) as u32, 0, 1)).unwrap();
    }
    let m = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
    assert!(m.from_pool());
    // Pages beyond the new initial size must be PROT_NONE again — OOB
    // detection takes priority over keeping the old window writable.
    let e = lb_core::catch_traps(|| m.load::<u8>((3 * WASM_PAGE) as u32, 0)).unwrap_err();
    assert_eq!(*e.kind(), lb_core::TrapKind::OutOfBounds);
    // Growing back over the restored guard range needs exactly one
    // protect call (the high-water mark was deliberately lowered).
    let before = lb_core::stats::snapshot();
    m.grow(3).unwrap();
    m.grow(0).unwrap();
    let d = lb_core::stats::snapshot().delta(&before);
    assert_eq!(d.mprotect, 1, "one protect for the regrow, none for no-ops");
    lb_core::catch_traps(|| m.store::<u8>((4 * WASM_PAGE) as u32, 0, 2)).unwrap();
}

#[test]
fn disabled_pool_never_reuses() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(0, false);
    {
        let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap();
        assert!(!m.from_pool());
    }
    assert_eq!(pool::pooled_count(), 0);
    let before = lb_core::stats::snapshot();
    let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap();
    assert!(!m.from_pool());
    let d = lb_core::stats::snapshot().delta(&before);
    assert_eq!(d.mmap, 1, "disabled pool maps fresh memory every time");
    assert_eq!(d.pool_hits, 0);
    assert_eq!(d.pool_misses, 0, "a disabled pool does not count misses");
}

#[test]
fn shape_change_evicts_instead_of_adapting() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(2, false);
    {
        let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap();
        drop(m);
    }
    assert_eq!(pool::pooled_count(), 1);
    // Same strategy, different reservation size: must miss and tear the
    // mismatched entry down rather than hand out the wrong shape.
    let big = MemoryConfig::new(BoundsStrategy::Trap, 2, 8).with_reserve(64 * WASM_PAGE);
    let before = lb_core::stats::snapshot();
    let m = LinearMemory::new(&big).unwrap();
    assert!(!m.from_pool());
    let d = lb_core::stats::snapshot().delta(&before);
    assert_eq!(d.pool_misses, 1);
    assert_eq!(d.mmap, 1);
    assert_eq!(d.munmap, 1, "the mismatched entry is unmapped");
}

#[test]
fn capacity_bounds_parked_entries() {
    let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _p = PoolGuard::enable(2, false);
    let memories: Vec<_> = (0..5)
        .map(|_| LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap())
        .collect();
    drop(memories);
    assert_eq!(
        pool::pooled_count(),
        2,
        "excess releases beyond capacity tear down"
    );
    assert_eq!(pool::drain(), 2);
    assert_eq!(pool::pooled_count(), 0);
}
