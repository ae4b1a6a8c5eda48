//! Instance-pool steady state: zero `mmap`/`munmap` and a byte-for-byte
//! stable address space while instances are reused.
//!
//! The only test in its binary: it compares whole `/proc/self/maps`
//! snapshots, and a sibling test's thread starting or exiting in between
//! (its stack, its malloc arena) would change them.

mod common;

use common::{cfg, strategies, PoolGuard};
use lb_core::{BoundsStrategy, LinearMemory};

fn maps_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn steady_state_reuse_performs_zero_mmap_and_maps_stay_stable() {
    let _p = PoolGuard::enable(4, true);
    for s in strategies() {
        // Warm-up: the first instantiations miss and map fresh memory;
        // their drops park the parts. A few rounds also settle the
        // allocator so the maps snapshot below is steady.
        for _ in 0..3 {
            let m = LinearMemory::new(&cfg(s)).unwrap();
            m.write_bytes(0, &[0xAB; 256]).unwrap();
        }
        let before = lb_core::stats::snapshot();
        let maps_before = maps_lines();
        for i in 0..10u32 {
            let m = LinearMemory::new(&cfg(s)).unwrap();
            assert!(m.from_pool(), "iteration {i} of {s} must hit the pool");
            m.write_bytes((i % 2 * 4096) as u32, &[0xCD; 512]).unwrap();
        }
        let d = lb_core::stats::snapshot().delta(&before);
        assert_eq!(d.mmap, 0, "{s}: steady-state reuse must not mmap");
        assert_eq!(d.munmap, 0, "{s}: steady-state reuse must not munmap");
        assert!(d.pool_hits >= 10, "{s}: hits {}", d.pool_hits);
        assert_eq!(d.pool_misses, 0, "{s}: no misses at steady state");
        assert_eq!(
            maps_lines(),
            maps_before,
            "{s}: the address space must be byte-for-byte stable"
        );
        if s == BoundsStrategy::Uffd {
            assert_eq!(
                d.uffd_register, 0,
                "reuse must keep the uffd registration alive"
            );
        }
        if s == BoundsStrategy::Mprotect {
            assert_eq!(
                d.mprotect, 0,
                "same-shape mprotect reuse must skip every protect call"
            );
        }
    }
}
