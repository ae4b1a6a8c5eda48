//! Helpers shared by the instance-pool integration binaries.

use lb_core::pool::{self, MemoryPoolConfig};
use lb_core::{BoundsStrategy, MemoryConfig, WASM_PAGE};

pub fn cfg(strategy: BoundsStrategy) -> MemoryConfig {
    MemoryConfig::new(strategy, 2, 8).with_reserve(16 * WASM_PAGE)
}

/// Enable pooling for the duration of a test; disables and drains on drop
/// so sibling tests (and the binary's exit) see the default state.
pub struct PoolGuard;

impl PoolGuard {
    pub fn enable(capacity: usize, verify_zero: bool) -> PoolGuard {
        pool::drain();
        pool::configure(MemoryPoolConfig {
            capacity,
            verify_zero,
        });
        PoolGuard
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        pool::configure(MemoryPoolConfig::default());
        pool::drain();
    }
}

pub fn strategies() -> Vec<BoundsStrategy> {
    BoundsStrategy::ALL
        .into_iter()
        .filter(|&s| s != BoundsStrategy::Uffd || lb_core::uffd::sigbus_mode_available())
        .collect()
}
