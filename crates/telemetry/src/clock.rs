//! Monotonic nanosecond clock, usable from signal handlers, and the
//! calling thread's CPU-time clock.
//!
//! `std::time::Instant` is not guaranteed async-signal-safe and cannot be
//! turned into a raw nanosecond count portably, so we call
//! `clock_gettime(CLOCK_MONOTONIC)` directly — POSIX lists it as
//! async-signal-safe, and on Linux it is a vDSO call (no syscall in the
//! common case).

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// Current monotonic time in nanoseconds. Async-signal-safe.
#[inline]
pub fn now_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid out-pointer; CLOCK_MONOTONIC always exists.
    unsafe {
        clock_gettime(CLOCK_MONOTONIC, &mut ts);
    }
    (ts.tv_sec as u64)
        .wrapping_mul(1_000_000_000)
        .wrapping_add(ts.tv_nsec as u64)
}

/// CPU time consumed by the calling thread, in nanoseconds. Unlike
/// [`now_ns`] it does not advance while the thread is descheduled, so a
/// timing taken with it leaves out preemption by other processes.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid out-pointer; the thread CPU-time clock always
    // exists on Linux.
    unsafe {
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts);
    }
    (ts.tv_sec as u64)
        .wrapping_mul(1_000_000_000)
        .wrapping_add(ts.tv_nsec as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_nonzero() {
        let a = now_ns();
        let b = now_ns();
        assert!(a > 0);
        assert!(b >= a);
    }

    #[test]
    fn tracks_real_sleep() {
        let a = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = now_ns();
        assert!(
            b - a >= 4_000_000,
            "slept 5ms but clock advanced {}ns",
            b - a
        );
    }

    #[test]
    fn thread_cpu_time_counts_work_not_sleep() {
        let a = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let b = thread_cpu_ns();
        assert!(a > 0 && b >= a);
        assert!(
            b - a < 10_000_000,
            "slept 20ms but thread CPU time advanced {}ns",
            b - a
        );
        // Spinning advances it (the loop ends only if it does).
        while thread_cpu_ns() - b < 2_000_000 {
            std::hint::spin_loop();
        }
    }
}
