//! The host block written into every result, and the configuration
//! guard that refuses to run with program knobs set.

use std::fmt::Write as _;

/// CPU time counters from the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    iowait: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the counters now (zeros if `/proc/stat` is unreadable).
    pub fn read() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|v| v.parse().ok())
            .collect();
        if f.len() < 8 {
            return CpuTimes::default();
        }
        CpuTimes {
            total: f.iter().sum(),
            iowait: f[4],
            steal: f[7],
        }
    }

    /// Steal and iowait shares (%) of all CPU time since `start`.
    pub fn shares_since(&self, start: &CpuTimes) -> (f64, f64) {
        let total = self.total.saturating_sub(start.total);
        if total == 0 {
            return (0.0, 0.0);
        }
        let pct = |now: u64, then: u64| 100.0 * now.saturating_sub(then) as f64 / total as f64;
        (pct(self.steal, start.steal), pct(self.iowait, start.iowait))
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time used by every thread of this process, ns. Unlike wall time
/// it excludes time the host did not run this VM's vCPUs.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two `long`s on 64-bit
    // Linux) and the clock id is the kernel's process CPU-time clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec as u64).saturating_mul(1_000_000_000) + ts.tv_nsec as u64
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (VmHWM) in MiB; 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Names of every `LB_*` environment variable that is set. Any of them
/// would change program settings behind the benchmark's back.
pub fn lb_knobs_set() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LB_"))
        .collect()
}

/// The host block as one JSON object.
pub struct HostBlock<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Bounds strategy the workload asks for.
    pub requested: &'a str,
    /// Strategy the instances actually got.
    pub effective: &'a str,
    /// CPU counters at the start of the run.
    pub cpu_start: CpuTimes,
}

impl HostBlock<'_> {
    /// Render, reading the end-of-run CPU counters now.
    pub fn to_json(&self) -> String {
        let (steal, iowait) = CpuTimes::read().shares_since(&self.cpu_start);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"kernel\":\"{}\",\"rustc\":\"{}\",\
             \"strategy_requested\":\"{}\",\"strategy_effective\":\"{}\",\
             \"steal_pct\":{:.3},\"iowait_pct\":{:.3}}}",
            self.workload,
            self.seed,
            nproc(),
            kernel.trim(),
            env!("LBBENCH_RUSTC"),
            self.requested,
            self.effective,
            steal,
            iowait
        );
        out
    }
}
