//! Process accounting read from `/proc`: CPU time, context switches and
//! peak resident memory of the system under test and of the generator.

use std::fs;

/// Linux reports `/proc/<pid>/stat` times in units of 1/`USER_HZ`, which
/// is 100 on every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// A reading of one process (all its threads, living and exited).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcSample {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches of the living threads.
    pub ctx_switches: u64,
    /// Peak resident set (`VmHWM`), MiB.
    pub hwm_mb: f64,
}

impl ProcSample {
    /// User plus kernel CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

fn status_field(status: &str, key: &str) -> Option<f64> {
    status.lines().find_map(|l| l.strip_prefix(key))?.split_whitespace().next()?.parse().ok()
}

/// Reads process `pid`; a process that has gone reads as zeros.
pub fn sample(pid: u32) -> ProcSample {
    let mut s = ProcSample::default();
    if let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) {
        // Fields after the parenthesised command name: state is the 1st,
        // utime and stime the 12th and 13th.
        let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
        s.user_s = ticks(11) / TICKS_PER_S;
        s.sys_s = ticks(12) / TICKS_PER_S;
    }
    if let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) {
        s.hwm_mb = status_field(&status, "VmHWM:").unwrap_or(0.0) / 1024.0;
    }
    for task in fs::read_dir(format!("/proc/{pid}/task")).into_iter().flatten().flatten() {
        if let Ok(status) = fs::read_to_string(task.path().join("status")) {
            for key in ["voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"] {
                s.ctx_switches += status_field(&status, key).unwrap_or(0.0) as u64;
            }
        }
    }
    s
}

/// This process.
pub fn sample_self() -> ProcSample {
    sample(std::process::id())
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    let text = fs::read_to_string("/proc/loadavg").unwrap_or_default();
    text.split_whitespace().next().and_then(|f| f.parse().ok()).unwrap_or(0.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cpu_time_and_memory_grow() {
        let before = sample_self();
        let mut v = vec![1u64; 8 << 20];
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            for x in v.iter_mut() {
                *x = x.wrapping_mul(3);
            }
        }
        std::hint::black_box(&v);
        let after = sample_self();
        assert!(after.cpu_s() >= before.cpu_s() + 0.03, "{before:?} {after:?}");
        assert!(after.hwm_mb >= 64.0, "{after:?}");
        assert!(after.ctx_switches >= before.ctx_switches);
        assert_eq!(sample(u32::MAX), ProcSample::default());
    }
}
