//! What the kernel reports about a process.

use std::os::raw::{c_int, c_long};

/// A `kB` field (`VmHWM`, `VmRSS`, ...) of `/proc/<pid>/status`, or of this
/// process when `pid` is `None`.
pub fn status_kb(pid: Option<u32>, field: &str) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_getcpuclockid(pid: c_int, clock: *mut c_int) -> c_int;
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

/// CPU time of process `pid` (this process when `None`), all its threads,
/// including those that have ended, in seconds.
///
/// Unlike wall-clock time, it leaves out the time the hypervisor ran other
/// tenants on this machine's virtual CPUs (steal), which on a shared host
/// changes from minute to minute.
pub fn cpu_s(pid: Option<u32>) -> Option<f64> {
    let mut clock = CLOCK_PROCESS_CPUTIME_ID;
    if let Some(pid) = pid {
        // SAFETY: `clock` is a valid, exclusively borrowed `clockid_t`
        // (an int) that the call writes on success only.
        if unsafe { clock_getcpuclockid(c_int::try_from(pid).ok()?, &mut clock) } != 0 {
            return None;
        }
    }
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, exclusively borrowed `struct timespec`
    // (two longs) that the call fills on success.
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return None;
    }
    Some(time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9)
}
