//! CPU time and peak resident memory of a process, read from `/proc`, and
//! confinement of this process to one core.

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them:
/// `USER_HZ`, which Linux fixes at 100 on every architecture it builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in milliseconds from the text of `/proc/<pid>/stat`.
///
/// The second field, `(comm)`, may itself hold spaces and parentheses, so
/// the numbered fields are counted from the *last* `)`: `utime` and
/// `stime` are fields 14 and 15, the 12th and 13th after `comm`.
pub fn parse_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in bytes from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// CPU milliseconds used so far by `pid` (0 once the process is gone).
pub fn cpu_ms(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_cpu_ms(&s))
        .unwrap_or(0.0)
}

/// Peak resident set of `pid` in bytes (0 once the process is gone).
pub fn vm_hwm_bytes(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_vm_hwm_bytes(&s))
        .unwrap_or(0)
}

extern "C" {
    /// `sched_setaffinity(2)` from the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// the highest-numbered core. Returns whether the kernel accepted.
///
/// The last core, not the first: core 0 also serves the box's interrupts
/// and kernel threads (measured: one run level per process between 0.07
/// and 0.12 ms on core 0, 0.085-0.092 ms on core 1).
pub fn confine_to_last_core() -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut mask = [0u64; 16];
    let last = (cores - 1).min(64 * mask.len() - 1);
    mask[last / 64] = 1 << (last % 64);
    // SAFETY: `mask` is a live, initialised array and the size passed is
    // its size in bytes; the kernel only reads it. pid 0 is this thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 1000 200";

    #[test]
    fn plain_comm() {
        let stat = format!("4242 (e2e_bench) {TAIL}");
        assert_eq!(parse_cpu_ms(&stat), Some(3000.0)); // (250 + 50) ticks
    }

    #[test]
    fn comm_with_spaces_and_parentheses() {
        let stat = format!("4242 (my (odd) ) name) {TAIL}");
        assert_eq!(parse_cpu_ms(&stat), Some(3000.0));
        let stat = format!("4242 (a) 1 2 3 4 5 6 7 8 9 10 11 12 13) {TAIL}");
        assert_eq!(parse_cpu_ms(&stat), Some(3000.0));
    }

    #[test]
    fn truncated_or_garbled_stat_is_none() {
        assert_eq!(parse_cpu_ms("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_cpu_ms("no parenthesis at all"), None);
        assert_eq!(parse_cpu_ms("1 (x) S 1 2 3 4 5 6 7 8 9 10 abc 50"), None);
    }

    #[test]
    fn vm_hwm_in_bytes() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_bytes(status), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm_bytes("Name:\tx\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(vm_hwm_bytes(std::process::id()) > 0);
        assert_eq!(cpu_ms(u32::MAX), 0.0);
    }
}
