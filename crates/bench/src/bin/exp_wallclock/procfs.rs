//! Process CPU time and peak memory, read from `/proc/self`.
//!
//! CPU time comes from the threads' `schedstat` files, which count
//! nanoseconds; `/proc/self/stat` counts 10 ms ticks, which is a twentieth
//! of what `paced_socket` uses in one window, and is only the fall-back
//! for kernels built without scheduler statistics.

use std::time::Duration;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// Linux fixes it at 100 on every architecture this benchmark runs on
/// (`sysconf(_SC_CLK_TCK)` is not reachable without libc).
const TICKS_PER_SECOND: u64 = 100;

/// Parses `utime + stime` (all threads, in clock ticks) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) is parenthesised
/// and may itself contain spaces or parentheses, so fields are counted
/// from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After the comm field: state is field 3, utime 14, stime 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Parses the `VmHWM` line (peak resident set, kB) of `/proc/<pid>/status`.
pub fn parse_status_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Parses the time spent on a CPU (first field, ns) out of a
/// `/proc/<pid>/task/<tid>/schedstat` line.
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// Sum of the live threads' on-CPU time, or `None` where the kernel does
/// not keep it. Threads only come and go with a deployment, never inside
/// a measurement window, so differences of this sum are the window's CPU.
fn threads_cpu() -> Option<Duration> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let schedstat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        total += parse_schedstat_run_ns(&schedstat)?;
    }
    Some(Duration::from_nanos(total))
}

/// CPU time this process has used so far, user + system, all threads.
pub fn process_cpu() -> Duration {
    if let Some(cpu) = threads_cpu() {
        return cpu;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat");
    Duration::from_nanos(ticks * (1_000_000_000 / TICKS_PER_SECOND))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "4242 (exp) wall (clock)) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    37 5 0 0 20 0 5 0 123456 1000000 250 18446744073709551615 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(line), Some(42));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn schedstat_parser_reads_the_run_time() {
        assert_eq!(
            parse_schedstat_run_ns("123456789 4242 17\n"),
            Some(123_456_789)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("n/a 0 0"), None);
    }

    #[test]
    fn status_parser_finds_the_high_water_mark() {
        let status =
            "Name:\texp_wallclock\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_status_vm_hwm_kb("VmRSS:\t 100 kB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu();
        let mut x = 0u64;
        while process_cpu() == before {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(process_cpu() > before);
    }
}
