//! Process accounting read from `/proc`: CPU time and peak resident set.

use std::time::Duration;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this repository builds for).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of process `pid` (`"self"` for this one),
/// including threads that have already exited.
pub fn cpu_time(pid: &str) -> Result<Duration, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed stat field {i}"))
    };
    Ok(Duration::from_secs_f64(
        (ticks(11)? + ticks(12)?) / TICKS_PER_S,
    ))
}

/// CPU time of the live threads of process `pid`, in nanoseconds: the sum
/// of their `schedstat` run times. Finer than [`cpu_time`]'s clock ticks,
/// but blind to threads that have exited.
pub fn live_threads_cpu_ns(pid: &str) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("cannot list {dir}: {e}"))?;
    let mut total = 0;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        if let Some(ns) = std::fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        {
            total += ns;
        }
    }
    Ok(total)
}

/// CPU time of the calling thread, in nanoseconds (`schedstat` run time).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_string())
}

/// The machine's usable cores (`nproc`), at least one.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
