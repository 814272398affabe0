//! Process-level measurements read from procfs: peak resident set size
//! and CPU time.

use std::time::Duration;

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the
/// current RSS, so a later [`peak_rss_mb`] covers only what ran since;
/// returns that RSS in MiB.
pub fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM via /proc/self/clear_refs: {e}"))?;
    status_mb("VmRSS:")
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    Ok(kib / 1024.0)
}

/// User + system CPU time of the whole process (every thread, live or
/// exited): the `utime`/`stime` fields of `/proc/self/stat`, the same
/// counters `getrusage(RUSAGE_SELF)` reports, in clock ticks.
pub fn cpu_time() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis start at field 3.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let total = ticks(11)? + ticks(12)?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    Ok(Duration::from_millis(total * 10))
}

/// The host's available parallelism.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
