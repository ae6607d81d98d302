//! Host fingerprint and process gauges, read from `/proc`.

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn status_field(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Live threads of this process.
pub fn threads() -> f64 {
    status_field("Threads:").unwrap_or(0.0)
}

/// Open file descriptors of this process.
pub fn open_fds() -> f64 {
    std::fs::read_dir("/proc/self/fd").map_or(0.0, |d| d.count() as f64)
}
