//! What the operating system says about this process and its store directory.
//! Every reader returns 0 where `/proc` is missing, so a metric is then
//! visibly absent instead of the run failing.

use std::path::Path;

fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in bytes.
pub fn peak_resident_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}

/// Restarts the peak-resident-set watermark at the current resident set, so a
/// later [`peak_resident_bytes`] reads the peak *since now*.  Returns whether
/// the kernel accepted it (`/proc/self/clear_refs`, value 5).
pub fn reset_peak_resident() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `(user, system)` CPU seconds of this process so far.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of those.  Linux reports them in 100 Hz ticks.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| -> f64 { fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    (ticks(11) / 100.0, ticks(12) / 100.0)
}

/// Bytes this process has passed to `write` calls so far (`wchar`).
pub fn bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find(|line| line.starts_with("wchar:"))
                .and_then(|line| line.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
