//! Peak-resident-set probing for the out-of-core experiment (E14).
//!
//! Linux accounts a process's resident-set high-water mark as `VmHWM` in
//! `/proc/self/status`, and lets the process reset that mark by writing `5`
//! to `/proc/self/clear_refs` (see `proc(5)`). Resetting before a workload
//! and reading `VmHWM` after it brackets the workload's peak memory without
//! any allocator instrumentation — which is exactly what E14 needs to show
//! that streaming ingest peaks near the final CSR footprint while slurping
//! peaks at CSR + whole file.
//!
//! Everything here degrades gracefully: on kernels (or sandboxes) without
//! these `/proc` files the probes return `None` and the reports print `-`
//! instead of a number.

use std::fs;

/// Reads a `kB` field such as `VmHWM` or `VmRSS` from `/proc/self/status`.
fn status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The process's resident-set high-water mark (`VmHWM`) in KiB, if the
/// kernel exposes it.
pub fn peak_rss_kb() -> Option<u64> {
    status_kb("VmHWM:")
}

/// The process's current resident set (`VmRSS`) in KiB, if the kernel
/// exposes it.
pub fn current_rss_kb() -> Option<u64> {
    status_kb("VmRSS:")
}

/// Resets the `VmHWM` high-water mark to the current resident set by
/// writing `5` to `/proc/self/clear_refs`. Returns whether the reset took.
pub fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Runs `workload` with the high-water mark freshly reset and returns its
/// result plus the peak resident set (KiB) observed during the run, or
/// `None` where `/proc` probing is unavailable.
pub fn with_peak_rss<T>(workload: impl FnOnce() -> T) -> (T, Option<u64>) {
    let armed = reset_peak();
    let out = workload();
    let peak = if armed { peak_rss_kb() } else { None };
    (out, peak)
}

/// Re-runs the current executable with `var=spec` set and parses the
/// `peak_kb=… live_kb=…` line the child prints via [`report_child_probe`].
///
/// A same-process probe understates peaks once the allocator has served (and
/// retained) an earlier workload of similar size; a fresh child process has
/// no such history, so its `VmHWM` delta is attributable to the probed
/// workload alone. Returns `(peak_delta_kb, live_delta_kb)`, or `None` when
/// spawning or probing fails (reports print `-`).
pub fn spawn_child_probe(var: &str, spec: &str) -> Option<(u64, u64)> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .env(var, spec)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut peak = None;
    let mut live = None;
    for token in text.split_whitespace() {
        if let Some(v) = token.strip_prefix("peak_kb=") {
            peak = v.parse().ok();
        }
        if let Some(v) = token.strip_prefix("live_kb=") {
            live = v.parse().ok();
        }
    }
    Some((peak?, live?))
}

/// The child side of [`spawn_child_probe`]: runs `workload` against the
/// fresh process baseline and prints the peak and live resident-set deltas
/// (the workload's result is held live for the `live_kb` sample, then
/// dropped). Call this when the agreed env var is set, then exit.
pub fn report_child_probe<T>(workload: impl FnOnce() -> T) {
    let before = current_rss_kb();
    let out = workload();
    let peak = peak_rss_kb();
    let live = current_rss_kb();
    drop(out);
    if let (Some(b), Some(p), Some(l)) = (before, peak, live) {
        println!(
            "peak_kb={} live_kb={}",
            p.saturating_sub(b),
            l.saturating_sub(b)
        );
    } else {
        println!("probe_unavailable");
    }
}

/// Formats a probe result for report tables: KiB as MiB with one decimal,
/// or `-` when probing is unavailable.
pub fn format_kb(kb: Option<u64>) -> String {
    match kb {
        Some(kb) => format!("{:.1}", kb as f64 / 1024.0),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_parse_the_status_fields() {
        // Only assert when the kernel exposes the fields at all, so the
        // suite stays green on exotic sandboxes. No peak-vs-current
        // relation is asserted: the concurrently-running reset test (and
        // allocation between the two reads) makes that racy.
        if let (Some(peak), Some(current)) = (peak_rss_kb(), current_rss_kb()) {
            assert!(peak > 0, "VmHWM parses to a positive KiB count");
            assert!(current > 0, "VmRSS parses to a positive KiB count");
        }
    }

    #[test]
    fn with_peak_rss_sees_a_large_allocation() {
        let ((), peak) = with_peak_rss(|| {
            // Touch 64 MiB so the high-water mark must move well past the
            // test harness's baseline. `black_box` keeps the optimiser from
            // dropping a block whose only read it can already answer.
            let block = std::hint::black_box(vec![7u8; 64 << 20]);
            assert_eq!(block[block.len() - 1], 7);
        });
        if let Some(peak) = peak {
            assert!(
                peak >= 64 << 10,
                "peak {peak} KiB should cover the resident 64 MiB block"
            );
        }
    }

    #[test]
    fn format_kb_handles_both_cases() {
        assert_eq!(format_kb(None), "-");
        assert_eq!(format_kb(Some(2048)), "2.0");
    }
}
