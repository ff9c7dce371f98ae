//! `kecss_obs` — std-only observability for the k-ECSS workspace.
//!
//! The service and the solvers were operationally blind: no counters, no
//! latency history, no queue-depth gauge — the only introspection was the
//! per-job `RoundLedger` buried inside result payloads. This crate is the
//! shared layer every other crate instruments itself with (DESIGN.md §11):
//!
//! * [`Registry`] — a process-global table of named **counters**, **gauges**
//!   and power-of-two-bucket **histograms**, rendered on demand as a
//!   Prometheus-style text exposition (the `METRICS` wire verb).
//! * [`span`] — RAII phase timers kept on a thread-local span stack; a
//!   finished span records its duration into a `span_duration_ns` histogram
//!   and, when a trace sink is installed, streams one JSONL line.
//! * [`install_trace_sink`] — a structured event sink (`kecss solve --trace`)
//!   emitting spans and ad-hoc [`event`]s as JSON Lines.
//!
//! # Out-of-band by construction
//!
//! Nothing in this crate feeds back into solver state: recording is atomic
//! stores on the side, spans only read the monotonic clock, and the sink only
//! ever *writes*. Result payloads and protocol replies are byte-identical
//! with recording enabled or disabled ([`set_enabled`], the one off switch)
//! — `tests/determinism.rs` proves it.
//!
//! The crate is std-only (atomics + `Instant`), matching the workspace's
//! no-crates.io discipline.
//!
//! # Example
//!
//! ```
//! use kecss_obs::Registry;
//!
//! let requests = kecss_obs::counter_with("doc_requests_total", &[("verb", "SUBMIT")]);
//! requests.inc();
//! let latency = kecss_obs::histogram("doc_latency_ns");
//! latency.record(1_500);
//! {
//!     let _guard = kecss_obs::span("doc_phase");
//!     // ... timed work ...
//! }
//! let text = Registry::global().render();
//! assert!(text.contains("doc_requests_total{verb=\"SUBMIT\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod span;
mod trace;

pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, BUCKETS};
pub use span::{span, span_depth, SpanGuard};
pub use trace::{clear_trace_sink, event, install_trace_sink, trace_active};

use std::sync::atomic::{AtomicBool, Ordering};

/// Serializes unit tests that flip or depend on the process-wide toggle.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Process-wide recording switch (default: enabled). Flipping it never
/// changes any payload bytes — only whether the side tables move.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Returns whether recording is active.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide (counters, gauges, histograms,
/// spans and the trace sink all honour it). Returns the previous value.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

/// Shorthand for [`Registry::global`]`.counter(name)`.
#[must_use]
pub fn counter(name: &str) -> std::sync::Arc<Counter> {
    Registry::global().counter(name)
}

/// Shorthand for [`Registry::global`]`.counter_with(name, labels)`.
#[must_use]
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> std::sync::Arc<Counter> {
    Registry::global().counter_with(name, labels)
}

/// Shorthand for [`Registry::global`]`.gauge(name)`.
#[must_use]
pub fn gauge(name: &str) -> std::sync::Arc<Gauge> {
    Registry::global().gauge(name)
}

/// Shorthand for [`Registry::global`]`.gauge_with(name, labels)`.
#[must_use]
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> std::sync::Arc<Gauge> {
    Registry::global().gauge_with(name, labels)
}

/// Shorthand for [`Registry::global`]`.histogram(name)`.
#[must_use]
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    Registry::global().histogram(name)
}

/// Shorthand for [`Registry::global`]`.histogram_with(name, labels)`.
#[must_use]
pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> std::sync::Arc<Histogram> {
    Registry::global().histogram_with(name, labels)
}
