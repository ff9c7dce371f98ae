//! RAII phase timers on a thread-local span stack.
//!
//! A [`span`] pushes its name onto the current thread's stack and starts a
//! monotonic timer; dropping the guard pops the stack, records the duration
//! into the global `span_duration_ns{span="<path>"}` histogram, and — when a
//! trace sink is installed — streams one JSONL line describing the span.
//!
//! Spans are observational only: they never feed back into the computation
//! they time, so enabling or disabling them cannot change any result bytes.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// The active span names on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The nesting depth of the current thread's span stack (0 outside spans).
#[must_use]
pub fn span_depth() -> usize {
    SPAN_STACK.with(|stack| stack.borrow().len())
}

/// An active span; ends (and records) when dropped.
///
/// Obtain one from [`span`]. The guard is inert when recording is disabled,
/// costing only the `enabled()` check.
#[must_use = "a span measures the scope it lives in; bind it to a guard variable"]
pub struct SpanGuard {
    /// `Some` only when the span actually pushed onto the stack.
    armed: Option<Armed>,
}

struct Armed {
    /// Slash-joined path from the stack root, e.g. `solve/augment/enumerate`.
    path: String,
    depth: usize,
    start: Instant,
}

/// Opens a span named `name` nested under the thread's current span (if any).
pub fn span(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { armed: None };
    }
    let (path, depth) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name.to_string());
        (stack.join("/"), stack.len())
    });
    SpanGuard {
        armed: Some(Armed {
            path,
            depth,
            start: Instant::now(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(armed) = self.armed.take() else {
            return;
        };
        let duration_ns = u64::try_from(armed.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        crate::histogram_with("span_duration_ns", &[("span", &armed.path)]).record(duration_ns);
        crate::trace::emit_span(&armed.path, armed.depth, armed.start, duration_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_unwind() {
        let _serial = crate::test_guard();
        assert_eq!(span_depth(), 0);
        {
            let _outer = span("outer");
            assert_eq!(span_depth(), 1);
            {
                let _inner = span("inner");
                assert_eq!(span_depth(), 2);
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        let h = crate::histogram_with("span_duration_ns", &[("span", "outer/inner")]);
        assert!(h.snapshot().count >= 1, "nested span must record its path");
    }

    #[test]
    fn disabled_spans_do_not_touch_the_stack() {
        let _serial = crate::test_guard();
        let was = crate::set_enabled(false);
        {
            let _guard = span("ghost");
            assert_eq!(span_depth(), 0);
        }
        crate::set_enabled(was);
    }
}
