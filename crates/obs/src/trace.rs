//! The structured event sink: spans and ad-hoc events as JSON Lines.
//!
//! One sink is installed process-wide ([`install_trace_sink`]); until then
//! emitting is free apart from one relaxed atomic load. Each record is a
//! single JSON object per line (the schema is documented in DESIGN.md §11):
//!
//! ```text
//! {"type":"span","path":"solve/mst","depth":2,"thread":"main","start_us":12,"dur_ns":3400}
//! {"type":"event","name":"enum_fallback","thread":"w0","at_us":99,"fields":{"to":"contract"}}
//! ```
//!
//! Timestamps are microseconds since the first record of the process (a
//! monotonic epoch), so traces never depend on wall-clock time.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Cheap "is a sink installed" flag so uninstrumented runs skip the mutex.
static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);

fn sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// The process epoch traces are timestamped against.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Installs `writer` as the process-wide trace sink, replacing (and
/// flushing) any previous one. Spans and events stream to it as JSONL.
pub fn install_trace_sink(writer: Box<dyn Write + Send>) {
    let mut slot = sink().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(mut old) = slot.replace(writer) {
        let _ = old.flush();
    }
    SINK_ACTIVE.store(true, Ordering::Release);
}

/// Removes the current sink (flushing it). Subsequent spans stop streaming.
pub fn clear_trace_sink() {
    let mut slot = sink().lock().unwrap_or_else(PoisonError::into_inner);
    SINK_ACTIVE.store(false, Ordering::Release);
    if let Some(mut old) = slot.take() {
        let _ = old.flush();
    }
}

/// Whether a sink is installed and recording is enabled.
#[must_use]
pub fn trace_active() -> bool {
    crate::enabled() && SINK_ACTIVE.load(Ordering::Acquire)
}

/// Escapes a string for inclusion in a JSON string literal.
fn push_json_escaped(out: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn thread_name() -> String {
    std::thread::current().name().map_or_else(
        || format!("{:?}", std::thread::current().id()),
        String::from,
    )
}

fn write_line(line: &str) {
    let mut slot = sink().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(writer) = slot.as_mut() {
        let failed = writer.write_all(line.as_bytes()).is_err() || writer.write_all(b"\n").is_err();
        if failed {
            // A broken sink (closed pipe, full disk) must never take the
            // solver down: drop it and stop streaming.
            *slot = None;
            SINK_ACTIVE.store(false, Ordering::Release);
        }
    }
}

/// Streams one finished span (called by [`crate::SpanGuard`]'s drop).
pub(crate) fn emit_span(path: &str, depth: usize, start: Instant, duration_ns: u64) {
    if !trace_active() {
        return;
    }
    let start_us = start.saturating_duration_since(epoch()).as_micros();
    let mut line = String::with_capacity(96);
    line.push_str("{\"type\":\"span\",\"path\":\"");
    push_json_escaped(&mut line, path);
    line.push_str("\",\"depth\":");
    line.push_str(&depth.to_string());
    line.push_str(",\"thread\":\"");
    push_json_escaped(&mut line, &thread_name());
    line.push_str("\",\"start_us\":");
    line.push_str(&start_us.to_string());
    line.push_str(",\"dur_ns\":");
    line.push_str(&duration_ns.to_string());
    line.push('}');
    write_line(&line);
}

/// Streams one ad-hoc event with string fields, timestamped now.
pub fn event(name: &str, fields: &[(&str, &str)]) {
    if !trace_active() {
        return;
    }
    let at_us = Instant::now()
        .saturating_duration_since(epoch())
        .as_micros();
    let mut line = String::with_capacity(96);
    line.push_str("{\"type\":\"event\",\"name\":\"");
    push_json_escaped(&mut line, name);
    line.push_str("\",\"thread\":\"");
    push_json_escaped(&mut line, &thread_name());
    line.push_str("\",\"at_us\":");
    line.push_str(&at_us.to_string());
    line.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('"');
        push_json_escaped(&mut line, k);
        line.push_str("\":\"");
        push_json_escaped(&mut line, v);
        line.push('"');
    }
    line.push_str("}}");
    write_line(&line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A Vec<u8> sink shareable with the test body.
    #[derive(Clone, Default)]
    struct Buffer(Arc<Mutex<Vec<u8>>>);

    impl Write for Buffer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn spans_and_events_stream_as_jsonl() {
        let _serial = crate::test_guard();
        let buffer = Buffer::default();
        install_trace_sink(Box::new(buffer.clone()));
        {
            let _outer = crate::span("trace_outer");
            let _inner = crate::span("trace_inner");
            event("note", &[("key", "va\"lue")]);
        }
        clear_trace_sink();
        let bytes = buffer.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "event + two span records:\n{text}");
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[0].contains("\"key\":\"va\\\"lue\""));
        assert!(lines[1].contains("\"path\":\"trace_outer/trace_inner\""));
        assert!(lines[1].contains("\"depth\":2"));
        assert!(lines[2].contains("\"path\":\"trace_outer\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn no_sink_means_no_panic() {
        let _serial = crate::test_guard();
        clear_trace_sink();
        event("dropped", &[]);
        let _span = crate::span("unsunk");
    }
}
