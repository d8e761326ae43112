//! Spans kept in memory during a traced window and written out as
//! Chrome-trace JSON (`chrome://tracing`, Perfetto) when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per recording thread; later spans are counted, not kept.
const MAX_SPANS: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran (`fs.write`, `run_cp`, `cp.clean`, ...).
    pub name: &'static str,
    /// Recording thread (0 = CP thread, 1.. = clients).
    pub tid: u32,
    /// Start, in nanoseconds since the window began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Spans of one client op or one CP share this id.
    pub id: u64,
}

/// A thread's span buffer.
pub struct Spans {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// Empty buffer for thread `tid`; times are relative to `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Record `[start, start + dur_ns)` as `name` under `id`.
    pub fn push(&mut self, name: &'static str, start: Instant, dur_ns: u64, id: u64) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            tid: self.tid,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            id,
        });
    }

    /// Spans kept.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Render spans as Chrome-trace JSON, with `meta` (a JSON object) as
/// the trace's `otherData`.
pub fn chrome_json(spans: &[&Spans], meta: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"otherData\":");
    out.push_str(meta);
    out.push_str(",\"traceEvents\":[");
    let mut first = true;
    for s in spans.iter().flat_map(|b| b.spans()) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field;
    use serde::Value;

    #[test]
    fn chrome_json_parses_and_keeps_ids() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch, 0);
        a.push("run_cp", epoch, 5_000, 7);
        a.push("cp.clean", epoch, 3_000, 7);
        let mut b = Spans::new(epoch, 1);
        b.push("fs.write", epoch, 900, 1);
        let text = chrome_json(&[&a, &b], "{\"seed\":1}");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let events = field(&v, "traceEvents").as_seq().expect("event list");
        assert_eq!(events.len(), 3);
        assert_eq!(field(field(&events[1], "args"), "id"), &Value::UInt(7));
        assert_eq!(field(field(&v, "otherData"), "seed"), &Value::UInt(1));
    }
}
