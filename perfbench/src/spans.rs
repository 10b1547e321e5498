//! In-memory span recorder for traced runs: one record per public call
//! (name, start, end, parent, request id), kept in memory during the
//! run and written out as NDJSON at the end. A disabled recorder
//! records nothing and reads no clock.

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's
/// origin; `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span; `None` when recording is off.
pub type SpanId = Option<u32>;

pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::with_capacity(1 << 16))),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The span list, or `None` when recording is off.
    fn spans(&self) -> Option<MutexGuard<'_, Vec<Span>>> {
        let m = self.spans.as_ref()?;
        Some(m.lock().expect("a thread panicked while recording a span"))
    }

    pub fn open(&self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        self.spans.as_ref()?;
        let start_ns = self.now_ns();
        let mut v = self.spans()?;
        v.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(v.len() as u32 - 1)
    }

    pub fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let end_ns = self.now_ns();
            if let Some(mut v) = self.spans() {
                v[i as usize].end_ns = end_ns;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn take(&self) -> Vec<Span> {
        self.spans()
            .map(|mut v| std::mem::take(&mut *v))
            .unwrap_or_default()
    }
}

/// Durations in ms of the spans called `name` whose request id
/// satisfies `keep`.
pub fn durations(spans: &[Span], name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s.req))
        .map(Span::ms)
        .collect()
}

/// Render spans as NDJSON, one object per line.
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.req
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_request() {
        let t = Tracer::new(true);
        let outer = t.open("call", None, 7);
        t.span("inner", outer, 7, || std::hint::black_box(1 + 1));
        t.close(outer);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(to_ndjson(&spans).lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("call", None, 1);
        assert_eq!(id, None);
        t.close(id);
        assert!(t.take().is_empty());
    }
}
