//! Spans taken from outside the program: the benchmark's own driver
//! brackets each call into a layer's public function.
//!
//! A span is `{name, op_id, start_ns, end_ns, parent}`. Spans stay in
//! memory and are written out once, when the pass ends. A span's *self
//! time* is its duration minus the part its direct children cover.

use algrec_serve::Json;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.record`.
    pub name: &'static str,
    /// The request the span belongs to (`u32::MAX` outside the stream).
    pub op_id: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    t0: Instant,
    op_id: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// A shareable span recorder. The durability wrapper records from inside
/// the session while the replay loop records around it, so the recorder
/// sits behind a mutex that is only ever held for one push.
#[derive(Clone)]
pub struct Tracer(Arc<Mutex<Inner>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Arc::new(Mutex::new(Inner {
            t0: Instant::now(),
            op_id: u32::MAX,
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }
}

impl Tracer {
    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0
            .lock()
            .expect("span recorder poisoned: a traced call panicked")
    }

    /// Tag subsequent spans with request `op_id`.
    pub fn set_op(&self, op_id: u32) {
        self.inner().op_id = op_id;
    }

    /// Open a span; returns its index for [`Tracer::exit`].
    pub fn enter(&self, name: &'static str) -> u32 {
        let mut t = self.inner();
        let id = t.spans.len() as u32;
        let parent = t.open.last().copied();
        let op_id = t.op_id;
        t.open.push(id);
        // Clock read last, so recorder bookkeeping stays outside the span.
        let start_ns = t.t0.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            op_id,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        id
    }

    /// Close span `id` (which must be the innermost open one).
    pub fn exit(&self, id: u32) {
        let mut t = self.inner();
        let end_ns = t.t0.elapsed().as_nanos() as u64;
        debug_assert_eq!(t.open.last(), Some(&id), "spans must nest");
        t.open.pop();
        t.spans[id as usize].end_ns = end_ns;
    }

    /// Time `f` under a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner().spans.clone()
    }
}

/// Self time of every span, nanoseconds, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p as usize] = own[p as usize].saturating_sub(span.ns());
        }
    }
    own
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e3)
        .collect()
}

/// The spans as a JSON array, for `out/<workload>.trace.json`.
pub fn to_json(spans: &[Span]) -> String {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    (
                        "op_id",
                        if s.op_id == u32::MAX {
                            Json::Null
                        } else {
                            Json::Int(i64::from(s.op_id))
                        },
                    ),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                    ),
                ])
            })
            .collect(),
    )
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            op_id: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("apply", 10, 70, Some(0)),
            span("fsync", 20, 50, Some(1)),
            span("encode", 80, 95, Some(0)),
        ];
        // request: 100 − (60 + 15); apply: 60 − 30; leaves keep it all.
        assert_eq!(self_times(&spans), vec![25, 30, 30, 15]);
        assert_eq!(durations_us(&spans, "apply"), vec![0.06]);
    }

    #[test]
    fn recorder_nests_and_tags_spans() {
        let tracer = Tracer::default();
        tracer.set_op(7);
        tracer.span("outer", || tracer.span("inner", || ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op_id),
            ("outer", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains(r#""name":"inner""#));
    }
}
