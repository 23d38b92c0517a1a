//! In-memory span recorder. Spans are kept in a vector and written out
//! once, when the replay ends; `run.py` computes self times.

use std::time::Instant;

use crate::json::Json;

/// One timed call: `[start, end)` in nanoseconds since the recorder was
/// created, the enclosing span (if any), and the request it served.
pub struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`. Spans opened
    /// by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            req,
        });
        self.open.push(id);
        self.spans[id].start = self.now();
        let out = f(self);
        self.spans[id].end = self.now();
        self.open.pop();
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start)),
                        ("end_ns", Json::Int(s.end)),
                        ("parent", s.parent.map_or(Json::Null, Json::int)),
                        ("req", Json::Int(s.req)),
                    ])
                })
                .collect(),
        )
    }
}
