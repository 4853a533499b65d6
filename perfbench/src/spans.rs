//! The benchmark's own spans: one around each call it makes into the
//! program (setup, `try_run`, `RunReport::verify`, each layer drive).
//! They are kept in memory and written out once, when the run ends, so
//! recording them never interleaves file I/O with a timed call.

use std::cell::RefCell;
use std::time::Instant;

use crate::host::json_str;

#[derive(Debug)]
struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_ns: u128,
    end_ns: u128,
}

/// An in-memory span log. Every span of one benchmark invocation shares
/// the log's `trace` identifier.
#[derive(Debug)]
pub struct Spans {
    trace: String,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new(trace: String) -> Spans {
        Spans {
            trace,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`, whose parent is the innermost
    /// span still open. Returns `f`'s value and its host duration in
    /// seconds.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.spans.borrow().len();
        let parent = self.open.borrow().last().copied();
        let start = Instant::now();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: start.duration_since(self.origin).as_nanos(),
            end_ns: 0,
        });
        self.open.borrow_mut().push(id);
        let out = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = end.duration_since(self.origin).as_nanos();
        (out, end.duration_since(start).as_secs_f64())
    }

    /// The log as a JSON object: the trace id, the host record, and every
    /// span with its self time (duration minus the time its children
    /// cover).
    pub fn json(&self, host: &str) -> String {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u128; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                let dur = s.end_ns - s.start_ns;
                format!(
                    "    {{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_str(&s.name),
                    s.start_ns,
                    s.end_ns,
                    dur.saturating_sub(child_ns[s.id])
                )
            })
            .collect();
        format!(
            "{{\n  \"trace\": {},\n  \"host\": {},\n  \"spans\": [\n{}\n  ]\n}}\n",
            json_str(&self.trace),
            host,
            rows.join(",\n")
        )
    }
}
