//! Spans recorded by the benchmark around its calls into each crate's
//! public functions. Nothing is recorded inside the program: a span is the
//! wall time of one call as seen from the outside. Spans are kept in memory
//! and written out as JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. When off, [`Spans::time`] only calls its closure.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; spans opened before it closes are its children.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every closed span named `name` whose
    /// parent is `parent`.
    pub fn durations_under(&self, name: &str, parent: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(Span::seconds)
            .collect()
    }

    /// The spans as a JSON document: one object per span, in start order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_off_records_nothing() {
        let mut on = Spans::new(true);
        let root = on.enter("root");
        let v = on.time("leaf", || 7);
        on.exit(root);
        assert_eq!(v, 7);
        assert_eq!(on.all().len(), 2);
        assert_eq!(on.all()[1].parent, Some(0));
        assert!(on.all()[0].end_ns >= on.all()[1].end_ns);
        assert_eq!(on.durations_under("leaf", 0).len(), 1);

        let mut off = Spans::new(false);
        let root = off.enter("root");
        off.time("leaf", || ());
        off.exit(root);
        assert!(off.all().is_empty());
    }
}
