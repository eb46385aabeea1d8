//! Spans around the benchmark's calls into each layer. They are kept in
//! memory and written as JSON lines when the run ends. With tracing off
//! `begin`/`end` read no clock, so the untraced run pays one branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;
const NO_SPAN: SpanId = u32::MAX;

pub struct Span {
    pub parent: SpanId,
    /// Index of the operation the span belongs to, `-1` outside any.
    pub op: i64,
    pub name: &'static str,
    pub t_start_ns: u64,
    pub t_end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.t_end_ns - self.t_start_ns
    }
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: i64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            parent,
            op,
            name,
            t_start_ns: t,
            t_end_ns: t,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].t_end_ns = self.now_ns();
        }
    }

    /// Records time a callback summed up on its own (the executor calls
    /// `on_output` once per round) as one child span of `dur_ns`.
    pub fn add_sum(&mut self, name: &'static str, parent: SpanId, op: i64, dur_ns: u64) {
        if !self.on || parent == NO_SPAN {
            return;
        }
        let t = self.spans[parent as usize].t_start_ns;
        self.spans.push(Span {
            parent,
            op,
            name,
            t_start_ns: t,
            t_end_ns: t + dur_ns,
        });
    }

    pub fn root() -> SpanId {
        NO_SPAN
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Total duration of the spans called `name` directly under a span
    /// called `parent`.
    pub fn total_ns_under(&self, name: &str, parent: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| {
                s.name == name
                    && s.parent != NO_SPAN
                    && self.spans[s.parent as usize].name == parent
            })
            .map(Span::dur_ns)
            .sum()
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span; `self_ns` is the span minus the
    /// part of it its children cover.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"t_start_ns\": {}, \"t_end_ns\": {}, \"self_ns\": {}}}",
                s.op,
                s.name,
                s.t_start_ns,
                s.t_end_ns,
                s.dur_ns().saturating_sub(child_ns[id]),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_builds_a_tree() {
        let mut t = Tracer::new();
        let s = t.begin("op", Tracer::root(), 0);
        t.end(s);
        assert_eq!(t.len(), 0);

        t.on = true;
        let rep = t.begin("rep", Tracer::root(), -1);
        let op = t.begin("op", rep, 0);
        t.add_sum("collect", op, 0, 5);
        t.end(op);
        t.end(rep);
        let stray = t.begin("op", Tracer::root(), 1);
        t.end(stray);
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_ns("collect"), 5);
        assert_eq!(t.total_ns_under("op", "rep"), t.spans[op as usize].dur_ns());
        assert!(t.total_ns("op") >= t.total_ns_under("op", "rep"));
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        t.on = true;
        let op = t.begin("op", Tracer::root(), 0);
        t.add_sum("child", op, 0, 0);
        t.end(op);
        t.spans[0].t_end_ns = t.spans[0].t_start_ns + 100;
        t.spans[1].t_end_ns = t.spans[1].t_start_ns + 30;
        let path =
            std::env::temp_dir().join(format!("e2e_bench-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        let num = |i: usize, k: &str| lines[i].get(k).unwrap().as_f64().unwrap();
        assert_eq!(num(0, "self_ns"), 70.0);
        assert_eq!(num(1, "self_ns"), 30.0);
        assert_eq!(num(1, "parent"), 0.0);
        assert_eq!(num(0, "parent"), -1.0);
    }
}
