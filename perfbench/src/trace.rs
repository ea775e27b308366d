//! In-memory spans recorded around the benchmark's calls into each
//! layer. A span holds its name, start, end, parent and the op it serves;
//! a layer's self time is its span minus the spans nested in it. Spans
//! are written out once the run ends.

use std::io::Write;
use std::time::Instant;

/// Spans kept per run. Enough for stable medians; bounds memory on the
/// fast workloads, where a run makes millions of calls.
const SPAN_CAP: usize = 400_000;

/// No parent: the span is an op's root.
const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    /// True once the span buffer is full; callers stop tracing then.
    pub fn full(&self) -> bool {
        self.spans.len() >= SPAN_CAP
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Opens an op's root span at `start`; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, start: Instant) -> u32 {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: ROOT,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a finished child span of `parent`.
    pub fn child(&mut self, parent: u32, name: &'static str, start: Instant, end: Instant) {
        let op = self.spans[parent as usize].op;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
    }

    /// Self time in ns of every span named `name`: its duration minus the
    /// part covered by its children (children of one span never overlap,
    /// since each benchmark op issues its calls one after another).
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64)
            .collect()
    }

    /// Names of all recorded spans, first appearance order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.name) {
                out.push(s.name);
            }
        }
        out
    }

    /// Writes the spans as tab-separated `id name start_ns end_ns parent
    /// op` rows (parent `-` for a root).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ns| t0 + Duration::from_nanos(ns);
        let mut t = Tracer::new(t0);
        let root = t.open("op", 7, at(0));
        t.child(root, "a", at(10), at(40));
        t.child(root, "b", at(50), at(60));
        t.close(root, at(100));
        assert_eq!(t.self_times("op"), vec![60.0]);
        assert_eq!(t.self_times("a"), vec![30.0]);
        assert_eq!(t.names(), vec!["op", "a", "b"]);
    }
}
