//! Spans recorded from outside the product: one around every call the
//! traced run makes into a layer, kept in memory and written out once the
//! run is over. A layer's self time is its spans' duration minus what their
//! child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No parent": the span is a root.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one request (or one counter run) share this.
    pub request: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was made (the spans' clock).
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant the spans' clock counts from, for threads that time
    /// their own spans and hand them over with [`Recorder::push`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let start_ns = self.now();
        self.push(name, start_ns, start_ns, parent, request)
    }

    pub fn end(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now();
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// A root span around one call.
    pub fn time<T>(&mut self, name: &'static str, request: u64, call: impl FnOnce() -> T) -> T {
        let span = self.begin(name, ROOT, request);
        let out = call();
        self.end(span);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total self time (ns) of the spans called `name`: their durations
    /// minus the parts their direct children cover.
    pub fn self_ns(&self, name: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &self.spans[s.parent as usize];
                let (from, to) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                covered[s.parent as usize] += to.saturating_sub(from);
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64)
            .sum()
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let mut rec = Recorder::new();
        let run = rec.push("run", 0, 100, ROOT, 1);
        rec.push("call", 10, 30, run, 1);
        let call = rec.push("call", 40, 70, run, 1);
        rec.push("inner", 45, 55, call, 1);
        // A child that overhangs its parent is only charged for the overlap.
        rec.push("call", 90, 120, run, 1);
        assert_eq!(rec.self_ns("run"), 100.0 - 20.0 - 30.0 - 10.0);
        assert_eq!(rec.self_ns("call"), 20.0 + (30.0 - 10.0) + 30.0);
        assert_eq!(rec.self_ns("inner"), 10.0);
        assert_eq!(rec.durations("call"), vec![20.0, 30.0, 30.0]);
        assert_eq!(rec.self_ns("absent"), 0.0);
    }
}
