//! In-memory spans around the harness's own calls into each engine layer.
//!
//! Spans are kept in a `Vec` while the traced pass runs and written out as
//! JSON lines when the benchmark ends. A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in [`Tracer::spans`].
pub type SpanId = u32;

/// `parent` of a span nothing caused.
pub const ROOT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub rep: u32,
    /// Work done inside the span, counted where the span closes (elements
    /// of a push slice, rows of a sink delivery, bytes of a commit).
    pub n: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds since `epoch`, the clock every span is stamped with.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run is shorter than 584 years")
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub rep: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            rep: 0,
        }
    }

    /// The instant span times count from (sinks stamp against it too).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        ns_since(self.epoch)
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        self.add(name, parent, start_ns, start_ns, 0)
    }

    pub fn close(&mut self, id: SpanId, n: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.n = n;
    }

    /// Records an already-measured span.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        n: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: self.rep,
            n,
        });
        id
    }

    /// Self time of every span: duration minus its children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time, span count and work count of the spans called `name`.
    pub fn layer(&self, own: &[u64], name: &str) -> Layer {
        let mut l = Layer::default();
        for (s, o) in self.spans.iter().zip(own) {
            if s.name == name {
                l.self_ns += o;
                l.spans += 1;
                l.n += s.n;
            }
        }
        l
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{},\"n\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep, s.n
            )?;
        }
        w.flush()
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub self_ns: u64,
    pub spans: u64,
    pub n: u64,
}
