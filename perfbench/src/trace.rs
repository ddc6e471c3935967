//! The benchmark's own span recorder.
//!
//! A traced request has one root span — the wire round trip, or the
//! in-process coordinator call — timed where the client sent it.
//! Its children are the public calls into each layer, replayed
//! in-process one after another once the traced window has closed, so
//! recording costs the measured requests nothing but a timestamp.
//! Because the children run after their root, a span's self time is
//! its duration minus the durations of its children, not minus the
//! part of its interval they cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use crate::stats::Class;

pub type SpanId = u32;

/// Parent id of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: SpanId,
    pub req: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Recorder {
    base: Instant,
    spans: Vec<Span>,
    /// The class of each traced request, keyed by request id.
    classes: BTreeMap<u64, Class>,
}

impl Recorder {
    pub fn new(base: Instant) -> Recorder {
        Recorder {
            base,
            spans: Vec::new(),
            classes: BTreeMap::new(),
        }
    }

    /// Record a root span the client timed itself (times in ns since
    /// the run's base instant).
    pub fn root(
        &mut self,
        name: &'static str,
        req: u64,
        class: Class,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.classes.insert(req, class);
        self.push(name, req, NO_PARENT, start, end)
    }

    fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        start: u64,
        end: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        id
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let req = self.spans[parent as usize].req;
        let start = self.base.elapsed().as_nanos() as u64;
        let out = std::hint::black_box(f());
        let end = self.base.elapsed().as_nanos() as u64;
        (out, self.push(name, req, parent, start, end))
    }

    /// Write every span as tab-separated `name start_ns end_ns parent
    /// req` (parent `-` for a root).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Aggregate durations and self times by span name and request
    /// class.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.duration();
            }
        }
        let mut by_name: BTreeMap<(&'static str, usize), Agg> = BTreeMap::new();
        let mut requests = [0u64; 4];
        for c in self.classes.values() {
            requests[c.index()] += 1;
        }
        for (k, s) in self.spans.iter().enumerate() {
            let class = self.classes[&s.req];
            let agg = by_name.entry((s.name, class.index())).or_default();
            agg.count += 1;
            agg.dur_ns += s.duration();
            agg.self_ns += s.duration().saturating_sub(child_ns[k]);
        }
        Summary { by_name, requests }
    }
}

#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

pub struct Summary {
    by_name: BTreeMap<(&'static str, usize), Agg>,
    requests: [u64; 4],
}

impl Summary {
    fn agg(&self, name: &str, classes: &[Class]) -> Agg {
        let mut out = Agg::default();
        for ((n, c), a) in &self.by_name {
            if *n == name && classes.iter().any(|k| k.index() == *c) {
                out.count += a.count;
                out.dur_ns += a.dur_ns;
                out.self_ns += a.self_ns;
            }
        }
        out
    }

    /// Mean duration of one `name` span in requests of `classes`, µs
    /// (0 when no such span was recorded).
    pub fn mean_us(&self, name: &str, classes: &[Class]) -> f64 {
        let a = self.agg(name, classes);
        if a.count == 0 {
            0.0
        } else {
            a.dur_ns as f64 / a.count as f64 / 1e3
        }
    }

    /// Mean self time of one `name` span in requests of `classes`, µs.
    pub fn mean_self_us(&self, name: &str, classes: &[Class]) -> f64 {
        let a = self.agg(name, classes);
        if a.count == 0 {
            0.0
        } else {
            a.self_ns as f64 / a.count as f64 / 1e3
        }
    }

    /// Self time of every span of one layer (the span-name prefix before
    /// the first `.`), per traced request of `classes`, µs.
    pub fn layer_self_per_request_us(&self, layer: &str, classes: &[Class]) -> f64 {
        let requests: u64 = classes.iter().map(|c| self.requests[c.index()]).sum();
        if requests == 0 {
            return 0.0;
        }
        let self_ns: u64 = self
            .by_name
            .iter()
            .filter(|((n, c), _)| {
                n.split('.').next() == Some(layer) && classes.iter().any(|k| k.index() == *c)
            })
            .map(|(_, a)| a.self_ns)
            .sum();
        self_ns as f64 / requests as f64 / 1e3
    }

    pub fn requests(&self) -> u64 {
        self.requests.iter().sum()
    }

    pub fn layers(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self
            .by_name
            .keys()
            .map(|(n, _)| n.split('.').next().unwrap_or(n))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}
