//! In-memory span recorder for the traced run.
//!
//! A span is (name, start, end, parent, request id). Spans are kept in a
//! `Vec` while the run goes and written out once at exit. A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover (children of parallel parts may overlap each other; their
//! union is what counts).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (`start` while the span is open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request (chunk, query) share this id.
    pub request: u64,
}

/// Span store. When disabled every call is a no-op returning `None`, so
/// the same code path runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A tracer whose clock starts at `origin` (earlier than now when the
    /// spans to record were measured before it was made).
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Self {
            origin,
            ..Self::new(enabled)
        }
    }

    /// Opens a span now.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(i) = id {
            self.spans[i].end = self.ns(Instant::now());
        }
    }

    /// Records a span measured elsewhere (a worker thread's part, a
    /// query timed by the load generator).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of self times (ns) of every span called `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| self_time(s.start, s.end, kids))
            .sum()
    }

    /// Writes one tab-separated line per span: id, parent, request, name,
    /// start ns, end ns.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Self time of `[start, end)` given its children's intervals: the
/// duration minus the length of the union of the children, each clipped
/// to the parent. Sorts `children` in place.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap (union 10..50),
        // 90..120 is clipped to 90..100.
        let mut kids = vec![(90, 120), (10, 30), (20, 50)];
        assert_eq!(self_time(0, 100, &mut kids), 100 - 40 - 10);
        assert_eq!(self_time(0, 100, &mut []), 100);
        // A child nested inside another adds nothing.
        let mut nested = vec![(10, 60), (20, 30)];
        assert_eq!(self_time(0, 100, &mut nested), 50);
        // Children covering everything leave no self time.
        let mut all = vec![(0, 100)];
        assert_eq!(self_time(0, 100, &mut all), 0);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let mut t = Tracer::new(true);
        let origin = Instant::now();
        let root = t.begin("root", None, 1);
        let at = |ms: u64| origin + std::time::Duration::from_millis(ms);
        t.record("part", root, 1, at(0), at(1));
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        let root_len = t.spans()[0].end - t.spans()[0].start;
        assert!(t.self_ns("root") <= root_len);

        let mut off = Tracer::new(false);
        assert_eq!(off.begin("root", None, 0), None);
        off.record("part", None, 0, at(0), at(1));
        assert!(off.spans().is_empty());
    }
}
