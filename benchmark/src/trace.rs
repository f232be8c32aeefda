//! Harness-side spans: recorded around the calls into each layer, kept
//! in memory, written as JSONL when the run ends. Spans inside the
//! program are a later change; these need no file outside `benchmark/`.

use std::io::Write;
use std::time::Instant;

/// One span: a name, an interval on the run's clock, the span that
/// caused it, and the request all spans of one op share.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        request: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, self time included.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.id, parent, span.request, span.name, span.start_ns, span.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children may overlap each other and may
/// stick out of the parent; covered time is the union of the child
/// intervals clipped to the parent, counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children [10,60] and [40,80] cover [10,80] = 70, not 90.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            // Fully nested inside child 1's interval: adds nothing.
            span(3, Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = [
            span(0, None, 100, 200),
            // Sticks out on both sides: covers the whole parent.
            span(1, Some(0), 50, 250),
            // A grandchild reduces its own parent's self time only.
            span(2, Some(1), 60, 100),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 0);
        assert_eq!(selfs[1], 160);
        assert_eq!(selfs[2], 40);
    }

    #[test]
    fn tracer_assigns_sequential_ids() {
        let mut t = Tracer::new();
        let root = t.record(None, 7, "op", 0, 10);
        let child = t.record(Some(root), 7, "shard.call", 1, 9);
        assert_eq!((root, child), (0, 1));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
    }
}
