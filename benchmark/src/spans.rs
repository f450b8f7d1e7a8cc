//! The benchmark's own span recorder: one span around every public call into
//! the stack, kept in a pre-sized `Vec` and written out when the run ends.
//!
//! Recording is off in the untraced (end-to-end) runs, where `begin`/`end`
//! reduce to one branch.  A span's *self time* is its duration minus the
//! duration of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one operation (batch or query number).
    pub op_id: u64,
}

/// Handle returned by [`Recorder::begin`]; `None` while recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Token(Option<u32>);

/// Per-name totals over a recorder's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder measuring from `origin`; `capacity` spans are pre-allocated
    /// so recording inside a timed window does not reallocate.
    pub fn new(on: bool, origin: Instant, capacity: usize) -> Self {
        Recorder {
            on,
            origin,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Token {
        if !self.on {
            return Token(None);
        }
        let start_ns = self.now_ns();
        self.push_open(name, op_id, start_ns)
    }

    pub fn end(&mut self, token: Token) {
        if let Token(Some(index)) = token {
            let end_ns = self.now_ns();
            self.close(index, end_ns);
        }
    }

    /// Records a finished span from timestamps the caller already took.
    pub fn record(&mut self, name: &'static str, op_id: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            let token = self.push_open(name, op_id, start_ns);
            if let Token(Some(index)) = token {
                self.close(index, end_ns);
            }
        }
    }

    fn push_open(&mut self, name: &'static str, op_id: u64, start_ns: u64) -> Token {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        Token(Some(index))
    }

    fn close(&mut self, index: u32, end_ns: u64) {
        self.spans[index as usize].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        out
    }

    /// Nanoseconds of `[from_ns, to_ns)` covered by at least one root span.
    pub fn covered_ns(&self, from_ns: u64, to_ns: u64) -> u64 {
        let mut roots: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
            .filter(|(start, end)| start < end)
            .collect();
        roots.sort_unstable();
        let mut covered = 0;
        let mut frontier = from_ns;
        for (start, end) in roots {
            let start = start.max(frontier);
            if end > start {
                covered += end - start;
                frontier = end;
            }
        }
        covered
    }

    /// Writes one JSON object per span: `name, start_ns, end_ns, parent, op_id`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> Recorder {
        Recorder::new(true, Instant::now(), 16)
    }

    /// Opens `name` over `[start, end)` with the given children nested inside.
    fn nest(rec: &mut Recorder, name: &'static str, start: u64, end: u64, kids: &[(u64, u64)]) {
        let Token(Some(index)) = rec.push_open(name, 7, start) else {
            unreachable!("recording is on");
        };
        for &(s, e) in kids {
            rec.record("child", 7, s, e);
        }
        rec.close(index, end);
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut rec = recorder();
        // Two adjacent children (10..30, 30..45) and a gap before and after.
        nest(&mut rec, "outer", 0, 100, &[(10, 30), (30, 45)]);
        // A grandchild must be charged to its parent only, not to the root.
        let Token(Some(root)) = rec.push_open("outer", 8, 200) else {
            unreachable!()
        };
        nest(&mut rec, "middle", 210, 260, &[(220, 240)]);
        rec.close(root, 300);

        let totals = rec.totals();
        let outer = totals["outer"];
        assert_eq!(outer.count, 2);
        assert_eq!(outer.total_ns, 200);
        assert_eq!(outer.self_ns, (100 - 35) + (100 - 50));
        assert_eq!(totals["middle"].self_ns, 50 - 20);
        assert_eq!(totals["child"].total_ns, 20 + 15 + 20);
        assert_eq!(totals["child"].self_ns, totals["child"].total_ns);
        // Parent links: the grandchild points at `middle`, `middle` at the root.
        let spans = rec.spans();
        let middle = spans.iter().position(|s| s.name == "middle").unwrap();
        assert_eq!(spans[middle].parent, Some(root));
        assert_eq!(spans[middle + 1].parent, Some(middle as u32));
        assert!(spans.iter().all(|s| s.op_id == 7 || s.op_id == 8));
    }

    #[test]
    fn coverage_counts_root_spans_once_and_clips_to_the_window() {
        let mut rec = recorder();
        rec.record("a", 0, 0, 40);
        rec.record("b", 1, 30, 60); // overlaps a
        nest(&mut rec, "c", 80, 120, &[(90, 100)]);
        assert_eq!(rec.covered_ns(0, 100), 60 + 20);
        assert_eq!(rec.covered_ns(50, 90), 10 + 10);
        assert_eq!(rec.covered_ns(200, 300), 0);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 1_000);
        let token = rec.begin("x", 1);
        rec.end(token);
        rec.record("y", 2, 0, 10);
        assert!(rec.spans().is_empty());
        assert!(rec.totals().is_empty());
    }
}
