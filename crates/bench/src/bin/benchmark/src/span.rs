//! Outside-in tracing: a span around each public call into a layer,
//! recorded from the benchmark's side of the API. Spans stay in memory and
//! are written out when the run ends. End-to-end metrics are never taken
//! with a recorder running.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is the index of the span that caused it;
/// spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; nested calls become children.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let ix = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end_ns = self.now_ns();
        out
    }

    /// Adopt spans recorded elsewhere (a child process); their parent
    /// links are re-based onto this recorder's numbering.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let own = self_times_ns(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, own[i]
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
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
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
            span(60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 160, Some(0)), // overlaps the previous child by 10
            span(190, 260, Some(0)), // overhangs the parent by 60
            span(0, 50, Some(0)),    // entirely outside: covers nothing
        ];
        // covered: 110..160 (50) + 190..200 (10)
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::new();
        let v = rec.time("outer", 7, |rec| {
            rec.time("inner", 7, |_| 1) + rec.time("inner", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations_us("inner").len(), 2);
        let own = self_times_ns(spans);
        assert!(own[0] <= spans[0].duration_ns());
    }
}
