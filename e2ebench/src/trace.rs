//! The benchmark's own spans: recorded around its calls into each module,
//! kept in memory, and written out as JSON lines when the run ends. No
//! tracing is added inside the crates.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.dense_forward`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// In-memory span store. A disabled recorder runs the closures it is
/// handed and records nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (closed spans are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            dur_ns: 0,
        });
        self.open.push(idx);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].start_ns = self.ns_since_origin(start);
        self.spans[idx].dur_ns = end.duration_since(start).as_nanos() as u64;
        out
    }

    /// Records an interval measured elsewhere (e.g. between two progress
    /// callbacks) under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.ns_since_origin(start),
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.start_ns + s.dur_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, 0u64);
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.dur_ns.saturating_sub(covered)
            })
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        let self_ns = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.dur_ns,
                self_ns[i]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |rec| {
            rec.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            let t = Instant::now();
            rec.record("measured", t, t + Duration::from_millis(1));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let self_ns = rec.self_ns();
        assert!(self_ns[0] < spans[0].dur_ns);
        assert!(self_ns[0] <= spans[0].dur_ns - spans[1].dur_ns);
        assert_eq!(self_ns[1], spans[1].dur_ns);
        assert_eq!(spans[1].name, "inner");
    }

    #[test]
    fn disabled_recorder_runs_closures_and_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 7), 7);
        rec.record("y", Instant::now(), Instant::now());
        assert!(rec.spans().is_empty());
    }
}
