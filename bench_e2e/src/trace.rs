//! Spans recorded by the benchmark around the public calls it makes into
//! each layer. Spans stay in memory during the run and are written as
//! JSONL at the end; a disabled tracer records nothing and reads no clock.

use crate::json::write_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Root spans whose subtree is written to the JSONL file; the per-layer
/// aggregates always cover every span.
const JSONL_ROOTS: usize = 10_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The request (or, in translate-cold, the admission window) the span
    /// serves.
    pub req: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Timed on a replay of the request after the measured window rather
    /// than inside its own interval.
    pub replay: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn stamp(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.stamp(start), self.stamp(end));
        self.push_ns(name, req, parent, start, end, false)
    }

    pub fn push_ns(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
        replay: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end,
            replay,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is not known yet, so that its children,
    /// recorded later, come after it; `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        self.on.then(|| self.push(name, req, parent, start, start))
    }

    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        if let Some(i) = span {
            self.spans[i].end = self.stamp(end);
        }
    }

    /// Times `f` as a span when tracing is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.push(name, req, parent, start, Instant::now());
        out
    }

    /// Times `f` as a replayed child of `parent`; records nothing without a
    /// parent, so untraced set-up traffic can share the replay code.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on || parent.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let (start, end) = (self.stamp(start), self.stamp(Instant::now()));
        self.push_ns(name, req, parent, start, end, true);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// For each root span, the time no layer span accounts for: the self
    /// time of every `bench.*` span in its subtree (the root itself, and
    /// waits whose layer work was replayed as their children).
    pub fn root_residuals_ns(&self) -> Vec<u64> {
        let mut root = vec![0usize; self.spans.len()];
        let mut residual = vec![0u64; self.spans.len()];
        for ((i, s), t) in self.spans.iter().enumerate().zip(self.self_times()) {
            root[i] = s.parent.map_or(i, |p| root[p]);
            if s.name.starts_with("bench.") {
                residual[root[i]] += t;
            }
        }
        self.spans
            .iter()
            .zip(residual)
            .filter(|(s, _)| s.parent.is_none() && !s.replay)
            .map(|(_, r)| r)
            .collect()
    }

    /// Unattributed time over all root spans, as a share of their duration.
    pub fn unattributed_share(&self) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && !s.replay)
            .map(Span::dur)
            .sum();
        let residual: u64 = self.root_residuals_ns().iter().sum();
        if total == 0 {
            0.0
        } else {
            residual as f64 / total as f64
        }
    }

    /// `(count, self ns)` per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += t;
        }
        out
    }

    /// The spans as JSONL: one object per line with `id`, `name`, `req`,
    /// `parent`, `start_ns`, `end_ns`, `self_ns` and `replay`.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times();
        let mut roots = 0usize;
        let mut keep = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            keep[i] = match s.parent {
                None => {
                    roots += 1;
                    roots <= JSONL_ROOTS
                }
                Some(p) => keep[p],
            };
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(i, _)| keep[*i]) {
            let _ = write!(out, "{{\"id\":{i},\"name\":");
            write_str(&mut out, s.name);
            let _ = write!(out, ",\"req\":{},\"parent\":", s.req);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"replay\":{}}}",
                s.start, s.end, selfs[i], s.replay
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_roots_keep_the_remainder() {
        let mut t = Tracer::new(true);
        let root = t.push_ns("bench.request", 0, None, 0, 100, false);
        t.push_ns("layer.a", 0, Some(root), 10, 40, false);
        let wait = t.push_ns("bench.wait", 0, Some(root), 40, 80, false);
        t.push_ns("layer.b", 0, Some(wait), 1000, 1030, true);
        assert_eq!(t.self_times(), vec![30, 30, 10, 30]);
        // Root self (30) plus the wait's unreplayed part (10).
        assert_eq!(t.root_residuals_ns(), vec![40]);
        assert!((t.unattributed_share() - 0.4).abs() < 1e-12);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn an_opened_span_precedes_its_children() {
        let mut t = Tracer::new(true);
        let start = Instant::now();
        let root = t.open("req", 7, None, start);
        t.time("child", 7, root, || ());
        t.close(root, Instant::now());
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
        assert_eq!(Tracer::new(false).open("req", 0, None, start), None);
    }
}
