//! In-memory spans and counts for the traced run.
//!
//! A root span is one request's (or one cold op's) round trip over the
//! socket. Its children are in-process replays of the same work through the
//! layers' public functions, recorded under the root's request id. A replay
//! necessarily runs after the round trip it explains, so a span's *self
//! time* is its duration minus the summed durations of its children (which
//! run one after another). Summed over a tree, self times telescope to the
//! root's duration exactly: whatever the replays do not explain stays as the
//! root's own self time (syscalls, wake-ups, lock waits). A negative self
//! time means a replayed child took longer than the work it explains.

use locality_json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Root span names whose trees are request accounting (not probes).
const ROOTS: [&str; 2] = ["request", "op"];

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    /// Index of the tree's root span (the request id).
    pub root: usize,
    pub name: &'static str,
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent` (a new root when
    /// `None`); `f` receives the tracer and the new span's index so it can
    /// open children.
    pub fn span<T>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        detail: impl Into<String>,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> T {
        let id = self.spans.len();
        let root = parent.map_or(id, |p| self.spans[p].root);
        self.spans.push(Span {
            parent,
            root,
            name,
            detail: detail.into(),
            start_ns: 0,
            end_ns: 0,
        });
        self.spans[id].start_ns = self.now_ns();
        let out = f(self, id);
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a root span whose interval was measured by the caller.
    pub fn root(&mut self, name: &'static str, detail: impl Into<String>, start: Instant) -> usize {
        let id = self.spans.len();
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            parent: None,
            root: id,
            name,
            detail: detail.into(),
            start_ns,
            end_ns: self.now_ns(),
        });
        id
    }

    /// Record one sample of a count measured at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    pub fn counts(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time (ns) of every span, by index.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns();
            }
        }
        own
    }

    /// Self time per span name over the request/op trees, as
    /// `(name, spans, self_ns)`, plus the summed root duration.
    pub fn breakdown(&self) -> (Vec<(&'static str, usize, f64)>, f64) {
        let own = self.self_times();
        let mut by_name: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        let mut root_total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if !ROOTS.contains(&self.spans[s.root].name) {
                continue;
            }
            if s.parent.is_none() {
                root_total += s.dur_ns();
            }
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own[i];
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(k, (n, t))| (k, n, t)).collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        (rows, root_total)
    }

    /// Every span as one JSON line, after a header line.
    pub fn to_jsonl(&self, header: &Json) -> String {
        let own = self.self_times();
        let mut out = String::new();
        let head = header.to_pretty().replace('\n', " ");
        let _ = writeln!(out, "{{\"host\": {}}}", head.trim_end());
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"detail\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.root,
                s.name,
                s.detail,
                s.start_ns,
                s.end_ns,
                own[i] as i64,
            );
        }
        out
    }
}
