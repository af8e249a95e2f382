//! Off-the-clock answer checks.
//!
//! Expected bodies come from a *mirror*: an in-process [`Session`] on the
//! same graph, answering the same requests. Every timed reply must equal the
//! mirror's summary byte for byte (so its fingerprint equals the expected
//! fingerprint for its graph and request). Each distinct answer is then
//! fetched again as a full reply and checked with the public checkers
//! (`mis::verify_mis`, `coloring::verify_coloring`); each decomposition the
//! mirror built is checked with `Decomposition::validate`, and every served
//! decomposition's quality against the `O(log n)` bound.

use crate::client::{post_frame, Client};
use crate::drive::{Pending, CONNECTIONS};
use crate::inputs::{solve_body, Shape};
use locality_core::coloring::verify_coloring;
use locality_core::decomposition::Decomposition;
use locality_core::mis::verify_mis;
use locality_core::serve::wire::encode_response;
use locality_core::serve::{DecomposeOptions, ReplyMode, Request, Response, Session, SlocalOutput};
use locality_graph::Graph;
use locality_json::Json;
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// The summary body a shape's reply must equal, from `mirror`.
pub fn expected_body(mirror: &mut Session, shape: &Shape) -> Vec<u8> {
    let mut out = String::new();
    let batch = shape.requests.len() > 1;
    if batch {
        out.push('[');
    }
    for (i, r) in shape.requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let result = mirror.solve(r);
        encode_response(&mut out, ReplyMode::Summary, result.as_ref().map(|r| *r));
    }
    if batch {
        out.push(']');
    }
    out.into_bytes()
}

/// Size and share of nodes of a decomposition's largest cluster.
pub fn cluster_profile(d: &Decomposition, nodes: usize) -> (usize, f64) {
    let c = d.clustering();
    let largest = (0..c.cluster_count())
        .map(|i| c.members(i).len())
        .max()
        .unwrap_or(0);
    (c.cluster_count(), largest as f64 / nodes.max(1) as f64)
}

/// The decomposition-quality bound checked on every served decomposition:
/// colors and strong diameter at most `2·(⌈log2(n+1)⌉ + 1)`.
pub fn quality_bound(g: &Graph) -> usize {
    2 * (g.log2_n() as usize + 1)
}

/// Cluster structure of the deterministic (ball carving) and randomized
/// (MPX) decompositions one graph was served with.
#[derive(Debug, Clone)]
pub struct GraphRecord {
    pub graph: usize,
    pub nodes: usize,
    pub carving_clusters: usize,
    pub carving_largest_frac: f64,
    pub mpx_clusters: usize,
    pub mpx_largest_frac: f64,
}

/// Everything the checks found.
#[derive(Default)]
pub struct Report {
    /// Ops whose late-checked reply differed from the mirror.
    pub failed_ops: Vec<u64>,
    /// Distinct answers that failed a checker (each also fails the run).
    pub failed_answers: u64,
    pub problems: Vec<String>,
    pub answers_checked: u64,
    pub colors_max: usize,
    pub diameter_max: usize,
    pub graphs: Vec<GraphRecord>,
}

impl Report {
    fn merge(&mut self, other: Report) {
        self.failed_ops.extend(other.failed_ops);
        self.failed_answers += other.failed_answers;
        self.problems.extend(other.problems);
        self.answers_checked += other.answers_checked;
        self.colors_max = self.colors_max.max(other.colors_max);
        self.diameter_max = self.diameter_max.max(other.diameter_max);
        self.graphs.extend(other.graphs);
    }

    fn fail(&mut self, what: String) {
        self.failed_answers += 1;
        self.problems.push(what);
    }
}

/// One graph's work: its mirror, the shapes it served, the replies that
/// still need comparing.
pub struct GraphCheck<'a> {
    pub graph: usize,
    pub g: &'a Graph,
    pub mirror: Session,
    pub shapes: Vec<Shape>,
    pub pending: Vec<Pending>,
}

/// Check every graph, sharing the work over `CONNECTIONS` threads with a
/// connection each.
pub fn check_all(addr: SocketAddr, checks: Vec<GraphCheck<'_>>) -> Report {
    let mut buckets: Vec<Vec<GraphCheck<'_>>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (i, c) in checks.into_iter().enumerate() {
        buckets[i % CONNECTIONS].push(c);
    }
    let reports: Vec<Report> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| scope.spawn(move || check_bucket(addr, bucket)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check threads report problems, not panics"))
            .collect()
    });
    let mut report = Report::default();
    for r in reports {
        report.merge(r);
    }
    report.graphs.sort_by_key(|g| g.graph);
    report
}

fn check_bucket(addr: SocketAddr, bucket: Vec<GraphCheck<'_>>) -> Report {
    let mut report = Report::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            report.fail(format!("check connection: {e}"));
            return report;
        }
    };
    for check in bucket {
        check_graph(&mut client, check, &mut report);
    }
    report
}

fn check_graph(client: &mut Client, mut check: GraphCheck<'_>, report: &mut Report) {
    let g = check.g;
    for p in &check.pending {
        if expected_body(&mut check.mirror, &p.shape) != p.body {
            report.failed_ops.push(p.op);
            report.problems.push(format!(
                "graph {}: {} reply differs from the mirror: {}",
                check.graph,
                p.shape.name,
                String::from_utf8_lossy(&p.body)
            ));
        }
    }
    // Distinct requests, in first-seen order.
    let mut distinct: Vec<Request> = Vec::new();
    for shape in check
        .shapes
        .iter()
        .chain(check.pending.iter().map(|p| &p.shape))
    {
        for r in &shape.requests {
            if !distinct.contains(r) {
                distinct.push(r.clone());
            }
        }
    }
    for r in &distinct {
        report.answers_checked += 1;
        if let Err(e) = check_answer(client, check.graph, g, &mut check.mirror, r, report) {
            report.fail(format!("graph {}: {r:?}: {e}", check.graph));
        }
    }
    let auto = DecomposeOptions::new();
    let mpx = distinct.iter().find_map(|r| match r {
        Request::Mis(o) if !o.decomposition.require_deterministic => Some(o.decomposition),
        _ => None,
    });
    if let (true, Some(mpx)) = (distinct.contains(&Request::mis()), mpx) {
        let n = g.node_count();
        let carving = check
            .mirror
            .decomposition(&auto)
            .map(|d| cluster_profile(d, n));
        let randomized = check
            .mirror
            .decomposition(&mpx)
            .map(|d| cluster_profile(d, n));
        if let (Ok(c), Ok(m)) = (carving, randomized) {
            report.graphs.push(GraphRecord {
                graph: check.graph,
                nodes: n,
                carving_clusters: c.0,
                carving_largest_frac: c.1,
                mpx_clusters: m.0,
                mpx_largest_frac: m.1,
            });
        }
    }
}

/// Check one distinct answer: decompositions by validation and the
/// quality bound, labelings by a full reply and the public checker.
fn check_answer(
    client: &mut Client,
    graph: usize,
    g: &Graph,
    mirror: &mut Session,
    r: &Request,
    report: &mut Report,
) -> Result<(), String> {
    let response = mirror.solve(r).map_err(|e| e.to_string())?.clone();
    if let (Request::Decompose(opts), Response::Decompose { quality, .. }) = (r, &response) {
        let d = mirror.decomposition(opts).map_err(|e| e.to_string())?;
        let validated = d.validate(g).map_err(|e| e.to_string())?;
        if validated != *quality {
            return Err(format!(
                "served quality {quality:?}, validated {validated:?}"
            ));
        }
        let bound = quality_bound(g);
        if quality.colors > bound || quality.max_diameter as usize > bound {
            return Err(format!(
                "quality {quality:?} exceeds the O(log n) bound {bound}"
            ));
        }
        report.colors_max = report.colors_max.max(quality.colors);
        report.diameter_max = report.diameter_max.max(quality.max_diameter as usize);
        return Ok(());
    }
    let frame = post_frame(&solve_body(graph, true, std::slice::from_ref(r)));
    let reply = client.roundtrip(&frame).map_err(|e| e.to_string())?;
    if reply.status != 200 {
        return Err(format!("full reply answered HTTP {}", reply.status));
    }
    let full = Json::parse_bytes(reply.body).map_err(|e| e.to_string())?;
    match &response {
        Response::Mis { in_mis, .. } => {
            let got = bools(&full, "in_mis")?;
            same(&got, in_mis)?;
            verify_mis(g, &got).map_err(|e| e.to_string())
        }
        Response::Coloring {
            colors, palette, ..
        } => {
            let got = ints(&full, "colors")?;
            same(&got, colors)?;
            verify_coloring(g, &got, *palette).map_err(|e| e.to_string())
        }
        Response::Slocal { output, .. } => match output {
            SlocalOutput::Flags(flags) => {
                let got = bools(&full, "flags")?;
                same(&got, flags)?;
                verify_mis(g, &got).map_err(|e| e.to_string())
            }
            SlocalOutput::Colors(colors) => {
                let got = ints(&full, "colors")?;
                same(&got, colors)?;
                verify_coloring(g, &got, g.max_degree() + 1).map_err(|e| e.to_string())
            }
            _ => Err("unknown SLOCAL output".to_string()),
        },
        _ => Err(format!("unexpected answer kind for {r:?}")),
    }
}

fn field<'a>(full: &'a Json, key: &str) -> Result<&'a [Json], String> {
    full.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("full reply lacks the {key:?} array"))
}

fn bools(full: &Json, key: &str) -> Result<Vec<bool>, String> {
    field(full, key)?
        .iter()
        .map(|v| v.as_bool().ok_or_else(|| format!("non-boolean in {key:?}")))
        .collect()
}

fn ints(full: &Json, key: &str) -> Result<Vec<usize>, String> {
    field(full, key)?
        .iter()
        .map(|v| {
            v.as_int()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| format!("non-index in {key:?}"))
        })
        .collect()
}

fn same<T: PartialEq>(got: &[T], want: &[T]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err("full reply differs from the mirror's answer".to_string())
    }
}

/// Group late-checked replies by graph, in graph order.
pub fn by_graph(pending: Vec<Pending>) -> BTreeMap<usize, Vec<Pending>> {
    let mut map: BTreeMap<usize, Vec<Pending>> = BTreeMap::new();
    for p in pending {
        map.entry(p.shape.graph).or_default().push(p);
    }
    map
}
