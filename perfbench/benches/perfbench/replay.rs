//! In-process replays for the traced run: the same work the server did for
//! a request, re-run through each layer's public functions inside spans.

use crate::inputs::{direct_coloring, Shape};
use crate::trace::Tracer;
use crate::verify::cluster_profile;
use locality_core::coloring::random_coloring;
use locality_core::decomposition::mpx::mpx_partition;
use locality_core::decomposition::{
    ball_carving_decomposition, derandomized_decomposition, Decomposition,
};
use locality_core::mis::luby;
use locality_core::serve::http::parse_head;
use locality_core::serve::session::greedy_mis_step;
use locality_core::serve::wire::{decode_solve_body, encode_response};
use locality_core::serve::{
    DecompMethod, DecomposeOptions, ReplyMode, Request, Response, Session, SessionStats,
    SlocalOutput, SlocalTask, Strategy,
};
use locality_core::slocal::run_slocal_via_decomposition;
use locality_graph::power::power_graph;
use locality_graph::Graph;
use locality_rand::PrngSource;
use locality_sim::cost::CostMeter;

/// The session's MPX parameter; the replay's decomposition is compared with
/// the session's own, so a drift here fails the run instead of skewing it.
const MPX_BETA: f64 = 0.4;

/// Result of replaying one request set: the body the mirror encodes and
/// whether the replay's producers matched the session's decompositions.
pub struct Replayed {
    pub body: Vec<u8>,
    pub problems: Vec<String>,
}

/// Replay one HTTP request (`shape`) under `root`: head parse, body decode,
/// then per request the session solve (with its layer children on a miss)
/// and the encode. A second, cache-hit solve of each request is recorded as
/// a separate `session.lookup` probe, outside the request's accounting.
pub fn replay_request(
    t: &mut Tracer,
    root: usize,
    mirror: &mut Session,
    g: &Graph,
    shape: &Shape,
) -> Replayed {
    let mut problems = Vec::new();
    let frame = shape.frame.as_slice();
    let head_len = t.span(Some(root), "http.parse_head", "", |_, _| {
        std::hint::black_box(parse_head(frame))
            .ok()
            .flatten()
            .map(|h| h.head_len)
    });
    let Some(head_len) = head_len else {
        problems.push(format!("{}: request head did not parse", shape.name));
        return Replayed {
            body: Vec::new(),
            problems,
        };
    };
    let decoded = t.span(Some(root), "wire.decode", "", |_, _| {
        std::hint::black_box(decode_solve_body(&frame[head_len..]))
    });
    if decoded.as_ref().map(|b| b.requests.as_slice()) != Ok(shape.requests.as_slice()) {
        problems.push(format!("{}: body decoded to other requests", shape.name));
    }
    let mut body = String::new();
    let batch = shape.requests.len() > 1;
    if batch {
        body.push('[');
    }
    for (i, r) in shape.requests.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        problems.extend(traced_solve(t, Some(root), mirror, g, r));
        t.span(None, "session.lookup", "", |_, _| {
            std::hint::black_box(mirror.solve(r).is_ok());
        });
        let result = mirror.solve(r);
        let elems = match &result {
            Ok(resp) => answer_len(resp),
            Err(_) => 0,
        };
        t.span(Some(root), "wire.encode", "", |_, _| {
            encode_response(&mut body, ReplyMode::Summary, result.as_ref().map(|r| *r));
        });
        t.count("wire.encode_elems", elems as f64);
    }
    if batch {
        body.push(']');
    }
    Replayed {
        body: body.into_bytes(),
        problems,
    }
}

/// Output elements an encode hashes for one answer.
fn answer_len(r: &Response) -> usize {
    match r {
        Response::Mis { in_mis, .. } => in_mis.len(),
        Response::Coloring { colors, .. } => colors.len(),
        Response::Slocal { output, .. } => match output {
            SlocalOutput::Flags(f) => f.len(),
            SlocalOutput::Colors(c) => c.len(),
            _ => 0,
        },
        _ => 0,
    }
}

/// `mirror.solve(r)` inside a `session.solve` span; on a cache miss, the
/// layers the solve ran are replayed as its children. A miss that consumed
/// an already-cached decomposition is renamed `consume.<kind>`: nothing
/// below it is replayable, so the span is the consumer. Returns problems
/// found comparing the replay with the session.
pub fn traced_solve(
    t: &mut Tracer,
    parent: Option<usize>,
    mirror: &mut Session,
    g: &Graph,
    r: &Request,
) -> Vec<String> {
    let before = mirror.stats();
    let id = t.span(parent, "session.solve", label(r), |_, id| {
        std::hint::black_box(mirror.solve(r).is_ok());
        id
    });
    let after = mirror.stats();
    if after.solver_runs == before.solver_runs {
        return Vec::new();
    }
    replay_layers(t, id, mirror, g, r, &before, &after)
}

fn label(r: &Request) -> &'static str {
    match r {
        Request::Mis(o) if o.strategy == Strategy::Direct => "mis:direct",
        Request::Mis(o) if !o.decomposition.require_deterministic => "mis:mpx",
        Request::Mis(_) => "mis:auto",
        Request::Coloring(o) if o.strategy == Strategy::Direct => "coloring:direct",
        Request::Coloring(_) => "coloring:auto",
        Request::Decompose(o) if o.method == DecompMethod::Derandomized => "decompose:derandomized",
        Request::Decompose(_) => "decompose:auto",
        Request::Slocal(_) => "slocal",
        _ => "other",
    }
}

fn replay_layers(
    t: &mut Tracer,
    id: usize,
    mirror: &mut Session,
    g: &Graph,
    r: &Request,
    before: &SessionStats,
    after: &SessionStats,
) -> Vec<String> {
    let built = after.decompositions_built > before.decompositions_built;
    let decomposition = match r {
        Request::Mis(o) if o.strategy == Strategy::Direct => {
            let out = t.span(Some(id), "direct.luby", "", |_, _| {
                luby(g, &mut PrngSource::seeded(o.seed))
            });
            record_meter(t, &out.meter);
            return Vec::new();
        }
        Request::Coloring(o) if o.strategy == Strategy::Direct => {
            let out = t.span(Some(id), "direct.trial_coloring", "", |_, _| {
                random_coloring(g, &mut PrngSource::seeded(o.seed))
            });
            record_meter(t, &out.meter);
            return Vec::new();
        }
        Request::Slocal(o) if o.task == SlocalTask::GreedyMis => {
            if after.power_plans_built > before.power_plans_built {
                replay_slocal(t, id, g, o.task.locality());
            }
            return Vec::new();
        }
        Request::Mis(o) => o.decomposition,
        Request::Coloring(o) => o.decomposition,
        Request::Decompose(o) => *o,
        _ => return Vec::new(),
    };
    if !built {
        if matches!(r, Request::Mis(_) | Request::Coloring(_)) {
            t.spans[id].name = match r {
                Request::Mis(_) => "consume.mis",
                _ => "consume.coloring",
            };
        }
        return Vec::new();
    }
    let replayed = produce(t, id, g, &decomposition);
    let validated = t.span(Some(id), "plan.validate", "", |_, _| replayed.validate(g));
    t.count("plan.bfs_edge_visits", bfs_edge_visits(g, &replayed) as f64);
    let mut problems = Vec::new();
    if let Err(e) = validated {
        problems.push(format!("replayed decomposition is invalid: {e}"));
    }
    match mirror.decomposition(&decomposition) {
        Ok(d) if *d == replayed => {}
        _ => problems.push(format!(
            "replayed producer for {decomposition:?} differs from the session's"
        )),
    }
    problems
}

/// Run the producer the session lowers `o` to.
fn produce(t: &mut Tracer, id: usize, g: &Graph, o: &DecomposeOptions) -> Decomposition {
    let method = match o.method {
        DecompMethod::Auto if o.require_deterministic => DecompMethod::BallCarving,
        DecompMethod::Auto => DecompMethod::Mpx,
        m => m,
    };
    match method {
        DecompMethod::Derandomized => t.span(Some(id), "produce.derandomized", "", |_, _| {
            derandomized_decomposition(g, o.cap.max(1)).decomposition
        }),
        DecompMethod::Mpx => t.span(Some(id), "produce.mpx", "", |_, _| {
            mpx_partition(g, MPX_BETA, &mut PrngSource::seeded(o.seed)).decomposition
        }),
        _ => {
            let d = t.span(Some(id), "produce.ball_carving", "", |_, _| {
                let order: Vec<usize> = g.nodes().collect();
                ball_carving_decomposition(g, &order).decomposition
            });
            let (clusters, largest) = cluster_profile(&d, g.node_count());
            t.count("produce.clusters", clusters as f64);
            t.count("produce.largest_cluster_frac", largest);
            d
        }
    }
}

/// The SLOCAL reduction's layers: the power graph `G^{2r+1}`, its carving,
/// and the planned run over `G`.
fn replay_slocal(t: &mut Tracer, id: usize, g: &Graph, r: u32) {
    let gp = t.span(Some(id), "slocal.power_graph", "", |_, _| {
        power_graph(g, 2 * r + 1)
    });
    t.count("slocal.power_edges", gp.edge_count() as f64);
    let d = t.span(Some(id), "slocal.carve", "", |_, _| {
        let order: Vec<usize> = gp.nodes().collect();
        ball_carving_decomposition(&gp, &order).decomposition
    });
    t.span(Some(id), "slocal.run", "", |_, _| {
        std::hint::black_box(run_slocal_via_decomposition(g, r, &d, greedy_mis_step));
    });
}

fn record_meter(t: &mut Tracer, meter: &CostMeter) {
    t.count("direct.random_bits", meter.random_bits as f64);
    t.count("direct.rounds", meter.rounds as f64);
}

/// `Σ_C |C|·vol(C)`: the edge visits of one BFS from every member over
/// its cluster, which is the exact strong-diameter sweep's work. Computed
/// from the clustering, not counted inside the program.
fn bfs_edge_visits(g: &Graph, d: &Decomposition) -> u64 {
    let c = d.clustering();
    (0..c.cluster_count())
        .map(|i| {
            let members = c.members(i);
            let vol: u64 = members.iter().map(|&v| g.degree(v) as u64).sum();
            members.len() as u64 * vol
        })
        .sum()
}

/// The requests the in-process probe replays on one graph: the cold set
/// plus a direct coloring, so that every layer is measured on every
/// workload.
pub fn probe_requests(cold: &[Shape], coloring_seed: u64) -> Vec<Request> {
    let mut out: Vec<Request> = cold.iter().flat_map(|s| s.requests.clone()).collect();
    out.push(direct_coloring(coloring_seed));
    out
}
