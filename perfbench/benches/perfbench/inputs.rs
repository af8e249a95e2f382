//! Workload inputs, generated from the workload seed: the graphs the server
//! pins, the request shapes each workload sends, and the set-up that starts
//! the server and pre-warms it.

use crate::client::{post_frame, Client};
use locality_core::serve::wire::encode_request;
use locality_core::serve::{
    ColoringOptions, DecompMethod, DecomposeOptions, HttpConfig, HttpServer, MisOptions, Request,
    Session, SlocalTask, Strategy,
};
use locality_graph::Graph;
use locality_rand::{Prng, SplitMix64};
use std::time::Instant;

/// Nodes of the warm/churn graph 0, `G(n, 4/n)`.
const G0_NODES: usize = 2000;
/// Nodes of the warm graph 1, a random 3-regular graph.
const G1_NODES: usize = 50_000;
/// Nodes of each fresh `G(n, 4/n)` of the cold workload.
const COLD_NODES: usize = 512;
/// Cold graphs pinned per measured second: several times what two
/// connections get through, so the pool never runs dry.
const COLD_GRAPHS_PER_SECOND: usize = 60;
/// Seed of the graphs warm and churn pin.
const PINNED_GRAPH_SEED: u64 = 0x6c6f_6361_6c69_7479;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Cap of the derandomized decomposition the cold set asks for.
const DERAND_CAP: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Warm,
    Cold,
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "warm" => Some(Self::Warm),
            "cold" => Some(Self::Cold),
            "churn" => Some(Self::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Warm => "warm",
            Self::Cold => "cold",
            Self::Churn => "churn",
        }
    }
}

/// One request set sent as one HTTP request: a single request or a batch.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: String,
    pub graph: usize,
    pub requests: Vec<Request>,
    /// The request frame asking for a summary reply.
    pub frame: Vec<u8>,
}

impl Shape {
    pub fn new(name: impl Into<String>, graph: usize, requests: Vec<Request>) -> Self {
        let frame = post_frame(&solve_body(graph, false, &requests));
        Self {
            name: name.into(),
            graph,
            requests,
            frame,
        }
    }
}

/// A `POST /solve` body for `requests` against session `graph`.
pub fn solve_body(graph: usize, full: bool, requests: &[Request]) -> String {
    let reply = if full { "full" } else { "summary" };
    let mut body = format!("{{\"graph\": {graph}, \"reply\": \"{reply}\", ");
    let encode = |out: &mut String, r: &Request| {
        encode_request(out, r).expect("benchmark requests are servable kinds");
    };
    if let [one] = requests {
        body.push_str("\"request\": ");
        encode(&mut body, one);
    } else {
        body.push_str("\"requests\": [");
        for (i, r) in requests.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            encode(&mut body, r);
        }
        body.push(']');
    }
    body.push('}');
    body
}

fn direct_mis(seed: u64) -> Request {
    Request::Mis(
        MisOptions::new()
            .with_strategy(Strategy::Direct)
            .with_seed(seed),
    )
}

pub fn direct_coloring(seed: u64) -> Request {
    Request::Coloring(
        ColoringOptions::new()
            .with_strategy(Strategy::Direct)
            .with_seed(seed),
    )
}

/// MIS over the randomized MPX decomposition (determinism waived).
fn mpx_mis(seed: u64) -> Request {
    Request::Mis(
        MisOptions::new().with_decomposition(
            DecomposeOptions::new()
                .with_require_deterministic(false)
                .with_seed(seed),
        ),
    )
}

/// The six pre-warmed shapes on graph 0 (warm and churn).
pub fn g0_shapes(seed: u64) -> Vec<Shape> {
    vec![
        Shape::new("mis", 0, vec![Request::mis()]),
        Shape::new("coloring", 0, vec![Request::coloring()]),
        Shape::new("decompose", 0, vec![Request::decompose()]),
        Shape::new("slocal", 0, vec![Request::slocal(SlocalTask::GreedyMis)]),
        Shape::new("mpx-mis", 0, vec![mpx_mis(seed)]),
        Shape::new("batch", 0, vec![Request::mis(), Request::coloring()]),
    ]
}

/// The direct (randomized) shapes on warm's graph 1.
pub fn g1_shapes(seed: u64) -> Vec<Shape> {
    vec![
        Shape::new("luby", 1, vec![direct_mis(seed)]),
        Shape::new("trial-coloring", 1, vec![direct_coloring(seed)]),
    ]
}

/// Churn's `k`-th new request: a direct MIS or coloring with a seed no
/// other request of the run uses.
pub fn churn_new(base: u64, k: u64) -> Shape {
    let seed = base.wrapping_add(k);
    if k % 2 == 0 {
        Shape::new("new-luby", 0, vec![direct_mis(seed)])
    } else {
        Shape::new("new-trial-coloring", 0, vec![direct_coloring(seed)])
    }
}

/// The cold set on session `graph`, sent back to back on one connection.
pub fn cold_set(graph: usize, seed: u64) -> Vec<Shape> {
    vec![
        Shape::new(
            "decompose-derandomized",
            graph,
            vec![Request::Decompose(
                DecomposeOptions::new()
                    .with_method(DecompMethod::Derandomized)
                    .with_cap(DERAND_CAP),
            )],
        ),
        Shape::new("mis", graph, vec![Request::mis()]),
        Shape::new("coloring", graph, vec![Request::coloring()]),
        Shape::new(
            "slocal",
            graph,
            vec![Request::slocal(SlocalTask::GreedyMis)],
        ),
        Shape::new("luby", graph, vec![direct_mis(seed)]),
        Shape::new("mpx-mis", graph, vec![mpx_mis(seed)]),
    ]
}

/// Every input of one run, a pure function of `(workload, seed, seconds)`.
pub struct Inputs {
    pub workload: Workload,
    /// Seeds of the graphs, in session order.
    pub graph_seeds: Vec<u64>,
    /// Shapes pre-warmed during set-up and repeated in the timed phase.
    pub warm_shapes: Vec<Shape>,
    /// Per-op request seed (cold) or the base of fresh seeds (churn).
    pub request_seed: u64,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_cafe_f00d);
        let request_seed = rng.next_u64();
        let graphs = match workload {
            Workload::Warm => 2,
            Workload::Churn => 1,
            Workload::Cold => COLD_GRAPHS_PER_SECOND * seconds as usize + 64,
        };
        // Warm and churn pin fixed graphs, so that runs with different
        // seeds differ in their traffic, not in the graph's degree profile;
        // cold draws every graph from the run's seed.
        let mut graph_rng = match workload {
            Workload::Cold => SplitMix64::new(rng.next_u64()),
            Workload::Warm | Workload::Churn => SplitMix64::new(PINNED_GRAPH_SEED),
        };
        let graph_seeds = (0..graphs).map(|_| graph_rng.next_u64()).collect();
        let warm_shapes = match workload {
            Workload::Warm => {
                let mut s = g0_shapes(request_seed);
                s.extend(g1_shapes(request_seed));
                s
            }
            Workload::Churn => g0_shapes(request_seed),
            Workload::Cold => Vec::new(),
        };
        Self {
            workload,
            graph_seeds,
            warm_shapes,
            request_seed,
        }
    }

    /// Generate graph `i` from its seed.
    pub fn graph(&self, i: usize) -> Graph {
        let mut prng = SplitMix64::new(self.graph_seeds[i]);
        match (self.workload, i) {
            (Workload::Warm, 1) => Graph::random_regular(G1_NODES, 3, &mut prng),
            (Workload::Cold, _) => {
                Graph::gnp_connected(COLD_NODES, 4.0 / COLD_NODES as f64, &mut prng)
            }
            _ => Graph::gnp_connected(G0_NODES, 4.0 / G0_NODES as f64, &mut prng),
        }
    }

    pub fn graphs(&self) -> Vec<Graph> {
        (0..self.graph_seeds.len()).map(|i| self.graph(i)).collect()
    }
}

/// A started, pre-warmed server and how long getting there took.
pub struct Setup {
    pub server: HttpServer,
    pub graphs: Vec<Graph>,
    pub seconds: f64,
}

/// Generate the graphs, start the server with default [`HttpConfig`]
/// (one worker per core), and pre-warm every warm shape over the socket.
pub fn set_up(inputs: &Inputs) -> std::io::Result<Setup> {
    let start = Instant::now();
    let graphs = inputs.graphs();
    let sessions = graphs.iter().cloned().map(Session::new).collect();
    let server = HttpServer::start(sessions, HttpConfig::default())?;
    if !inputs.warm_shapes.is_empty() {
        let mut client = Client::connect(server.addr())?;
        for shape in &inputs.warm_shapes {
            let reply = client.roundtrip(&shape.frame)?;
            if reply.status != 200 {
                return Err(std::io::Error::other(format!(
                    "warm-up of {} answered HTTP {}",
                    shape.name, reply.status
                )));
            }
        }
    }
    Ok(Setup {
        server,
        graphs,
        seconds: start.elapsed().as_secs_f64(),
    })
}
