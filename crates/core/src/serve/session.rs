//! A [`Session`] pins one graph and serves typed [`Request`]s against it,
//! caching everything reusable along the way.
//!
//! What a session caches, and why it pays:
//!
//! 1. **Responses.** Solvers are deterministic functions of
//!    `(graph, request)` (randomized ones are seeded through the request),
//!    so a repeated request is answered from the cache by reference —
//!    zero work, zero allocation (`benches/serve.rs` asserts this with the
//!    counting allocator). The cache has a fixed heap budget and evicts
//!    the least recently used answers past it.
//! 2. **Decompositions + consumer plans.** The paper's central object: one
//!    decomposition answers MIS, coloring and every SLOCAL task. The free
//!    functions re-validate it (per-cluster diameter BFS, the dominant cost)
//!    on every call; a session validates once per [`DecomposeOptions`] and
//!    replays the cached consumer plan.
//! 3. **Power-graph reduction plans.** An SLOCAL request of locality `r`
//!    needs a decomposition of `G^{2r+1}`; the session materializes, carves
//!    and plans it once per `r`.
//! 4. **Scratch arenas.** The PR 3/4 arenas ([`DiameterScratch`],
//!    [`SlocalScratch`]) are owned by the session and reused across plan
//!    builds and sequential SLOCAL runs instead of being reallocated per
//!    call.
//!
//! The graph is no longer frozen for the session's lifetime:
//! [`Session::apply_edits`] takes a typed [`EditBatch`] and *repairs* the
//! caches
//! instead of dropping them — each cached decomposition is spliced through
//! [`repair_decomposition`], consumer plans migrate their per-cluster
//! diameters along the repair's provenance map, power-graph slots are
//! marked stale and revalidated lazily, and only graph-dependent response
//! cache entries are invalidated (see DESIGN.md §2.6 for the inventory).
//!
//! Every cached path is bit-identical to the corresponding free function
//! (`crates/core/tests/proptest_serve.rs` pins this differentially).

use super::registry;
use super::request::{
    ColoringOptions, DecompMethod, DecompProvenance, DecomposeOptions, DegradePolicy, MisOptions,
    ProblemKind, Request, Response, SlocalOptions, SlocalOutput, SlocalTask, SolveError, Strategy,
    VerifyReport, VerifyRequest,
};
use crate::checkers::VerifyError;
use crate::decomposition::mpx::mpx_partition;
use crate::decomposition::repair::{repair_decomposition, RepairOptions, RepairPath};
use crate::decomposition::types::{DecompError, DecompQuality, Decomposition};
use crate::decomposition::{ball_carving_decomposition, derandomized_decomposition};
use crate::decomposition::{elkin_neiman, ElkinNeimanConfig};
use crate::{coloring, consume, mis, slocal};
use locality_graph::edits::EditBatch;
use locality_graph::metrics::{induced_diameter_with, DiameterScratch};
use locality_graph::power::power_graph;
use locality_graph::Graph;
use locality_rand::source::PrngSource;
use locality_sim::cost::CostMeter;
use locality_sim::slocal::{BallView, SlocalRunner, SlocalScratch};

/// Shift rate for the randomized MPX tier: cluster radius `O(log n / β)`
/// against an `O(β)` edge-cut probability. 0.4 keeps diameters close to the
/// deterministic producer's on the benchmark families while cutting few
/// enough edges that the greedy cluster-graph coloring stays small.
const MPX_BETA: f64 = 0.4;

/// Heap budget of one session's response cache, in bytes (estimated per
/// entry by [`CachedResponse::new`]). Past it the least recently used
/// answers are evicted; an evicted request that repeats is recomputed,
/// bit-identically, since solvers are deterministic in `(graph, request)`.
/// 64 MiB holds ~4k seeded colorings of a 2000-node graph, or ~160 of a
/// 50 000-node one: far more than a pool of repeated request shapes needs,
/// while a stream of one-off seeded requests no longer grows without limit.
const RESPONSE_CACHE_BYTES: usize = 64 << 20;

/// One response-cache entry.
#[derive(Debug, Clone)]
struct CachedResponse {
    request: Request,
    result: Result<Response, SolveError>,
    /// Estimated footprint: the entry itself plus the per-node vectors
    /// its request and answer own.
    bytes: usize,
    /// The session's request count at the entry's last lookup (LRU order).
    last_used: u64,
}

impl CachedResponse {
    fn new(request: Request, result: Result<Response, SolveError>, now: u64) -> Self {
        let bytes = std::mem::size_of::<Self>()
            + request_heap_bytes(&request)
            + result.as_ref().map_or(0, response_heap_bytes);
        Self {
            request,
            result,
            bytes,
            last_used: now,
        }
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

fn request_heap_bytes(request: &Request) -> usize {
    match request {
        Request::Verify(VerifyRequest::Mis { in_mis }) => vec_bytes(in_mis),
        Request::Verify(VerifyRequest::Coloring { colors, .. }) => vec_bytes(colors),
        Request::Verify(VerifyRequest::Decomposition { decomposition }) => {
            // Assignment slot and member entry per node, a member list and
            // a color per cluster.
            let c = decomposition.clustering();
            c.node_count() * (std::mem::size_of::<Option<usize>>() + std::mem::size_of::<usize>())
                + c.cluster_count()
                    * (std::mem::size_of::<Vec<usize>>() + std::mem::size_of::<usize>())
        }
        _ => 0,
    }
}

fn response_heap_bytes(response: &Response) -> usize {
    match response {
        Response::Mis { in_mis, .. } => vec_bytes(in_mis),
        Response::Coloring { colors, .. } => vec_bytes(colors),
        Response::Slocal { output, .. } => match output {
            SlocalOutput::Flags(f) => vec_bytes(f),
            SlocalOutput::Colors(c) => vec_bytes(c),
        },
        Response::Decompose { .. } | Response::Verify(_) => 0,
    }
}

/// The SLOCAL step of [`SlocalTask::GreedyMis`]: join iff no
/// already-processed neighbor joined (locality 1).
pub fn greedy_mis_step(view: &BallView<'_, bool>) -> bool {
    !view
        .neighbors(view.center())
        .any(|u| view.output(u).copied().unwrap_or(false))
}

/// The smallest color absent from `used`. Infallible by pigeonhole: among
/// the `used.len() + 1` candidates `0..=used.len()` at least one is free,
/// so the scan stops at `c <= used.len()` — bounded, no overflow, no panic
/// path (the previous `(0..).find(..).expect(..)` encoded the same bound
/// but as an unbounded search ending in a panic token).
fn smallest_free_color(used: &[usize]) -> usize {
    let mut c = 0;
    while used.contains(&c) {
        c += 1;
    }
    c
}

/// The SLOCAL step of [`SlocalTask::GreedyColoring`]: smallest color no
/// already-processed neighbor holds (locality 1).
pub fn greedy_coloring_step(view: &BallView<'_, usize>) -> usize {
    let used: Vec<usize> = view
        .neighbors(view.center())
        .filter_map(|u| view.output(u).copied())
        .collect();
    smallest_free_color(&used)
}

/// The SLOCAL step of [`SlocalTask::DistanceTwoColoring`]: smallest color
/// not held within distance 2 (locality 2).
pub fn distance_two_coloring_step(view: &BallView<'_, usize>) -> usize {
    let center = view.center();
    let used: Vec<usize> = view
        .ball_nodes()
        .filter(|&(u, d)| u != center && d <= 2)
        .filter_map(|(u, _)| view.output(u).copied())
        .collect();
    smallest_free_color(&used)
}

/// Cache-hit / build counters of one session (the `s1` experiment reports
/// these as the cache-hit breakdown).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests received by [`Session::solve`].
    pub requests: u64,
    /// Requests answered from the response cache (no solver ran).
    pub response_hits: u64,
    /// Requests that ran a solver.
    pub solver_runs: u64,
    /// Decompositions constructed (validated + planned once each).
    pub decompositions_built: u64,
    /// Consumer requests that reused a cached decomposition + plan.
    pub decomposition_hits: u64,
    /// Power-graph reduction plans constructed (one per locality `r`).
    pub power_plans_built: u64,
    /// SLOCAL requests that reused a cached reduction plan.
    pub power_plan_hits: u64,
    /// Decompose requests the soft deadline degraded to the randomized
    /// tier (PR 8 provenance, folded into `/metrics`).
    pub degraded: u64,
    /// Response-cache entries dropped by [`Session::apply_edits`] because
    /// they depended on the edited graph (cumulative across batches).
    pub responses_dropped: u64,
}

/// What one [`Session::apply_edits`] call did: which repair paths ran and
/// exactly how much cached state it invalidated versus carried over.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Edits in the applied batch.
    pub edits: u64,
    /// Cached decompositions repaired incrementally (dirty region spliced).
    pub decomps_repaired: u64,
    /// Cached decompositions rebuilt whole (dirty region past threshold).
    pub decomps_rebuilt: u64,
    /// Old clusters invalidated across all repaired decompositions.
    pub dirty_clusters: u64,
    /// Nodes re-derandomized across all repaired decompositions.
    pub region_nodes: u64,
    /// Response-cache entries dropped because they depended on the graph.
    pub responses_invalidated: u64,
    /// Response-cache entries kept (graph-independent, e.g. unsupported
    /// strategy errors).
    pub responses_retained: u64,
    /// Power-graph slots marked stale for lazy revalidation.
    pub power_slots_stale: u64,
}

/// A per-node cost rate for the deterministic decomposition tier, used by
/// [`DecompMethod::Auto`] to decide whether a soft deadline
/// ([`DecomposeOptions::deadline_ms`]) would be blown before paying for the
/// build.
///
/// The deterministic producer is near-linear with a large constant, so
/// `rate × node count` is a serviceable estimate. The default probe times
/// one small deterministic build **once per process** and shares the
/// measured rate globally — every session (including the pristine replicas
/// the `determinism-checks` feature replays) sees the same numbers and
/// makes the same degradation decision. Tests and benchmarks pin behavior
/// exactly with [`CostProbe::fixed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProbe {
    ns_per_node: f64,
}

impl CostProbe {
    /// A probe with a fixed per-node cost in nanoseconds, bypassing
    /// calibration. Fully deterministic: `fixed(0.0)` never degrades,
    /// `fixed(f64::INFINITY)` always does (when a deadline is set).
    pub fn fixed(ns_per_node: f64) -> Self {
        Self {
            ns_per_node: ns_per_node.max(0.0),
        }
    }

    /// The process-wide calibrated probe: times one deterministic
    /// ball-carving build on a small benchmark grid, once, and caches the
    /// per-node rate for the life of the process.
    pub fn calibrated() -> Self {
        use std::sync::OnceLock;
        static NS_PER_NODE: OnceLock<f64> = OnceLock::new();
        let ns_per_node = *NS_PER_NODE.get_or_init(|| {
            let g = Graph::grid(32, 32);
            let order: Vec<usize> = (0..g.node_count()).collect();
            let start = std::time::Instant::now();
            let _ = ball_carving_decomposition(&g, &order);
            let spent = start.elapsed().as_nanos() as f64;
            (spent / g.node_count() as f64).max(1.0)
        });
        Self { ns_per_node }
    }

    /// Estimated deterministic build time for a graph of `nodes` nodes, in
    /// whole milliseconds (rounded up, so any nonzero estimate reads ≥ 1).
    pub fn estimate_ms(&self, nodes: usize) -> u64 {
        let ns = self.ns_per_node * nodes as f64;
        if ns <= 0.0 {
            return 0;
        }
        let ms = (ns / 1_000_000.0).ceil();
        if ms >= u64::MAX as f64 {
            u64::MAX
        } else {
            ms as u64
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct DecompSlot {
    pub(crate) options: DecomposeOptions,
    pub(crate) decomposition: Decomposition,
    pub(crate) quality: DecompQuality,
    pub(crate) meter: CostMeter,
    pub(crate) plan: consume::ConsumerPlan,
}

#[derive(Debug, Clone)]
struct PowerSlot {
    r: u32,
    decomposition: Decomposition,
    /// Built lazily: only the fast reduction path consults it — a
    /// `Reference`-only session never pays the plan's weak-diameter sweeps.
    plan: Option<slocal::ReductionPlan>,
    /// Set by [`Session::apply_edits`]: the carved power decomposition may
    /// no longer be valid for the edited graph's power, so the next use
    /// revalidates it (and re-carves only if revalidation fails).
    stale: bool,
}

/// A serving session: one pinned [`Graph`], lazily cached decompositions /
/// plans / scratch arenas, and a response cache keyed on the typed
/// [`Request`]s (see the module docs for the full caching story).
///
/// The response cache is scoped to the session's working set: it grows by
/// one entry per *distinct* request and is probed by a linear structural
/// compare (which is what keeps the warm path allocation-free). Its
/// estimated heap footprint is capped at 64 MiB: past that, the least
/// recently used answers are evicted, so a stream of one-off requests
/// (fresh seeds, ever-changing artifacts to verify) cycles through the
/// budget instead of growing the session without limit, while the
/// repeated shapes stay cached.
///
/// # Example
/// ```
/// use locality_core::serve::{Request, Response, Session};
/// use locality_graph::Graph;
///
/// let mut session = Session::new(Graph::grid(8, 8));
/// let Response::Mis { in_mis, .. } = session.solve(&Request::mis()).unwrap() else {
///     unreachable!("MIS requests get MIS responses");
/// };
/// assert_eq!(in_mis.len(), 64);
/// // The same request again is a cache hit: no solver runs.
/// let in_mis = in_mis.clone();
/// session.solve(&Request::mis()).unwrap();
/// assert_eq!(session.stats().response_hits, 1);
/// # let _ = in_mis;
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    graph: Graph,
    palette: usize,
    decomps: Vec<DecompSlot>,
    powers: Vec<PowerSlot>,
    responses: Vec<CachedResponse>,
    /// Sum of the cached entries' `bytes`, kept under `response_budget`.
    response_bytes: usize,
    /// [`RESPONSE_CACHE_BYTES`]; a field only so unit tests can shrink it.
    response_budget: usize,
    diam_scratch: DiameterScratch,
    slocal_scratch: SlocalScratch,
    probe: Option<CostProbe>,
    stats: SessionStats,
}

impl Session {
    /// Pin `graph` and start with cold caches. `∆` is scanned once here so
    /// per-request paths never pay the `O(n)` `max_degree` pass.
    pub fn new(graph: Graph) -> Self {
        let n = graph.node_count();
        let palette = graph.max_degree() + 1;
        Self {
            graph,
            palette,
            decomps: Vec::new(),
            powers: Vec::new(),
            responses: Vec::new(),
            response_bytes: 0,
            response_budget: RESPONSE_CACHE_BYTES,
            diam_scratch: DiameterScratch::new(n),
            slocal_scratch: SlocalScratch::new(n),
            probe: None,
            stats: SessionStats::default(),
        }
    }

    /// Pin the cost probe that deadline resolution consults, replacing the
    /// process-calibrated default. Use [`CostProbe::fixed`] to make the
    /// degradation decision fully deterministic in tests and benchmarks.
    pub fn set_cost_probe(&mut self, probe: CostProbe) {
        self.probe = Some(probe);
    }

    /// The pinned graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The coloring palette bound `∆ + 1` (cached at construction).
    pub fn palette(&self) -> usize {
        self.palette
    }

    /// Cache-hit / build counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// This session's counters as a [`MetricsSnapshot`] (no HTTP layer
    /// attached). Cheap — the counters are `Copy` — so callers can embed it
    /// in every artifact they emit.
    pub fn metrics_snapshot(&self) -> super::metrics::MetricsSnapshot {
        super::metrics::MetricsSnapshot::from_stats([self.stats])
    }

    /// Answer one request, from the response cache when it repeats.
    ///
    /// The returned reference borrows the session's cache; clone it (or use
    /// [`Session::solve_batch`]) for an owned answer.
    ///
    /// # Errors
    /// A typed [`SolveError`] when the request is unsupported or its
    /// decomposition cannot be built; verification *failures* are successful
    /// [`Response::Verify`] answers, not errors. Solvers are deterministic
    /// functions of `(graph, request)`, so errors are cached exactly like
    /// answers — a deterministically failing request never re-runs its
    /// construction.
    pub fn solve(&mut self, request: &Request) -> Result<&Response, SolveError> {
        self.stats.requests += 1;
        let now = self.stats.requests;
        let i = match self.responses.iter().position(|e| e.request == *request) {
            Some(i) => {
                self.stats.response_hits += 1;
                self.responses[i].last_used = now;
                i
            }
            None => {
                let entry = CachedResponse::new(request.clone(), self.compute(request), now);
                self.make_room(entry.bytes);
                self.response_bytes += entry.bytes;
                self.responses.push(entry);
                self.responses.len() - 1
            }
        };
        match &self.responses[i].result {
            Ok(response) => Ok(response),
            Err(e) => Err(e.clone()),
        }
    }

    /// Evict least recently used responses until `bytes` more fit the
    /// budget (or the cache is empty: an answer larger than the whole
    /// budget is still cached, alone, since `solve` lends it out).
    fn make_room(&mut self, bytes: usize) {
        while self.response_bytes + bytes > self.response_budget {
            let Some(lru) = (0..self.responses.len()).min_by_key(|&i| self.responses[i].last_used)
            else {
                return;
            };
            self.response_bytes -= self.responses.swap_remove(lru).bytes;
        }
    }

    /// Answer a batch in order, returning owned responses. Exactly
    /// equivalent to calling [`Session::solve`] per request (and the
    /// [`Fleet`](super::Fleet) extends this across graphs and threads).
    pub fn solve_batch(&mut self, requests: &[Request]) -> Vec<Result<Response, SolveError>> {
        let mut out = Vec::with_capacity(requests.len());
        for r in requests {
            out.push(self.solve(r).cloned());
        }
        out
    }

    /// The cached decomposition slots, for the store codec.
    pub(crate) fn decomp_slots(&self) -> &[DecompSlot] {
        &self.decomps
    }

    /// Install a restored decomposition slot (store decode path; the codec
    /// has already checked the slot against the pinned graph).
    pub(crate) fn install_decomp_slot(&mut self, slot: DecompSlot) {
        self.decomps.push(slot);
    }

    /// Write this session's durable state — graph fingerprint plus every
    /// cached decomposition and consumer plan — to `path`, atomically
    /// (temp file + sync + rename; see [`store::write_atomic`](super::store)).
    /// A session restored from the file answers decomposition-consuming
    /// requests bit-identically to this one without re-running any
    /// construction.
    ///
    /// # Errors
    /// A typed [`StoreError`](super::store::StoreError); the previous file
    /// at `path`, if any, is left intact on failure.
    pub fn persist(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), super::store::StoreError> {
        let bytes = super::store::encode_session(self)?;
        super::store::write_atomic(path.as_ref(), &bytes)
    }

    /// Rebuild a session from a snapshot written by [`Session::persist`],
    /// pinned to `graph`. The snapshot's fingerprint must match `graph`
    /// ([`StoreError::GraphMismatch`](super::store::StoreError) otherwise),
    /// and every corrupt input — truncation, bit rot, version skew — is a
    /// typed error, never a panic or a silently wrong cache.
    ///
    /// # Errors
    /// A typed [`StoreError`](super::store::StoreError).
    pub fn restore(
        graph: Graph,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, super::store::StoreError> {
        let bytes = super::store::read_file(path.as_ref())?;
        super::store::decode_session(graph, &bytes)
    }

    /// The cached decomposition for `options`, building it on first use
    /// (consumer requests naming the same options will reuse it).
    ///
    /// # Errors
    /// As [`Session::solve`] for a [`Request::Decompose`].
    pub fn decomposition(
        &mut self,
        options: &DecomposeOptions,
    ) -> Result<&Decomposition, SolveError> {
        let i = self.ensure_decomposition(options)?;
        Ok(&self.decomps[i].decomposition)
    }

    /// Apply a batch of edge edits to the pinned graph, repairing the
    /// session's caches instead of dropping them (default
    /// [`RepairOptions`]; see [`Session::apply_edits_with`]).
    ///
    /// # Errors
    /// [`SolveError::InvalidEdits`] if the graph rejects the batch;
    /// [`SolveError::InvalidDecomposition`] if a cached decomposition
    /// cannot be repaired. Either way the session is unchanged.
    pub fn apply_edits(&mut self, batch: EditBatch) -> Result<RepairStats, SolveError> {
        self.apply_edits_with(batch, &RepairOptions::default())
    }

    /// [`Session::apply_edits`] with explicit repair knobs.
    ///
    /// What happens, in order (and atomically — any error leaves the
    /// session untouched):
    ///
    /// 1. the edited graph is built via
    ///    [`Graph::apply_edits`](locality_graph::Graph::apply_edits);
    /// 2. every cached decomposition is repaired through
    ///    [`repair_decomposition`] — only the dirty BFS-ball region is
    ///    re-derandomized unless it crosses the fallback threshold. The
    ///    repair cap always tracks the cap each slot was *built* with
    ///    (`opts.cap` is ignored here): repairing a cap-4 decomposition
    ///    with cap-8 balls would both dirty a far larger region and, on
    ///    fallback, rebuild a decomposition that no longer matches the
    ///    slot's own options;
    /// 3. each consumer plan migrates: kept clusters keep their measured
    ///    induced diameters (via the repair's provenance map), only new
    ///    clusters pay a diameter sweep;
    /// 4. power-graph slots are marked stale; the next SLOCAL request
    ///    revalidates their decomposition against the new power graph and
    ///    re-carves only on failure (reduction plans always rebuild — they
    ///    encode graph distances);
    /// 5. graph-dependent response-cache entries are dropped;
    ///    graph-independent ones (unsupported-strategy errors) survive.
    ///
    /// The returned [`RepairStats`] itemizes all of the above.
    ///
    /// # Errors
    /// As [`Session::apply_edits`].
    pub fn apply_edits_with(
        &mut self,
        batch: EditBatch,
        opts: &RepairOptions,
    ) -> Result<RepairStats, SolveError> {
        let mut stats = RepairStats {
            edits: batch.len() as u64,
            ..RepairStats::default()
        };
        if batch.is_empty() {
            return Ok(stats);
        }
        let new_graph = self.graph.apply_edits(&batch)?;

        // Fallible phase: repair every cached decomposition against the
        // edited graph before any session state changes.
        let Session {
            decomps,
            diam_scratch,
            ..
        } = self;
        let mut repaired: Vec<DecompSlot> = Vec::with_capacity(decomps.len());
        for slot in decomps.iter() {
            // Per-slot cap: Elkin–Neiman slots canonicalize cap to 0, which
            // the repair engine clamps to its minimum of 2.
            let slot_opts = RepairOptions {
                cap: slot.options.cap,
                ..*opts
            };
            let out = repair_decomposition(&new_graph, &slot.decomposition, &batch, &slot_opts)?;
            match out.path {
                RepairPath::Incremental => stats.decomps_repaired += 1,
                RepairPath::FullRebuild => stats.decomps_rebuilt += 1,
            }
            stats.dirty_clusters += out.dirty_clusters as u64;
            stats.region_nodes += out.region_nodes as u64;
            let d = &out.decomposition;
            let k = d.clustering().cluster_count();
            let mut diam = Vec::with_capacity(k);
            for c in 0..k {
                let x = match out.provenance[c] {
                    // Kept clusters are untouched by construction: their
                    // induced subgraph — hence diameter — is unchanged.
                    Some(old_id) => slot.plan.diam[old_id],
                    None => {
                        induced_diameter_with(&new_graph, d.clustering().members(c), diam_scratch)
                            .ok_or(SolveError::InvalidDecomposition(
                            DecompError::DisconnectedCluster { cluster: c },
                        ))?
                    }
                };
                diam.push(x);
            }
            let plan = consume::ConsumerPlan {
                classes: consume::group_by_color(d),
                diam,
            };
            let quality = DecompQuality {
                colors: plan.classes.len(),
                max_diameter: plan.diam.iter().copied().max().unwrap_or(0),
                clusters: plan.diam.len(),
            };
            repaired.push(DecompSlot {
                options: slot.options,
                decomposition: out.decomposition,
                quality,
                // The meter recorded the original construction; repairs
                // are maintenance, not a protocol run.
                meter: slot.meter,
                plan,
            });
        }

        // Infallible commit.
        self.palette = new_graph.max_degree() + 1;
        self.graph = new_graph;
        self.decomps = repaired;
        for slot in &mut self.powers {
            slot.stale = true;
            slot.plan = None;
            stats.power_slots_stale += 1;
        }
        let before = self.responses.len();
        self.responses
            .retain(|e| matches!(e.result, Err(SolveError::UnsupportedStrategy { .. })));
        self.response_bytes = self.responses.iter().map(|e| e.bytes).sum();
        stats.responses_retained = self.responses.len() as u64;
        stats.responses_invalidated = (before - self.responses.len()) as u64;
        self.stats.responses_dropped += stats.responses_invalidated;
        Ok(stats)
    }

    fn compute(&mut self, request: &Request) -> Result<Response, SolveError> {
        self.stats.solver_runs += 1;
        match request {
            Request::Mis(opts) => self.compute_mis(opts),
            Request::Coloring(opts) => self.compute_coloring(opts),
            Request::Decompose(opts) => {
                let (i, provenance) = self.ensure_decomposition_traced(opts)?;
                let slot = &self.decomps[i];
                Ok(Response::Decompose {
                    quality: slot.quality,
                    meter: slot.meter,
                    provenance,
                })
            }
            Request::Slocal(opts) => self.compute_slocal(opts),
            Request::Verify(v) => Ok(self.compute_verify(v)),
        }
    }

    fn compute_mis(&mut self, opts: &MisOptions) -> Result<Response, SolveError> {
        let entry = registry::resolve(ProblemKind::Mis, opts.strategy).ok_or(
            SolveError::UnsupportedStrategy {
                problem: ProblemKind::Mis,
                strategy: opts.strategy,
            },
        )?;
        let out = match entry.strategy {
            Strategy::Direct => mis::luby(&self.graph, &mut PrngSource::seeded(opts.seed)),
            Strategy::ViaDecomposition => {
                let i = self.ensure_decomposition(&opts.decomposition)?;
                let slot = &self.decomps[i];
                mis::consume_with_plan(
                    &self.graph,
                    &slot.decomposition,
                    &slot.plan,
                    consume::resolve_threads(opts.threads),
                )
            }
            Strategy::Reference => {
                let i = self.ensure_decomposition(&opts.decomposition)?;
                mis::reference_via_decomposition(&self.graph, &self.decomps[i].decomposition)
            }
            Strategy::Auto => {
                return Err(SolveError::Internal {
                    context: "registry::resolve returned Strategy::Auto for MIS",
                })
            }
        };
        Ok(Response::Mis {
            in_mis: out.in_mis,
            meter: out.meter,
        })
    }

    fn compute_coloring(&mut self, opts: &ColoringOptions) -> Result<Response, SolveError> {
        let entry = registry::resolve(ProblemKind::Coloring, opts.strategy).ok_or(
            SolveError::UnsupportedStrategy {
                problem: ProblemKind::Coloring,
                strategy: opts.strategy,
            },
        )?;
        let out = match entry.strategy {
            Strategy::Direct => {
                coloring::random_coloring(&self.graph, &mut PrngSource::seeded(opts.seed))
            }
            Strategy::ViaDecomposition => {
                let i = self.ensure_decomposition(&opts.decomposition)?;
                let slot = &self.decomps[i];
                coloring::consume_with_plan(
                    &self.graph,
                    &slot.decomposition,
                    &slot.plan,
                    consume::resolve_threads(opts.threads),
                )
            }
            Strategy::Reference => {
                let i = self.ensure_decomposition(&opts.decomposition)?;
                coloring::reference_via_decomposition(&self.graph, &self.decomps[i].decomposition)
            }
            Strategy::Auto => {
                return Err(SolveError::Internal {
                    context: "registry::resolve returned Strategy::Auto for coloring",
                })
            }
        };
        Ok(Response::Coloring {
            colors: out.colors,
            palette: self.palette,
            meter: out.meter,
        })
    }

    fn compute_slocal(&mut self, opts: &SlocalOptions) -> Result<Response, SolveError> {
        let entry = registry::resolve(ProblemKind::Slocal, opts.strategy).ok_or(
            SolveError::UnsupportedStrategy {
                problem: ProblemKind::Slocal,
                strategy: opts.strategy,
            },
        )?;
        let r = opts.task.locality();
        let reference = entry.strategy == Strategy::Reference;
        let pi = self.ensure_power(r, !reference)?;
        let (output, rounds) = match opts.task {
            SlocalTask::GreedyMis => {
                let (out, rounds) =
                    self.run_reduction(pi, r, opts.threads, reference, greedy_mis_step)?;
                (SlocalOutput::Flags(out), rounds)
            }
            SlocalTask::GreedyColoring => {
                let (out, rounds) =
                    self.run_reduction(pi, r, opts.threads, reference, greedy_coloring_step)?;
                (SlocalOutput::Colors(out), rounds)
            }
            SlocalTask::DistanceTwoColoring => {
                let (out, rounds) =
                    self.run_reduction(pi, r, opts.threads, reference, distance_two_coloring_step)?;
                (SlocalOutput::Colors(out), rounds)
            }
        };
        Ok(Response::Slocal {
            output,
            meter: CostMeter::rounds_only(rounds),
        })
    }

    fn compute_verify(&self, v: &VerifyRequest) -> Response {
        let detail = match v {
            VerifyRequest::Mis { in_mis } => mis::verify_mis(&self.graph, in_mis).err(),
            VerifyRequest::Coloring { colors, palette } => {
                coloring::verify_coloring(&self.graph, colors, *palette).err()
            }
            VerifyRequest::Decomposition { decomposition } => decomposition
                .validate(&self.graph)
                .map(|_| ())
                .map_err(VerifyError::from)
                .err(),
        };
        Response::Verify(VerifyReport {
            ok: detail.is_none(),
            detail,
        })
    }

    /// Run one reduction over the cached plan `pi`. `threads == 1` (the
    /// default) executes sequentially over the session's own scratch arena;
    /// larger budgets delegate to the bucket-parallel sweep; both are
    /// bit-identical to the free functions (and to each other).
    fn run_reduction<T, F>(
        &mut self,
        pi: usize,
        r: u32,
        threads: usize,
        reference: bool,
        step: F,
    ) -> Result<(Vec<T>, u64), SolveError>
    where
        T: Send + Sync,
        F: Fn(&BallView<'_, T>) -> T + Sync,
    {
        let Session {
            graph,
            powers,
            slocal_scratch,
            ..
        } = self;
        let slot = &powers[pi];
        if reference {
            let out =
                slocal::reference_run_slocal_via_decomposition(graph, r, &slot.decomposition, step);
            return Ok((out.outputs, out.meter.rounds));
        }
        let Some(plan) = slot.plan.as_ref() else {
            return Err(SolveError::Internal {
                context: "ensure_power left a non-reference run without a reduction plan",
            });
        };
        if consume::resolve_threads(threads) <= 1 {
            let runner = SlocalRunner::new(graph, r);
            let (outputs, _stats) = runner.run_with(slocal_scratch, &plan.order, step);
            Ok((outputs, plan.rounds))
        } else {
            let outputs =
                slocal::reduction_with_plan(graph, r, &slot.decomposition, plan, threads, &step);
            Ok((outputs, plan.rounds))
        }
    }

    /// The decomposition-cache key for `opts`: [`DecompMethod::Auto`] is
    /// lowered to the concrete method it selects, and knobs the selected
    /// method ignores are normalized away, so requests differing only in an
    /// irrelevant field (a seed for the deterministic constructions, a cap
    /// for the non-truncated ones, the determinism knob once the method is
    /// fixed) share one cached build.
    fn canonical_decomp_options(opts: &DecomposeOptions) -> DecomposeOptions {
        let mut c = *opts;
        if c.method == DecompMethod::Auto {
            // Mirrors the registry's preference order: the deterministic
            // ball carving is the default tier; callers that waive
            // determinism get the near-linear randomized MPX tier (the
            // first `deterministic: false` decompose row).
            c.method = if c.require_deterministic {
                DecompMethod::BallCarving
            } else {
                DecompMethod::Mpx
            };
        }
        // Once the method is concrete these knobs carry no information:
        // determinism is implied by the method, and the deadline already
        // had its effect during `resolve_deadline` (before this key is
        // computed), so requests differing only in deadline knobs that
        // resolved to the same construction share one cached build.
        c.require_deterministic = true;
        c.deadline_ms = 0;
        c.degrade = DegradePolicy::default();
        match c.method {
            // Lowered to a concrete method above; nothing to normalize.
            DecompMethod::Auto => {}
            DecompMethod::BallCarving => {
                c.seed = 0;
                c.cap = 0;
            }
            DecompMethod::Mpx => c.cap = 0,
            DecompMethod::ElkinNeiman => c.cap = 0,
            DecompMethod::Derandomized => {
                c.seed = 0;
                // The build clamps `cap` to at least 1; key on the clamped
                // value so cap = 0 and cap = 1 share the build.
                c.cap = c.cap.max(1);
            }
        }
        c
    }

    /// Soft-deadline resolution for the Auto method (the graceful
    /// degradation rule, DESIGN.md §2.8): when Auto would pick the
    /// deterministic tier, a deadline is set, the policy allows degrading,
    /// and the cost probe estimates the deterministic build past the
    /// deadline, the request is rewritten to the near-linear randomized MPX
    /// tier. Returns `(effective options, degraded?, estimated_ms)`; the
    /// estimate is `0` when no deadline was consulted.
    fn resolve_deadline(&mut self, opts: &DecomposeOptions) -> (DecomposeOptions, bool, u64) {
        let deterministic_auto = opts.method == DecompMethod::Auto && opts.require_deterministic;
        if !deterministic_auto || opts.deadline_ms == 0 {
            return (*opts, false, 0);
        }
        let probe = self.probe.unwrap_or_else(CostProbe::calibrated);
        let estimated_ms = probe.estimate_ms(self.graph.node_count());
        if estimated_ms <= opts.deadline_ms || opts.degrade == DegradePolicy::Strict {
            return (*opts, false, estimated_ms);
        }
        let mut degraded = *opts;
        degraded.method = DecompMethod::Mpx;
        (degraded, true, estimated_ms)
    }

    /// [`Session::ensure_decomposition`] plus the provenance of the build
    /// that answered: which concrete construction ran and whether the soft
    /// deadline degraded the deterministic tier.
    fn ensure_decomposition_traced(
        &mut self,
        opts: &DecomposeOptions,
    ) -> Result<(usize, DecompProvenance), SolveError> {
        let (effective, degraded, estimated_ms) = self.resolve_deadline(opts);
        if degraded {
            self.stats.degraded += 1;
        }
        let i = self.ensure_decomposition_raw(&effective)?;
        let provenance = DecompProvenance {
            method: self.decomps[i].options.method,
            degraded,
            estimated_ms,
        };
        Ok((i, provenance))
    }

    pub(crate) fn ensure_decomposition(
        &mut self,
        opts: &DecomposeOptions,
    ) -> Result<usize, SolveError> {
        self.ensure_decomposition_traced(opts).map(|(i, _)| i)
    }

    fn ensure_decomposition_raw(&mut self, opts: &DecomposeOptions) -> Result<usize, SolveError> {
        let key = Self::canonical_decomp_options(opts);
        if let Some(i) = self.decomps.iter().position(|s| s.options == key) {
            self.stats.decomposition_hits += 1;
            return Ok(i);
        }
        let (decomposition, meter) = match key.method {
            DecompMethod::Auto => {
                return Err(SolveError::Internal {
                    context: "canonical_decomp_options failed to lower DecompMethod::Auto",
                })
            }
            DecompMethod::BallCarving => {
                let order: Vec<usize> = (0..self.graph.node_count()).collect();
                let r = ball_carving_decomposition(&self.graph, &order);
                (r.decomposition, CostMeter::rounds_only(r.sequential_rounds))
            }
            DecompMethod::Mpx => {
                if self.graph.node_count() == 0 {
                    // MPX requires a nonempty graph; the empty decomposition
                    // is unique, so build it through the carving path.
                    let r = ball_carving_decomposition(&self.graph, &[]);
                    (r.decomposition, CostMeter::rounds_only(0))
                } else {
                    let out =
                        mpx_partition(&self.graph, MPX_BETA, &mut PrngSource::seeded(opts.seed));
                    // One shifted BFS sweep: rounds ~ the largest shift
                    // (the cluster-radius scale), plus the final gather.
                    let rounds = out.max_shift.ceil().max(0.0) as u64 + 1;
                    (out.decomposition, CostMeter::rounds_only(rounds))
                }
            }
            DecompMethod::ElkinNeiman => {
                let cfg = ElkinNeimanConfig::for_graph(&self.graph);
                let out = elkin_neiman(&self.graph, &cfg, &mut PrngSource::seeded(opts.seed));
                match out.decomposition {
                    Some(d) => (d, out.meter),
                    None => {
                        return Err(SolveError::ConstructionFailed {
                            method: DecompMethod::ElkinNeiman,
                            detail: format!(
                                "{} nodes survived the phase budget",
                                out.survivors.len()
                            ),
                        })
                    }
                }
            }
            DecompMethod::Derandomized => {
                let r = derandomized_decomposition(&self.graph, opts.cap.max(1));
                (r.decomposition, CostMeter::rounds_only(u64::from(r.phases)))
            }
        };
        let plan =
            consume::plan_consumer_with(&self.graph, &decomposition, &mut self.diam_scratch)?;
        let quality = DecompQuality {
            colors: plan.classes.len(),
            max_diameter: plan.diam.iter().copied().max().unwrap_or(0),
            clusters: plan.diam.len(),
        };
        self.stats.decompositions_built += 1;
        self.decomps.push(DecompSlot {
            options: key,
            decomposition,
            quality,
            meter,
            plan,
        });
        Ok(self.decomps.len() - 1)
    }

    /// The cached power-graph slot for locality `r`, carving `G^{2r+1}` on
    /// first use. The reduction plan — the expensive weak-diameter sweep —
    /// is built only when `need_plan` (the fast path consults it; the
    /// reference path re-derives everything internally).
    fn ensure_power(&mut self, r: u32, need_plan: bool) -> Result<usize, SolveError> {
        let Session {
            graph,
            powers,
            diam_scratch,
            stats,
            ..
        } = self;
        let idx = match powers.iter().position(|s| s.r == r) {
            Some(i) => i,
            None => {
                let gp = power_graph(graph, 2 * r + 1);
                let order: Vec<usize> = (0..gp.node_count()).collect();
                let decomposition = ball_carving_decomposition(&gp, &order).decomposition;
                powers.push(PowerSlot {
                    r,
                    decomposition,
                    plan: None,
                    stale: false,
                });
                powers.len() - 1
            }
        };
        let slot = &mut powers[idx];
        if slot.stale {
            // The graph changed under this slot: keep the carved power
            // decomposition if it is still a weak decomposition of the new
            // `G^{2r+1}` (edits far from its clusters usually leave it
            // valid), otherwise carve afresh.
            if slot
                .decomposition
                .validate_weak_power(graph, 2 * r + 1)
                .is_err()
            {
                let gp = power_graph(graph, 2 * r + 1);
                let order: Vec<usize> = (0..gp.node_count()).collect();
                slot.decomposition = ball_carving_decomposition(&gp, &order).decomposition;
            }
            slot.stale = false;
        }
        if need_plan {
            let slot = &mut powers[idx];
            if slot.plan.is_some() {
                stats.power_plan_hits += 1;
            } else {
                let plan =
                    slocal::plan_reduction_with(graph, r, &slot.decomposition, diam_scratch)?;
                slot.plan = Some(plan);
                stats.power_plans_built += 1;
            }
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_rand::prng::SplitMix64;

    fn small_graph() -> Graph {
        let mut p = SplitMix64::new(77);
        Graph::gnp_connected(80, 0.05, &mut p)
    }

    #[test]
    fn response_cache_evicts_least_recently_used_within_budget() {
        let mut s = Session::new(small_graph());
        let direct = |seed| {
            Request::Mis(
                MisOptions::new()
                    .with_strategy(Strategy::Direct)
                    .with_seed(seed),
            )
        };
        let first = s.solve(&direct(1)).unwrap().clone();
        s.solve(&Request::coloring()).unwrap();
        let one_off = s.responses[0].bytes;
        assert!(one_off > 80, "the entry counts its 80-flag vector");
        // Room for the coloring and two one-off answers.
        s.response_budget = s.response_bytes + one_off;
        for seed in 2..=6 {
            // The hot coloring answer is touched between one-off requests,
            // so the one-offs are always the eviction victims.
            s.solve(&direct(seed)).unwrap();
            s.solve(&Request::coloring()).unwrap();
            assert!(s.response_bytes <= s.response_budget);
            assert_eq!(
                s.response_bytes,
                s.responses.iter().map(|e| e.bytes).sum::<usize>()
            );
        }
        let stats = s.stats();
        assert_eq!(stats.response_hits, 5, "the coloring never left the cache");
        // Seed 1 was evicted long ago: it is recomputed, bit-identically.
        assert_eq!(s.solve(&direct(1)).unwrap(), &first);
        assert_eq!(s.stats().solver_runs, stats.solver_runs + 1);
    }

    #[test]
    fn all_five_request_kinds_solve() {
        let g = small_graph();
        let mut s = Session::new(g.clone());
        let reqs = [
            Request::decompose(),
            Request::mis(),
            Request::coloring(),
            Request::slocal(SlocalTask::GreedyMis),
        ];
        for r in &reqs {
            s.solve(r).unwrap();
        }
        // Verify the MIS answer through a Verify request.
        let Response::Mis { in_mis, .. } = s.solve(&Request::mis()).unwrap().clone() else {
            panic!("MIS response expected");
        };
        let Response::Verify(report) = s.solve(&Request::verify_mis(in_mis)).unwrap() else {
            panic!("Verify response expected");
        };
        assert!(report.ok, "{:?}", report.detail);
    }

    #[test]
    fn repeated_requests_hit_the_cache_and_share_one_decomposition() {
        let mut s = Session::new(small_graph());
        let reqs = [
            Request::mis(),
            Request::coloring(),
            Request::decompose(),
            Request::slocal(SlocalTask::GreedyColoring),
        ];
        for r in &reqs {
            s.solve(r).unwrap();
        }
        let after_warmup = s.stats();
        assert_eq!(after_warmup.decompositions_built, 1, "one shared build");
        assert_eq!(after_warmup.power_plans_built, 1);
        for _ in 0..3 {
            for r in &reqs {
                s.solve(r).unwrap();
            }
        }
        let st = s.stats();
        assert_eq!(st.response_hits, 12, "all repeats were cache hits");
        assert_eq!(st.solver_runs, after_warmup.solver_runs);
        assert_eq!(st.decompositions_built, 1);
        assert_eq!(st.power_plans_built, 1);
    }

    #[test]
    fn session_answers_match_free_functions() {
        let g = small_graph();
        let mut s = Session::new(g.clone());

        let order: Vec<usize> = (0..g.node_count()).collect();
        let d = ball_carving_decomposition(&g, &order).decomposition;
        let mis_direct = mis::via_decomposition(&g, &d);
        let Response::Mis { in_mis, meter } = s.solve(&Request::mis()).unwrap() else {
            panic!()
        };
        assert_eq!(*in_mis, mis_direct.in_mis);
        assert_eq!(*meter, mis_direct.meter);

        let col_direct = coloring::via_decomposition(&g, &d);
        let Response::Coloring {
            colors, palette, ..
        } = s.solve(&Request::coloring()).unwrap()
        else {
            panic!()
        };
        assert_eq!(*colors, col_direct.colors);
        assert_eq!(*palette, g.max_degree() + 1);

        let luby_direct = mis::luby(&g, &mut PrngSource::seeded(9));
        let req = Request::Mis(
            MisOptions::new()
                .with_strategy(Strategy::Direct)
                .with_seed(9),
        );
        let Response::Mis { in_mis, .. } = s.solve(&req).unwrap() else {
            panic!()
        };
        assert_eq!(*in_mis, luby_direct.in_mis);
    }

    #[test]
    fn reference_strategy_is_bit_identical() {
        let g = small_graph();
        let mut s = Session::new(g);
        let fast = s.solve(&Request::Mis(MisOptions::new())).unwrap().clone();
        let reference = s
            .solve(&Request::Mis(
                MisOptions::new().with_strategy(Strategy::Reference),
            ))
            .unwrap();
        assert_eq!(&fast, reference);
    }

    #[test]
    fn unsupported_strategy_is_a_typed_error_and_errors_are_cached() {
        let mut s = Session::new(Graph::path(4));
        let bad = Request::Slocal(
            SlocalOptions::new(SlocalTask::GreedyMis).with_strategy(Strategy::Direct),
        );
        let err = s.solve(&bad).unwrap_err();
        assert_eq!(
            err,
            SolveError::UnsupportedStrategy {
                problem: ProblemKind::Slocal,
                strategy: Strategy::Direct,
            }
        );
        assert!(err.to_string().contains("slocal"));
        // Solvers are deterministic, so the failure is cached like an
        // answer: repeating the request re-reports it without re-running.
        let runs = s.stats().solver_runs;
        assert_eq!(s.solve(&bad).unwrap_err(), err);
        assert_eq!(s.stats().solver_runs, runs, "failing request re-ran");
        assert_eq!(s.stats().response_hits, 1);
    }

    #[test]
    fn reference_only_slocal_skips_the_reduction_plan() {
        let mut s = Session::new(Graph::grid(6, 6));
        s.solve(&Request::Slocal(
            SlocalOptions::new(SlocalTask::GreedyMis).with_strategy(Strategy::Reference),
        ))
        .unwrap();
        assert_eq!(
            s.stats().power_plans_built,
            0,
            "the reference oracle never consults the fast-path plan"
        );
        // A fast request on the same locality reuses the carved power
        // decomposition and builds the plan exactly once.
        s.solve(&Request::slocal(SlocalTask::GreedyMis)).unwrap();
        assert_eq!(s.stats().power_plans_built, 1);
    }

    #[test]
    fn verify_failures_are_answers_not_errors() {
        let mut s = Session::new(Graph::path(3));
        let Response::Verify(report) = s
            .solve(&Request::verify_mis(vec![true, true, false]))
            .unwrap()
        else {
            panic!()
        };
        assert!(!report.ok);
        assert!(report.detail.is_some());
        // Wrong length is also a verification failure, not a SolveError.
        let Response::Verify(report) = s.solve(&Request::verify_coloring(vec![0], 2)).unwrap()
        else {
            panic!()
        };
        assert!(!report.ok);
    }

    #[test]
    fn ignored_option_knobs_share_one_cached_decomposition() {
        let mut s = Session::new(small_graph());
        // Ball carving ignores the seed and the cap: ten variants, one build.
        for seed in 0..10u64 {
            s.solve(&Request::Decompose(
                DecomposeOptions::new()
                    .with_seed(seed)
                    .with_cap(seed as u32),
            ))
            .unwrap();
        }
        assert_eq!(s.stats().decompositions_built, 1);
        // A genuinely different construction is a second build.
        s.solve(&Request::Decompose(
            DecomposeOptions::new().with_method(DecompMethod::Derandomized),
        ))
        .unwrap();
        assert_eq!(s.stats().decompositions_built, 2);
        // The derandomized construction ignores the seed but not the cap.
        s.solve(&Request::Decompose(
            DecomposeOptions::new()
                .with_method(DecompMethod::Derandomized)
                .with_seed(5),
        ))
        .unwrap();
        assert_eq!(s.stats().decompositions_built, 2);
    }

    #[test]
    fn decomposition_accessor_returns_the_cached_object() {
        let g = small_graph();
        let mut s = Session::new(g.clone());
        s.solve(&Request::mis()).unwrap();
        let built = s.stats().decompositions_built;
        let d = s.decomposition(&DecomposeOptions::new()).unwrap().clone();
        assert_eq!(s.stats().decompositions_built, built, "accessor reused it");
        d.validate(&g).unwrap();
    }

    #[test]
    fn slocal_threads_and_strategies_agree() {
        let g = Graph::grid(9, 9);
        let mut s = Session::new(g);
        let base = s
            .solve(&Request::slocal(SlocalTask::GreedyMis))
            .unwrap()
            .clone();
        for req in [
            Request::Slocal(SlocalOptions::new(SlocalTask::GreedyMis).with_threads(4)),
            Request::Slocal(
                SlocalOptions::new(SlocalTask::GreedyMis).with_strategy(Strategy::Reference),
            ),
        ] {
            let got = s.solve(&req).unwrap();
            assert_eq!(&base, got);
        }
    }

    /// A batch toggling one absent and one present edge of `g`.
    fn toggle_batch(g: &Graph) -> EditBatch {
        let mut batch = EditBatch::new();
        let (u, v) = g.edges().next().expect("graph has edges");
        batch.remove_edge(u, v).unwrap();
        let absent = (0..g.node_count())
            .flat_map(|a| (a + 1..g.node_count()).map(move |b| (a, b)))
            .find(|&(a, b)| !g.has_edge(a, b) && (a, b) != (u, v))
            .expect("graph is not complete");
        batch.add_edge(absent.0, absent.1).unwrap();
        batch
    }

    #[test]
    fn apply_edits_keeps_answers_consistent_with_free_functions() {
        let g = small_graph();
        let mut s = Session::new(g.clone());
        s.solve(&Request::mis()).unwrap();
        s.solve(&Request::coloring()).unwrap();

        let batch = toggle_batch(&g);
        let h = g.apply_edits(&batch).unwrap();
        let stats = s.apply_edits(batch).unwrap();
        assert_eq!(stats.edits, 2);
        assert_eq!(stats.decomps_repaired + stats.decomps_rebuilt, 1);

        assert_eq!(s.graph(), &h, "session now pins the edited graph");
        assert_eq!(s.palette(), h.max_degree() + 1);
        // The repaired decomposition is valid for the edited graph and the
        // cached consumer path matches the free functions on it.
        let d = s.decomposition(&DecomposeOptions::new()).unwrap().clone();
        d.validate(&h).expect("repaired decomposition is valid");
        let Response::Mis { in_mis, .. } = s.solve(&Request::mis()).unwrap() else {
            panic!()
        };
        assert_eq!(*in_mis, mis::via_decomposition(&h, &d).in_mis);
        let Response::Coloring { colors, .. } = s.solve(&Request::coloring()).unwrap() else {
            panic!()
        };
        assert_eq!(*colors, coloring::via_decomposition(&h, &d).colors);
    }

    #[test]
    fn apply_edits_invalidates_only_graph_dependent_responses() {
        let mut s = Session::new(small_graph());
        let bad = Request::Slocal(
            SlocalOptions::new(SlocalTask::GreedyMis).with_strategy(Strategy::Direct),
        );
        s.solve(&bad).unwrap_err();
        s.solve(&Request::mis()).unwrap();
        s.solve(&Request::decompose()).unwrap();

        let batch = toggle_batch(s.graph());
        let stats = s.apply_edits(batch).unwrap();
        assert_eq!(stats.responses_retained, 1, "the typed error survives");
        assert_eq!(stats.responses_invalidated, 2, "graph answers dropped");

        // The retained error is still a cache hit; the solver never re-runs.
        let hits = s.stats().response_hits;
        s.solve(&bad).unwrap_err();
        assert_eq!(s.stats().response_hits, hits + 1);
    }

    #[test]
    fn apply_edits_marks_power_slots_stale_and_revalidates_lazily() {
        let g = Graph::grid(7, 7);
        let mut s = Session::new(g.clone());
        let base = s
            .solve(&Request::slocal(SlocalTask::GreedyMis))
            .unwrap()
            .clone();
        assert_eq!(s.stats().power_plans_built, 1);

        let batch = toggle_batch(&g);
        let h = g.apply_edits(&batch).unwrap();
        let stats = s.apply_edits(batch).unwrap();
        assert_eq!(stats.power_slots_stale, 1);

        // The next SLOCAL request revalidates the stale slot, rebuilds the
        // reduction plan (it encodes graph distances), and agrees with the
        // free function on the edited graph.
        let got = s
            .solve(&Request::slocal(SlocalTask::GreedyMis))
            .unwrap()
            .clone();
        assert_eq!(s.stats().power_plans_built, 2);
        let Response::Slocal {
            output: SlocalOutput::Flags(flags),
            ..
        } = &got
        else {
            panic!()
        };
        let free = slocal::run_slocal_via_decomposition(
            &h,
            1,
            &s.powers[0].decomposition,
            greedy_mis_step,
        );
        assert_eq!(flags, &free.outputs);
        // The answer is allowed to differ from the pre-edit one (different
        // graph), but must have the same shape.
        let Response::Slocal {
            output: SlocalOutput::Flags(old_flags),
            ..
        } = &base
        else {
            panic!()
        };
        assert_eq!(flags.len(), old_flags.len());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut s = Session::new(small_graph());
        s.solve(&Request::mis()).unwrap();
        let responses_before = s.responses.len();
        let stats = s.apply_edits(EditBatch::new()).unwrap();
        assert_eq!(stats, RepairStats::default());
        assert_eq!(s.responses.len(), responses_before, "cache untouched");
    }

    #[test]
    fn rejected_batch_leaves_the_session_unchanged() {
        let g = small_graph();
        let mut s = Session::new(g.clone());
        s.solve(&Request::mis()).unwrap();
        let (u, v) = g.edges().next().unwrap();
        let mut batch = EditBatch::new();
        batch.add_edge(u, v).unwrap(); // already present: rejected at apply
        let err = s.apply_edits(batch).unwrap_err();
        assert!(matches!(err, SolveError::InvalidEdits(_)));
        assert_eq!(s.graph(), &g);
        let hits = s.stats().response_hits;
        s.solve(&Request::mis()).unwrap();
        assert_eq!(s.stats().response_hits, hits + 1, "cache intact");
    }

    #[test]
    fn empty_and_tiny_graphs_serve() {
        for g in [Graph::empty(0), Graph::empty(1), Graph::path(2)] {
            let mut s = Session::new(g);
            for r in [
                Request::mis(),
                Request::coloring(),
                Request::decompose(),
                Request::slocal(SlocalTask::GreedyMis),
            ] {
                s.solve(&r).unwrap();
            }
        }
    }

    #[test]
    fn blown_deadline_degrades_auto_to_mpx_with_provenance() {
        let g = small_graph();
        let mut s = Session::new(g.clone());
        // Every node "costs" a full second: any deadline is blown.
        s.set_cost_probe(CostProbe::fixed(1e9));
        let opts = DecomposeOptions::new().with_deadline_ms(50).with_seed(3);
        let Response::Decompose { provenance, .. } =
            s.solve(&Request::Decompose(opts)).unwrap().clone()
        else {
            panic!()
        };
        assert!(provenance.degraded);
        assert_eq!(provenance.method, DecompMethod::Mpx);
        assert!(provenance.estimated_ms > 50);
        // The degraded answer is still a valid decomposition.
        let d = s.decomposition(&opts).unwrap().clone();
        d.validate(&g).unwrap();
        // And it is the same build an explicit MPX request would get: the
        // degraded request shares the MPX cache slot.
        let mpx = DecomposeOptions::new()
            .with_method(DecompMethod::Mpx)
            .with_seed(3);
        let before = s.stats().decompositions_built;
        s.solve(&Request::Decompose(mpx)).unwrap();
        assert_eq!(s.stats().decompositions_built, before, "cache shared");
    }

    #[test]
    fn met_deadline_and_strict_policy_stay_deterministic() {
        let g = small_graph();

        // Estimate fits the deadline: no degradation, estimate reported.
        let mut s = Session::new(g.clone());
        s.set_cost_probe(CostProbe::fixed(1.0)); // ~80 ns total
        let fits = DecomposeOptions::new().with_deadline_ms(1_000);
        let Response::Decompose { provenance, .. } =
            s.solve(&Request::Decompose(fits)).unwrap().clone()
        else {
            panic!()
        };
        assert!(!provenance.degraded);
        assert_eq!(provenance.method, DecompMethod::BallCarving);

        // Blown deadline under Strict: deterministic tier anyway, and the
        // exceeded estimate is visible in the provenance.
        let mut s = Session::new(g.clone());
        s.set_cost_probe(CostProbe::fixed(1e9));
        let strict = DecomposeOptions::new()
            .with_deadline_ms(50)
            .with_degrade(DegradePolicy::Strict);
        let Response::Decompose { provenance, .. } =
            s.solve(&Request::Decompose(strict)).unwrap().clone()
        else {
            panic!()
        };
        assert!(!provenance.degraded);
        assert_eq!(provenance.method, DecompMethod::BallCarving);
        assert!(provenance.estimated_ms > 50);

        // No deadline: the probe is never consulted, estimate reads 0.
        let mut s = Session::new(g);
        s.set_cost_probe(CostProbe::fixed(1e9));
        let Response::Decompose { provenance, .. } =
            s.solve(&Request::decompose()).unwrap().clone()
        else {
            panic!()
        };
        assert!(!provenance.degraded);
        assert_eq!(provenance.estimated_ms, 0);
        assert_eq!(provenance.method, DecompMethod::BallCarving);
    }

    #[test]
    fn deadline_with_concrete_method_is_ignored() {
        let mut s = Session::new(small_graph());
        s.set_cost_probe(CostProbe::fixed(1e9));
        let opts = DecomposeOptions::new()
            .with_method(DecompMethod::Derandomized)
            .with_deadline_ms(1);
        let Response::Decompose { provenance, .. } =
            s.solve(&Request::Decompose(opts)).unwrap().clone()
        else {
            panic!()
        };
        assert!(!provenance.degraded);
        assert_eq!(provenance.method, DecompMethod::Derandomized);
    }

    #[test]
    fn persist_restore_answers_bit_identically() {
        let g = small_graph();
        let mut s = Session::new(g.clone());
        let workload = [
            Request::decompose(),
            Request::mis(),
            Request::coloring(),
            Request::slocal(SlocalTask::GreedyColoring),
        ];
        let expected: Vec<_> = workload.iter().map(|r| s.solve(r).cloned()).collect();

        let path = std::env::temp_dir().join(format!(
            "locality-session-roundtrip-{}.bin",
            std::process::id()
        ));
        s.persist(&path).unwrap();
        let mut restored = Session::restore(g, &path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(
            restored.stats().decompositions_built,
            0,
            "restore installs cached slots without rebuilding"
        );
        let got: Vec<_> = workload
            .iter()
            .map(|r| restored.solve(r).cloned())
            .collect();
        assert_eq!(got, expected, "restored session answers bit-identically");
        assert_eq!(
            restored.stats().decompositions_built,
            0,
            "the restored decomposition served every consumer"
        );
    }
}
