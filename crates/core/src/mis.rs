//! Maximal independent set — the problem behind Linial's question (§1).
//!
//! Two algorithms:
//! - [`luby`]: the classic randomized `O(log n)`-round algorithm
//!   [Lub86, ABI86] (random priorities, local minima join);
//! - [`via_decomposition`]: the deterministic solver that consumes a network
//!   decomposition — the mechanism that makes decomposition complete for
//!   `P-RLOCAL` vs `P-LOCAL`: process color classes in order; within a color,
//!   every cluster (same-color clusters are non-adjacent, so this is
//!   parallel) gathers its topology plus its frontier's already-fixed
//!   outputs in `O(diameter)` rounds and extends greedily.

use crate::algorithm::{node_seed, run_congest_protocol, AlgorithmRun, LocalAlgorithm};
use crate::checkers::{VerifyError, VerifyErrorKind};
use crate::decomposition::types::Decomposition;
use locality_graph::ids::IdAssignment;
use locality_graph::Graph;
use locality_rand::source::{BitSource, PrngSource};
use locality_sim::cost::CostMeter;
use locality_sim::executor::{BatchProtocol, Control, Inbox, Outlet};
use locality_sim::node::NodeContext;
use locality_sim::wire::{Compact, WireSize};

/// Verify the MIS property; returns the first violation as a typed
/// [`VerifyError`] — match on its `kind`/`node` or render via `Display`.
pub fn verify_mis(g: &Graph, in_mis: &[bool]) -> Result<(), VerifyError> {
    if in_mis.len() != g.node_count() {
        return Err(VerifyError::new(
            VerifyErrorKind::WrongLength,
            None,
            "wrong vector length",
        ));
    }
    for (u, v) in g.edges() {
        if in_mis[u] && in_mis[v] {
            return Err(VerifyError::new(
                VerifyErrorKind::AdjacentInSet,
                Some(u),
                format!("adjacent nodes {u},{v} both in MIS"),
            ));
        }
    }
    for v in g.nodes() {
        if !in_mis[v] && !g.neighbors(v).iter().any(|&u| in_mis[u]) {
            return Err(VerifyError::new(
                VerifyErrorKind::Undominated,
                Some(v),
                format!("node {v} is undominated"),
            ));
        }
    }
    Ok(())
}

/// Result of an MIS computation.
#[derive(Debug, Clone)]
pub struct MisOutcome {
    /// Membership vector.
    pub in_mis: Vec<bool>,
    /// Round/randomness accounting.
    pub meter: CostMeter,
}

/// Luby's algorithm: each iteration, every alive node draws a
/// `4·⌈log n⌉`-bit priority; local minima (ties by node index) join the MIS
/// and are removed together with their neighbors. Each iteration costs two
/// communication rounds.
///
/// # Example
/// ```
/// use locality_core::mis::{luby, verify_mis};
/// use locality_graph::prelude::*;
/// use locality_rand::prelude::*;
///
/// let g = Graph::grid(8, 8);
/// let out = luby(&g, &mut PrngSource::seeded(1));
/// verify_mis(&g, &out.in_mis).unwrap();
/// ```
pub fn luby(g: &Graph, src: &mut impl BitSource) -> MisOutcome {
    let n = g.node_count();
    let prio_bits = 4 * g.log2_n();
    let mut alive = vec![true; n];
    let mut in_mis = vec![false; n];
    let mut meter = CostMeter::default();
    let mut remaining: usize = n;

    // Explicit alive-node worklist (kept in ascending order, so the draw
    // sequence — and therefore every output bit — is identical to scanning
    // `0..n` and skipping dead nodes): each iteration costs
    // `O(alive + their edges)`, not `O(n + m)`, which matters because the
    // alive set decays geometrically while the iteration count is `O(log n)`.
    let mut worklist: Vec<usize> = (0..n).collect();
    let mut prio = vec![0u64; n];
    let mut joins: Vec<usize> = Vec::new();

    while remaining > 0 {
        meter.rounds += 2;
        let before = src.bits_drawn();
        for &v in &worklist {
            prio[v] = src.next_bits(prio_bits).expect("unbounded source"); // audit: allow(panic) -- the seed source is constructed unbounded a few lines up
        }
        meter.random_bits += src.bits_drawn() - before;

        joins.clear();
        joins.extend(worklist.iter().copied().filter(|&v| {
            g.neighbors(v)
                .iter()
                .all(|&u| !alive[u] || (prio[v], v) < (prio[u], u))
        }));
        for &v in &joins {
            in_mis[v] = true;
            alive[v] = false;
            remaining -= 1;
            for &u in g.neighbors(v) {
                if alive[u] {
                    alive[u] = false;
                    remaining -= 1;
                }
            }
        }
        worklist.retain(|&v| alive[v]);
    }
    MisOutcome { in_mis, meter }
}

/// Deterministic MIS from a network decomposition: color classes in
/// ascending color order; within a class, each cluster solves greedily
/// (members in index order) against the already-fixed outside outputs.
/// Rounds charged: per color, `2·(max cluster diameter of that color) + 2`
/// (gather + decide + report), as in the standard completeness argument.
///
/// Same-color clusters are non-adjacent (that is the decomposition's
/// properness invariant, validated here), so a color class's clusters are
/// processed in parallel over fixed cluster buckets — exactly the
/// parallelism the completeness theorem grants — with outputs bit-identical
/// for every thread count. Equivalent to the retained
/// [`reference_via_decomposition`], which differential tests pin.
///
/// # Panics
/// Panics if `d` is not a valid decomposition of `g` (checked).
pub fn via_decomposition(g: &Graph, d: &Decomposition) -> MisOutcome {
    via_decomposition_threads(g, d, 0)
}

/// [`via_decomposition`] with an explicit thread count (`0` = all available).
/// Under the `determinism-checks` cargo feature each call re-runs
/// single-threaded and asserts bit-identical output.
///
/// # Panics
/// Panics if `d` is not a valid decomposition of `g` (checked).
pub fn via_decomposition_threads(g: &Graph, d: &Decomposition, threads: usize) -> MisOutcome {
    let result = mis_consume(g, d, crate::consume::resolve_threads(threads));
    #[cfg(feature = "determinism-checks")]
    {
        let sequential = mis_consume(g, d, 1);
        assert_eq!(
            result.in_mis, sequential.in_mis,
            "determinism check: parallel MIS consumer diverged from sequential"
        );
        assert_eq!(result.meter, sequential.meter);
    }
    result
}

fn mis_consume(g: &Graph, d: &Decomposition, threads: usize) -> MisOutcome {
    let plan = crate::consume::plan_consumer(g, d).expect("decomposition must be valid"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
    consume_with_plan(g, d, &plan, threads)
}

/// The plan-reusing form of the deterministic consumer: callers that already
/// hold a validated [`ConsumerPlan`](crate::consume::ConsumerPlan) (the
/// serving [`Session`](crate::serve::Session), which validates once and
/// amortizes it across requests) skip re-validating the decomposition.
/// Bit-identical to [`via_decomposition_threads`] by construction.
pub(crate) fn consume_with_plan(
    g: &Graph,
    d: &Decomposition,
    plan: &crate::consume::ConsumerPlan,
    threads: usize,
) -> MisOutcome {
    let clustering = d.clustering();
    let n = g.node_count();
    let mut in_mis = vec![false; n];
    let mut decided = vec![false; n];
    let mut meter = CostMeter::default();

    for (_, clusters) in &plan.classes {
        let color_diam = clusters
            .iter()
            .map(|&c| u64::from(plan.diam[c as usize]))
            .max()
            .unwrap_or(0);
        let members_total: usize = clusters
            .iter()
            .map(|&c| clustering.members(c as usize).len())
            .sum();
        let parallel = members_total >= crate::consume::PARALLEL_MIN_MEMBERS;
        let staged = crate::consume::process_clusters(
            clusters,
            threads,
            parallel,
            || (),
            &|(), c, out: &mut Vec<(u32, bool)>| {
                // Greedy over the cluster's members in index order. Earlier
                // members of *this* cluster live in `out[base..]` (sorted —
                // members ascend); everything else relevant is in the frozen
                // `decided`/`in_mis` state of previous colors, because
                // same-color clusters are non-adjacent.
                let base = out.len();
                for &v in clustering.members(c as usize) {
                    let blocked = g.neighbors(v).iter().any(|&u| {
                        if decided[u] && in_mis[u] {
                            return true;
                        }
                        matches!(
                            out[base..].binary_search_by_key(&(u as u32), |&(w, _)| w),
                            Ok(i) if out[base + i].1
                        )
                    });
                    out.push((v as u32, !blocked));
                }
            },
        );
        for bucket in staged {
            for (v, joined) in bucket {
                in_mis[v as usize] = joined;
                decided[v as usize] = true;
            }
        }
        meter.rounds += 2 * color_diam + 2;
    }
    debug_assert!(decided.iter().all(|&x| x));
    MisOutcome { in_mis, meter }
}

/// The pre-optimization deterministic consumer, retained as the differential
/// oracle for [`via_decomposition`]: sequential cluster sweep with a fresh
/// full-graph induced-subgraph diameter computation per cluster (the
/// pre-rewrite validator's cost, via the retained reference validate) —
/// `O(n)`-ish work per cluster that dies at a few thousand nodes, but whose
/// decision rule is the specification.
///
/// # Panics
/// Panics if `d` is not a valid decomposition of `g` (checked).
pub fn reference_via_decomposition(g: &Graph, d: &Decomposition) -> MisOutcome {
    crate::consume::reference_validate(g, d).expect("decomposition must be valid"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
    let clustering = d.clustering();
    let mut colors: Vec<usize> = (0..clustering.cluster_count())
        .map(|c| d.color_of_cluster(c))
        .collect();
    colors.sort_unstable();
    colors.dedup();

    let n = g.node_count();
    let mut in_mis = vec![false; n];
    let mut decided = vec![false; n];
    let mut meter = CostMeter::default();

    for &color in &colors {
        let mut color_diam = 0u64;
        for c in 0..clustering.cluster_count() {
            if d.color_of_cluster(c) != color {
                continue;
            }
            let members = clustering.members(c);
            color_diam = color_diam.max(
                locality_graph::metrics::reference_induced_diameter(g, members)
                    .expect("clusters are connected") as u64, // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
            );
            for &v in members {
                let blocked = g.neighbors(v).iter().any(|&u| decided[u] && in_mis[u]);
                if !blocked {
                    in_mis[v] = true;
                }
                decided[v] = true;
            }
        }
        meter.rounds += 2 * color_diam + 2;
    }
    debug_assert!(decided.iter().all(|&x| x));
    MisOutcome { in_mis, meter }
}

/// Wire messages of the distributed Luby protocol. Priorities carry the
/// sender's id for tie-breaking; both fields are width-aware [`Compact`]
/// values, so the protocol is CONGEST-clean (`≤ 5·log n + 1` bits against
/// the default `8·log n` budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisMsg {
    /// "My priority this iteration is `.0`; my id is `.1`."
    Priority(Compact, Compact),
    /// "I joined the MIS — remove yourselves."
    Join,
}

impl WireSize for MisMsg {
    fn wire_bits(&self) -> u64 {
        1 + match self {
            MisMsg::Priority(p, id) => p.wire_bits() + id.wire_bits(),
            MisMsg::Join => 0,
        }
    }
}

/// Luby's algorithm as a genuine per-node engine protocol (two engine rounds
/// per iteration): odd rounds deliver priorities and local minima announce
/// `Join`; even rounds deliver the announcements — joiners halt *in*, their
/// neighbors halt *out*, everyone else redraws.
///
/// Messages are `Copy`, so the executor's round loop stays allocation-free.
#[derive(Debug, Clone)]
pub struct LubyProtocol {
    src: PrngSource,
    prio_bits: u32,
    id_width: u16,
    joined: bool,
    prio: u64,
    id: u64,
}

impl LubyProtocol {
    /// One instance for node `v`; randomness is derived from
    /// [`node_seed`]`(seed, id)`, so a run is reproducible node-by-node.
    pub fn new(g: &Graph, ids: &IdAssignment, v: usize, seed: u64) -> Self {
        Self {
            // 4·log n priority bits, capped at 60 so a priority always fits
            // one word draw (beyond n = 2^15 extra bits only shave an
            // already-negligible tie probability, and ties break by id).
            src: PrngSource::seeded(node_seed(seed, ids.id_of(v))),
            prio_bits: (4 * g.log2_n()).min(60),
            id_width: ids.bit_len().max(1) as u16,
            joined: false,
            prio: 0,
            id: ids.id_of(v),
        }
    }

    /// Random bits this node has drawn so far.
    pub fn bits_drawn(&self) -> u64 {
        self.src.bits_drawn()
    }

    fn draw_and_announce(&mut self, out: &mut Outlet<'_, MisMsg>) {
        self.prio = self.src.next_bits(self.prio_bits).expect("unbounded"); // audit: allow(panic) -- the seed source is constructed unbounded a few lines up
        out.broadcast(MisMsg::Priority(
            Compact::new(self.prio, self.prio_bits as u16),
            Compact::new(self.id, self.id_width),
        ));
    }
}

impl BatchProtocol for LubyProtocol {
    type Message = MisMsg;
    type Output = bool;

    fn start(&mut self, _ctx: &NodeContext, out: &mut Outlet<'_, MisMsg>) {
        self.draw_and_announce(out);
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, MisMsg>,
        out: &mut Outlet<'_, MisMsg>,
    ) -> Control<bool> {
        if round % 2 == 1 {
            // Priorities are in: am I the local minimum among still-alive
            // neighbors (ties by id)?
            let is_min = inbox.iter().all(|(_, msg)| match msg {
                MisMsg::Priority(p, id) => (self.prio, self.id) < (p.value(), id.value()),
                MisMsg::Join => true,
            });
            if is_min {
                self.joined = true;
                out.broadcast(MisMsg::Join);
            }
            Control::Continue
        } else {
            // Join announcements are in.
            if self.joined {
                return Control::Halt(true);
            }
            if inbox.iter().any(|(_, msg)| matches!(msg, MisMsg::Join)) {
                return Control::Halt(false);
            }
            self.draw_and_announce(out);
            Control::Continue
        }
    }
}

/// Luby's MIS through the unified [`LocalAlgorithm`] interface, executed as
/// a CONGEST protocol on the arena engine (so rounds/messages/random bits in
/// the returned [`RoundStats`] are measured, not charged analytically).
#[derive(Debug, Clone, Copy)]
pub struct LubyMis {
    /// Worker threads for node steps (`1` = sequential; `0` = all cores).
    /// Any value produces bit-identical results.
    pub threads: usize,
    /// Executor round cap (`0` = a generous `w.h.p.`-safe default).
    pub max_rounds: u32,
}

impl Default for LubyMis {
    fn default() -> Self {
        Self {
            threads: 1,
            max_rounds: 0,
        }
    }
}

impl LocalAlgorithm for LubyMis {
    type Label = bool;

    fn name(&self) -> &'static str {
        "luby-mis"
    }

    fn run(&self, g: &Graph, ids: &IdAssignment, seed: u64) -> AlgorithmRun<bool> {
        run_congest_protocol(
            self.name(),
            g,
            ids,
            self.threads,
            self.max_rounds,
            (0..g.node_count()).map(|v| LubyProtocol::new(g, ids, v, seed)),
            LubyProtocol::bits_drawn,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::carving::ball_carving_decomposition;
    use locality_graph::generators::Family;
    use locality_rand::prelude::*;

    #[test]
    fn luby_valid_on_families() {
        let mut p = SplitMix64::new(101);
        for fam in Family::ALL {
            let g = fam.generate(150, &mut p);
            let mut src = PrngSource::seeded(fam as u64 + 1);
            let out = luby(&g, &mut src);
            verify_mis(&g, &out.in_mis).unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            assert!(out.meter.random_bits > 0);
        }
    }

    #[test]
    fn luby_rounds_are_logarithmic() {
        let mut p = SplitMix64::new(103);
        let g = Graph::gnp_connected(500, 0.01, &mut p);
        let mut src = PrngSource::seeded(5);
        let out = luby(&g, &mut src);
        // 2 rounds per iteration; whp O(log n) iterations.
        assert!(
            out.meter.rounds <= 8 * g.log2_n() as u64,
            "rounds {}",
            out.meter.rounds
        );
    }

    /// The pre-worklist Luby loop (full `0..n` scan per iteration), kept
    /// verbatim as the bit-for-bit specification of the worklist rewrite.
    fn scan_luby(g: &Graph, src: &mut impl BitSource) -> MisOutcome {
        let n = g.node_count();
        let prio_bits = 4 * g.log2_n();
        let mut alive = vec![true; n];
        let mut in_mis = vec![false; n];
        let mut meter = CostMeter::default();
        let mut remaining: usize = n;
        while remaining > 0 {
            meter.rounds += 2;
            let before = src.bits_drawn();
            let prio: Vec<u64> = (0..n)
                .map(|v| {
                    if alive[v] {
                        src.next_bits(prio_bits).expect("unbounded source")
                    } else {
                        u64::MAX
                    }
                })
                .collect();
            meter.random_bits += src.bits_drawn() - before;
            let joins: Vec<usize> = (0..n)
                .filter(|&v| {
                    alive[v]
                        && g.neighbors(v)
                            .iter()
                            .all(|&u| !alive[u] || (prio[v], v) < (prio[u], u))
                })
                .collect();
            for &v in &joins {
                in_mis[v] = true;
                alive[v] = false;
                remaining -= 1;
                for &u in g.neighbors(v) {
                    if alive[u] {
                        alive[u] = false;
                        remaining -= 1;
                    }
                }
            }
        }
        MisOutcome { in_mis, meter }
    }

    #[test]
    fn luby_worklist_is_bit_identical_to_scan() {
        let mut p = SplitMix64::new(301);
        for fam in Family::ALL {
            for seed in 0..4u64 {
                let g = fam.generate(130, &mut p);
                let a = luby(&g, &mut PrngSource::seeded(seed * 31 + 1));
                let b = scan_luby(&g, &mut PrngSource::seeded(seed * 31 + 1));
                assert_eq!(a.in_mis, b.in_mis, "{} seed {seed}", fam.name());
                assert_eq!(a.meter.rounds, b.meter.rounds);
                assert_eq!(a.meter.random_bits, b.meter.random_bits);
            }
        }
    }

    #[test]
    fn via_decomposition_matches_reference_and_threads() {
        let mut p = SplitMix64::new(303);
        for fam in Family::ALL {
            let g = fam.generate(110, &mut p);
            let order: Vec<usize> = (0..g.node_count()).collect();
            let d = ball_carving_decomposition(&g, &order).decomposition;
            let reference = reference_via_decomposition(&g, &d);
            for threads in [1usize, 3, 64] {
                let fast = via_decomposition_threads(&g, &d, threads);
                assert_eq!(fast.in_mis, reference.in_mis, "{}", fam.name());
                assert_eq!(fast.meter, reference.meter, "{}", fam.name());
            }
        }
    }

    #[test]
    fn via_decomposition_parallel_path_engages_and_matches() {
        // Large enough that color classes cross the parallel threshold.
        let g = Graph::cycle(6000);
        let order: Vec<usize> = (0..g.node_count()).collect();
        let d = ball_carving_decomposition(&g, &order).decomposition;
        let a = via_decomposition_threads(&g, &d, 1);
        for threads in [2usize, 5] {
            let b = via_decomposition_threads(&g, &d, threads);
            assert_eq!(a.in_mis, b.in_mis, "threads={threads}");
            assert_eq!(a.meter, b.meter, "threads={threads}");
        }
        verify_mis(&g, &a.in_mis).unwrap();
    }

    #[test]
    fn via_decomposition_valid_and_deterministic() {
        let mut p = SplitMix64::new(105);
        for fam in Family::ALL {
            let g = fam.generate(100, &mut p);
            let order: Vec<usize> = (0..g.node_count()).collect();
            let d = ball_carving_decomposition(&g, &order).decomposition;
            let a = via_decomposition(&g, &d);
            let b = via_decomposition(&g, &d);
            verify_mis(&g, &a.in_mis).unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            assert_eq!(a.in_mis, b.in_mis);
            assert_eq!(a.meter.random_bits, 0, "deterministic solver used bits");
        }
    }

    #[test]
    fn via_decomposition_round_shape() {
        // Rounds ≈ Σ_colors O(diam) = O(log n · log n) for the carving
        // decomposition.
        let mut p = SplitMix64::new(107);
        let g = Graph::gnp_connected(200, 0.02, &mut p);
        let order: Vec<usize> = (0..200).collect();
        let d = ball_carving_decomposition(&g, &order).decomposition;
        let out = via_decomposition(&g, &d);
        let log = g.log2_n() as u64;
        assert!(
            out.meter.rounds <= 4 * log * (2 * log + 2) + 2 * log,
            "rounds {}",
            out.meter.rounds
        );
    }

    #[test]
    fn empty_and_singleton() {
        let g = Graph::empty(1);
        let out = luby(&g, &mut PrngSource::seeded(1));
        assert_eq!(out.in_mis, vec![true]);
        let g0 = Graph::empty(0);
        let out0 = luby(&g0, &mut PrngSource::seeded(1));
        assert!(out0.in_mis.is_empty());
    }

    #[test]
    fn engine_luby_valid_on_families() {
        let mut p = SplitMix64::new(201);
        for fam in Family::ALL {
            let g = fam.generate(120, &mut p);
            let ids = IdAssignment::sequential(g.node_count());
            let run = LubyMis::default().run(&g, &ids, fam as u64 + 3);
            verify_mis(&g, &run.labels).unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            assert!(run.stats.meter.random_bits > 0);
            assert_eq!(
                run.stats.meter.congest_violations,
                0,
                "{}: Luby messages must fit the CONGEST budget",
                fam.name()
            );
        }
    }

    #[test]
    fn engine_luby_deterministic_and_thread_count_invariant() {
        let mut p = SplitMix64::new(203);
        let g = Graph::gnp_connected(150, 0.03, &mut p);
        let ids = IdAssignment::sequential(g.node_count());
        let a = LubyMis::default().run(&g, &ids, 9);
        for threads in [1, 3, 8] {
            let b = LubyMis {
                threads,
                max_rounds: 0,
            }
            .run(&g, &ids, 9);
            assert_eq!(a.labels, b.labels, "threads={threads}");
            assert_eq!(a.stats, b.stats, "threads={threads}");
        }
    }

    #[test]
    fn engine_luby_rounds_logarithmic() {
        let mut p = SplitMix64::new(205);
        let g = Graph::gnp_connected(500, 0.01, &mut p);
        let ids = IdAssignment::sequential(g.node_count());
        let run = LubyMis::default().run(&g, &ids, 4);
        // Two engine rounds per iteration; w.h.p. O(log n) iterations.
        assert!(
            run.stats.meter.rounds <= 8 * g.log2_n() as u64,
            "rounds {}",
            run.stats.meter.rounds
        );
    }

    #[test]
    fn engine_luby_edge_cases() {
        let ids1 = IdAssignment::sequential(1);
        let run = LubyMis::default().run(&Graph::empty(1), &ids1, 1);
        assert_eq!(run.labels, vec![true]);
        let ids0 = IdAssignment::sequential(0);
        let run0 = LubyMis::default().run(&Graph::empty(0), &ids0, 1);
        assert!(run0.labels.is_empty());
    }

    #[test]
    fn engine_luby_handles_large_id_spaces() {
        // Regression: with n > 2^15, 4·log n priority bits would exceed the
        // 64-bit word draw; the cap keeps large graphs runnable.
        let g = Graph::cycle(70_000);
        let ids = IdAssignment::sequential(g.node_count());
        let run = LubyMis::default().run(&g, &ids, 2);
        verify_mis(&g, &run.labels).unwrap();
        assert_eq!(run.stats.meter.congest_violations, 0);
    }

    #[test]
    fn mis_msg_wire_sizes() {
        assert_eq!(MisMsg::Join.wire_bits(), 1);
        let m = MisMsg::Priority(Compact::new(5, 12), Compact::new(3, 4));
        assert_eq!(m.wire_bits(), 17);
    }

    #[test]
    fn verify_rejects_bad_sets() {
        let g = Graph::path(3);
        assert!(verify_mis(&g, &[true, true, false]).is_err()); // adjacent
        assert!(verify_mis(&g, &[false, false, false]).is_err()); // undominated
        assert!(verify_mis(&g, &[true, false, true]).is_ok());
        assert!(verify_mis(&g, &[true, false]).is_err()); // wrong length
    }
}
