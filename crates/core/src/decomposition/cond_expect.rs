//! Derandomized Elkin–Neiman clustering via the method of conditional
//! expectations.
//!
//! The paper leans on the equivalence `P-RLOCAL = P-SLOCAL` [GHK18]: any
//! efficient randomized LOCAL algorithm can be derandomized into a sequential
//! local one. This module makes that concrete for the decomposition itself.
//! In one EN phase, node `u` is clustered iff the maximum of the shifted
//! measures `X_z = r_z − d(z, u)` beats the runner-up (floored at 0) by more
//! than 1. With truncated-geometric radii this probability — and hence the
//! expected number of clustered nodes — is *exactly computable* (the radii
//! are independent and discrete), so we can fix the radii one center at a
//! time, each time choosing the value that maximizes the conditional
//! expectation. The expectation never decreases, so each phase clusters at
//! least as many nodes as the randomized phase does in expectation
//! (a constant fraction), giving a deterministic `(O(log n), O(log n))`
//! decomposition with no randomness at all.
//!
//! The computation is centralized/SLOCAL (it reads balls of radius `cap`).
//! Two implementations share this module:
//!
//! - [`derandomized_decomposition`] — the incremental engine
//!   (`cond_incremental`, see DESIGN.md §2.2): inverted center→ball index,
//!   per-`t` partial-product caches and factor tables make fixing one radius
//!   cost `O(ball · cap)` instead of `O(ball² · cap²)`, which is what lets
//!   the derandomizer run at `n = 10⁵` instead of hundreds of nodes.
//! - [`reference_decomposition`] — the retained direct implementation,
//!   `O(n · cap² · ball²)` per phase, kept as the differential-testing oracle
//!   and the "before" baseline of the perf record (`BENCH_derand.json`).
//!
//! Both make identical greedy decisions, so their outputs coincide — the
//! proptests in `crates/core/tests/proptest_derand.rs` and a pinned golden
//! corpus assert it.

use crate::decomposition::cond_incremental;
use crate::decomposition::types::Decomposition;
use locality_graph::cluster::Clustering;
use locality_graph::traversal::{bfs_visited_within, BfsScratch};
use locality_graph::Graph;
use locality_rand::geometric::TruncatedGeometricTable;

/// Result of the derandomized construction.
#[derive(Debug, Clone)]
pub struct DerandResult {
    /// The decomposition (deterministic — always succeeds).
    pub decomposition: Decomposition,
    /// Phases (= colors) used.
    pub phases: u32,
    /// Per-phase fraction of then-alive nodes clustered.
    pub per_phase_fraction: Vec<f64>,
}

/// `Pr[X_z ≤ s]` where `X_z = r_z − d` with `r_z ~ TruncatedGeometric(cap)`,
/// or the indicator when `r_z` is already fixed. Shared with the incremental
/// engine's factor tables, so the boundary clamping has a single definition;
/// the memoized table returns bit-identical values to the formula
/// distribution (pinned by `locality-rand`'s tests).
pub(crate) fn cdf(dist: &TruncatedGeometricTable, fixed: Option<u32>, d: u32, s: i64) -> f64 {
    match fixed {
        Some(r) => {
            if (r as i64 - d as i64) <= s {
                1.0
            } else {
                0.0
            }
        }
        None => {
            let k = s + d as i64; // Pr[r ≤ k]
            if k <= 0 {
                0.0
            } else if k as u32 >= dist.cap() {
                1.0
            } else {
                dist.cdf(k as u32)
            }
        }
    }
}

/// `Pr[X_z = t]`.
pub(crate) fn pmf(dist: &TruncatedGeometricTable, fixed: Option<u32>, d: u32, t: i64) -> f64 {
    match fixed {
        Some(r) => {
            if r as i64 - d as i64 == t {
                1.0
            } else {
                0.0
            }
        }
        None => {
            let k = t + d as i64;
            if k < 1 || k as u32 > dist.cap() {
                0.0
            } else {
                dist.pmf(k as u32)
            }
        }
    }
}

/// `Pr[u clustered]` for one node given its reach list `(z, d)` and the
/// current partial fixing of radii.
///
/// Uses the zero-aware product trick: for each candidate winning value `t`,
/// `Pr = Σ_z pmf_z(t) · Π_{w≠z} cdf_w(t−2)`.
fn p_clustered(
    reach: &[(usize, u32)],
    fixed: &[Option<u32>],
    dist: &TruncatedGeometricTable,
    cap: u32,
) -> f64 {
    let mut total = 0.0;
    for t in 2..=(cap as i64) {
        // Product of cdf_w(t-2) over all w, tracking zeros separately.
        let mut zeros = 0usize;
        let mut zero_idx = usize::MAX;
        let mut prod_nonzero = 1.0f64;
        for (i, &(z, d)) in reach.iter().enumerate() {
            let c = cdf(dist, fixed[z], d, t - 2);
            if c == 0.0 {
                zeros += 1;
                zero_idx = i;
                if zeros > 1 {
                    break;
                }
            } else {
                prod_nonzero *= c;
            }
        }
        if zeros > 1 {
            continue;
        }
        if zeros == 1 {
            // Only the zero entry can be the winner.
            let (z, d) = reach[zero_idx];
            total += pmf(dist, fixed[z], d, t) * prod_nonzero;
        } else {
            for &(z, d) in reach {
                let p = pmf(dist, fixed[z], d, t);
                if p > 0.0 {
                    let c = cdf(dist, fixed[z], d, t - 2);
                    total += p * prod_nonzero / c;
                }
            }
        }
    }
    total
}

/// Deterministic `(O(log n), O(log n))` decomposition by derandomizing EN
/// phases with conditional expectations — the incremental engine, run on
/// the calling thread (`derandomized_decomposition_threads(g, cap, 1)`).
///
/// One call, one core: a served build already runs on one of the HTTP
/// edge's per-core workers, so spawning the engine's evaluator and
/// pipelined-carver threads from it only makes concurrent builds fight for
/// the same cores (on a 2-core host, two concurrent `G(512, 4/n)` cap-8
/// builds took 29–34 ms each on one thread against 41–44 ms on two). Outputs
/// are thread-count-invariant, so callers that own the whole machine can
/// ask [`derandomized_decomposition_threads`] for more threads and get the
/// identical result.
///
/// # Example
/// ```
/// use locality_core::decomposition::derandomized_decomposition;
/// use locality_graph::prelude::*;
///
/// let g = Graph::grid(5, 5);
/// let r = derandomized_decomposition(&g, 8);
/// let q = r.decomposition.validate(&g).unwrap();
/// assert!(q.max_diameter <= 16);
/// ```
///
/// # Panics
/// Panics if `cap < 2` (the gap rule needs measures ≥ 2), if the graph has
/// `2^26` nodes or more (the engine packs `(node, dist)` into 32 bits), or
/// if progress stalls (which would contradict the expectation argument — a
/// bug).
pub fn derandomized_decomposition(g: &Graph, cap: u32) -> DerandResult {
    derandomized_decomposition_threads(g, cap, 1)
}

/// [`derandomized_decomposition`] with an explicit thread count (`0` = all
/// available). Candidate evaluation work-steals over fixed-size ball
/// chunks whose partials are reduced in chunk-ascending order, state
/// updates are owned by contiguous node ranges, and the pipelined carve
/// replays fixing order exactly, so the output is bit-identical for every
/// `threads` value; under the `determinism-checks` cargo feature each call
/// with `threads != 1` re-runs single-threaded and asserts exactly that.
///
/// # Panics
/// Panics if `cap < 2`, if the graph has `2^26` nodes or more, or on an
/// internal progress failure.
pub fn derandomized_decomposition_threads(g: &Graph, cap: u32, threads: usize) -> DerandResult {
    let result = cond_incremental::run(g, cap, threads);
    #[cfg(feature = "determinism-checks")]
    if threads != 1 {
        let sequential = cond_incremental::run(g, cap, 1);
        assert_eq!(
            result.decomposition, sequential.decomposition,
            "determinism check: parallel derandomizer diverged from sequential"
        );
        assert_eq!(result.phases, sequential.phases);
        assert_eq!(result.per_phase_fraction, sequential.per_phase_fraction);
    }
    result
}

/// The retained direct implementation: rebuilds every product from scratch
/// for every `(center, radius)` candidate. `O(n · cap² · ball²)` work per
/// phase — only viable to around a thousand nodes — but its decision rule is
/// the specification the incremental engine must reproduce, so it stays as
/// the differential-testing oracle and the benchmark baseline.
///
/// (Reach lists are built with scratch-buffer BFS since the incremental
/// rewrite — same lists in the same order, without the per-center full-`n`
/// allocation — so this baseline is not handicapped by its setup phase.)
///
/// # Panics
/// Panics if `cap < 2`, or on an internal progress failure.
pub fn reference_decomposition(g: &Graph, cap: u32) -> DerandResult {
    assert!(cap >= 2, "cap must be at least 2");
    let n = g.node_count();
    let dist = TruncatedGeometricTable::new(cap);
    let mut alive = vec![true; n];
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut phase_of: Vec<Option<u32>> = vec![None; n];
    let mut remaining = n;
    let mut per_phase_fraction = Vec::new();
    let mut phase = 0u32;
    let phase_limit = 20 * (g.log2_n() + 1);
    let mut scratch = BfsScratch::new(n);
    let mut ball = Vec::new();

    while remaining > 0 {
        assert!(phase < phase_limit, "phase limit exceeded — progress bug");
        let alive_before = remaining;

        // Reach lists within the alive subgraph, truncated at cap. Iterating
        // centers in ascending order keeps each node's list center-sorted.
        let alive_nodes: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
        let mut reach_of: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for &z in &alive_nodes {
            bfs_visited_within(g, z, &alive, cap, &mut scratch, &mut ball);
            for &(u, duz) in &ball {
                reach_of[u as usize].push((z, duz));
            }
        }

        // Greedily fix each center's radius to maximize the conditional
        // expectation of the number of clustered nodes.
        let mut fixed: Vec<Option<u32>> = vec![None; n];
        for &z in &alive_nodes {
            // Nodes whose probability depends on r_z.
            let affected: Vec<usize> = alive_nodes
                .iter()
                .copied()
                .filter(|&u| reach_of[u].iter().any(|&(w, _)| w == z))
                .collect();
            let mut best = (f64::NEG_INFINITY, 1u32);
            for r in 1..=cap {
                fixed[z] = Some(r);
                let e: f64 = affected
                    .iter()
                    .map(|&u| p_clustered(&reach_of[u], &fixed, &dist, cap))
                    .sum();
                if e > best.0 {
                    best = (e, r);
                }
            }
            fixed[z] = Some(best.1);
        }

        // Apply the (now fully deterministic) phase.
        let mut clustered_now = 0usize;
        for &u in &alive_nodes {
            let mut measures: Vec<(i64, usize)> = reach_of[u]
                .iter()
                .map(|&(z, d)| (fixed[z].expect("all fixed") as i64 - d as i64, z)) // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
                .filter(|&(m, _)| m >= 0)
                .collect();
            measures.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            if let Some(&(m1, center)) = measures.first() {
                let m2 = measures.get(1).map_or(0, |&(m, _)| m.max(0));
                if m1 - m2 > 1 {
                    labels[u] = Some(((phase as usize) << 32) | center);
                    phase_of[u] = Some(phase);
                    clustered_now += 1;
                }
            }
        }
        assert!(clustered_now > 0, "no progress in phase {phase} — bug");
        for v in 0..n {
            if alive[v] && labels[v].is_some() {
                alive[v] = false;
                remaining -= 1;
            }
        }
        per_phase_fraction.push(clustered_now as f64 / alive_before as f64);
        phase += 1;
    }

    let clustering = Clustering::from_labels(labels);
    let cluster_colors: Vec<usize> = (0..clustering.cluster_count())
        .map(|c| {
            let v = clustering.members(c)[0];
            phase_of[v].expect("clustered member has a phase") as usize // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
        })
        .collect();
    let decomposition =
        Decomposition::new(clustering, cluster_colors).expect("one color per cluster"); // audit: allow(panic) -- arity/contiguity established by construction on the preceding lines
    DerandResult {
        decomposition,
        phases: phase,
        per_phase_fraction,
    }
}

/// A prepared slice of the reference implementation's phase-1 fixing loop,
/// for benchmarking at sizes where a full [`reference_decomposition`] run is
/// infeasible.
///
/// [`ReferenceProbe::prepare`] builds (outside any timing) the reach lists
/// the first `centers` alive centers touch; [`ReferenceProbe::fix`] then runs
/// the reference's radius-fixing loop over exactly those centers. Because the
/// reference's per-center cost is essentially uniform within a phase, timing
/// `fix()` and scaling by `n / centers` is an honest estimate of the full
/// phase-1 fixing cost — the derand bench and the `d1` experiment label such
/// numbers as extrapolated.
#[derive(Debug)]
pub struct ReferenceProbe {
    cap: u32,
    dist: TruncatedGeometricTable,
    centers: Vec<usize>,
    reach_of: Vec<Vec<(usize, u32)>>,
    affected_of: Vec<Vec<usize>>,
    n: usize,
}

impl ReferenceProbe {
    /// Build reach lists and affected sets for the first `centers` centers of
    /// the (all-alive) first phase.
    ///
    /// # Panics
    /// Panics if `cap < 2` or `centers` is zero or exceeds the node count.
    pub fn prepare(g: &Graph, cap: u32, centers: usize) -> Self {
        assert!(cap >= 2, "cap must be at least 2");
        let n = g.node_count();
        assert!(
            (1..=n).contains(&centers),
            "probe needs 1..=n centers, got {centers}"
        );
        let alive = vec![true; n];
        let mut scratch = BfsScratch::new(n);
        let mut ball = Vec::new();
        let mut reach_of: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        let mut affected_of = Vec::with_capacity(centers);
        // The probed centers' affected sets, and — for every node those sets
        // contain — the node's full reach list (its own ball, center-sorted),
        // exactly what the reference's fixing loop reads.
        for z in 0..centers {
            bfs_visited_within(g, z, &alive, cap, &mut scratch, &mut ball);
            let mut affected: Vec<usize> = ball.iter().map(|&(u, _)| u as usize).collect();
            affected.sort_unstable();
            for &u in &affected {
                if reach_of[u].is_empty() {
                    bfs_visited_within(g, u, &alive, cap, &mut scratch, &mut ball);
                    let mut list: Vec<(usize, u32)> =
                        ball.iter().map(|&(z, d)| (z as usize, d)).collect();
                    list.sort_unstable_by_key(|&(z, _)| z);
                    reach_of[u] = list;
                }
            }
            affected_of.push(affected);
        }
        Self {
            cap,
            dist: TruncatedGeometricTable::new(cap),
            centers: (0..centers).collect(),
            reach_of,
            affected_of,
            n,
        }
    }

    /// Number of prepared centers.
    pub fn centers(&self) -> usize {
        self.centers.len()
    }

    /// Extrapolation factor from the probed slice to a full phase
    /// (`n / centers`).
    pub fn scale(&self) -> f64 {
        self.n as f64 / self.centers.len() as f64
    }

    /// Run the reference fixing loop over the prepared centers; returns the
    /// sum of the chosen conditional expectations (a checksum that keeps the
    /// work observable).
    pub fn fix(&self) -> f64 {
        let mut fixed: Vec<Option<u32>> = vec![None; self.n];
        let mut checksum = 0.0;
        for (&z, affected) in self.centers.iter().zip(&self.affected_of) {
            let mut best = (f64::NEG_INFINITY, 1u32);
            for r in 1..=self.cap {
                fixed[z] = Some(r);
                let e: f64 = affected
                    .iter()
                    .map(|&u| p_clustered(&self.reach_of[u], &fixed, &self.dist, self.cap))
                    .sum();
                if e > best.0 {
                    best = (e, r);
                }
            }
            fixed[z] = Some(best.1);
            checksum += best.0;
        }
        checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::generators::Family;
    use locality_rand::prng::SplitMix64;

    #[test]
    fn valid_on_small_families() {
        let mut seed = SplitMix64::new(41);
        for fam in Family::ALL {
            let g = fam.generate(36, &mut seed);
            let r = derandomized_decomposition(&g, 8);
            let q = r
                .decomposition
                .validate(&g)
                .unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            assert!(q.colors as u32 <= r.phases);
            assert!(
                q.max_diameter <= 2 * 8,
                "{}: {}",
                fam.name(),
                q.max_diameter
            );
        }
    }

    #[test]
    fn is_deterministic() {
        let mut seed = SplitMix64::new(43);
        let g = Graph::gnp_connected(30, 0.1, &mut seed);
        let a = derandomized_decomposition(&g, 6);
        let b = derandomized_decomposition(&g, 6);
        assert_eq!(a.decomposition, b.decomposition);
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn thread_counts_are_output_invariant() {
        let mut seed = SplitMix64::new(47);
        let g = Graph::gnp_connected(60, 0.05, &mut seed);
        let one = derandomized_decomposition_threads(&g, 6, 1);
        for threads in [2, 3, 8] {
            let t = derandomized_decomposition_threads(&g, 6, threads);
            assert_eq!(t.decomposition, one.decomposition, "threads={threads}");
            assert_eq!(t.phases, one.phases);
            assert_eq!(t.per_phase_fraction, one.per_phase_fraction);
        }
    }

    #[test]
    fn work_stealing_and_pipelined_paths_are_output_invariant() {
        // A star's balls cover the whole graph, so every center clears the
        // engine's (test-lowered) parallel threshold and spans many (test-
        // shrunk) chunks: multi-threaded runs exercise chunk-stealing
        // evaluation, node-range state ownership, AND the pipelined carver
        // (threads >= 2), not just the sequential fallback the small
        // invariance test hits.
        let g = Graph::star(800);
        let one = derandomized_decomposition_threads(&g, 3, 1);
        for threads in [2, 8] {
            let t = derandomized_decomposition_threads(&g, 3, threads);
            assert_eq!(t.decomposition, one.decomposition, "threads={threads}");
            assert_eq!(t.phases, one.phases);
            assert_eq!(t.per_phase_fraction, one.per_phase_fraction);
        }
    }

    #[test]
    fn phases_are_logarithmic() {
        // The conditional-expectation argument forces at least the
        // randomized phase's expected progress: O(log n) phases.
        let g = Graph::grid(6, 6);
        let r = derandomized_decomposition(&g, 8);
        assert!(r.phases <= 14, "used {} phases", r.phases);
        // Early phases make substantial progress.
        assert!(
            r.per_phase_fraction[0] >= 0.25,
            "{:?}",
            r.per_phase_fraction
        );
    }

    #[test]
    fn singleton_and_disconnected() {
        let g = Graph::empty(4);
        let r = derandomized_decomposition(&g, 4);
        let q = r.decomposition.validate(&g).unwrap();
        assert_eq!(q.clusters, 4);
        assert_eq!(q.max_diameter, 0);
    }

    #[test]
    fn path_clusters_cover_everything() {
        let g = Graph::path(20);
        let r = derandomized_decomposition(&g, 6);
        let q = r.decomposition.validate(&g).unwrap();
        assert!(q.clusters >= 1);
        assert!(q.colors >= 1);
    }

    #[test]
    fn probability_helper_sane() {
        // Single center at distance 0: clustered iff r >= 2:
        // P = 1 - P(r = 1) = 1/2.
        let dist = TruncatedGeometricTable::new(10);
        let reach = vec![(0usize, 0u32)];
        let fixed = vec![None];
        let p = p_clustered(&reach, &fixed, &dist, 10);
        assert!((p - 0.5).abs() < 1e-9, "p = {p}");
        // Fixing r = 5 makes it certain.
        let fixed = vec![Some(5)];
        let p = p_clustered(&reach, &fixed, &dist, 10);
        assert!((p - 1.0).abs() < 1e-9, "p = {p}");
        // Fixing r = 1 makes it impossible.
        let fixed = vec![Some(1)];
        let p = p_clustered(&reach, &fixed, &dist, 10);
        assert!(p.abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn probe_matches_reference_choices() {
        // The probe replicates the reference's phase-1 state exactly; its
        // checksum (sum of best conditional expectations) must be finite and
        // positive, and preparing all n centers must cover the graph.
        let g = Graph::grid(4, 4);
        let probe = ReferenceProbe::prepare(&g, 6, g.node_count());
        assert_eq!(probe.centers(), 16);
        assert!((probe.scale() - 1.0).abs() < 1e-12);
        let checksum = probe.fix();
        assert!(checksum.is_finite() && checksum > 0.0);
        // A strict prefix scales accordingly.
        let prefix = ReferenceProbe::prepare(&g, 6, 4);
        assert_eq!(prefix.centers(), 4);
        assert!((prefix.scale() - 4.0).abs() < 1e-12);
        assert!(prefix.fix() <= checksum + 1e-9);
    }

    #[test]
    #[should_panic]
    fn tiny_cap_rejected() {
        let _ = derandomized_decomposition(&Graph::path(3), 1);
    }

    #[test]
    #[should_panic]
    fn reference_tiny_cap_rejected() {
        let _ = reference_decomposition(&Graph::path(3), 1);
    }
}
