//! Property tests for the graph substrate.

use locality_graph::metrics::{induced_diameter_with, reference_induced_diameter};
use locality_graph::prelude::*;
use locality_rand::prng::{Prng, SplitMix64};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..4 * n).prop_map(move |pairs| {
            Graph::from_edges(n, pairs.into_iter().filter(|&(u, v)| u != v))
                .expect("filtered edges valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adjacency_is_symmetric(g in arb_graph()) {
        for v in g.nodes() {
            for &u in g.neighbors(v) {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn mirror_index_matches_port_search(g in arb_graph()) {
        prop_assert_eq!(g.directed_edge_count(), 2 * g.edge_count());
        for v in g.nodes() {
            for (port, &u) in g.neighbors(v).iter().enumerate() {
                let s = g.slot_of(v, port);
                let m = g.mirror_slot(s);
                prop_assert_eq!(g.mirror_slot(m), s);
                prop_assert_eq!(g.slot_neighbor(m), v);
                // The precomputed mirror agrees with an explicit port search.
                let q = g.port_of(u, v).expect("edge is symmetric");
                prop_assert_eq!(m, g.slot_of(u, q));
                prop_assert_eq!(g.mirror_slots(v)[port], m);
            }
        }
    }

    #[test]
    fn power_graph_is_monotone(g in arb_graph()) {
        let g2 = power_graph(&g, 2);
        let g3 = power_graph(&g, 3);
        for (u, v) in g.edges() {
            prop_assert!(g2.has_edge(u, v));
        }
        for (u, v) in g2.edges() {
            prop_assert!(g3.has_edge(u, v));
        }
    }

    #[test]
    fn components_partition_and_respect_edges(g in arb_graph()) {
        let (labels, k) = connected_components(&g);
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u], labels[v]);
        }
        for &l in &labels {
            prop_assert!(l < k);
        }
        // Cross-component pairs are unreachable.
        if g.node_count() >= 2 {
            let d = bfs_distances(&g, 0);
            for v in g.nodes() {
                prop_assert_eq!(d[v].is_some(), labels[v] == labels[0]);
            }
        }
    }

    #[test]
    fn induced_subgraph_round_trips(g in arb_graph(), keep_mask in proptest::collection::vec(any::<bool>(), 30)) {
        let nodes: Vec<usize> = g
            .nodes()
            .filter(|&v| keep_mask.get(v).copied().unwrap_or(false))
            .collect();
        let sub = InducedSubgraph::new(&g, &nodes);
        // Every subgraph edge exists in the original graph.
        for (i, j) in sub.graph().edges() {
            prop_assert!(g.has_edge(sub.to_original(i), sub.to_original(j)));
        }
        // Every original edge between kept nodes survives.
        for (u, v) in g.edges() {
            if let (Some(i), Some(j)) = (sub.to_local(u), sub.to_local(v)) {
                prop_assert!(sub.graph().has_edge(i, j));
            }
        }
    }

    #[test]
    fn contraction_is_a_graph_homomorphism(g in arb_graph()) {
        // Cluster nodes by parity: edges must map to quotient edges or
        // disappear inside clusters.
        let assignment: Vec<Option<usize>> = g.nodes().map(|v| Some(v % 2)).collect();
        if g.node_count() >= 2 {
            let clustering = Clustering::from_labels(assignment);
            let k = clustering.cluster_count();
            let cg = ClusterGraph::contract(&g, clustering);
            for (u, v) in g.edges() {
                let cu = cg.clustering().cluster_of(u).unwrap();
                let cv = cg.clustering().cluster_of(v).unwrap();
                if cu != cv {
                    prop_assert!(cg.quotient().has_edge(cu, cv));
                }
            }
            prop_assert!(cg.quotient().node_count() <= k);
        }
    }

    #[test]
    fn eccentricity_bounds_diameter(g in arb_graph()) {
        if let Some(diam) = diameter(&g) {
            for v in g.nodes() {
                prop_assert!(eccentricity(&g, v) <= diam);
            }
            if g.node_count() > 0 {
                prop_assert!(eccentricity(&g, 0) * 2 >= diam);
            }
        }
    }

    #[test]
    fn ball_respects_radius(g in arb_graph(), r in 0u32..5) {
        let b = ball(&g, 0, r);
        let d = bfs_distances(&g, 0);
        for &v in &b {
            prop_assert!(matches!(d[v], Some(x) if x <= r));
        }
        // And contains everything within radius.
        for v in g.nodes() {
            if matches!(d[v], Some(x) if x <= r) {
                prop_assert!(b.contains(&v));
            }
        }
    }
}

/// A graph of at least 300 nodes. The path and the grid give subsets with
/// many BFS levels; the tree, the sparse G(n, p) and the cycle vary the rest.
fn big_graph(kind: u8, prng: &mut SplitMix64) -> Graph {
    match kind % 5 {
        0 => Graph::path(320),
        1 => Graph::grid(18, 18),
        2 => Graph::random_tree(300, prng),
        3 => Graph::gnp_connected(400, 4.0 / 400.0, prng),
        _ => Graph::cycle(330),
    }
}

/// Subset sizes on either side of the 64-source batch boundaries.
const BATCH_EDGES: [usize; 5] = [63, 64, 65, 128, 129];

fn below(pick: &mut SplitMix64, n: usize) -> usize {
    (pick.next_u64() % n as u64) as usize
}

/// Up to `k` distinct nodes grown from `start` by repeatedly adding a random
/// neighbor of the set, so the result induces a connected subgraph.
fn connected_subset(g: &Graph, start: usize, k: usize, pick: &mut SplitMix64) -> Vec<usize> {
    let mut in_set = vec![false; g.node_count()];
    in_set[start] = true;
    let mut set = vec![start];
    let mut border: Vec<usize> = g.neighbors(start).to_vec();
    while set.len() < k && !border.is_empty() {
        let v = border.swap_remove(below(pick, border.len()));
        if !in_set[v] {
            in_set[v] = true;
            set.push(v);
            border.extend(g.neighbors(v).iter().filter(|&&w| !in_set[w]));
        }
    }
    set
}

/// A subset of about `k` nodes, by `mode`: grown connected from one node,
/// grown from two random nodes (often disconnected), or drawn uniformly
/// (usually disconnected). Every mode then repeats a few members and
/// shuffles, so duplicates land in any batch.
fn subset(g: &Graph, k: usize, mode: usize, pick: &mut SplitMix64) -> Vec<usize> {
    let n = g.node_count();
    let mut nodes = match mode % 3 {
        0 => connected_subset(g, below(pick, n), k, pick),
        1 => {
            let mut a = connected_subset(g, below(pick, n), k.div_ceil(2), pick);
            a.extend(connected_subset(g, below(pick, n), k / 2, pick));
            a
        }
        _ => (0..k).map(|_| below(pick, n)).collect(),
    };
    let dups = below(pick, 4);
    for _ in 0..dups {
        let v = nodes[below(pick, nodes.len())];
        nodes.push(v);
    }
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, below(pick, i + 1));
    }
    nodes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn induced_diameter_matches_reference_across_batches(
        kind in 0u8..5,
        seed in any::<u64>(),
    ) {
        let mut pick = SplitMix64::new(seed);
        let g = big_graph(kind, &mut pick);
        prop_assert!(g.node_count() >= 300);
        // Four sizes in 1..=300, half of them on a batch boundary, run from
        // largest to smallest through one scratch.
        let mut sizes: Vec<usize> = (0..4)
            .map(|_| {
                if pick.next_u64() % 2 == 0 {
                    BATCH_EDGES[below(&mut pick, BATCH_EDGES.len())]
                } else {
                    1 + below(&mut pick, 300)
                }
            })
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let mut scratch = DiameterScratch::new(g.node_count());
        let mut finite = 0;
        for (mode, &k) in sizes.iter().enumerate() {
            let nodes = subset(&g, k, mode + kind as usize, &mut pick);
            let expect = reference_induced_diameter(&g, &nodes);
            prop_assert_eq!(
                induced_diameter_with(&g, &nodes, &mut scratch),
                expect,
                "kind {} size {} {:?}",
                kind,
                k,
                nodes
            );
            finite += usize::from(expect.is_some());
        }
        // Four consecutive modes include the connected one, so every case
        // checks at least one finite diameter.
        prop_assert!(finite >= 1);
    }
}
