//! Differential tests for the incremental conditional-expectations engine:
//! `derandomized_decomposition` must return results **identical** to the
//! retained direct implementation `reference_decomposition` — same labels,
//! same phase count, same per-phase clustered fractions — on every input.
//!
//! A pinned golden corpus (captured from the pre-rewrite implementation)
//! additionally guards both against drifting together.

use locality_core::decomposition::{
    derandomized_decomposition, derandomized_decomposition_threads, reference_decomposition,
    DerandResult,
};
use locality_graph::generators::Family;
use locality_graph::Graph;
use locality_rand::prng::SplitMix64;
use proptest::prelude::*;

fn assert_identical(g: &Graph, cap: u32, ctx: &str) {
    let optimized = derandomized_decomposition(g, cap);
    let reference = reference_decomposition(g, cap);
    assert_eq!(
        optimized.decomposition, reference.decomposition,
        "{ctx}: labels diverged"
    );
    assert_eq!(
        optimized.phases, reference.phases,
        "{ctx}: phase count diverged"
    );
    assert_eq!(
        optimized.per_phase_fraction, reference.per_phase_fraction,
        "{ctx}: per-phase fractions diverged"
    );
    // And the engine's parallel schedules (work stealing, node-range
    // ownership, pipelined carve) match the sequential default entry.
    for threads in [2, 3] {
        let par = derandomized_decomposition_threads(g, cap, threads);
        assert_eq!(
            par.decomposition, optimized.decomposition,
            "{ctx}: threads={threads}"
        );
        assert_eq!(par.phases, optimized.phases, "{ctx}: threads={threads}");
        assert_eq!(
            par.per_phase_fraction, optimized.per_phase_fraction,
            "{ctx}: threads={threads}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gnp_matches_reference(n in 4usize..48, p_mil in 20u64..300, cap in 2u32..9, seed in 0u64..1 << 20) {
        let mut prng = SplitMix64::new(seed);
        let g = Graph::gnp(n, p_mil as f64 / 1000.0, &mut prng);
        assert_identical(&g, cap, &format!("gnp n={n} p={p_mil}/1000 cap={cap} seed={seed}"));
    }

    #[test]
    fn gnp_connected_matches_reference(n in 4usize..40, cap in 3u32..8, seed in 0u64..1 << 20) {
        let mut prng = SplitMix64::new(seed);
        let g = Graph::gnp_connected(n, 3.0 / n as f64, &mut prng);
        assert_identical(&g, cap, &format!("gnp_connected n={n} cap={cap} seed={seed}"));
    }

    #[test]
    fn grid_matches_reference(rows in 1usize..8, cols in 1usize..8, cap in 2u32..9) {
        let g = Graph::grid(rows, cols);
        assert_identical(&g, cap, &format!("grid {rows}x{cols} cap={cap}"));
    }

    #[test]
    fn ring_of_cliques_matches_reference(k in 3usize..8, s in 1usize..6, cap in 2u32..8) {
        let g = Graph::ring_of_cliques(k, s);
        assert_identical(&g, cap, &format!("ring_of_cliques k={k} s={s} cap={cap}"));
    }
}

/// High-degree nodes push per-(node, t) products below f64's subnormal floor
/// (~1100 distance-1 neighbors at t = 2 multiply that many cdf = 1/2
/// factors); the engine's scaled-product cache must stay sound — and recover
/// as centers are fixed — rather than collapsing to a permanent 0.0. A star
/// hub is the cheap instance of that regime (a full reference run is too slow
/// to keep in CI, so this pins the outcome a one-off release-mode reference
/// run confirmed: two phases covering the whole star).
#[test]
fn dense_underflow_regime_stays_sound() {
    let g = Graph::star(1150);
    let r = derandomized_decomposition(&g, 8);
    let q = r.decomposition.validate(&g).expect("valid");
    // Confirmed against a full reference run (release mode, one-off): the
    // hub and most leaves cluster in phase one, stragglers in phase two.
    assert_eq!(r.phases, 2);
    assert!(q.max_diameter <= 2 * 8);
    assert!(r.per_phase_fraction[0] > 0.5, "{:?}", r.per_phase_fraction);
}

#[test]
fn structured_families_match_reference() {
    assert_identical(&Graph::path(25), 6, "path25");
    assert_identical(&Graph::cycle(40), 5, "cycle40");
    assert_identical(&Graph::star(17), 4, "star17");
    assert_identical(&Graph::complete(9), 4, "complete9");
    assert_identical(&Graph::hypercube(4), 5, "hypercube4");
    assert_identical(&Graph::empty(7), 3, "empty7");
    assert_identical(&Graph::balanced_tree(3, 4), 6, "tree3x4");
    let mut p = SplitMix64::new(5);
    assert_identical(&Graph::random_regular(30, 4, &mut p), 6, "reg4-30");
}

/// FNV-1a over the per-node cluster-id stream.
fn fingerprint(r: &DerandResult, n: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in 0..n {
        match r.decomposition.clustering().cluster_of(v) {
            Some(c) => eat(1 + c as u64),
            None => eat(0),
        }
    }
    h
}

/// Pinned corpus: every value below was captured from the pre-rewrite
/// (naive) implementation at the commit that introduced the incremental
/// engine. Both implementations must keep reproducing it exactly:
/// `(name, cap, phases, clusters, colors, max_diameter, label fingerprint)`.
#[test]
fn golden_corpus_is_stable() {
    const GOLDEN: [(&str, u32, u32, usize, usize, u32, u64); 11] = [
        ("gnp", 8, 1, 1, 1, 4, 0xf0030ea8274ec365),
        ("tree", 8, 2, 3, 2, 9, 0x4622521bf0b632a6),
        ("grid", 8, 2, 12, 2, 4, 0x99c546fe601141ed),
        ("cycle", 8, 2, 28, 2, 4, 0xe9aadbf255e22f39),
        ("cliquering", 8, 1, 1, 1, 5, 0xf0030ea8274ec365),
        ("reg4", 8, 1, 1, 1, 6, 0xf0030ea8274ec365),
        ("gnp80", 6, 4, 23, 4, 5, 0x161871fa2d05c43f),
        ("grid8x8", 10, 2, 10, 2, 8, 0xaeb0aa559feb1609),
        ("ringcliques6x5", 5, 3, 8, 3, 4, 0xf7b7522ec0629f81),
        ("path20", 6, 2, 9, 2, 4, 0x35672d8cdff59c65),
        ("tree60", 7, 2, 12, 2, 6, 0x68137cabd46707e2),
    ];

    let mut graphs: Vec<(String, Graph, u32)> = Vec::new();
    let mut seed = SplitMix64::new(41);
    for fam in Family::ALL {
        graphs.push((fam.name().to_string(), fam.generate(36, &mut seed), 8));
    }
    let mut p = SplitMix64::new(2024);
    graphs.push(("gnp80".into(), Graph::gnp_connected(80, 0.04, &mut p), 6));
    graphs.push(("grid8x8".into(), Graph::grid(8, 8), 10));
    graphs.push(("ringcliques6x5".into(), Graph::ring_of_cliques(6, 5), 5));
    graphs.push(("path20".into(), Graph::path(20), 6));
    let mut p = SplitMix64::new(7);
    graphs.push(("tree60".into(), Graph::random_tree(60, &mut p), 7));

    assert_eq!(graphs.len(), GOLDEN.len());
    for ((name, g, cap), expect) in graphs.iter().zip(GOLDEN) {
        assert_eq!(name, expect.0, "corpus order");
        assert_eq!(*cap, expect.1, "corpus cap");
        for (which, r) in [
            ("optimized", derandomized_decomposition(g, *cap)),
            ("reference", reference_decomposition(g, *cap)),
        ] {
            let q = r.decomposition.validate(g).expect("valid");
            assert_eq!(r.phases, expect.2, "{name} ({which}): phases");
            assert_eq!(q.clusters, expect.3, "{name} ({which}): clusters");
            assert_eq!(q.colors, expect.4, "{name} ({which}): colors");
            assert_eq!(q.max_diameter, expect.5, "{name} ({which}): diameter");
            assert_eq!(
                fingerprint(&r, g.node_count()),
                expect.6,
                "{name} ({which}): label fingerprint"
            );
        }
    }
}
