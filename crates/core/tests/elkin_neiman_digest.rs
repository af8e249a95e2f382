//! Pinned output of the Elkin–Neiman decomposition.
//!
//! One FNV-1a digest over everything the construction reports — per-node
//! labels, survivors, the per-phase `(alive, clustered)` counts and every
//! `CostMeter` field — for the plain regime on every graph family, the
//! k-wise regime, the Theorem 3.1 sparse pipeline and the `LocalAlgorithm`
//! wrapper, all on fixed seeds. Any change to how the phase protocol is
//! executed or metered (round runtime, message layout, delivery order)
//! shows up here as a different digest.

use locality_core::algorithm::LocalAlgorithm;
use locality_core::decomposition::elkin_neiman::{
    elkin_neiman, elkin_neiman_kwise, ElkinNeimanConfig, ElkinNeimanDecomposition, EnOutcome,
};
use locality_core::sparse::{
    choose_holders, sparse_randomness_decomposition, SparsePipelineConfig,
};
use locality_graph::generators::Family;
use locality_graph::ids::IdAssignment;
use locality_graph::Graph;
use locality_rand::kwise::KWiseBits;
use locality_rand::prng::SplitMix64;
use locality_rand::source::PrngSource;
use locality_rand::sparse::SparseBits;

/// The digest the construction produced when this test was introduced.
const PINNED: u64 = 0xdb37_f002_2db2_e0f1;

/// FNV-1a over the `Debug` rendering of each recorded value: every field
/// of every label, count and meter takes part.
struct Fnv(u64);

impl Fnv {
    fn record(&mut self, value: &impl std::fmt::Debug) {
        for b in format!("{value:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &EnOutcome) {
        self.record(&(&out.labels, &out.survivors, &out.per_phase, &out.meter));
    }
}

fn digest() -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);

    // Plain regime on every family at n = 80.
    let mut seed = SplitMix64::new(42);
    for fam in Family::ALL {
        let g = fam.generate(80, &mut seed);
        let cfg = ElkinNeimanConfig::for_graph(&g);
        let out = elkin_neiman(&g, &cfg, &mut PrngSource::seeded(7 + fam as u64));
        h.outcome(&out);
    }

    // A tightened phase budget, so survivors are part of the digest too.
    let mut seed = SplitMix64::new(5);
    let g = Graph::gnp_connected(200, 0.02, &mut seed);
    let tight = ElkinNeimanConfig {
        phases: 2,
        ..ElkinNeimanConfig::for_graph(&g)
    };
    let out = elkin_neiman(&g, &tight, &mut PrngSource::seeded(3));
    assert!(!out.survivors.is_empty(), "two phases leave survivors");
    h.outcome(&out);

    // k-wise regime (Theorem 3.5).
    let mut seed = SplitMix64::new(21);
    let g = Graph::gnp_connected(100, 0.03, &mut seed);
    let cfg = ElkinNeimanConfig::for_graph(&g);
    let k = (g.log2_n() * g.log2_n()) as usize;
    let kw = KWiseBits::from_source(k, &mut PrngSource::seeded(77)).unwrap();
    h.outcome(&elkin_neiman_kwise(&g, &cfg, &kw));

    // Sparse pipeline (Theorem 3.1): Elkin–Neiman on the cluster graph.
    let mut seed = SplitMix64::new(71);
    let g = Graph::gnp_connected(150, 0.02, &mut seed);
    for h_radius in [1u32, 2] {
        let holders = choose_holders(&g, h_radius);
        let bits = SparseBits::place(&holders, &mut PrngSource::seeded(100 + u64::from(h_radius)));
        let cfg = SparsePipelineConfig::for_graph(&g, h_radius);
        let out = sparse_randomness_decomposition(&g, &bits, &cfg);
        let d = out.decomposition.expect("pipeline succeeds on this seed");
        let colors: Vec<_> = g.nodes().map(|v| d.color_of_node(v)).collect();
        h.record(&(d.clustering().assignment(), colors));
        h.record(&(out.cluster_count, out.bits_consumed, out.meter));
    }

    // The `LocalAlgorithm` wrapper with explicit random identifiers.
    let mut seed = SplitMix64::new(31);
    let g = Graph::gnp_connected(70, 0.04, &mut seed);
    let ids = IdAssignment::random(70, 3, &mut seed);
    let run = ElkinNeimanDecomposition::default().run(&g, &ids, 19);
    h.record(&(run.labels, run.stats.meter));

    h.0
}

#[test]
fn elkin_neiman_output_is_pinned() {
    let got = digest();
    assert_eq!(got, PINNED, "digest {got:#018x}");
}
