//! Pinned strong diameters of real decomposition clusters.
//!
//! One FNV-1a digest over every cluster's induced diameter, as
//! `induced_diameter_with` reports it, for three producers: ball carving
//! (identity order), MPX (fixed seed) and the derandomized decomposition
//! (cap 8). The graphs are every family at n = 80 plus G(512, 4/n) and
//! G(2000, 4/n), whose giant clusters hold several hundred members, so the
//! sweep crosses many 64-source batches. Any change to the diameter sweep
//! that alters a single reported value shows up as a different digest.

use locality_core::decomposition::ball_carving_decomposition;
use locality_core::decomposition::cond_expect::derandomized_decomposition;
use locality_core::decomposition::mpx::mpx_partition;
use locality_core::decomposition::Decomposition;
use locality_graph::generators::Family;
use locality_graph::metrics::{induced_diameter_with, DiameterScratch};
use locality_graph::Graph;
use locality_rand::prng::SplitMix64;

/// The digest the diameter sweep produced when this test was introduced.
const PINNED: u64 = 0xbfab_1b1f_cc93_aab3;

/// FNV-1a over the `Debug` rendering of each recorded value.
struct Fnv(u64);

impl Fnv {
    fn record(&mut self, value: &impl std::fmt::Debug) {
        for b in format!("{value:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Record the cluster count and every cluster's strong diameter.
    fn diameters(&mut self, g: &Graph, d: &Decomposition, scratch: &mut DiameterScratch) {
        let clustering = d.clustering();
        self.record(&clustering.cluster_count());
        for c in 0..clustering.cluster_count() {
            self.record(&induced_diameter_with(g, clustering.members(c), scratch));
        }
    }
}

fn digest() -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut prng = SplitMix64::new(15);
    let mut graphs: Vec<Graph> = Family::ALL
        .iter()
        .map(|fam| fam.generate(80, &mut prng))
        .collect();
    graphs.push(Graph::gnp_connected(512, 4.0 / 512.0, &mut prng));
    graphs.push(Graph::gnp_connected(2000, 4.0 / 2000.0, &mut prng));
    for g in &graphs {
        let mut scratch = DiameterScratch::new(g.node_count());
        let order: Vec<usize> = g.nodes().collect();
        let carved = ball_carving_decomposition(g, &order);
        h.diameters(g, &carved.decomposition, &mut scratch);
        let mpx = mpx_partition(g, 0.3, &mut SplitMix64::new(7));
        h.diameters(g, &mpx.decomposition, &mut scratch);
        let derand = derandomized_decomposition(g, 8);
        h.diameters(g, &derand.decomposition, &mut scratch);
    }
    h.0
}

#[test]
fn cluster_diameters_are_pinned() {
    let got = digest();
    assert_eq!(got, PINNED, "digest {got:#018x}");
}
