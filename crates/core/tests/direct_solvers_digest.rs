//! Pinned output of the two direct randomized solvers.
//!
//! One FNV-1a digest over everything trial (∆+1)-coloring and Luby's MIS
//! report — per-node colors, MIS membership and every `CostMeter` field —
//! on every graph family at n = 80, on G(2000, 4/n) and on a random
//! 3-regular graph, eight seeds each. The solvers' output depends on the
//! exact order and width of every random draw, so any change to how they
//! iterate, or to how `PrngSource` packs its bit stream, shows up here as a
//! different digest.

use locality_core::coloring::{random_coloring, verify_coloring};
use locality_core::mis::{luby, verify_mis};
use locality_graph::generators::Family;
use locality_graph::Graph;
use locality_rand::prng::SplitMix64;
use locality_rand::source::PrngSource;

/// The digest the solvers produced when this test was introduced.
const PINNED: u64 = 0xeeab_a053_59b2_41fd;

/// FNV-1a over the `Debug` rendering of each recorded value: every color,
/// membership flag and meter field takes part.
struct Fnv(u64);

impl Fnv {
    fn record(&mut self, value: &impl std::fmt::Debug) {
        for b in format!("{value:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn solve(&mut self, g: &Graph, seed: u64) {
        let colored = random_coloring(g, &mut PrngSource::seeded(seed));
        verify_coloring(g, &colored.colors, g.max_degree() + 1).expect("proper coloring");
        self.record(&(&colored.colors, &colored.meter));
        let mis = luby(g, &mut PrngSource::seeded(seed));
        verify_mis(g, &mis.in_mis).expect("maximal independent set");
        self.record(&(&mis.in_mis, &mis.meter));
    }
}

fn digest() -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut prng = SplitMix64::new(14);
    let mut graphs: Vec<Graph> = Family::ALL
        .iter()
        .map(|fam| fam.generate(80, &mut prng))
        .collect();
    graphs.push(Graph::gnp_connected(2000, 4.0 / 2000.0, &mut prng));
    graphs.push(Graph::random_regular(2000, 3, &mut prng));
    for g in &graphs {
        for seed in 1..=8 {
            h.solve(g, seed);
        }
    }
    h.0
}

#[test]
fn direct_solver_output_is_pinned() {
    let got = digest();
    assert_eq!(got, PINNED, "digest {got:#018x}");
}
