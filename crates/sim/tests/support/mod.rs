//! Shared fixtures for the executor property tests: random `G(n, p)`
//! graphs and an adversarial scripted protocol.
//!
//! The scripted protocol is adversarial for determinism bugs: each node
//! follows its own pseudo-random schedule of silences, broadcasts, directed
//! sends (including overrides) and halts, and folds its entire message
//! history (port and payload) into an order-sensitive checksum, so a single
//! misrouted, duplicated, stale or dropped message changes some node's
//! output. It halts on a fixed round schedule, never on message receipt, so
//! runs terminate under arbitrary drop rates.

use locality_graph::prelude::*;
use locality_rand::prng::{Prng, SplitMix64};
use locality_sim::prelude::*;
use proptest::prelude::*;

/// Deterministic pseudo-random per-node protocol driven by its own PRNG.
#[derive(Debug, Clone)]
pub struct Script {
    rng: SplitMix64,
    halt_round: u32,
    checksum: u64,
}

impl Script {
    pub fn new(seed: u64, node: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let halt_round = 1 + (rng.next_u64() % 12) as u32;
        Self {
            rng,
            halt_round,
            checksum: 0,
        }
    }

    fn absorb(&mut self, port: usize, msg: u64) {
        self.checksum = self
            .checksum
            .rotate_left(7)
            .wrapping_add(msg)
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(port as u64 + 1);
    }

    fn act(&mut self, out: &mut Outlet<'_, u64>) {
        let degree = out.degree();
        match self.rng.next_u64() % 4 {
            0 => {} // silent round
            1 => out.broadcast(self.rng.next_u64() >> 32),
            2 if degree > 0 => {
                let port = (self.rng.next_u64() % degree as u64) as usize;
                out.send(port, self.rng.next_u64() >> 32);
            }
            _ if degree > 0 => {
                // A broadcast partially overridden by directed sends.
                out.broadcast(self.rng.next_u64() >> 32);
                for _ in 0..(self.rng.next_u64() % 3) {
                    let port = (self.rng.next_u64() % degree as u64) as usize;
                    out.send(port, self.rng.next_u64() >> 32);
                }
            }
            _ => {}
        }
    }
}

impl BatchProtocol for Script {
    type Message = u64;
    type Output = (u32, u64);

    fn start(&mut self, _ctx: &NodeContext, out: &mut Outlet<'_, u64>) {
        self.act(out);
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, u64>,
        out: &mut Outlet<'_, u64>,
    ) -> Control<(u32, u64)> {
        for (port, &msg) in inbox.iter() {
            self.absorb(port, msg);
        }
        if round >= self.halt_round {
            return Control::Halt((round, self.checksum));
        }
        self.act(out);
        Control::Continue
    }
}

/// Random `G(n, p)` graphs, `n < 40`, from sparse to dense.
pub fn arb_gnp() -> impl Strategy<Value = Graph> {
    (1usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = SplitMix64::new(seed);
        // Sparse-to-dense sweep: p in roughly [0.02, 0.5].
        let p = 0.02 + (rng.next_u64() % 49) as f64 / 100.0;
        Graph::gnp(n, p, &mut rng)
    })
}
