//! Property tests: the parallel arena executor is bit-identical to the
//! sequential one — same outputs, same [`CostMeter`] — over random `G(n, p)`
//! graphs and randomly scripted protocols (see `support`), for every thread
//! count; and BFS flooding on the executor matches the centralized
//! reference.

mod support;

use locality_graph::prelude::*;
use locality_sim::prelude::*;
use locality_sim::protocols::BfsProtocol;
use proptest::prelude::*;
use support::{arb_gnp, Script};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_executor_is_bit_identical_to_sequential(
        g in arb_gnp(),
        proto_seed in any::<u64>(),
        local in any::<bool>(),
    ) {
        let n = g.node_count();
        let ids = IdAssignment::sequential(n);
        fn make<'g>(local: bool, g: &'g Graph, ids: &'g IdAssignment) -> Executor<'g> {
            if local {
                Executor::local(g, ids)
            } else {
                Executor::congest(g, ids)
            }
        }
        let protocols = |seed: u64| (0..n).map(move |v| Script::new(seed, v));

        let seq = make(local, &g, &ids)
            .run(protocols(proto_seed), 16)
            .expect("scripts halt by round 13");
        for threads in [2usize, 3, 5, 16] {
            let par = make(local, &g, &ids)
                .run_parallel(protocols(proto_seed), 16, threads)
                .expect("scripts halt by round 13");
            prop_assert_eq!(&par.outputs, &seq.outputs, "threads={}", threads);
            prop_assert_eq!(par.meter, seq.meter, "threads={}", threads);
            prop_assert_eq!(par.budget_bits, seq.budget_bits);
        }
    }

    #[test]
    fn bfs_protocol_matches_multi_source_bfs(
        g in arb_gnp(),
        picks in (any::<u64>(), any::<u64>()),
        threads in 2usize..6,
    ) {
        // BFS flooding on the executor, sequential and parallel, against the
        // centralized reference: distances match, and every parent port
        // points at a neighbor one step closer to a source.
        let n = g.node_count();
        let mut sources = vec![(picks.0 % n as u64) as usize, (picks.1 % n as u64) as usize];
        sources.dedup();
        let ids = IdAssignment::sequential(n);
        let deadline = n as u32 + 1;
        let nodes = || (0..n).map(|v| BfsProtocol::new(sources.contains(&v), deadline));

        let seq = Executor::congest(&g, &ids).run(nodes(), deadline + 1).expect("completes");
        let par = Executor::congest(&g, &ids)
            .run_parallel(nodes(), deadline + 1, threads)
            .expect("completes");
        prop_assert_eq!(&par, &seq);

        let (reference, _) = multi_source_bfs(&g, &sources);
        for v in g.nodes() {
            let (dist, parent) = seq.outputs[v];
            prop_assert_eq!(dist, reference[v], "node {}", v);
            if let Some(p) = parent {
                let u = g.neighbors(v)[p];
                prop_assert_eq!(reference[u].map(|d| d + 1), dist, "node {} parent {}", v, u);
            }
        }
    }
}
