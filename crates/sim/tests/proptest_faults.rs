//! Property tests for deterministic fault injection (ISSUE 8):
//!
//! 1. a rate-0 [`FaultPlan`] is byte-for-byte the fault-free executor
//!    (same outputs, same meter, same budget), and
//! 2. a faulty execution is a pure function of `(protocols, plan)` — the
//!    same seed yields bit-identical outcomes and meters across repeated
//!    runs and every thread count.
//!
//! The scripted protocol (see `support`) folds its entire message history
//! into an order-sensitive checksum, so a single extra, missing, stale or
//! misrouted delivery changes some node's output; it halts on a fixed round
//! schedule, never on message receipt, so runs terminate under arbitrary
//! drop rates.

mod support;

use locality_graph::prelude::*;
use locality_rand::prng::{Prng, SplitMix64};
use locality_sim::prelude::*;
use proptest::prelude::*;
use support::{arb_gnp, Script};

/// A fault plan with every fault class active, rates derived from one seed.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), any::<u64>()).prop_map(|(seed, knobs)| {
        let mut rng = SplitMix64::new(knobs);
        FaultPlan::new(seed)
            .with_drop((rng.next_u64() % 3_000) as u32)
            .with_duplication((rng.next_u64() % 2_000) as u32)
            .with_delay(
                (rng.next_u64() % 3_000) as u32,
                1 + (rng.next_u64() % 4) as u32,
            )
            .with_crashes((rng.next_u64() % 1_500) as u32, (rng.next_u64() % 8) as u32)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Rate-0 plans take the fault-free path bit for bit.
    #[test]
    fn rate_zero_plan_equals_fault_free_executor(
        g in arb_gnp(),
        proto_seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let n = g.node_count();
        let ids = IdAssignment::sequential(n);
        let protocols = |seed: u64| (0..n).map(move |v| Script::new(seed, v));
        let plan = FaultPlan::new(plan_seed);
        prop_assert!(plan.is_pass_through());

        let plain = Executor::congest(&g, &ids)
            .run(protocols(proto_seed), 16)
            .expect("scripts halt by round 13");
        let faulty = Executor::congest(&g, &ids)
            .run_with_faults(protocols(proto_seed), 16, &plan)
            .expect("scripts halt by round 13");
        prop_assert_eq!(faulty.meter, plain.meter);
        prop_assert_eq!(faulty.budget_bits, plain.budget_bits);
        prop_assert_eq!(faulty.into_outputs(), Some(plain.outputs));
    }

    /// One plan, one schedule: sequential, repeated, and parallel runs at
    /// every thread count agree bit for bit.
    #[test]
    fn same_seed_faulty_runs_are_bit_identical_across_thread_counts(
        g in arb_gnp(),
        proto_seed in any::<u64>(),
        plan in arb_plan(),
    ) {
        let n = g.node_count();
        let ids = IdAssignment::sequential(n);
        let protocols = |seed: u64| (0..n).map(move |v| Script::new(seed, v));

        let seq = Executor::congest(&g, &ids)
            .run_with_faults(protocols(proto_seed), 16, &plan)
            .expect("scripts halt by round 13");
        let again = Executor::congest(&g, &ids)
            .run_with_faults(protocols(proto_seed), 16, &plan)
            .expect("scripts halt by round 13");
        prop_assert_eq!(&again.outcomes, &seq.outcomes);
        prop_assert_eq!(again.meter, seq.meter);

        for threads in [2usize, 3, 5, 16] {
            let par = Executor::congest(&g, &ids)
                .run_parallel_with_faults(protocols(proto_seed), 16, threads, &plan)
                .expect("scripts halt by round 13");
            prop_assert_eq!(&par.outcomes, &seq.outcomes, "threads={}", threads);
            prop_assert_eq!(par.meter, seq.meter, "threads={}", threads);
        }
    }
}
