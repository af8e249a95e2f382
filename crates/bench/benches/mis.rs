//! Criterion timings for the direct solvers (Luby's MIS, trial coloring) vs
//! decomposition-derandomized MIS (T8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use locality_core::coloring;
use locality_core::decomposition::ball_carving_decomposition;
use locality_core::mis;
use locality_graph::generators::Family;
use locality_rand::prng::SplitMix64;
use locality_rand::source::PrngSource;

fn bench_mis(c: &mut Criterion) {
    let mut group = c.benchmark_group("mis");
    group.sample_size(10);
    for n in [256usize, 1024] {
        let mut p = SplitMix64::new(n as u64);
        let g = Family::GnpSparse.generate(n, &mut p);
        group.bench_with_input(BenchmarkId::new("luby", n), &g, |b, g| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                mis::luby(g, &mut PrngSource::seeded(seed))
            });
        });
        group.bench_with_input(BenchmarkId::new("random_coloring", n), &g, |b, g| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                coloring::random_coloring(g, &mut PrngSource::seeded(seed))
            });
        });
        let order: Vec<usize> = (0..g.node_count()).collect();
        let d = ball_carving_decomposition(&g, &order).decomposition;
        group.bench_with_input(BenchmarkId::new("via_decomposition", n), &g, |b, g| {
            b.iter(|| mis::via_decomposition(g, &d));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mis);
criterion_main!(benches);
