//! Criterion micro-benchmarks: DES vs fluid evaluator cost — the
//! trade-off behind the `ablation_fluid` experiment — on each of the
//! three paper apps at its `fleet_mix` load.

use criterion::{criterion_group, criterion_main, Criterion};
use pema_sim::{Allocation, Evaluator, FluidEvaluator, SimEvaluator};

fn bench_evaluators(c: &mut Criterion) {
    for (app, rps) in pema_apps::fleet_mix() {
        // The generous allocation cut to 60%: loaded but unsaturated,
        // so every service takes the full sojourn/throttle path.
        let alloc = Allocation::new(app.generous_alloc.iter().map(|x| x * 0.6).collect());
        let mut g = c.benchmark_group(&format!("evaluate_{}_{rps}rps", app.name));
        g.sample_size(10);
        g.bench_function("des_10s_window", |b| {
            let mut eval = SimEvaluator::new(&app, 3).with_window(1.0, 10.0);
            b.iter(|| eval.evaluate(&alloc, rps).p95_ms);
        });
        g.bench_function("fluid", |b| {
            let mut eval = FluidEvaluator::new(&app);
            b.iter(|| eval.evaluate(&alloc, rps).p95_ms);
        });
        g.finish();
    }
}

criterion_group!(benches, bench_evaluators);
criterion_main!(benches);
