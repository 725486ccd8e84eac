//! Criterion micro-benchmarks: metric primitives on the simulator's hot
//! path (one histogram record per completed request; quantile queries
//! per window).

use criterion::{criterion_group, criterion_main, Criterion};
use pema_metrics::{LatencyHistogram, MovingAvg};

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram_record", |b| {
        let mut h = LatencyHistogram::new();
        let mut x = 0.001f64;
        b.iter(|| {
            x = (x * 1.37).rem_euclid(1.0).max(1e-5);
            h.record(x);
        });
    });
    c.bench_function("histogram_p95_query", |b| {
        let mut h = LatencyHistogram::new();
        for i in 1..100_000 {
            h.record(i as f64 * 1e-5);
        }
        b.iter(|| h.quantile(0.95));
    });
}

fn bench_moving_avg(c: &mut Criterion) {
    c.bench_function("moving_avg_push", |b| {
        let mut m = MovingAvg::new(5);
        let mut x = 0.0f64;
        b.iter(|| {
            x += 1.0;
            m.push(x)
        });
    });
}

criterion_group!(benches, bench_histogram, bench_moving_avg);
criterion_main!(benches);
