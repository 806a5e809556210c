//! Scheduler latency benches — the microbenchmark behind Fig. 10's
//! running-time comparison: greedy vs tree vs OR vs OPT at growing
//! instance sizes.

use chronus_baselines::or::or_rounds_greedy;
use chronus_core::greedy::greedy_schedule;
use chronus_core::tree::check_feasibility;
use chronus_net::{motivating_example, InstanceGenerator, InstanceGeneratorConfig};
use chronus_opt::{optimal_schedule_with, OptConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn instance(n: usize) -> chronus_net::UpdateInstance {
    InstanceGenerator::new(InstanceGeneratorConfig::paper(n, 42))
        .generate()
        .expect("generator succeeds")
}

fn bench_greedy(c: &mut Criterion) {
    let mut g = c.benchmark_group("greedy_schedule");
    for n in [20usize, 60, 200] {
        let inst = instance(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| greedy_schedule(std::hint::black_box(inst)))
        });
    }
    g.finish();
}

/// Greedy with its incremental exact gate on fig10-scale single-flow
/// instances, growing switch counts.
fn bench_exact_gate(c: &mut Criterion) {
    let mut g = c.benchmark_group("greedy_exact_gate");
    for n in [8usize, 64, 512] {
        let inst = chronus_bench::fig10::scale_instance(n.max(8), 7 + n as u64)
            .unwrap_or_else(|| instance(n));
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| greedy_schedule(std::hint::black_box(inst)))
        });
    }
    g.finish();
}

fn bench_tree(c: &mut Criterion) {
    let inst = motivating_example();
    c.bench_function("tree_feasibility_motivating", |b| {
        b.iter(|| check_feasibility(std::hint::black_box(&inst)))
    });
}

fn bench_or(c: &mut Criterion) {
    let mut g = c.benchmark_group("or_rounds_greedy");
    for n in [20usize, 60] {
        let inst = instance(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| or_rounds_greedy(std::hint::black_box(inst)))
        });
    }
    g.finish();
}

fn bench_opt(c: &mut Criterion) {
    let inst = motivating_example();
    let cfg = OptConfig {
        budget: Duration::from_secs(5),
        ..Default::default()
    };
    c.bench_function("opt_motivating", |b| {
        b.iter(|| optimal_schedule_with(std::hint::black_box(&inst), cfg))
    });
}

criterion_group!(
    benches,
    bench_greedy,
    bench_exact_gate,
    bench_tree,
    bench_or,
    bench_opt
);
criterion_main!(benches);
