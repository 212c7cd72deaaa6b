//! Criterion bench for the Figure 5 experiment: cost of one controller
//! invocation as the number of controlled processes grows, plus the
//! end-to-end overhead measurement at a few process counts.
//!
//! The `cycle_in_place` group doubles as the scaling guard for the staged
//! pipeline refactor: the in-place cycle at 10/100/1000 jobs should scale
//! roughly linearly (dense slot-indexed storage, no per-cycle allocation),
//! where the old `BTreeMap`-walking controller degraded super-linearly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rrs_bench::fig5::controller_utilisation;
use rrs_core::{Controller, ControllerConfig, JobId, JobSpec};
use rrs_queue::MetricRegistry;
use std::hint::black_box;

fn controller_with_jobs(jobs: usize) -> Controller {
    let registry = MetricRegistry::new();
    let mut controller = Controller::new(ControllerConfig::default(), registry);
    for i in 0..jobs {
        controller
            .add_job(JobId(i as u64), JobSpec::miscellaneous())
            .unwrap();
    }
    controller
}

/// The steady-state hot path: slot-indexed, allocation-free cycles.
fn bench_control_cycle_in_place(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller/cycle_in_place");
    for &jobs in &[10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            let mut controller = controller_with_jobs(jobs);
            let mut t = 0.0;
            // Warm the scratch buffers so the measurement sees the
            // steady state the zero-allocation test locks in.
            for _ in 0..50 {
                t += 0.01;
                controller.control_cycle_in_place(t);
            }
            b.iter(|| {
                t += 0.01;
                black_box(controller.control_cycle_in_place(t).total_granted_ppt)
            });
        });
    }
    group.finish();
}

fn bench_overhead_measurement(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5/simulated_overhead");
    group.sample_size(10);
    for &jobs in &[0usize, 20, 40] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            b.iter(|| black_box(controller_utilisation(jobs, 0.5)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_control_cycle_in_place,
    bench_overhead_measurement
);
criterion_main!(benches);
