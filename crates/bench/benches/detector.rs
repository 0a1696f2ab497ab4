//! Criterion measurement behind Figure 12a: one full detection run per
//! workload (one insertion plus its per-failure-point recovery), and the
//! Figure 12b baselines (trace-only and original execution). The
//! `pruned_btree_128` rows time one B-Tree run of 128 operations under
//! equivalence pruning in the batch and the stream driver, so the cost of
//! the stream driver's second thread stays visible; the
//! `pruned_btree_128_bug` rows do the same with `BtNoAddLeafInsert`
//! injected, where most failure points replay a trace and the checker
//! thread has work to overlap.

use criterion::{criterion_group, criterion_main, Criterion};
use xfd_bench::{run_baseline, run_detection, Baseline};
use xfd_workloads::bugs::{BugId, BugSet, WorkloadKind};
use xfd_workloads::{all_workloads, build};
use xfdetector::{run_pipelined, Pruning, StreamOptions, XfConfig, XfDetector};

fn bench_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12a_detection");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for kind in all_workloads() {
        group.bench_function(kind.to_string(), |b| {
            b.iter(|| std::hint::black_box(run_detection(kind, 1)));
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12b_baselines");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for kind in all_workloads() {
        group.bench_function(format!("{kind}/trace-only"), |b| {
            b.iter(|| std::hint::black_box(run_baseline(kind, 1, Baseline::TraceOnly)));
        });
        group.bench_function(format!("{kind}/original"), |b| {
            b.iter(|| std::hint::black_box(run_baseline(kind, 1, Baseline::Original)));
        });
    }
    group.finish();
}

fn bench_pruned_modes(c: &mut Criterion) {
    // Clean, every check is elided: the frontend is the critical path.
    // With `BtNoAddLeafInsert` most checks replay, and the overlap the
    // stream driver buys shows.
    for (name, bugs) in [
        ("pruned_btree_128", BugSet::none()),
        (
            "pruned_btree_128_bug",
            BugSet::single(BugId::BtNoAddLeafInsert),
        ),
    ] {
        let mut group = c.benchmark_group(name);
        group.sample_size(20);
        group.warm_up_time(std::time::Duration::from_millis(500));
        group.measurement_time(std::time::Duration::from_secs(2));
        let cfg = XfConfig {
            pruning: Pruning::Equivalence,
            ..XfConfig::default()
        };
        let workload = || build(WorkloadKind::Btree, 128, bugs.clone());
        group.bench_function("batch", |b| {
            let detector = XfDetector::new(cfg.clone());
            b.iter(|| std::hint::black_box(detector.run(workload()).expect("batch run")));
        });
        group.bench_function("stream", |b| {
            let opts = StreamOptions::default();
            b.iter(|| {
                std::hint::black_box(run_pipelined(&cfg, workload(), &opts).expect("stream run"))
            });
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_detection,
    bench_baselines,
    bench_pruned_modes
);
criterion_main!(benches);
