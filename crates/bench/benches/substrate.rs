//! Microbenchmarks of the substrates: raw PM-simulator operation
//! throughput, crash-snapshot capture, hashing and forking, shadow-PM
//! replay throughput, and the cost ablation of the §5.4 first-read-only
//! optimization.

use criterion::{criterion_group, criterion_main, Criterion};
use pmem::{PmCtx, PmPool};
use xfdetector::{DetectionReport, FailurePoint, ShadowPm};
use xftrace::{FenceKind, FlushKind, Op, SourceLoc, Stage, TraceEntry};

fn bench_pool_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmem_pool");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("write_flush_fence_64B", |b| {
        let mut ctx = PmCtx::new(PmPool::new(1024 * 1024).unwrap());
        let base = ctx.pool().base();
        let mut i = 0u64;
        b.iter(|| {
            let a = base + (i % 1024) * 64;
            ctx.write_u64(a, i).unwrap();
            ctx.persist_barrier(a, 8).unwrap();
            i += 1;
        });
        let _ = ctx.trace().drain();
    });

    group.bench_function("full_image_4MiB", |b| {
        let mut ctx = PmCtx::new(PmPool::new(4 * 1024 * 1024).unwrap());
        let base = ctx.pool().base();
        ctx.write_u64(base, 1).unwrap();
        b.iter(|| std::hint::black_box(ctx.pool().full_image()));
    });

    // The per-failure-point snapshot operations, on a 4 MiB pool with the
    // layout the shipped workloads leave: a few header lines plus ~300
    // heap lines from 64 KiB on. Each must cost O(lines touched), not
    // O(lines in the pool).
    let pool = touched_pool(4 * 1024 * 1024, 300);
    group.bench_function("cow_capture_4MiB", |b| {
        b.iter(|| std::hint::black_box(pool.cow_full_image()));
    });
    let image = pool.cow_full_image();
    group.bench_function("content_hash", |b| {
        b.iter(|| std::hint::black_box(image.content_hash()));
    });
    // Fork plus drop: the post-failure pool lives for one recovery.
    group.bench_function("from_cow_fork_4MiB", |b| {
        b.iter(|| std::hint::black_box(PmPool::from_cow(&image)));
    });

    group.finish();
}

/// A `size`-byte pool with 4 header lines and `heap` consecutive heap
/// lines from 64 KiB on written, one word each.
fn touched_pool(size: u64, heap: u64) -> PmPool {
    let mut pool = PmPool::new(size).unwrap();
    let base = pool.base();
    let lines = (0..4).chain((0..heap).map(|i| 1024 + i));
    for (i, li) in lines.enumerate() {
        pool.write_u64(base + li * 64, i as u64 + 1).unwrap();
    }
    pool
}

fn synthetic_trace(n: u64) -> Vec<TraceEntry> {
    let loc = SourceLoc::synthetic("<bench>");
    let mut entries = Vec::with_capacity(n as usize * 3);
    for i in 0..n {
        let addr = 0x1000 + (i % 512) * 64;
        entries.push(TraceEntry::new(
            Op::Write { addr, size: 8 },
            loc,
            Stage::Pre,
            false,
            true,
        ));
        entries.push(TraceEntry::new(
            Op::Flush {
                addr,
                kind: FlushKind::Clwb,
            },
            loc,
            Stage::Pre,
            false,
            true,
        ));
        entries.push(TraceEntry::new(
            Op::Fence {
                kind: FenceKind::Sfence,
            },
            loc,
            Stage::Pre,
            false,
            true,
        ));
    }
    entries
}

fn bench_shadow_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("shadow_pm");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let trace = synthetic_trace(1000);

    group.bench_function("pre_replay_3k_entries", |b| {
        b.iter(|| {
            let mut shadow = ShadowPm::new();
            let mut report = DetectionReport::new();
            for e in &trace {
                shadow.apply_pre(e, &mut report);
            }
            std::hint::black_box(shadow.entries_replayed())
        });
    });

    // Post-failure checking: first-read-only vs every read (§5.4 opt. 1).
    let mut shadow = ShadowPm::new();
    let mut report = DetectionReport::new();
    for e in &trace {
        shadow.apply_pre(e, &mut report);
    }
    let loc = SourceLoc::synthetic("<bench>");
    let reads: Vec<TraceEntry> = (0..2000u64)
        .map(|i| {
            TraceEntry::new(
                Op::Read {
                    addr: 0x1000 + (i % 512) * 64,
                    size: 8,
                },
                loc,
                Stage::Post,
                false,
                true,
            )
        })
        .collect();
    let fp = FailurePoint { id: 0, loc };

    for (label, first_only) in [
        ("post_check_first_read_only", true),
        ("post_check_all_reads", false),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut checker = shadow.begin_post(first_only);
                let mut out = DetectionReport::new();
                for e in &reads {
                    checker.apply_post(e, fp, &mut out);
                }
                std::hint::black_box(out.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pool_ops, bench_shadow_replay);
criterion_main!(benches);
