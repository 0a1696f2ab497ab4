//! Microbenchmarks of the trace FIFO (`xfdetector::spsc`),
//! message-at-a-time against batched drains.
//!
//! The pipeline pushes one message per failure-point interval through this
//! channel, so per-message synchronization cost is directly on the
//! detection critical path.
//!
//! ```sh
//! cargo bench -p xfd-bench --bench ring_throughput
//! ```

use std::thread;

use criterion::{criterion_group, criterion_main, Criterion};
use xfdetector::spsc::channel;

const MSGS: u64 = 10_000;

/// One full producer/consumer run: `MSGS` messages through a fresh
/// channel, message-at-a-time on both sides.
fn run_single(capacity: usize) -> u64 {
    let (tx, rx) = channel(capacity);
    let consumer = thread::spawn(move || {
        let mut n = 0u64;
        while let Some(v) = rx.recv() {
            n += v & 1;
        }
        n
    });
    for i in 0..MSGS {
        tx.send(i).unwrap();
    }
    drop(tx);
    consumer.join().unwrap()
}

/// As [`run_single`], but draining in batches of up to 32 per wait on
/// the consumer side.
fn run_batched_drain(capacity: usize) -> u64 {
    let (tx, rx) = channel(capacity);
    let consumer = thread::spawn(move || {
        let mut n = 0u64;
        let mut buf = Vec::with_capacity(32);
        while rx.recv_batch(&mut buf, 32) {
            n += buf.drain(..).map(|v| v & 1).sum::<u64>();
        }
        n
    });
    for i in 0..MSGS {
        tx.send(i).unwrap();
    }
    drop(tx);
    consumer.join().unwrap()
}

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // 10k messages at a capacity of 64.
    group.bench_function("single_10k", |b| {
        b.iter(|| std::hint::black_box(run_single(64)));
    });

    // Batching amortizes the consumer's wait over up to 32 messages.
    group.bench_function("batched_drain_10k", |b| {
        b.iter(|| std::hint::black_box(run_batched_drain(64)));
    });

    // Capacity 1 maximizes hand-off pressure: every message is a full
    // producer/consumer rendezvous.
    group.bench_function("single_cap1_10k", |b| {
        b.iter(|| std::hint::black_box(run_single(1)));
    });

    group.finish();
}

criterion_group!(benches, bench_ring);
criterion_main!(benches);
