//! Concurrency torture tests for the trace FIFO.
//!
//! The unit tests in `spsc` cover the happy paths; these tests hammer the
//! publish/drain index protocol from two real threads with randomized batch
//! sizes and adversarial capacities (1 = maximal cursor contention, 64 = the
//! pipeline default), and tear the channel down mid-stream from both ends.
//! Every run asserts the three invariants the detection pipeline depends
//! on: FIFO order, no lost or duplicated entries, and clean shutdown (no
//! deadlock, no leaked message).

use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfdetector::spsc::{self, channel};

/// Randomized producer/consumer torture: bursts of random length against
/// drains of random length, across capacities 1 and 64, asserting the
/// stream arrives exactly once and in order.
#[test]
fn torture_random_batches_preserve_fifo_without_loss_or_duplication() {
    const N: u64 = 20_000;
    for capacity in [1usize, 64] {
        let (tx, rx) = channel(capacity);
        let seed = 0x5eed_0000 + capacity as u64;
        let producer = thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next = 0u64;
            while next < N {
                let burst = rng.gen_range_u64(1, 8).min(N - next);
                for _ in 0..burst {
                    tx.send(next).expect("receiver alive until join");
                    next += 1;
                }
                if rng.gen_bool(0.05) {
                    thread::yield_now();
                }
            }
        });

        let mut rng = StdRng::seed_from_u64(seed ^ 0xffff);
        let mut got: Vec<u64> = Vec::with_capacity(N as usize);
        let mut buf = Vec::new();
        loop {
            let max = rng.gen_range_u64(1, 10) as usize;
            if !rx.recv_batch(&mut buf, max) {
                break;
            }
            assert!(buf.len() <= max, "drain respects the requested max");
            got.append(&mut buf);
            if rng.gen_bool(0.05) {
                thread::yield_now();
            }
        }
        producer.join().unwrap();

        assert_eq!(got.len() as u64, N, "cap={capacity}: lost entries");
        assert!(
            got.windows(2).all(|w| w[1] == w[0] + 1) && got.first() == Some(&0),
            "cap={capacity}: order violated or entries duplicated"
        );
        let stats = rx.stats();
        assert_eq!(stats.sends, N);
        assert_eq!(stats.recvs, N);
        assert!(
            stats.max_depth <= capacity as u64,
            "cap={capacity}: depth {} exceeds bound",
            stats.max_depth
        );
    }
}

/// Batched publishes against batched drains on the lock-free ring, where
/// a batch regularly spans the wrap-around point of the masked index.
#[test]
fn torture_batched_sends_survive_index_wraparound() {
    const N: u64 = 30_000;
    let (tx, rx) = spsc::channel(8);
    let producer = thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut next = 0u64;
        while next < N {
            let len = rng.gen_range_u64(1, 20).min(N - next);
            let batch: Vec<u64> = (next..next + len).collect();
            next += len;
            tx.send_batch(batch).expect("receiver alive until join");
        }
    });
    let mut got: Vec<u64> = Vec::with_capacity(N as usize);
    let mut buf = Vec::new();
    while rx.recv_batch(&mut buf, 16) {
        got.append(&mut buf);
    }
    producer.join().unwrap();
    assert_eq!(got.len() as u64, N);
    assert!(got.windows(2).all(|w| w[1] == w[0] + 1));
    assert_eq!(rx.stats().max_depth, 8, "a full batch fills the ring");
}

/// Dropping the receiver mid-stream must unblock a producer stuck on a
/// full ring and fail the remaining sends instead of deadlocking.
#[test]
fn torture_dropping_receiver_mid_stream_unblocks_the_producer() {
    let (tx, rx) = channel(2);
    let producer = thread::spawn(move || {
        let mut sent = 0u64;
        loop {
            if tx.send(sent).is_err() {
                break sent;
            }
            sent += 1;
        }
    });
    for _ in 0..20 {
        if rx.recv().is_none() {
            break;
        }
    }
    // The producer is now likely parked on a full ring; dropping the
    // receiver must wake it and fail its pending send.
    thread::sleep(Duration::from_millis(5));
    drop(rx);
    let sent = producer.join().unwrap();
    assert!(sent >= 20, "producer made progress before close");
}

/// Dropping the sender mid-stream delivers exactly the published prefix:
/// the consumer drains the backlog, then observes end-of-stream.
#[test]
fn torture_dropping_sender_mid_stream_delivers_the_exact_prefix() {
    let (tx, rx) = channel(64);
    let producer = thread::spawn(move || {
        for i in 0..1000u64 {
            tx.send(i).expect("receiver alive until join");
        }
        // Sender dropped here: 1000 is the authoritative count.
        1000u64
    });
    let mut got = Vec::new();
    let mut buf = Vec::new();
    while rx.recv_batch(&mut buf, 32) {
        got.append(&mut buf);
    }
    let sent = producer.join().unwrap();
    assert_eq!(got.len() as u64, sent, "prefix not exact");
    assert!(got.windows(2).all(|w| w[1] == w[0] + 1));
    assert!(!rx.recv_batch(&mut buf, 1), "stays closed");
}

/// Deterministic single-threaded walk of the lock-free publish/drain index
/// protocol: every step's observable cursor state (depth, stats) is checked
/// exactly, including the wrap of the masked index past the slot-array
/// boundary. No concurrency, no timing — this is the protocol spec as a
/// test.
#[test]
fn interleaved_publish_drain_protocol_is_deterministic() {
    let (tx, rx) = spsc::channel(4);
    let mut buf = Vec::new();

    // publish 2, drain 1: head=1 tail=2.
    tx.send(0).unwrap();
    tx.send(1).unwrap();
    assert_eq!(tx.depth(), 2);
    assert!(rx.recv_batch(&mut buf, 1));
    assert_eq!(buf, [0]);
    assert_eq!(tx.depth(), 1);

    // batched publish to exactly full: tail-head == capacity.
    tx.send_batch(vec![2, 3, 4]).unwrap();
    assert_eq!(tx.depth(), 4, "full at the logical capacity");

    // batched drain beyond occupancy returns only what is published.
    buf.clear();
    assert!(rx.recv_batch(&mut buf, 8));
    assert_eq!(buf, [1, 2, 3, 4]);
    assert_eq!(tx.depth(), 0);

    // The cursors are monotone: repeated fill/drain cycles walk the masked
    // index over the wrap boundary (capacity 4 ⇒ wrap every 4 messages)
    // without reordering or losing a slot.
    for round in 0..12u64 {
        tx.send(100 + round).unwrap();
        assert_eq!(rx.recv(), Some(100 + round), "round {round}");
    }

    let stats = rx.stats();
    assert_eq!(stats.sends, 17);
    assert_eq!(stats.recvs, 17);
    assert_eq!(stats.max_depth, 4);
    assert_eq!(stats.parks, 0, "nothing ever waited in this schedule");
}
