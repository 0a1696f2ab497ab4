//! Concurrency torture tests for the trace FIFO.
//!
//! The unit tests in `spsc` cover the happy paths; these tests drive the
//! channel from two real threads with randomized burst and drain sizes and
//! adversarial capacities (1 = a hand-off per message, 64 = a deep queue),
//! and tear the channel down mid-stream from both ends.
//! Every run asserts the three invariants the detection pipeline depends
//! on: FIFO order, no lost or duplicated entries, and clean shutdown (no
//! deadlock, no leaked message).

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

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
        assert!(
            stats.max_depth <= capacity as u64,
            "cap={capacity}: depth {} exceeds bound",
            stats.max_depth
        );
    }
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

/// A producer blocked in `send` on a full channel gets its message back
/// when the receiver drops, instead of hanging.
#[test]
fn a_blocked_send_fails_when_the_receiver_drops() {
    let (tx, rx) = channel(2);
    tx.send(0u64).unwrap();
    tx.send(1).unwrap();
    let (done_tx, done_rx) = mpsc::channel();
    let producer = thread::spawn(move || done_tx.send(tx.send(2)).unwrap());
    wait_for_parks(&rx, 1);
    drop(rx);
    let sent = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the blocked send returned");
    assert_eq!(sent, Err(2), "the message comes back");
    producer.join().unwrap();
}

/// Deterministic walk of what the channel promises: FIFO order, the exact
/// `max_depth` high-water mark, and a capacity bound that holds a further
/// send until the consumer takes a message. The only wait is for a
/// counter, so no timing decides the outcome.
#[test]
fn fifo_order_high_water_mark_and_capacity_bound_are_exact() {
    let (tx, rx) = channel(4);
    let mut buf = Vec::new();

    // send 2, take 1: depth peaked at 2.
    tx.send(0u64).unwrap();
    tx.send(1).unwrap();
    assert!(rx.recv_batch(&mut buf, 1));
    assert_eq!(buf, [0]);
    assert_eq!(rx.stats().max_depth, 2);

    // Fill to exactly the capacity.
    for i in 2..5 {
        tx.send(i).unwrap();
    }
    assert_eq!(rx.stats().max_depth, 4, "full at the capacity");

    // A drain beyond occupancy returns only what is queued, in order.
    buf.clear();
    assert!(rx.recv_batch(&mut buf, 8));
    assert_eq!(buf, [1, 2, 3, 4]);

    for round in 0..12u64 {
        tx.send(100 + round).unwrap();
        assert_eq!(rx.recv(), Some(100 + round), "round {round}");
    }
    let stats = rx.stats();
    assert_eq!(stats.sends, 17);
    assert_eq!(stats.max_depth, 4);
    assert_eq!(stats.parks, 0, "nothing waited in this schedule");

    // Full again: a fifth send blocks (one park, no send counted) until a
    // message is taken, then lands behind the four.
    for i in 200..204 {
        tx.send(i).unwrap();
    }
    let producer = thread::spawn(move || {
        tx.send(204).unwrap();
        tx
    });
    wait_for_parks(&rx, 1);
    assert_eq!(rx.stats().sends, 21, "the fifth send is held by the bound");
    assert_eq!(rx.recv(), Some(200));
    let tx = producer.join().unwrap();
    drop(tx);
    buf.clear();
    while rx.recv_batch(&mut buf, 8) {}
    assert_eq!(buf, [201, 202, 203, 204]);
    let stats = rx.stats();
    assert_eq!(stats.sends, 22);
    assert_eq!(stats.max_depth, 4, "never past the capacity");
    assert_eq!(stats.parks, 1);
}

/// Waits until the channel has counted `n` parks: a side is blocked.
fn wait_for_parks<T>(rx: &spsc::Receiver<T>, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while rx.stats().parks < n {
        assert!(Instant::now() < deadline, "no side blocked within 10 s");
        thread::yield_now();
    }
}
