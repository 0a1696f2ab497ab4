//! The trace FIFO: a bounded lock-free SPSC channel, the reproduction of
//! the paper's shared-memory trace FIFO.
//!
//! XFDetector's Pin frontend and detection backend are separate processes
//! coupled by a 2 GB shared-memory FIFO (§5.1, Figure 8): the frontend
//! blocks when the FIFO is full, the backend blocks when it is empty, and
//! detection overlaps program execution instead of following it. This
//! module is the in-process analogue, with instrumentation ([`RingStats`])
//! for the queue-depth high-water mark and the time either side spent
//! stalled. Capacity is counted in *messages*, not bytes; the pipeline
//! batches trace entries into messages (one batch per failure-point
//! interval) so a small message capacity still bounds a large number of
//! in-flight entries.
//!
//! The channel is a classic bounded SPSC ring buffer:
//!
//! - a power-of-two slot array indexed by monotonically increasing `head`
//!   (consumer) and `tail` (producer) cursors, masked into the array,
//! - the cursors live on their own cache lines ([`Padded`]) so the
//!   producer's `tail` stores never invalidate the consumer's `head` line,
//! - the producer publishes with one `Release` store of `tail`; the
//!   consumer acquires it and drains with one `Release` store of `head` —
//!   with the batch APIs ([`Sender::send_batch`], [`Receiver::recv_batch`])
//!   that is one atomic release per *batch*, not per message,
//! - a waiting side first spins a bounded number of iterations
//!   ([`SPIN_LIMIT`] for the producer, `CONSUMER_SPIN_LIMIT` for the
//!   consumer, counted in [`RingStats::spins`]), then parks its thread
//!   ([`RingStats::parks`]) until the other side wakes it (or a short
//!   timeout re-checks, making lost wakeups impossible to wedge on).
//!
//! The crate is `#![forbid(unsafe_code)]`, so slots are `Mutex<Option<T>>`
//! rather than `UnsafeCell`s. The index protocol makes every slot lock
//! *uncontended by construction* — the producer only writes a slot after
//! `head` proves it consumed, and the consumer only reads it after `tail`
//! proves it published — so each lock is a single uncontested atomic
//! compare-and-swap, not a blocking handoff; the cross-thread ordering
//! argument rests on the `Release`/`Acquire` cursor pair, with the slot
//! mutexes as a belt-and-suspenders move of `T` across threads. See
//! DESIGN.md §4h for the full memory-ordering argument.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Bounded spin iterations before the producer parks on a full ring.
const SPIN_LIMIT: u32 = 128;

/// Bounded spin iterations before the consumer parks on an empty ring.
/// Longer than the producer's: once the consumer parks, every send pays
/// an unpark on the producer's thread, the critical path of a detection
/// run. A consumer that keeps up (the checker of a pruned run, idle half
/// the time) would otherwise park between most messages, and those
/// unparks cost the stream driver more than the spinning costs the
/// checker (EXPERIMENTS.md, "Suspect-line checking").
const CONSUMER_SPIN_LIMIT: u32 = 16 * SPIN_LIMIT;

/// Park timeout: an upper bound on the cost of a lost wakeup, not the
/// wakeup mechanism (the other side unparks eagerly).
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Pads an atomic cursor to its own cache line so the producer's and
/// consumer's cursor writes do not false-share.
#[repr(align(64))]
struct Padded<T>(T);

/// One side's parking state: the flag the peer checks after every publish
/// or drain, and the thread handle it unparks.
struct ParkSide {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl ParkSide {
    fn new() -> Self {
        ParkSide {
            parked: AtomicBool::new(false),
            thread: Mutex::new(None),
        }
    }

    /// Wakes the side if it is parked. Called by the peer after it changes
    /// the condition the side waits on.
    fn wake(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = self
                .thread
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
            {
                t.unpark();
            }
        }
    }

    /// Registers the current thread and publishes the parked flag. The
    /// caller re-checks its wait condition *after* this (the flag store is
    /// `SeqCst`, ordering it before the re-check), so a peer that changed
    /// the condition either sees the flag and unparks, or the re-check sees
    /// the change — a wakeup is never lost.
    fn prepare_park(&self) {
        *self
            .thread
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(thread::current());
        self.parked.store(true, Ordering::SeqCst);
    }

    fn cancel_park(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// Instrumentation counters of one channel, mirroring what the paper's FIFO
/// would expose: occupancy high-water mark and stall time on either side.
#[derive(Debug, Clone, Default)]
pub struct RingStats {
    /// Messages successfully enqueued.
    pub sends: u64,
    /// Messages successfully dequeued.
    pub recvs: u64,
    /// Highest queue occupancy observed (messages).
    pub max_depth: u64,
    /// Total time the producer spent blocked on a full queue.
    pub producer_stall: Duration,
    /// Total time the consumer spent blocked on an empty queue.
    pub consumer_stall: Duration,
    /// Bounded spin-loop iterations either side burned before parking.
    pub spins: u64,
    /// Times a side exhausted its spin budget and parked its thread.
    pub parks: u64,
}

struct Stats {
    sends: AtomicU64,
    recvs: AtomicU64,
    max_depth: AtomicU64,
    producer_stall_ns: AtomicU64,
    consumer_stall_ns: AtomicU64,
    spins: AtomicU64,
    parks: AtomicU64,
}

struct Shared<T> {
    slots: Box<[Mutex<Option<T>>]>,
    mask: u64,
    /// Logical capacity (the depth bound), ≤ `slots.len()`.
    capacity: u64,
    /// Consumer cursor: next index to drain. Consumer-written (`Release`),
    /// producer-read (`Acquire`) for the free-space check.
    head: Padded<AtomicU64>,
    /// Producer cursor: next index to publish. Producer-written
    /// (`Release`), consumer-read (`Acquire`) for the occupancy check.
    tail: Padded<AtomicU64>,
    closed: AtomicBool,
    producer: ParkSide,
    consumer: ParkSide,
    stats: Stats,
}

impl<T> Shared<T> {
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.producer.wake();
        self.consumer.wake();
    }

    fn snapshot(&self) -> RingStats {
        RingStats {
            sends: self.stats.sends.load(Ordering::Relaxed),
            recvs: self.stats.recvs.load(Ordering::Relaxed),
            max_depth: self.stats.max_depth.load(Ordering::Relaxed),
            producer_stall: Duration::from_nanos(
                self.stats.producer_stall_ns.load(Ordering::Relaxed),
            ),
            consumer_stall: Duration::from_nanos(
                self.stats.consumer_stall_ns.load(Ordering::Relaxed),
            ),
            spins: self.stats.spins.load(Ordering::Relaxed),
            parks: self.stats.parks.load(Ordering::Relaxed),
        }
    }
}

/// The producing endpoint (single producer). Dropping it closes the
/// channel; the consumer drains the backlog and then observes
/// end-of-stream.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming endpoint (single consumer). Dropping it closes the
/// channel; subsequent sends fail fast instead of blocking forever.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded lock-free SPSC channel holding at most `capacity`
/// messages. The slot array is rounded up to a power of two so indices
/// wrap with a mask, but the *logical* capacity — the backpressure bound
/// and the maximum observable depth — stays exactly `capacity`.
///
/// # Panics
///
/// Panics if `capacity` is zero.
#[must_use]
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "ring capacity must be non-zero");
    let cap = (capacity as u64).next_power_of_two();
    let slots = (0..cap).map(|_| Mutex::new(None)).collect();
    let shared = Arc::new(Shared {
        slots,
        mask: cap - 1,
        capacity: capacity as u64,
        head: Padded(AtomicU64::new(0)),
        tail: Padded(AtomicU64::new(0)),
        closed: AtomicBool::new(false),
        producer: ParkSide::new(),
        consumer: ParkSide::new(),
        stats: Stats {
            sends: AtomicU64::new(0),
            recvs: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            producer_stall_ns: AtomicU64::new(0),
            consumer_stall_ns: AtomicU64::new(0),
            spins: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        },
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Waits until at least one slot is free or the channel closes.
    /// Returns the fresh `head` on success, `None` if closed.
    fn wait_not_full(&self, tail: u64) -> Option<u64> {
        let sh = &*self.shared;
        let mut spins = 0u32;
        let mut spun = 0u64;
        let mut parked = 0u64;
        let mut stalled = Duration::ZERO;
        let head = loop {
            let head = sh.head.0.load(Ordering::Acquire);
            if tail - head < sh.capacity {
                break Some(head);
            }
            if sh.closed.load(Ordering::SeqCst) {
                break None;
            }
            spins += 1;
            if spins <= SPIN_LIMIT {
                spun += 1;
                std::hint::spin_loop();
            } else {
                sh.producer.prepare_park();
                // Re-check after publishing the flag: the consumer either
                // sees the flag and unparks, or this sees its drain.
                if tail - sh.head.0.load(Ordering::SeqCst) < sh.capacity
                    || sh.closed.load(Ordering::SeqCst)
                {
                    sh.producer.cancel_park();
                    continue;
                }
                let t0 = Instant::now();
                thread::park_timeout(PARK_TIMEOUT);
                sh.producer.cancel_park();
                stalled += t0.elapsed();
                parked += 1;
            }
        };
        if spun != 0 {
            sh.stats.spins.fetch_add(spun, Ordering::Relaxed);
        }
        if parked != 0 {
            sh.stats.parks.fetch_add(parked, Ordering::Relaxed);
            sh.stats
                .producer_stall_ns
                .fetch_add(stalled.as_nanos() as u64, Ordering::Relaxed);
        }
        head
    }

    /// Enqueues `msg`, blocking while the ring is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns the message back if the channel is closed.
    pub fn send(&self, msg: T) -> Result<(), T> {
        let sh = &*self.shared;
        let tail = sh.tail.0.load(Ordering::Relaxed); // producer-owned
        let Some(head) = self.wait_not_full(tail) else {
            return Err(msg);
        };
        if sh.closed.load(Ordering::SeqCst) {
            return Err(msg);
        }
        *sh.slots[(tail & sh.mask) as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(msg);
        sh.tail.0.store(tail + 1, Ordering::Release);
        sh.stats.sends.fetch_add(1, Ordering::Relaxed);
        let depth = tail + 1 - head;
        if depth > sh.stats.max_depth.load(Ordering::Relaxed) {
            sh.stats.max_depth.store(depth, Ordering::Relaxed);
        }
        sh.consumer.wake();
        Ok(())
    }

    /// Enqueues a whole batch with one `Release` publish (and one wakeup)
    /// per refill of free space, amortizing the cross-thread traffic over
    /// the batch. Blocks while the ring is full.
    ///
    /// # Errors
    ///
    /// Returns the unsent suffix if the channel closes mid-batch.
    pub fn send_batch(&self, batch: Vec<T>) -> Result<(), Vec<T>> {
        let sh = &*self.shared;
        let mut it = batch.into_iter().peekable();
        loop {
            // Check exhaustion *before* waiting for space: a drained batch
            // must return even when the ring is still full.
            if it.peek().is_none() {
                return Ok(());
            }
            let tail = sh.tail.0.load(Ordering::Relaxed);
            let Some(head) = self.wait_not_full(tail) else {
                let rest: Vec<T> = it.collect();
                return if rest.is_empty() { Ok(()) } else { Err(rest) };
            };
            if sh.closed.load(Ordering::SeqCst) {
                let rest: Vec<T> = it.collect();
                return if rest.is_empty() { Ok(()) } else { Err(rest) };
            }
            let free = sh.capacity - (tail - head);
            let mut published = 0u64;
            for _ in 0..free {
                let Some(msg) = it.next() else { break };
                *sh.slots[((tail + published) & sh.mask) as usize]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(msg);
                published += 1;
            }
            if published == 0 {
                return Ok(()); // batch exhausted
            }
            sh.tail.0.store(tail + published, Ordering::Release);
            sh.stats.sends.fetch_add(published, Ordering::Relaxed);
            let depth = tail + published - head;
            if depth > sh.stats.max_depth.load(Ordering::Relaxed) {
                sh.stats.max_depth.store(depth, Ordering::Relaxed);
            }
            sh.consumer.wake();
        }
    }

    /// Current queue occupancy (messages published and not yet drained).
    #[must_use]
    pub fn depth(&self) -> usize {
        let sh = &*self.shared;
        (sh.tail.0.load(Ordering::Acquire) - sh.head.0.load(Ordering::Acquire)) as usize
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking while the ring is empty.
    /// Returns `None` once the channel is closed *and* drained.
    pub fn recv(&self) -> Option<T> {
        let mut buf = Vec::with_capacity(1);
        if self.recv_batch(&mut buf, 1) {
            buf.pop()
        } else {
            None
        }
    }

    /// Drains up to `max` messages into `out` with a single `Release` store
    /// of the consumer cursor, blocking while the ring is empty. Returns
    /// `false` once the channel is closed *and* drained.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        if max == 0 {
            return true;
        }
        let sh = &*self.shared;
        let mut spins = 0u32;
        let mut spun = 0u64;
        let mut parked = 0u64;
        let mut stalled = Duration::ZERO;
        let head = sh.head.0.load(Ordering::Relaxed); // consumer-owned
        let tail = loop {
            let tail = sh.tail.0.load(Ordering::Acquire);
            if tail != head {
                break Some(tail);
            }
            if sh.closed.load(Ordering::SeqCst) {
                // One final look: a publish may have raced the close.
                let tail = sh.tail.0.load(Ordering::SeqCst);
                break (tail != head).then_some(tail);
            }
            spins += 1;
            if spins <= CONSUMER_SPIN_LIMIT {
                spun += 1;
                std::hint::spin_loop();
            } else {
                sh.consumer.prepare_park();
                if sh.tail.0.load(Ordering::SeqCst) != head || sh.closed.load(Ordering::SeqCst) {
                    sh.consumer.cancel_park();
                    continue;
                }
                let t0 = Instant::now();
                thread::park_timeout(PARK_TIMEOUT);
                sh.consumer.cancel_park();
                stalled += t0.elapsed();
                parked += 1;
            }
        };
        if spun != 0 {
            sh.stats.spins.fetch_add(spun, Ordering::Relaxed);
        }
        if parked != 0 {
            sh.stats.parks.fetch_add(parked, Ordering::Relaxed);
            sh.stats
                .consumer_stall_ns
                .fetch_add(stalled.as_nanos() as u64, Ordering::Relaxed);
        }
        let Some(tail) = tail else {
            return false;
        };
        let n = (tail - head).min(max as u64);
        for i in 0..n {
            let msg = sh.slots[((head + i) & sh.mask) as usize]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .expect("published slot must be filled");
            out.push(msg);
        }
        sh.head.0.store(head + n, Ordering::Release);
        sh.stats.recvs.fetch_add(n, Ordering::Relaxed);
        sh.producer.wake();
        true
    }

    /// A snapshot of the channel's instrumentation counters.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        self.shared.snapshot()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let (tx, rx) = channel(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
    }

    #[test]
    fn capacity_is_logical_not_rounded() {
        // Capacity 5 rounds the slot array to 8, but the 6th send must
        // still block; verified by filling to 5 and checking depth.
        let (tx, rx) = channel(5);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.depth(), 5);
        drop(rx);
        assert_eq!(tx.send(5), Err(5), "full + closed fails fast");
    }

    #[test]
    fn producer_blocks_until_consumer_drains() {
        let (tx, rx) = channel(2);
        let producer = thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        let stats = rx.stats();
        assert_eq!(stats.sends, 100);
        assert_eq!(stats.recvs, 100);
        assert!(stats.max_depth <= 2, "bounded at capacity: {stats:?}");
    }

    #[test]
    fn batched_sends_meet_batched_drains() {
        let (tx, rx) = channel(8);
        let producer = thread::spawn(move || {
            let mut next = 0u32;
            while next < 1000 {
                let batch: Vec<u32> = (next..(next + 7).min(1000)).collect();
                next += batch.len() as u32;
                tx.send_batch(batch).unwrap();
            }
        });
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_batch(&mut buf, 16) {
            got.append(&mut buf);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        let stats = rx.stats();
        assert_eq!(stats.sends, 1000);
        assert_eq!(stats.recvs, 1000);
        assert!(stats.max_depth <= 8);
    }

    #[test]
    fn dropping_sender_ends_the_stream_after_draining() {
        let (tx, rx) = channel(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None, "stays closed");
    }

    #[test]
    fn dropping_receiver_fails_sends_fast() {
        let (tx, rx) = channel(1);
        tx.send(7).unwrap();
        drop(rx);
        assert_eq!(tx.send(8), Err(8), "no deadlock on a full, closed queue");
    }

    #[test]
    fn max_depth_tracks_high_water_mark() {
        let (tx, rx) = channel(16);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        let _ = rx.recv();
        assert_eq!(rx.stats().max_depth, 5);
        assert_eq!(tx.depth(), 4);
    }

    #[test]
    fn parks_are_counted_when_the_consumer_lags() {
        let (tx, rx) = channel(1);
        let producer = thread::spawn(move || {
            for i in 0..50u32 {
                tx.send(i).unwrap();
            }
        });
        // Let the producer hit the full ring and exhaust its spin budget.
        thread::sleep(Duration::from_millis(20));
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got.len(), 50);
        let stats = rx.stats();
        assert!(
            stats.spins > 0 && stats.parks > 0,
            "a stalled producer must spin then park: {stats:?}"
        );
        assert!(stats.producer_stall > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = channel::<u8>(0);
    }
}
