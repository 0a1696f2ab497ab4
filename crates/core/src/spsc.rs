//! The trace FIFO: a bounded channel between the stream driver's frontend
//! and its checker, the reproduction of the paper's shared-memory trace
//! FIFO.
//!
//! XFDetector's Pin frontend and detection backend are separate processes
//! coupled by a 2 GB shared-memory FIFO (§5.1, Figure 8): the frontend
//! blocks when the FIFO is full, the backend blocks when it is empty, and
//! detection overlaps program execution instead of following it. This
//! module is the in-process analogue, with instrumentation ([`RingStats`])
//! for the queue-depth high-water mark, the producer's stall time and how
//! often either side had to wait. Capacity is counted in items, not
//! bytes. The stream driver's items are windows of failure-point messages,
//! each interval's trace entries in one batch, so a small capacity still
//! bounds a large number of in-flight entries; it sizes the channel so
//! that the windows hold at most its capacity in messages.
//!
//! The queue is `std::sync::mpsc::sync_channel(capacity)`. A full channel
//! blocks the producer in `send`; an empty one blocks the consumer in
//! `recv`. Each such wait is counted as a park, and the producer's is
//! timed as producer stall. The stream driver sends windows of messages,
//! so the consumer does not spin (DESIGN.md §4h).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instrumentation counters of one channel, mirroring what the paper's FIFO
/// would expose: occupancy high-water mark and the producer's stall time.
#[derive(Debug, Clone, Default)]
pub struct RingStats {
    /// Messages successfully enqueued.
    pub sends: u64,
    /// Highest queue occupancy observed (messages), at most the capacity.
    pub max_depth: u64,
    /// Total time the producer spent blocked on a full queue.
    pub producer_stall: Duration,
    /// Times a side blocked: the producer on a full queue, or the consumer
    /// on an empty one.
    pub parks: u64,
}

/// The shared counters behind [`RingStats`]. They publish no other data,
/// so every access is `Relaxed`; a snapshot taken after `recv` reports
/// the end of the stream sees every update, because the sender's drop,
/// which follows its last update, happens before that report.
#[derive(Default)]
struct Counters {
    sends: AtomicU64,
    recvs: AtomicU64,
    max_depth: AtomicU64,
    producer_stall_ns: AtomicU64,
    parks: AtomicU64,
}

/// The producing endpoint. Dropping it closes the channel; the consumer
/// drains the backlog and then observes end-of-stream.
pub struct Sender<T> {
    tx: SyncSender<T>,
    capacity: u64,
    counters: Arc<Counters>,
}

/// The consuming endpoint. Dropping it closes the channel; pending and
/// later sends fail instead of blocking forever.
pub struct Receiver<T> {
    rx: mpsc::Receiver<T>,
    counters: Arc<Counters>,
}

/// Creates a bounded channel holding at most `capacity` messages.
///
/// # Panics
///
/// Panics if `capacity` is zero.
#[must_use]
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "ring capacity must be non-zero");
    let (tx, rx) = mpsc::sync_channel(capacity);
    let counters = Arc::new(Counters::default());
    (
        Sender {
            tx,
            capacity: capacity as u64,
            counters: Arc::clone(&counters),
        },
        Receiver { rx, counters },
    )
}

impl<T> Sender<T> {
    /// Enqueues `msg`, blocking while the channel is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns the message back once the receiver is gone, also when the
    /// receiver drops while this send is blocked.
    pub fn send(&self, msg: T) -> Result<(), T> {
        let c = &*self.counters;
        match self.tx.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Disconnected(msg)) => return Err(msg),
            Err(TrySendError::Full(msg)) => {
                c.parks.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let sent = self.tx.send(msg);
                c.producer_stall_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                sent.map_err(|e| e.0)?;
            }
        }
        let sends = c.sends.fetch_add(1, Ordering::Relaxed) + 1;
        // The consumer counts a message after taking it, so this reading
        // can exceed the true occupancy, never the capacity.
        let depth = sends
            .saturating_sub(c.recvs.load(Ordering::Relaxed))
            .min(self.capacity);
        c.max_depth.fetch_max(depth, Ordering::Relaxed);
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking while the channel is empty.
    /// Returns `None` once the channel is closed *and* drained.
    pub fn recv(&self) -> Option<T> {
        let msg = self.wait()?;
        self.counters.recvs.fetch_add(1, Ordering::Relaxed);
        Some(msg)
    }

    /// Waits for one message, then drains up to `max` in all into `out`
    /// without waiting again. Returns `false` once the channel is closed
    /// *and* drained.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        if max == 0 {
            return true;
        }
        let Some(first) = self.wait() else {
            return false;
        };
        out.push(first);
        let mut n = 1;
        while n < max {
            let Ok(msg) = self.rx.try_recv() else { break };
            out.push(msg);
            n += 1;
        }
        self.counters.recvs.fetch_add(n as u64, Ordering::Relaxed);
        true
    }

    /// The next message, blocking in `recv` (a park) on an empty channel.
    /// `None` once the channel is closed and drained.
    fn wait(&self) -> Option<T> {
        match self.rx.try_recv() {
            Ok(msg) => Some(msg),
            Err(TryRecvError::Disconnected) => None,
            Err(TryRecvError::Empty) => {
                self.counters.parks.fetch_add(1, Ordering::Relaxed);
                self.rx.recv().ok()
            }
        }
    }

    /// A snapshot of the channel's instrumentation counters.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        let c = &*self.counters;
        RingStats {
            sends: c.sends.load(Ordering::Relaxed),
            max_depth: c.max_depth.load(Ordering::Relaxed),
            producer_stall: Duration::from_nanos(c.producer_stall_ns.load(Ordering::Relaxed)),
            parks: c.parks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

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
    fn a_full_channel_reads_its_capacity_as_depth() {
        let (tx, rx) = channel(5);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.stats().max_depth, 5);
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
        assert!(stats.max_depth <= 2, "bounded at capacity: {stats:?}");
    }

    #[test]
    fn single_sends_meet_batched_drains() {
        let (tx, rx) = channel(8);
        let producer = thread::spawn(move || {
            for i in 0..1000u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_batch(&mut buf, 16) {
            assert!(buf.len() <= 16, "a drain respects its max");
            got.append(&mut buf);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        let stats = rx.stats();
        assert_eq!(stats.sends, 1000);
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
        tx.send(5).unwrap();
        assert_eq!(rx.stats().max_depth, 5, "depth 5 is the high-water mark");
    }

    #[test]
    fn a_blocked_producer_is_counted_as_a_park() {
        let (tx, rx) = channel(1);
        tx.send(0u32).unwrap();
        let producer = thread::spawn(move || tx.send(1).unwrap());
        let deadline = Instant::now() + Duration::from_secs(10);
        while rx.stats().parks == 0 {
            assert!(Instant::now() < deadline, "the producer never blocked");
            thread::yield_now();
        }
        assert_eq!(rx.recv(), Some(0));
        producer.join().unwrap();
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None);
        let stats = rx.stats();
        assert_eq!(stats.parks, 1, "{stats:?}");
        assert!(stats.producer_stall > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = channel::<u8>(0);
    }
}
