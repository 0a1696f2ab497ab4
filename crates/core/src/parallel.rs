//! Parallel detection: the paper's stated future work, implemented.
//!
//! §6.2.1 observes that "the post-failure executions are independent as they
//! operate on a copy of the original PM image, and therefore, can be
//! parallelized. We leave the parallelized detection as a future work."
//!
//! [`XfDetector::run_parallel`] does exactly that. It runs the detection
//! loop of [`crate::detect`] with a worker pool as the sink. The frontend
//! traces, fingerprints and plans on the workload thread as in batch mode,
//! on the same live shadow, but a failure point that must execute becomes
//! a `(failure point, crash image, shadow checkpoint)` job on a bounded
//! queue. A worker runs the recovery *and* checks the resulting trace
//! against the shipped O(1) copy-on-write checkpoint of the shadow PM.
//! Everything else (pre-failure entries, journaled, warm and replayed
//! failure points) is checked on the workload thread against the live
//! shadow, as in batch mode; only a failure point that replays a job still
//! running waits, with its own checkpoint, for the job's trace. The pool
//! commits all of it in failure-point order, so the report is
//! deterministic and byte-identical to [`XfDetector::run`]'s, post-failure
//! *outcome* findings included.
//!
//! Requirements: the workload must be [`Send`] + [`Sync`] (each worker calls
//! `post_failure` on its own context). The bounded queue keeps at most
//! `2 × workers` PM images alive, so memory stays proportional to the
//! worker count, not to the failure-point count. Shadow checkpoints are
//! `Arc`-shared with the live shadow and cost no copying up front; the
//! pre-failure replay pays per-line copy-on-write faults only for lines it
//! mutates while checkpoints are in flight (see
//! [`RunStats::shadow_bytes_cloned`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pmem::{CowImage, PmCtx, PmPool};
use xftrace::TraceEntry;

use crate::detect::{self, Checker, Msg, Sink, Traced};
use crate::engine::{EngineError, RunOutcome, Workload, XfConfig, XfDetector};
use crate::plan::{check, planner_shadow, PostOutcome};
use crate::report::{DetectionReport, FailurePoint};
use crate::shadow::ShadowPm;
use crate::stats::RunStats;
use crate::xfrun::RunCtl;

/// A bounded single-producer multi-consumer work queue with chunked,
/// work-stealing claims.
///
/// The seed dispatch was an `mpsc::sync_channel` behind a
/// `Mutex<Receiver>`: every failure point cost each worker a lock
/// acquisition on the shared receiver, serializing dispatch exactly where
/// the engine wants fan-out. Here the producer publishes into a
/// power-of-two ring of slots and bumps an atomic `tail`; workers claim
/// *chunks* of pending indices by CAS on a shared `claim` cursor, so a
/// claim costs one CAS (amortized over up to [`WorkQueue::MAX_CHUNK`]
/// jobs) and touches per-slot storage nobody else is racing for. A third
/// cursor, `taken`, trails `claim` and provides the producer's
/// backpressure bound: at most `bound` items are in flight, keeping the
/// memory profile of the old bounded channel (`2 × workers` PM images).
///
/// The per-slot `Mutex<Option<T>>` is nearly uncontended — the producer
/// only writes a slot it has seen empty, and exactly one worker wins the
/// CAS covering it — it exists to move `T` across threads without `unsafe`
/// (the crate forbids it). `taken` alone cannot prove a slot empty: workers
/// empty their chunks in completion order, so a stalled worker can still
/// hold an older index in the slot the producer would reuse. Waiting sides spin
/// briefly, then sleep on a condition variable until the other side
/// publishes, claims or closes. That side takes the sleep lock only when
/// someone is asleep, so there is no per-item lock handoff, and an idle
/// worker costs no CPU. That matters because with pruning most failure
/// points ship no job: workers are idle for most of a run, while the
/// frontend that feeds them (and any other detection on the host) needs
/// the CPU.
struct WorkQueue<T> {
    slots: Box<[Mutex<Option<T>>]>,
    mask: u64,
    /// Maximum items in flight (`tail - taken`), ≤ `slots.len()`.
    bound: u64,
    /// Next index the producer publishes. Producer-written (Release),
    /// worker-read (Acquire).
    tail: AtomicU64,
    /// Next index a worker may claim. Workers CAS chunks `claim..end`.
    claim: AtomicU64,
    /// Indices whose slots have been emptied; the producer's backpressure
    /// cursor.
    taken: AtomicU64,
    closed: AtomicBool,
    /// Jobs claimed outside the claiming worker's static round-robin share
    /// (`index % workers != worker`), i.e. work that migrated to an idle
    /// worker instead of waiting for its "assigned" one.
    stolen: AtomicU64,
    workers: u64,
    /// Threads asleep (or about to sleep) on `wake`, producer included.
    sleepers: AtomicU64,
    sleep: Mutex<()>,
    wake: Condvar,
}

impl<T> WorkQueue<T> {
    /// Upper bound on a single claim: keeps the tail of the run balanced
    /// (a worker never hoards jobs another could start on).
    const MAX_CHUNK: u64 = 4;
    /// Spin iterations before a waiting side sleeps.
    const SPIN: u32 = 64;

    fn new(workers: usize) -> Self {
        let bound = (workers as u64 * 2).max(1);
        let cap = bound.next_power_of_two();
        let slots = (0..cap).map(|_| Mutex::new(None)).collect();
        WorkQueue {
            slots,
            mask: cap - 1,
            bound,
            tail: AtomicU64::new(0),
            claim: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            stolen: AtomicU64::new(0),
            workers: workers.max(1) as u64,
            sleepers: AtomicU64::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until `ready` holds: spins briefly, then sleeps until a
    /// [`WorkQueue::notify`] after a state change.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        for _ in 0..Self::SPIN {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.sleep.lock().expect("queue sleep lock poisoned");
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        // Pairs with the fence in `notify`: either `ready` below sees the
        // state change, or the notifier sees this sleeper and signals it
        // (it can only take the lock once this thread is waiting).
        fence(Ordering::SeqCst);
        while !ready() {
            guard = self.wake.wait(guard).expect("queue sleep lock poisoned");
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Wakes the sleepers after a state change; free when nobody sleeps.
    fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) != 0 {
            drop(self.sleep.lock().expect("queue sleep lock poisoned"));
            self.wake.notify_all();
        }
    }

    /// Publishes one item, blocking while `bound` items are in flight or
    /// its slot still holds an item a worker claimed but has not taken.
    fn push(&self, item: T) {
        let tail = self.tail.load(Ordering::Relaxed);
        let slot = &self.slots[(tail & self.mask) as usize];
        self.wait_until(|| {
            tail - self.taken.load(Ordering::Acquire) < self.bound
                && slot.lock().expect("queue slot poisoned").is_none()
        });
        *slot.lock().expect("queue slot poisoned") = Some(item);
        self.tail.store(tail + 1, Ordering::Release);
        self.notify();
    }

    /// Marks the queue closed; workers drain the backlog and then see
    /// `None` from [`WorkQueue::claim`].
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.notify();
    }

    /// Claims the next chunk of jobs for `worker`, blocking while the queue
    /// is empty and open. Returns `None` once the queue is closed and
    /// drained.
    fn claim(&self, worker: usize, out: &mut Vec<T>) -> bool {
        loop {
            let claim = self.claim.load(Ordering::Relaxed);
            let tail = self.tail.load(Ordering::Acquire);
            if claim == tail {
                if self.closed.load(Ordering::Acquire) {
                    // Re-check: a publish may have raced the close.
                    if self.tail.load(Ordering::Acquire) == claim {
                        return false;
                    }
                    continue;
                }
                self.wait_until(|| {
                    self.tail.load(Ordering::Acquire) != self.claim.load(Ordering::Relaxed)
                        || self.closed.load(Ordering::Acquire)
                });
                continue;
            }
            let backlog = tail - claim;
            // Chunked claims: take a fair share of the backlog, at least
            // one, at most MAX_CHUNK, never past the published tail.
            let chunk = (backlog / self.workers)
                .clamp(1, Self::MAX_CHUNK)
                .min(backlog);
            let end = claim + chunk;
            if self
                .claim
                .compare_exchange_weak(claim, end, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let mut stolen = 0u64;
            for i in claim..end {
                let slot = (i & self.mask) as usize;
                let item = self.slots[slot]
                    .lock()
                    .expect("queue slot poisoned")
                    .take()
                    .expect("claimed slot must be filled");
                out.push(item);
                if i % self.workers != worker as u64 {
                    stolen += 1;
                }
            }
            if stolen != 0 {
                self.stolen.fetch_add(stolen, Ordering::Relaxed);
            }
            self.taken.fetch_add(end - claim, Ordering::Release);
            self.notify();
            return true;
        }
    }

    fn jobs_stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }
}

/// A failure-point job shipped to a worker: the crash image to recover
/// from and the shadow checkpoint to check the recovery against.
struct Job {
    fp: FailurePoint,
    image: CowImage,
    shadow: ShadowPm,
}

impl Job {
    /// Runs the post-failure stage on the job's crash image and checks the
    /// trace against its checkpoint, on a worker thread.
    fn run<W: Workload>(self, workload: &W, config: &XfConfig) -> JobResult {
        let Job { fp, image, shadow } = self;
        let t_exec = Instant::now();
        // Each worker builds its own post context from the image; nothing
        // non-Send crosses threads.
        let mut post_ctx = PmCtx::new_post(PmPool::from_cow(&image));
        // Workers always quarantine: a panic is confined to this failure
        // point and reported as a finding — it never takes down the pool,
        // so the run continues past the failing job even with
        // `catch_post_panics` off.
        let budget = config.post_budget.as_ref();
        let outcome =
            PostOutcome::execute(&mut post_ctx, budget, true, |c| workload.post_failure(c));
        let post: Arc<[TraceEntry]> = post_ctx.trace().drain().into();
        let completes = post_ctx.is_detection_complete();
        let exec_time = t_exec.elapsed();
        let t_check = Instant::now();
        let mut found = DetectionReport::new();
        check(
            &shadow,
            config.first_read_only,
            fp,
            &post,
            &outcome,
            &mut found,
        );
        JobResult {
            fp,
            bytes: post_ctx.pool().snapshot_bytes_copied(),
            post,
            outcome,
            completes,
            found,
            exec_time,
            check_time: t_check.elapsed(),
        }
    }
}

/// A worker's result for one job.
struct JobResult {
    fp: FailurePoint,
    post: Arc<[TraceEntry]>,
    outcome: PostOutcome,
    /// Whether the post-failure stage requested `completeDetection`.
    completes: bool,
    /// The worker's findings: checking findings, then the outcome finding.
    found: DetectionReport,
    /// Snapshot bytes copied building the job's post-failure pool.
    bytes: u64,
    exec_time: Duration,
    check_time: Duration,
}

/// A message the pool holds back until the jobs before it are committed.
enum Held {
    /// A message and its findings, found when it arrived.
    Found(Msg, DetectionReport),
    /// Failure point `fp`, whose trace is job `src`'s, checked against its
    /// checkpoint `shadow` once the job is in. Without a checkpoint, `fp`
    /// is the job itself and its worker checked it.
    Job {
        fp: FailurePoint,
        src: u64,
        shadow: Option<ShadowPm>,
    },
}

/// The pool's handle on its queue. Closing the queue on drop lets the
/// workers drain it and exit even when the frontend unwinds.
struct Closing(Arc<WorkQueue<Job>>);

impl Drop for Closing {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The parallel driver's sink: a worker pool in front of a [`Checker`],
/// whose shadow is the live shadow the planner fingerprints.
struct Pool {
    checker: Checker,
    queue: Closing,
    results: mpsc::Receiver<JobResult>,
    workers: Vec<JoinHandle<()>>,
    /// Every finished job by id: replays and the cache export read its
    /// trace.
    done: HashMap<u64, JobResult>,
    held: VecDeque<Held>,
    /// Some finished job requested `completeDetection`: the frontend
    /// stops injecting.
    completing: bool,
    /// The first failure point in program order whose execution
    /// requested `completeDetection`. Batch mode injects nothing after
    /// it, so no later failure point is committed or exported.
    cut: Option<u64>,
}

impl Pool {
    fn new<W>(config: &XfConfig, ctl: RunCtl, workers: usize, workload: &Arc<W>) -> Self
    where
        W: Workload + Send + Sync + 'static,
    {
        let queue = Arc::new(WorkQueue::<Job>::new(workers));
        let (tx, results) = mpsc::channel();
        let workers = (0..workers)
            .map(|worker| {
                let (queue, tx, workload) = (Arc::clone(&queue), tx.clone(), Arc::clone(workload));
                let (config, obs) = (config.clone(), ctl.obs().clone());
                std::thread::spawn(move || {
                    let mut batch = Vec::with_capacity(WorkQueue::<Job>::MAX_CHUNK as usize);
                    while queue.claim(worker, &mut batch) {
                        for job in batch.drain(..) {
                            let result = job.run(&*workload, &config);
                            obs.executed(&result.outcome);
                            let _ = tx.send(result);
                        }
                    }
                })
            })
            .collect();
        Pool {
            checker: Checker::new(config, planner_shadow(config), ctl),
            queue: Closing(queue),
            results,
            workers,
            done: HashMap::new(),
            held: VecDeque::new(),
            completing: false,
            cut: None,
        }
    }

    /// Commits `msg` unless it is a failure point past the cut. The
    /// pre-failure entries past it are still committed: batch mode traces
    /// them too and ships them after the last failure point.
    fn commit(&mut self, msg: Msg, found: DetectionReport) {
        if self.cut.is_none() || matches!(msg, Msg::Pre(_)) {
            self.checker.commit(msg, found);
        }
    }

    /// Collects the finished jobs and commits the held messages they
    /// release, in order.
    fn merge(&mut self) {
        for result in self.results.try_iter() {
            self.completing |= result.completes;
            self.done.insert(result.fp.id, result);
        }
        while let Some(held) = self.held.pop_front() {
            let mut completes = None;
            let (msg, found) = match held {
                Held::Found(msg, found) => (msg, found),
                Held::Job { fp, src, shadow } => {
                    let Some(job) = self.done.get_mut(&src) else {
                        self.held.push_front(Held::Job { fp, src, shadow });
                        return;
                    };
                    let found = match shadow {
                        None => {
                            // Only an execution completes: a replay runs
                            // no post-failure stage.
                            completes = job.completes.then_some(fp.id);
                            std::mem::take(&mut job.found)
                        }
                        Some(shadow) => {
                            self.checker
                                .check(Some(&shadow), fp, &job.post, &job.outcome)
                        }
                    };
                    let post = Arc::clone(&job.post);
                    let outcome = job.outcome.clone();
                    (Msg::FailurePoint { fp, post, outcome }, found)
                }
            };
            self.commit(msg, found);
            self.cut = self.cut.or(completes);
        }
    }
}

impl Sink for Pool {
    type Rep = u64;

    fn send(&mut self, msg: Msg) {
        self.merge();
        let found = self.checker.find(&msg);
        if self.held.is_empty() {
            self.commit(msg, found);
        } else {
            self.held.push_back(Held::Found(msg, found));
        }
    }

    fn fp_shadow(&mut self) -> &mut ShadowPm {
        self.checker.fp_shadow()
    }

    fn execute(&mut self, fp: FailurePoint, image: &CowImage, _: impl FnOnce() -> Traced) -> u64 {
        let (image, shadow) = (image.clone(), self.checker.fp_shadow().clone());
        // Blocks when the bounded queue is full: backpressure bounds the
        // number of in-flight PM images.
        self.queue.0.push(Job { fp, image, shadow });
        let (src, shadow) = (fp.id, None);
        self.held.push_back(Held::Job { fp, src, shadow });
        fp.id
    }

    fn replay(&mut self, fp: FailurePoint, src: u64) {
        self.merge();
        if let Some(job) = self.done.get(&src) {
            let (post, outcome) = (Arc::clone(&job.post), job.outcome.clone());
            return self.send(Msg::FailurePoint { fp, post, outcome });
        }
        let shadow = Some(self.checker.fp_shadow().clone());
        self.held.push_back(Held::Job { fp, src, shadow });
    }

    fn detection_complete(&self) -> bool {
        // Updated by every merge, and every message merges first: no
        // extra merge per ordering point.
        self.completing
    }

    fn finish(mut self, stats: RunStats, exports: &[(u64, u64)], ctl: &RunCtl) -> RunOutcome {
        self.queue.0.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("detection worker panicked");
        }
        self.merge();
        let cut = self.cut.unwrap_or(u64::MAX);
        for (key, src) in exports.iter().filter(|(_, src)| *src <= cut) {
            let job = &self.done[src];
            ctl.cache_export(*key, &job.post, &job.outcome);
        }
        let mut outcome = self.checker.close().stamp(stats);
        let (stats, jobs) = (&mut outcome.stats, self.done.values());
        // `detect_time` is the checking left on the workload thread;
        // `check_time` adds the workers' share.
        stats.check_time += jobs.clone().map(|j| j.check_time).sum();
        stats.post_exec_time += jobs.clone().map(|j| j.exec_time).sum();
        stats.snapshot_bytes_copied += jobs.clone().map(|j| j.bytes).sum::<u64>();
        // Budget kills count executions only — replays inherit the
        // representative's overrun finding but not its kill.
        stats.budget_exceeded += jobs.filter(|j| j.outcome.is_budget_kill()).count() as u64;
        stats.checks_parallelized = self.done.len() as u64;
        stats.jobs_stolen = self.queue.0.jobs_stolen();
        outcome
    }
}

impl XfDetector {
    /// Runs the detection procedure with post-failure executions and their
    /// trace checking spread over `workers` threads. Produces the same
    /// report as [`XfDetector::run`], in deterministic (failure-point)
    /// order.
    ///
    /// `workers == 0` means "use all available parallelism"
    /// ([`std::thread::available_parallelism`]).
    ///
    /// `completeDetection` (Table 2): a worker runs the post-failure stage
    /// on a context of its own, so the frontend learns of the request
    /// only when the job's result comes back, and it may have injected
    /// further failure points by then. Nothing past the first completing
    /// failure point in program order is committed to the report or
    /// exported to the class cache, so the report still equals batch
    /// mode's. The run's counters do count those extra failure points:
    /// `ordering_points`, `failure_points`, `post_runs`, `fps_pruned`,
    /// `classes_total`, `pruning_ratio`, `images_deduped`, `cache_hits`,
    /// `cache_misses`, `journal_skipped`, `skipped_empty`,
    /// `budget_exceeded`, `checks_parallelized`, `jobs_stolen`,
    /// `snapshot_bytes_copied` and the times. They count the same failure
    /// points, so [`RunStats::accounting_holds`] still holds;
    /// `post_entries` counts committed failure points only.
    ///
    /// # Errors
    ///
    /// As [`XfDetector::run`].
    pub fn run_parallel<W>(&self, workload: W, workers: usize) -> Result<RunOutcome, EngineError>
    where
        W: Workload + Send + Sync + 'static,
    {
        self.run_parallel_with_ctl(workload, workers, RunCtl::inert())
    }

    /// [`XfDetector::run_parallel`] with an orchestration control handle:
    /// journal elision/appends, the class cache and live counters. Driven
    /// by [`crate::Session`]; the public entry point passes an inert
    /// handle.
    pub(crate) fn run_parallel_with_ctl<W>(
        &self,
        workload: W,
        workers: usize,
        ctl: RunCtl,
    ) -> Result<RunOutcome, EngineError>
    where
        W: Workload + Send + Sync + 'static,
    {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            workers
        };
        let config = self.config();
        detect::run(config, workload, ctl.clone(), |w| {
            Pool::new(config, ctl, workers, w)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BugKind;
    use xftrace::SourceLoc;

    /// A workload with a reliable race, safe to share across threads.
    struct Racy;

    impl Workload for Racy {
        fn name(&self) -> &str {
            "racy"
        }
        fn pool_size(&self) -> u64 {
            64 * 1024
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            let a = ctx.pool().base();
            for i in 0..20 {
                ctx.write_u64(a + i * 128, i)?; // never flushed
                ctx.write_u64(a + i * 128 + 64, i)?;
                ctx.persist_barrier(a + i * 128 + 64, 8)?;
            }
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            let a = ctx.pool().base();
            for i in 0..20 {
                let _ = ctx.read_u64(a + i * 128)?;
            }
            Ok(())
        }
    }

    fn finding_keys(o: &RunOutcome) -> Vec<(BugKind, Option<SourceLoc>, Option<SourceLoc>)> {
        let mut v: Vec<_> = o
            .report
            .findings()
            .iter()
            .map(|f| (f.kind, f.reader, f.writer))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn parallel_matches_sequential_findings() {
        let seq = XfDetector::with_defaults().run(Racy).unwrap();
        for workers in [1, 2, 4] {
            let par = XfDetector::with_defaults()
                .run_parallel(Racy, workers)
                .unwrap();
            assert_eq!(
                finding_keys(&seq),
                finding_keys(&par),
                "worker count {workers}"
            );
            assert_eq!(seq.stats.failure_points, par.stats.failure_points);
            assert_eq!(
                par.stats.checks_parallelized, par.stats.post_runs,
                "every executed job must have been checked by its worker"
            );
        }
    }

    #[test]
    fn parallel_reports_post_failure_errors() {
        struct Failing;
        impl Workload for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn pool_size(&self) -> u64 {
                4096
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                let a = ctx.pool().base();
                ctx.write_u64(a, 1)?;
                ctx.persist_barrier(a, 8)?;
                Ok(())
            }
            fn post_failure(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                Err("recovery failed".into())
            }
        }
        let outcome = XfDetector::with_defaults()
            .run_parallel(Failing, 3)
            .unwrap();
        assert!(outcome.report.execution_failure_count() >= 1);
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        let a = XfDetector::with_defaults().run_parallel(Racy, 4).unwrap();
        let b = XfDetector::with_defaults().run_parallel(Racy, 4).unwrap();
        assert_eq!(finding_keys(&a), finding_keys(&b));
    }

    #[test]
    fn zero_workers_clamps_to_available_parallelism() {
        let seq = XfDetector::with_defaults().run(Racy).unwrap();
        let par = XfDetector::with_defaults().run_parallel(Racy, 0).unwrap();
        assert_eq!(finding_keys(&seq), finding_keys(&par));
    }

    #[test]
    fn work_queue_delivers_every_job_exactly_once() {
        const JOBS: u64 = 500;
        for workers in [1usize, 2, 4] {
            let queue = Arc::new(WorkQueue::<u64>::new(workers));
            let collected = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let queue = Arc::clone(&queue);
                        scope.spawn(move || {
                            let mut got = Vec::new();
                            let mut batch = Vec::new();
                            while queue.claim(w, &mut batch) {
                                got.append(&mut batch);
                            }
                            got
                        })
                    })
                    .collect();
                for i in 0..JOBS {
                    queue.push(i);
                }
                queue.close();
                let mut all = Vec::new();
                for h in handles {
                    all.extend(h.join().expect("worker panicked"));
                }
                all
            });
            let mut all = collected;
            all.sort_unstable();
            assert_eq!(all, (0..JOBS).collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn work_queue_bounds_in_flight_items() {
        // With no consumer, the producer must be able to publish exactly
        // `bound` items without blocking; verified indirectly by pushing
        // from a thread and asserting it blocks rather than overruns.
        let queue = Arc::new(WorkQueue::<u64>::new(2)); // bound = 4
        let q2 = Arc::clone(&queue);
        let producer = std::thread::spawn(move || {
            for i in 0..8 {
                q2.push(i);
            }
        });
        // Wait for the producer to fill the queue however long a loaded
        // host takes to schedule it, then give an overrunning producer a
        // moment to show itself: a correct one is blocked at the bound.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while queue.tail.load(Ordering::Acquire) < 4 {
            assert!(
                std::time::Instant::now() < deadline,
                "producer never filled the queue"
            );
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        // Only `bound` published so far.
        assert_eq!(queue.tail.load(Ordering::Acquire), 4);
        let mut got = Vec::new();
        let mut batch = Vec::new();
        while got.len() < 8 {
            assert!(queue.claim(0, &mut batch));
            got.append(&mut batch);
        }
        producer.join().unwrap();
        queue.close();
        assert!(
            !queue.claim(0, &mut batch),
            "drained queue must report closed"
        );
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn push_waits_for_a_claimed_slot_to_be_emptied() {
        // Worker 0 claims indices 0..2 and stalls before emptying them,
        // while worker 1 drains 2..4: `taken` reaches 2 although slots 0
        // and 1 still hold their items.
        let queue = Arc::new(WorkQueue::<u64>::new(2)); // bound = slots = 4
        for i in 0..4 {
            queue.push(i);
        }
        queue.claim.store(2, Ordering::Relaxed);
        let mut batch = Vec::new();
        while queue.taken.load(Ordering::Acquire) < 2 {
            assert!(queue.claim(1, &mut batch));
        }
        assert_eq!(batch, vec![2, 3]);
        let q2 = Arc::clone(&queue);
        let producer = std::thread::spawn(move || q2.push(4));
        // Index 4 maps to slot 0, which still holds item 0.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            queue.tail.load(Ordering::Acquire),
            4,
            "push overwrote a claimed slot"
        );
        for (i, slot) in queue.slots.iter().take(2).enumerate() {
            assert_eq!(slot.lock().unwrap().take(), Some(i as u64));
        }
        queue.taken.fetch_add(2, Ordering::Release);
        queue.notify();
        producer.join().unwrap();
        assert_eq!(queue.slots[0].lock().unwrap().take(), Some(4));
    }

    #[test]
    fn work_queue_counts_steals_against_round_robin() {
        // A single consumer claiming as "worker 1" of 2 steals every job
        // with an even index. Stay within the backpressure bound
        // (2 × workers = 4): `push` blocks once it is exceeded.
        let queue = WorkQueue::<u64>::new(2);
        for i in 0..4 {
            queue.push(i);
        }
        queue.close();
        let mut batch = Vec::new();
        let mut got = Vec::new();
        while queue.claim(1, &mut batch) {
            got.append(&mut batch);
        }
        assert_eq!(got.len(), 4);
        assert_eq!(queue.jobs_stolen(), 2, "indices 0 and 2 belong to worker 0");
    }

    #[test]
    fn parallel_run_reports_queue_counters() {
        let par = XfDetector::with_defaults().run_parallel(Racy, 4).unwrap();
        // With 4 workers and ~20 failure points some claims land off the
        // round-robin share on any schedule with 1 worker doing >1/4 of the
        // work; the counter must at minimum be wired (not negative — u64 —
        // and bounded by the job count).
        assert!(par.stats.jobs_stolen <= par.stats.post_runs);
    }

    #[test]
    fn post_exec_time_excludes_the_pre_failure_stage() {
        /// `Racy` after a pre-failure pause longer than all of its
        /// post-failure work.
        struct Slow;
        const PAUSE: Duration = Duration::from_millis(50);
        impl Workload for Slow {
            fn name(&self) -> &str {
                "slow"
            }
            fn pool_size(&self) -> u64 {
                Racy.pool_size()
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                std::thread::sleep(PAUSE);
                Racy.pre_failure(ctx)
            }
            fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                Racy.post_failure(ctx)
            }
        }
        let detector = XfDetector::with_defaults();
        let runs = [
            ("batch", detector.run(Slow).unwrap()),
            ("parallel", detector.run_parallel(Slow, 2).unwrap()),
            (
                "stream",
                crate::run_pipelined(detector.config(), Slow, &Default::default()).unwrap(),
            ),
        ];
        for (mode, run) in runs {
            let s = &run.stats;
            assert!(s.post_runs > 0, "{mode}: {s:?}");
            assert!(s.post_exec_time > Duration::ZERO, "{mode}: {s:?}");
            assert!(s.post_exec_time < PAUSE, "{mode} counts the pause: {s:?}");
        }
    }
}
