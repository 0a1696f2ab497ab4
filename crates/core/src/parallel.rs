//! Parallel detection: the paper's stated future work, implemented.
//!
//! §6.2.1 observes that "the post-failure executions are independent as they
//! operate on a copy of the original PM image, and therefore, can be
//! parallelized. We leave the parallelized detection as a future work."
//!
//! [`XfDetector::run_parallel`] does exactly that: the pre-failure stage
//! runs on the main thread as usual, and the shared [`Planner`] decides per
//! failure point whether to elide or execute. Instead of executing inline,
//! the driver ships `(failure point, PM image, shadow checkpoint)` jobs
//! over a bounded queue to a pool of worker threads. Each worker runs the
//! recovery *and* replays the resulting post-failure trace against the
//! shipped O(1) copy-on-write checkpoint of the shadow PM, returning a
//! per-failure-point fragment of findings. The main thread merges
//! fragments in failure-point order (interleaved with the pre-failure
//! findings at the positions where the batch driver would have discovered
//! them, and with the elided failure points it checks itself), so the
//! resulting report is deterministic and byte-identical to
//! [`XfDetector::run`]'s, post-failure *outcome* findings included.
//!
//! Requirements: the workload must be [`Send`] + [`Sync`] (each worker calls
//! `post_failure` on its own forked context). The bounded queue keeps at
//! most `2 × workers` PM images alive, so memory stays proportional to the
//! worker count, not to the failure-point count. Shadow checkpoints are
//! `Arc`-shared with the live shadow and cost no copying up front; the
//! pre-failure replay pays per-line copy-on-write faults only for lines it
//! mutates while checkpoints are in flight (see
//! [`RunStats::shadow_bytes_cloned`]).
//!
//! [`Planner`]: crate::Planner
//! [`RunStats::shadow_bytes_cloned`]: crate::RunStats::shadow_bytes_cloned

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pmem::{CowImage, EngineHook, OrderingPointInfo, PmCtx, PmPool};
use xftrace::{SourceLoc, TraceEntry};

use crate::engine::{EngineError, RunOutcome, Workload, XfDetector};
use crate::offline::{RecordedFailurePoint, RecordedRun};
use crate::plan::{check, planner_shadow, pre_failure, setup, Plan, Planner, PostOutcome};
use crate::report::{DetectionReport, FailurePoint, Finding};
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

/// A worker's result for one failure point.
struct JobResult {
    fp: FailurePoint,
    post: Vec<TraceEntry>,
    outcome: PostOutcome,
    /// Snapshot bytes copied building this job's post-failure pool.
    bytes: u64,
    /// The worker's checked fragment: checking findings, then the outcome
    /// finding.
    findings: Vec<Finding>,
    /// Wall-clock time the worker spent checking.
    check_time: Duration,
}

/// How the merge stage completes one failure point.
enum Step {
    /// A worker executed and checked it: splice the fragment.
    Executed,
    /// Replay job `src`'s trace (a pruned class member or a deduplicated
    /// image) against this failure point's own checkpoint.
    Replay { src: u64, shadow: ShadowPm },
    /// Replay the warm class `key` from the cross-run cache against this
    /// failure point's own checkpoint.
    Warm { key: u64, shadow: ShadowPm },
    /// Merge the resumed journal's report delta verbatim.
    Journaled,
}

/// One planned failure point, in failure-point order.
struct Planned {
    fp: FailurePoint,
    /// Pre-failure entries replayed before the failure point fired.
    pre_len: usize,
    step: Step,
}

/// The frontend hook for parallel mode: replays the pre-failure trace
/// incrementally and ships snapshot jobs instead of running recoveries
/// inline.
struct ParallelFrontend {
    planner: RefCell<Planner<u64>>,
    queue: Arc<WorkQueue<Job>>,
    shadow: RefCell<ShadowPm>,
    /// Pre-failure entries replayed into the shadow so far.
    pre_replayed: RefCell<usize>,
    /// Pre-failure findings (performance bugs, annotation conflicts) with
    /// the 1-based index of the entry that produced each — the merge stage
    /// interleaves them at the exact positions the batch driver would have
    /// pushed them. The scratch report keeps the batch driver's first-wins
    /// dedup; `taken` marks findings already moved out.
    pre_findings: RefCell<Vec<(usize, Finding)>>,
    pre_scratch: RefCell<(DetectionReport, usize)>,
    planned: RefCell<Vec<Planned>>,
    recorded: RefCell<Option<RecordedRun>>,
}

impl ParallelFrontend {
    /// Replays freshly drained pre-failure entries into the shadow,
    /// recording any findings with the entry index that produced them.
    fn replay_pre(&self, drained: Vec<TraceEntry>, stats: &mut RunStats) {
        let mut shadow = self.shadow.borrow_mut();
        let mut replayed = self.pre_replayed.borrow_mut();
        let mut scratch = self.pre_scratch.borrow_mut();
        let mut tagged = self.pre_findings.borrow_mut();
        for e in &drained {
            *replayed += 1;
            shadow.apply_pre(e, &mut scratch.0);
            let (report, taken) = &mut *scratch;
            for f in &report.findings()[*taken..] {
                tagged.push((*replayed, f.clone()));
            }
            *taken = report.findings().len();
        }
        stats.pre_entries += drained.len() as u64;
        if let Some(rec) = self.recorded.borrow_mut().as_mut() {
            rec.pre.extend(drained.into_iter().map(Into::into));
        }
    }
}

impl EngineHook for ParallelFrontend {
    fn on_ordering_point(&self, ctx: &mut PmCtx, loc: SourceLoc, info: OrderingPointInfo) {
        let mut planner = self.planner.borrow_mut();
        let Some(fp) = planner.gate(loc, info) else {
            return;
        };
        // Keep the shadow up to date on the main thread: replaying
        // incrementally here overlaps with the workers, like the paper's
        // overlapped tracing/detection.
        self.replay_pre(ctx.trace().drain(), planner.stats());
        let pre_len = *self.pre_replayed.borrow();
        let mut shadow = self.shadow.borrow_mut();
        // Everything but a journal skip is checked against an O(1)
        // copy-on-write checkpoint of the shadow at this failure point —
        // the line slabs are shared until the continuing replay mutates
        // them.
        let step = match planner.plan(ctx.pool(), fp.id, &mut shadow) {
            Plan::Journaled => Step::Journaled,
            Plan::Warm(key) => Step::Warm {
                key,
                shadow: shadow.clone(),
            },
            Plan::Replay(src) => Step::Replay {
                src,
                shadow: shadow.clone(),
            },
            Plan::Execute(exec) => {
                let job = Job {
                    fp,
                    image: exec.image.clone(),
                    shadow: shadow.clone(),
                };
                planner.represent(exec, || fp.id);
                // Blocks when the bounded queue is full: backpressure
                // bounds the number of in-flight PM images.
                self.queue.push(job);
                Step::Executed
            }
        };
        self.planned
            .borrow_mut()
            .push(Planned { fp, pre_len, step });
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
    /// journal elision/appends and live counters. Driven by
    /// [`crate::Session`]; the public entry point passes an inert handle.
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
        let (mut ctx, t_start) = setup(&workload)?;

        let queue = Arc::new(WorkQueue::<Job>::new(workers));
        let (res_tx, res_rx) = mpsc::channel::<JobResult>();
        let frontend = Rc::new(ParallelFrontend {
            planner: RefCell::new(Planner::new(config, ctl.clone())),
            queue: Arc::clone(&queue),
            shadow: RefCell::new(planner_shadow(config)),
            pre_replayed: RefCell::new(0),
            pre_findings: RefCell::new(Vec::new()),
            pre_scratch: RefCell::new((DetectionReport::new(), 0)),
            planned: RefCell::new(Vec::new()),
            recorded: RefCell::new(config.record_trace.then(|| RecordedRun {
                domain: config.domain,
                ..RecordedRun::default()
            })),
        });

        let workload_ref = &workload;
        let (pre_result, mut results, post_exec_time) = std::thread::scope(|scope| {
            for worker_idx in 0..workers {
                let queue = Arc::clone(&queue);
                let res_tx = res_tx.clone();
                let obs = ctl.obs().clone();
                scope.spawn(move || {
                    let mut batch = Vec::with_capacity(WorkQueue::<Job>::MAX_CHUNK as usize);
                    while queue.claim(worker_idx, &mut batch) {
                        for job in batch.drain(..) {
                            // Each worker builds its own post context from the
                            // image; nothing non-Send crosses threads.
                            let mut post_ctx = PmCtx::new_post(PmPool::from_cow(&job.image));
                            // Workers always quarantine: a panic is confined
                            // to this failure point and reported as a finding
                            // — it never takes down the pool, so the run
                            // continues past the failing job even with
                            // `catch_post_panics` off.
                            let outcome = PostOutcome::execute(
                                &mut post_ctx,
                                config.post_budget.as_ref(),
                                true,
                                |c| workload_ref.post_failure(c),
                            );
                            let post = post_ctx.trace().drain();
                            // Worker-side checking into a fragment. Pre- and
                            // post-stage bug kinds are disjoint, so
                            // fragment-local dedup composes with the merge
                            // report's global dedup.
                            let t_check = Instant::now();
                            let mut fragment = DetectionReport::new();
                            check(
                                &job.shadow,
                                config.first_read_only,
                                job.fp,
                                &post,
                                &outcome,
                                &mut fragment,
                            );
                            let check_time = t_check.elapsed();
                            obs.executed(&outcome);
                            let _ = res_tx.send(JobResult {
                                fp: job.fp,
                                bytes: post_ctx.pool().snapshot_bytes_copied(),
                                post,
                                outcome,
                                findings: fragment.into_findings(),
                                check_time,
                            });
                        }
                    }
                });
            }
            drop(res_tx);

            let t_post = Instant::now();
            let pre_result = pre_failure(&mut ctx, config, frontend.clone(), &workload);
            // Close the job queue so the workers drain and exit.
            queue.close();
            let expected = frontend.planner.borrow_mut().stats().post_runs;
            let results: Vec<JobResult> = res_rx.iter().take(expected as usize).collect();
            (pre_result, results, t_post.elapsed())
        });

        // Trailing pre entries (after the last failure point): tail-end
        // performance bugs are still reported.
        frontend.replay_pre(ctx.trace().drain(), frontend.planner.borrow_mut().stats());
        pre_result.map_err(|e| EngineError::PreFailure(e.to_string()))?;
        let frontend = Rc::try_unwrap(frontend).ok().expect("the hook was cleared");

        // Deterministic merge in failure-point order. Worker fragments are
        // spliced in as-is; elided failure points replay their source's
        // post-failure trace (the post run is a pure function of the crash
        // image) against their own shadow checkpoint, exactly as the batch
        // driver does, so the merged report stays byte-identical.
        results.sort_by_key(|r| r.fp.id);
        let result = |id: u64| {
            results
                .binary_search_by_key(&id, |r| r.fp.id)
                .ok()
                .map(|i| &results[i])
        };
        let planner = frontend.planner.into_inner();
        for &(key, src) in planner.exports() {
            if let Some(r) = result(src) {
                ctl.cache_export(key, &r.post, &r.outcome);
            }
        }
        let pre_findings = frontend.pre_findings.into_inner();
        let mut pre_findings = pre_findings.into_iter().peekable();
        let mut recorded = frontend.recorded.into_inner();
        let mut report = DetectionReport::new();
        let mut post_entries = 0u64;
        let mut check_time: Duration = results.iter().map(|r| r.check_time).sum();
        let fro = config.first_read_only;
        let t_detect = Instant::now();
        for p in frontend.planned.into_inner() {
            // Pre-failure findings discovered up to this failure point go
            // first, as in the batch driver's incremental replay.
            while let Some((_, f)) = pre_findings.next_if(|(at, _)| *at <= p.pre_len) {
                report.push(f);
            }
            let delta_start = report.findings().len();
            let t_check = Instant::now();
            let post: &[TraceEntry] = match &p.step {
                Step::Journaled => {
                    // Already on disk: merged verbatim, never re-appended.
                    for f in ctl.journaled(p.fp.id).iter().flat_map(|j| &j.findings) {
                        report.push(f.clone());
                    }
                    if let Some(rec) = recorded.as_mut() {
                        rec.failure_points.push(RecordedFailurePoint::new(
                            p.pre_len,
                            p.fp.loc,
                            &[],
                        ));
                    }
                    continue;
                }
                Step::Executed => {
                    let Some(r) = result(p.fp.id) else { continue };
                    for f in &r.findings {
                        report.push(f.clone());
                    }
                    &r.post
                }
                Step::Replay { src, shadow } => {
                    let Some(r) = result(*src) else { continue };
                    check(shadow, fro, p.fp, &r.post, &r.outcome, &mut report);
                    check_time += t_check.elapsed();
                    &r.post
                }
                Step::Warm { key, shadow } => {
                    let Some(class) = ctl.cache_peek(*key) else {
                        continue;
                    };
                    check(shadow, fro, p.fp, &class.post, &class.outcome, &mut report);
                    check_time += t_check.elapsed();
                    &class.post
                }
            };
            post_entries += post.len() as u64;
            if let Some(rec) = recorded.as_mut() {
                rec.failure_points
                    .push(RecordedFailurePoint::new(p.pre_len, p.fp.loc, post));
            }
            // Journal appends happen here, in id order, so the journal is
            // as deterministic as the report.
            ctl.append_fp(p.fp.id, p.fp.loc, &report.findings()[delta_start..]);
        }
        for (_, f) in pre_findings {
            report.push(f);
        }
        let detect_time = t_detect.elapsed();

        let mut stats = planner.finish();
        stats.total_time = t_start.elapsed();
        stats.post_exec_time = post_exec_time;
        // `detect_time` is the residual serial merge; `check_time` is the
        // summed checking time wherever it ran.
        stats.detect_time = detect_time;
        stats.check_time = check_time;
        stats.checks_parallelized = results.len() as u64;
        stats.jobs_stolen = queue.jobs_stolen();
        stats.post_entries = post_entries;
        let shadow = frontend.shadow.into_inner();
        stats.shadow_bytes_cloned = shadow.bytes_cloned();
        stats.shadow_resident_bytes = shadow.resident_bytes();
        // Workers accounted their post-failure pools; the frontend pool's
        // capture and COW-fault traffic is read off at the end.
        stats.snapshot_bytes_copied +=
            results.iter().map(|r| r.bytes).sum::<u64>() + ctx.pool().snapshot_bytes_copied();
        // Budget kills count executions only — replays inherit the
        // representative's overrun finding but not its kill.
        stats.budget_exceeded = results
            .iter()
            .filter(|r| r.outcome.is_budget_kill())
            .count() as u64;
        Ok(RunOutcome {
            report,
            stats,
            recorded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BugKind;

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
}
