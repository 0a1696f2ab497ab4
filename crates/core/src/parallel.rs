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
//! [`mpsc::sync_channel`]. A worker runs the recovery *and* checks the
//! resulting trace against the shipped O(1) copy-on-write checkpoint of
//! the shadow PM. Everything else (pre-failure entries, stored and
//! replayed failure points) is checked on the workload thread against
//! the live shadow, as in batch mode; only a failure point that replays a
//! job still running waits, with its own checkpoint, for the job's trace.
//! The pool commits all of it in failure-point order, so the report is
//! deterministic and byte-identical to [`XfDetector::run`]'s, post-failure
//! *outcome* findings included.
//!
//! The workers share the channel's receiver behind a mutex and take one
//! job per lock. That lock is not on any hot path: with pruning a run
//! ships one job per equivalence class, 15–21 jobs for the 437–551
//! failure points of the `serve` benchmark's programs, and a warm run
//! ships none.
//!
//! Requirements: the workload must be [`Send`] + [`Sync`] (each worker calls
//! `post_failure` on its own context). The channel queues at most
//! `2 × workers` jobs, so the PM images alive stay proportional to the
//! worker count, not to the failure-point count. Shadow checkpoints are
//! `Arc`-shared with the live shadow and cost no copying up front; the
//! pre-failure replay pays per-line copy-on-write faults only for lines it
//! mutates while checkpoints are in flight (see
//! [`RunStats::shadow_bytes_cloned`]).

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pmem::{CowImage, PmCtx, PmPool};

use crate::detect::{self, Checker, Msg, Origin, Sink, Traced};
use crate::engine::{EngineError, RunOutcome, Workload, XfConfig, XfDetector};
use crate::plan::{check, planner_shadow, PostOutcome, PostTrace};
use crate::report::{DetectionReport, FailurePoint};
use crate::shadow::ShadowPm;
use crate::stats::RunStats;
use crate::xfrun::RunCtl;

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
        // A panic is confined to this failure point and reported as a
        // finding: it never takes down the pool.
        let budget = config.post_budget.as_ref();
        let outcome = PostOutcome::execute(&mut post_ctx, budget, |c| workload.post_failure(c));
        let entries = post_ctx.trace().drain();
        let post = Arc::new(PostTrace::new(entries, post_ctx.is_detection_complete()));
        let exec_time = t_exec.elapsed();
        let t_check = Instant::now();
        let mut found = DetectionReport::new();
        let elided = check(
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
            found,
            elided,
            exec_time,
            check_time: t_check.elapsed(),
        }
    }
}

/// A worker's result for one job.
struct JobResult {
    fp: FailurePoint,
    post: Arc<PostTrace>,
    outcome: PostOutcome,
    /// The worker's findings: checking findings, then the outcome finding.
    found: DetectionReport,
    /// Whether the checking filter skipped the worker's replay.
    elided: bool,
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

/// The parallel driver's sink: a worker pool in front of a [`Checker`],
/// whose shadow is the live shadow the planner fingerprints.
struct Pool {
    checker: Checker,
    /// The job queue, bounded at `2 × workers` jobs. Dropping the sender
    /// closes it, in [`Sink::finish`] or when the frontend unwinds: the
    /// workers drain the backlog and exit.
    jobs: Option<mpsc::SyncSender<Job>>,
    results: mpsc::Receiver<JobResult>,
    workers: Vec<JoinHandle<()>>,
    /// Every finished job by id: replays read its trace.
    done: HashMap<u64, JobResult>,
    held: VecDeque<Held>,
    /// Some finished job requested `completeDetection`: the frontend
    /// stops injecting.
    completing: bool,
    /// The first failure point in program order whose execution
    /// requested `completeDetection`. Batch mode injects nothing after
    /// it, so no later failure point is committed or stored.
    cut: Option<u64>,
}

impl Pool {
    fn new<W>(config: &XfConfig, ctl: RunCtl, workers: usize, workload: &Arc<W>) -> Self
    where
        W: Workload + Send + Sync + 'static,
    {
        let (jobs, queue) = mpsc::sync_channel::<Job>(2 * workers);
        let queue = Arc::new(Mutex::new(queue));
        let (tx, results) = mpsc::channel();
        let workers = (0..workers)
            .map(|_| {
                let (queue, tx, workload) = (Arc::clone(&queue), tx.clone(), Arc::clone(workload));
                let (config, obs) = (config.clone(), ctl.obs().clone());
                std::thread::spawn(move || loop {
                    // One job per lock: the guard is released before the
                    // job runs.
                    let next = queue.lock().expect("job queue poisoned").recv();
                    let Ok(job) = next else { return };
                    let result = job.run(&*workload, &config);
                    obs.executed(&result.outcome);
                    let _ = tx.send(result);
                })
            })
            .collect();
        Pool {
            checker: Checker::new(config, planner_shadow(config), ctl),
            jobs: Some(jobs),
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
            self.completing |= result.post.completes();
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
                    let (found, origin) = match shadow {
                        None => {
                            // Only an execution completes: a replay runs
                            // no post-failure stage.
                            completes = job.post.completes().then_some(fp.id);
                            (std::mem::take(&mut job.found), Origin::Executed)
                        }
                        Some(shadow) => (
                            self.checker
                                .check(Some(&shadow), fp, &job.post, &job.outcome),
                            Origin::Replayed(src),
                        ),
                    };
                    let traced = (Arc::clone(&job.post), job.outcome.clone());
                    (Msg::FailurePoint { fp, traced, origin }, found)
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
        let jobs = self.jobs.as_ref().expect("the job queue is open");
        jobs.send(Job { fp, image, shadow })
            .expect("a detection worker panicked");
        let (src, shadow) = (fp.id, None);
        self.held.push_back(Held::Job { fp, src, shadow });
        fp.id
    }

    fn replay(&mut self, fp: FailurePoint, src: u64) {
        self.merge();
        if let Some(job) = self.done.get(&src) {
            let traced = (Arc::clone(&job.post), job.outcome.clone());
            let origin = Origin::Replayed(src);
            return self.send(Msg::FailurePoint { fp, traced, origin });
        }
        let shadow = Some(self.checker.fp_shadow().clone());
        self.held.push_back(Held::Job { fp, src, shadow });
    }

    fn detection_complete(&self) -> bool {
        // Updated by every merge, and every message merges first: no
        // extra merge per ordering point.
        self.completing
    }

    fn finish(mut self, stats: RunStats) -> RunOutcome {
        self.jobs = None;
        for worker in self.workers.drain(..) {
            worker.join().expect("detection worker panicked");
        }
        self.merge();
        let mut outcome = self.checker.close().stamp(stats);
        let (stats, jobs) = (&mut outcome.stats, self.done.values());
        // `detect_time` is the checking left on the workload thread;
        // `check_time` adds the workers' share.
        stats.check_time += jobs.clone().map(|j| j.check_time).sum();
        stats.post_exec_time += jobs.clone().map(|j| j.exec_time).sum();
        stats.snapshot_bytes_copied += jobs.clone().map(|j| j.bytes).sum::<u64>();
        stats.checks_elided += jobs.clone().filter(|j| j.elided).count() as u64;
        // Budget kills count executions only — replays inherit the
        // representative's overrun finding but not its kill.
        stats.budget_exceeded += jobs.filter(|j| j.outcome.is_budget_kill()).count() as u64;
        stats.checks_parallelized = self.done.len() as u64;
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
    /// appended to the post-trace store, so the report still equals batch
    /// mode's. The run's counters do count those extra failure points:
    /// `ordering_points`, `failure_points`, `post_runs`, `fps_pruned`,
    /// `classes_total`, `pruning_ratio`, `images_deduped`, `cache_hits`,
    /// `cache_misses`, `skipped_empty`,
    /// `budget_exceeded`, `checks_parallelized`, `snapshot_bytes_copied`
    /// and the times. They count the same failure points, so
    /// [`RunStats::accounting_holds`] still holds; `post_entries` counts
    /// committed failure points only.
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
    /// the post-trace store and live counters. Driven
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
    use std::sync::atomic::{AtomicUsize, Ordering};
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
    fn pre_failure_errors_after_queued_jobs_abort_and_join_the_workers() {
        /// `Racy`'s failure points, then a pre-failure error. The counter
        /// counts recoveries; every worker holds a clone of it through the
        /// workload, so its strong count shows whether they all exited.
        struct Broken(Arc<AtomicUsize>);
        impl Workload for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn pool_size(&self) -> u64 {
                Racy.pool_size()
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                Racy.pre_failure(ctx)?;
                Err("pre blew up".into())
            }
            fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                // Slow enough that a worker left running would still hold
                // its clone when the run returns.
                std::thread::sleep(Duration::from_millis(2));
                self.0.fetch_add(1, Ordering::Relaxed);
                Racy.post_failure(ctx)
            }
        }
        let recoveries = Arc::new(AtomicUsize::new(0));
        let run = XfDetector::with_defaults().run_parallel(Broken(Arc::clone(&recoveries)), 2);
        assert!(
            matches!(run, Err(EngineError::PreFailure(ref e)) if e.contains("pre blew up")),
            "{:?}",
            run.map(|o| o.stats)
        );
        assert!(
            recoveries.load(Ordering::Relaxed) > 0,
            "no job ran before the error"
        );
        assert_eq!(
            Arc::strong_count(&recoveries),
            1,
            "a worker outlived the run"
        );
    }

    #[test]
    fn every_mode_elides_the_same_checks() {
        /// Ten persisted lines, then one store left unflushed: only the
        /// final failure point lets recovery's read of it race.
        struct LateRace;
        impl Workload for LateRace {
            fn name(&self) -> &str {
                "late-race"
            }
            fn pool_size(&self) -> u64 {
                Racy.pool_size()
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                let a = ctx.pool().base();
                for i in 0..10 {
                    ctx.write_u64(a + i * 64, i)?;
                    ctx.persist_barrier(a + i * 64, 8)?;
                }
                ctx.write_u64(a + 4096, 1)?; // never flushed
                Ok(())
            }
            fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
                let a = ctx.pool().base();
                let _ = ctx.read_u64(a + 4096)?;
                Ok(())
            }
        }
        for pruning in [crate::Pruning::Off, crate::Pruning::Equivalence] {
            let config = XfConfig {
                pruning,
                ..XfConfig::default()
            };
            let detector = XfDetector::new(config.clone());
            let runs = [
                ("batch", detector.run(LateRace).unwrap()),
                ("parallel", detector.run_parallel(LateRace, 2).unwrap()),
                (
                    "stream",
                    crate::run_pipelined(&config, LateRace, &Default::default()).unwrap(),
                ),
            ];
            for (mode, run) in runs {
                let s = &run.stats;
                assert_eq!(run.report.race_count(), 1, "{mode} {pruning:?}");
                assert_eq!(
                    s.checks_elided,
                    s.failure_points - 1,
                    "{mode} {pruning:?}: {s:?}"
                );
            }
        }
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
