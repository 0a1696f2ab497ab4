//! Fault-tolerant run orchestration: the [`Session`] API.
//!
//! The low-level engines ([`XfDetector::run`], [`XfDetector::run_parallel`]
//! and [`crate::run_pipelined`]) execute one detection pass and assume
//! nothing goes wrong around them. A [`Session`] wraps them in an
//! orchestration layer that assumes things *do* go wrong:
//!
//! - **Execution budgets** ([`pmem::Budget`]): post-failure stages run
//!   under a watchdog; a hang or unbounded mutation becomes a
//!   [`BugKind::BudgetExceeded`](crate::BugKind::BudgetExceeded) finding
//!   instead of a wedged run.
//! - **Resumable run journal** (`.xfj`, see [`mod@self`] submodule docs in
//!   `journal`): each completed failure point is appended to an
//!   append-only journal; a killed run resumed against the same journal
//!   skips the explored failure points and merges to a byte-identical
//!   final report.
//! - **Structured observability**: live counters drive a progress
//!   callback, and a machine-readable [`RunMetrics`] JSON document can be
//!   exported at the end of the run.
//!
//! The three engines collapse into one entry point:
//!
//! ```
//! use xfdetector::{Mode, Session};
//! # use pmem::PmCtx;
//! # struct W;
//! # impl xfdetector::Workload for W {
//! #     fn name(&self) -> &str { "w" }
//! #     fn pool_size(&self) -> u64 { 4096 }
//! #     fn setup(&self, _ctx: &mut PmCtx) -> Result<(), xfdetector::DynError> { Ok(()) }
//! #     fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), xfdetector::DynError> {
//! #         let a = ctx.pool().base();
//! #         ctx.write_u64(a, 1)?;
//! #         ctx.persist_barrier(a, 8)?;
//! #         Ok(())
//! #     }
//! #     fn post_failure(&self, _ctx: &mut PmCtx) -> Result<(), xfdetector::DynError> { Ok(()) }
//! # }
//! let session = Session::builder().build().unwrap();
//! let outcome = session.run(W, Mode::Batch).unwrap();
//! assert!(outcome.stats.failure_points > 0);
//! ```

pub(crate) mod cache;
mod journal;
mod obs;

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use pmem::Budget;
use xftrace::SourceLoc;

use crate::concurrent::{ConcurrentWorkload, Scheduled};
use crate::engine::{RunOutcome, Workload, XfConfig, XfDetector};
use crate::error::{ConfigError, XfError};
use crate::plan::PostTrace;
use crate::prune::Pruning;
use crate::report::{BugKind, Finding};
use crate::stats::RunStats;

pub use journal::{run_fingerprint, JournalFp};
pub use obs::{ObsCounts, ObsHandle, Progress, RunMetrics, StageMillis};

use cache::{CacheHandle, ClassCache};
use journal::JournalWriter;
use obs::RunClock;

/// How a [`Session`] executes the detection pass.
///
/// All modes produce the same report for the same workload and
/// configuration (byte-identical under JSON serialization); they differ
/// only in how the work is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Sequential in-process execution ([`XfDetector::run`]).
    Batch,
    /// Post-failure executions spread over a worker pool
    /// ([`XfDetector::run_parallel`], with the session's
    /// [`worker`](SessionBuilder::workers) setting).
    Parallel,
    /// Frontend/backend split over a bounded trace FIFO (the paper's §5.1
    /// deployment, [`crate::run_pipelined`]).
    Stream,
}

impl Mode {
    /// Lower-case name, as used in metrics and CLI flags.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Batch => "batch",
            Mode::Parallel => "parallel",
            Mode::Stream => "stream",
        }
    }
}

/// Trace-FIFO capacity, in batches, of a [`Mode::Stream`] run that sets
/// none ([`SessionBuilder::stream_capacity`]).
///
/// A failure-point interval ships up to two batches (its pre-failure
/// entries, then the failure point), so with pruning on, where most
/// failure points skip their post-failure run, 1024 batches are ~10 ms of
/// frontend work on the bundled workloads at ~100 ops: enough to ride out
/// a backend thread that loses its CPU for a scheduler time slice. 64
/// batches hold under a millisecond, which stalls the frontend whenever
/// the backend is descheduled. A post-failure trace travels as an `Arc`
/// shared with the planner's representatives, so a deeper FIFO holds only
/// more pre-failure entries in flight.
pub const DEFAULT_STREAM_CAPACITY: usize = 1024;

#[derive(Debug, Default)]
struct JournalCell {
    writer: Option<JournalWriter>,
    error: Option<io::Error>,
}

/// The orchestration control handle threaded through an engine run.
///
/// Carries the resume skip-set, the journal append side and the live
/// observability counters. Engines call [`RunCtl::journaled`] per failure
/// point to honor resume elision and [`RunCtl::append_fp`] after
/// completing one; an inert handle (the default) makes every call a
/// no-op, which is how the plain `XfDetector` entry points run.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    skip: Option<Arc<HashMap<u64, JournalFp>>>,
    journal: Option<Arc<Mutex<JournalCell>>>,
    obs: ObsHandle,
    cache: Option<CacheHandle>,
}

impl RunCtl {
    /// A handle with no journal and no skip-set: every method is a no-op
    /// except the observability counters.
    #[must_use]
    pub fn inert() -> Self {
        RunCtl::default()
    }

    /// The journaled record for failure point `id`, when a resumed journal
    /// already explored it. The engine must push the record's findings
    /// verbatim and skip the post-failure execution.
    #[must_use]
    pub fn journaled(&self, id: u64) -> Option<&JournalFp> {
        self.skip.as_ref()?.get(&id)
    }

    /// Appends a completed failure point, whether its post-failure run
    /// requested `completeDetection`, and its report delta to the
    /// journal (no-op without one). Write failures are latched and
    /// surfaced when the session finishes — the engine run itself is
    /// never interrupted by a journaling problem.
    pub fn append_fp(&self, id: u64, loc: SourceLoc, completes: bool, findings: &[Finding]) {
        let Some(journal) = &self.journal else { return };
        let Ok(mut cell) = journal.lock() else { return };
        if cell.error.is_some() {
            return;
        }
        if let Some(w) = cell.writer.as_mut() {
            if let Err(e) = w.record_fp(id, loc, completes, findings) {
                cell.error = Some(e);
                cell.writer = None;
            }
        }
    }

    /// The live counters.
    #[must_use]
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Whether a cross-run class cache is armed on this run.
    pub(crate) fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Looks a class fingerprint up in the warm cross-run cache, counting
    /// the hit or miss. `None` without a cache or on a cold key.
    pub(crate) fn cache_lookup(&self, key: u64) -> Option<&cache::WarmClass> {
        self.cache.as_ref()?.lookup(key)
    }

    /// As [`RunCtl::cache_lookup`] without touching the hit/miss counters.
    pub(crate) fn cache_peek(&self, key: u64) -> Option<&cache::WarmClass> {
        self.cache.as_ref()?.peek(key)
    }

    /// Registers a newly executed class representative for cross-run
    /// export (no-op without a cache).
    pub(crate) fn cache_export(
        &self,
        key: u64,
        post: &Arc<PostTrace>,
        outcome: &crate::PostOutcome,
    ) {
        if let Some(c) = &self.cache {
            c.export(key, post, outcome);
        }
    }

    /// Writes the END record (when the run saw the full failure-point
    /// space and can vouch for a total) and surfaces any latched
    /// journaling error.
    fn finish(&self, total_failure_points: Option<u64>) -> io::Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let mut cell = journal.lock().expect("journal lock");
        if let Some(e) = cell.error.take() {
            return Err(e);
        }
        if let (Some(w), Some(total)) = (cell.writer.as_mut(), total_failure_points) {
            w.finish(total)?;
        }
        Ok(())
    }
}

type ProgressFn = Arc<dyn Fn(&Progress) + Send + Sync>;

/// Builder for [`Session`]; see [`Session::builder`].
#[derive(Default)]
pub struct SessionBuilder {
    config: XfConfig,
    workers: usize,
    stream_capacity: Option<usize>,
    journal_path: Option<PathBuf>,
    resume: bool,
    metrics_out: Option<PathBuf>,
    record_repro: bool,
    class_cache: Option<PathBuf>,
    cache_digest: Option<String>,
    progress: Option<ProgressFn>,
    progress_interval: Duration,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("journal_path", &self.journal_path)
            .field("resume", &self.resume)
            .finish_non_exhaustive()
    }
}

impl SessionBuilder {
    /// Uses `config` for the detection pass (defaults to
    /// [`XfConfig::default`]). Build it with [`XfConfig::builder`] for
    /// validated construction; [`SessionBuilder::build`] re-checks the
    /// invariants either way.
    #[must_use]
    pub fn config(mut self, config: XfConfig) -> Self {
        self.config = config;
        self
    }

    /// Arms an execution budget on every post-failure context (shorthand
    /// for setting [`XfConfig::post_budget`]).
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.config.post_budget = Some(budget);
        self
    }

    /// Worker threads for [`Mode::Parallel`]. `0` (the default) means all
    /// available parallelism; the builder clamps it at build time.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Failure-point pruning policy (shorthand for setting
    /// [`XfConfig::pruning`]): collapse failure points into
    /// persistence-state equivalence classes and execute one
    /// representative per class. All three [`Mode`]s honor it and stay
    /// report-equivalent.
    #[must_use]
    pub fn pruning(mut self, pruning: Pruning) -> Self {
        self.config.pruning = pruning;
        self
    }

    /// Logical thread count for [`Session::run_concurrent`] (shorthand for
    /// setting [`XfConfig::threads`]).
    #[must_use]
    pub fn threads(mut self, threads: u32) -> Self {
        self.config.threads = threads;
        self
    }

    /// Interleaving schedule for [`Session::run_concurrent`] (shorthand
    /// for setting [`XfConfig::schedule`]).
    #[must_use]
    pub fn schedule(mut self, schedule: xfsched::ScheduleSpec) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Persistence domain findings are classified under (shorthand for
    /// setting [`XfConfig::domain`]).
    #[must_use]
    pub fn domain(mut self, domain: pmem::PersistDomain) -> Self {
        self.config.domain = domain;
        self
    }

    /// Trace-FIFO capacity (in batches) for [`Mode::Stream`].
    #[must_use]
    pub fn stream_capacity(mut self, capacity: usize) -> Self {
        self.stream_capacity = Some(capacity);
        self
    }

    /// Writes a fresh run journal to `path` (any existing file is
    /// overwritten). See [`SessionBuilder::resume`] to continue one.
    #[must_use]
    pub fn journal<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.journal_path = Some(path.into());
        self.resume = false;
        self
    }

    /// Resumes from the journal at `path`: failure points it records are
    /// skipped and their findings merged verbatim, and newly completed
    /// failure points are appended to the same file. A missing file
    /// starts a fresh journal; a fingerprint mismatch (different
    /// workload or report-affecting configuration) is an error.
    #[must_use]
    pub fn resume<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.journal_path = Some(path.into());
        self.resume = true;
        self
    }

    /// Writes [`RunMetrics`] JSON to `path` when the run finishes.
    #[must_use]
    pub fn metrics_out<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.metrics_out = Some(path.into());
        self
    }

    /// Records full traces so failing failure points can be exported as
    /// standalone `.xft` repro artifacts (implies
    /// [`XfConfig::record_trace`]).
    #[must_use]
    pub fn record_repro(mut self, on: bool) -> Self {
        self.record_repro = on;
        self
    }

    /// Arms the cross-run equivalence-class cache at `path`: equivalence
    /// classes executed by previous runs of the same workload,
    /// configuration and [`cache_digest`](SessionBuilder::cache_digest)
    /// are served from the file instead of re-executed, and classes this
    /// run executes are merged back in when it finishes. Requires
    /// [`Pruning::Equivalence`]; a missing or stale file starts cold. See
    /// [`RunStats::cache_hits`](crate::RunStats::cache_hits) for the
    /// accounting.
    #[must_use]
    pub fn class_cache<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.class_cache = Some(path.into());
        self
    }

    /// A caller-supplied digest of the *program* under analysis (operation
    /// counts and injected bugs for named workloads, a content hash for
    /// uploaded artifacts), mixed into the class-cache header: any change
    /// invalidates the cache even when the configuration fingerprint is
    /// unchanged. Defaults to the empty string.
    #[must_use]
    pub fn cache_digest<S: Into<String>>(mut self, digest: S) -> Self {
        self.cache_digest = Some(digest.into());
        self
    }

    /// Installs a live progress callback, invoked from a ticker thread
    /// once when the run starts, roughly every `interval` while it is in
    /// flight, and once more when it ends, with the finished counters. The
    /// ticker stops as soon as the run does: a run shorter than `interval`
    /// is not held back to it.
    #[must_use]
    pub fn on_progress<F>(mut self, interval: Duration, f: F) -> Self
    where
        F: Fn(&Progress) + Send + Sync + 'static,
    {
        self.progress = Some(Arc::new(f));
        self.progress_interval = interval;
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    ///
    /// Any [`XfConfig::validate`] error, plus
    /// [`ConfigError::ZeroStreamCapacity`] for an explicit zero stream
    /// capacity and [`ConfigError::CacheNeedsEquivalence`] for a class
    /// cache without equivalence pruning.
    pub fn build(self) -> Result<Session, ConfigError> {
        self.config.validate()?;
        if self.stream_capacity == Some(0) {
            return Err(ConfigError::ZeroStreamCapacity);
        }
        if self.class_cache.is_some() && !matches!(self.config.pruning, Pruning::Equivalence) {
            return Err(ConfigError::CacheNeedsEquivalence);
        }
        let workers = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        };
        Ok(Session {
            config: self.config,
            workers,
            stream_capacity: self.stream_capacity,
            journal_path: self.journal_path,
            resume: self.resume,
            metrics_out: self.metrics_out,
            record_repro: self.record_repro,
            class_cache: self.class_cache,
            cache_digest: self.cache_digest,
            progress: self.progress,
            progress_interval: if self.progress_interval.is_zero() {
                Duration::from_millis(100)
            } else {
                self.progress_interval
            },
        })
    }
}

/// A configured, fault-tolerant detection session.
///
/// Construct with [`Session::builder`] and execute with [`Session::run`].
/// One session can run multiple workloads back to back, but a journal
/// binds to a single (workload, configuration) pair — reusing a journal
/// path across different workloads fails the fingerprint check.
pub struct Session {
    config: XfConfig,
    workers: usize,
    stream_capacity: Option<usize>,
    journal_path: Option<PathBuf>,
    resume: bool,
    metrics_out: Option<PathBuf>,
    record_repro: bool,
    class_cache: Option<PathBuf>,
    cache_digest: Option<String>,
    progress: Option<ProgressFn>,
    progress_interval: Duration,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("journal_path", &self.journal_path)
            .field("resume", &self.resume)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Starts a session builder with default settings.
    #[must_use]
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The session's detection configuration.
    #[must_use]
    pub fn config(&self) -> &XfConfig {
        &self.config
    }

    /// Runs the detection pass in the given mode.
    ///
    /// # Errors
    ///
    /// Any [`XfError`]: engine failures, journal I/O or fingerprint
    /// mismatches.
    pub fn run<W>(&self, workload: W, mode: Mode) -> Result<RunOutcome, XfError>
    where
        W: Workload + Send + Sync + 'static,
    {
        let store = self.open_cache(workload.name());
        let handle = store.as_ref().map(|s| CacheHandle::new(Arc::clone(s), 0));
        let outcome = self.run_impl(workload, mode, false, handle)?;
        if let Some(s) = &store {
            s.save()?;
        }
        Ok(outcome)
    }

    /// Runs a [`ConcurrentWorkload`] across every schedule plan the
    /// session's [`XfConfig::schedule`] expands to for
    /// [`XfConfig::threads`] logical threads, merging the per-plan reports.
    ///
    /// With a single-plan spec ([`ScheduleSpec::RoundRobin`]) this is
    /// exactly [`Session::run`] on the pinned [`Scheduled`] workload —
    /// journal, resume and metrics all apply, and a recorded trace is
    /// stamped with the thread count and the serialized plan so the
    /// interleaving travels with the repro artifact. A multi-plan spec
    /// (`seed:N`, `exhaustive:K`) explores each plan in expansion order:
    /// the per-plan runs execute journal-less (different plans produce
    /// different pre-failure traces, so one journal cannot bind to the
    /// sweep), their reports merge through finding deduplication, and
    /// `recorded` is `None`.
    ///
    /// [`RunStats::schedules_explored`] counts the plans explored and
    /// [`RunStats::cross_thread_findings`] the merged report's
    /// cross-thread findings.
    ///
    /// [`ScheduleSpec::RoundRobin`]: xfsched::ScheduleSpec::RoundRobin
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_concurrent<W>(&self, workload: W, mode: Mode) -> Result<RunOutcome, XfError>
    where
        W: ConcurrentWorkload + Send + Sync + 'static,
    {
        let threads = self.config.threads;
        let mut plans = self.config.schedule.expand(threads);
        let shared = Arc::new(workload);
        // One store for the whole sweep; each plan gets its own handle
        // namespaced by expansion index (plan expansion is deterministic,
        // so plan i of a repeat run reuses exactly plan i's classes).
        let store = self.open_cache(shared.name());
        if plans.len() == 1 {
            let plan = plans.pop().expect("one plan");
            let schedule = plan.to_string();
            let handle = store.as_ref().map(|s| CacheHandle::new(Arc::clone(s), 0));
            let mut outcome =
                self.run_impl(Scheduled::from_shared(shared, plan), mode, false, handle)?;
            if let Some(rec) = outcome.recorded.as_mut() {
                rec.threads = threads;
                rec.schedule = schedule;
            }
            finish_concurrent_stats(&mut outcome, 1);
            if let Some(s) = &store {
                s.save()?;
            }
            return Ok(outcome);
        }

        let total = plans.len() as u64;
        let mut merged: Option<RunOutcome> = None;
        for (idx, plan) in plans.into_iter().enumerate() {
            let handle = store
                .as_ref()
                .map(|s| CacheHandle::new(Arc::clone(s), idx as u64));
            let outcome = self.run_impl(
                Scheduled::from_shared(Arc::clone(&shared), plan),
                mode,
                true,
                handle,
            )?;
            merged = Some(match merged {
                None => outcome,
                Some(mut acc) => {
                    for f in outcome.report.into_findings() {
                        acc.report.push(f);
                    }
                    add_stats(&mut acc.stats, &outcome.stats);
                    acc
                }
            });
        }
        let mut outcome = merged.expect("expand yields at least one plan");
        // A recorded trace is per-interleaving evidence; a multi-plan sweep
        // has no single interleaving to attach one to.
        outcome.recorded = None;
        finish_concurrent_stats(&mut outcome, total);
        if let Some(s) = &store {
            s.save()?;
        }
        if let Some(path) = &self.metrics_out {
            let metrics = RunMetrics::new(
                shared.name(),
                mode.name(),
                outcome.report.len() as u64,
                outcome.report.has_correctness_bugs(),
                &outcome.stats,
            );
            write_json(path, &metrics)?;
        }
        Ok(outcome)
    }

    /// Opens the session's cross-run class cache for `workload_name`, when
    /// one is armed. The store header binds the journal fingerprint (the
    /// workload plus every report-affecting configuration axis) and the
    /// caller's program digest; callers save it once the run (or sweep)
    /// completes.
    fn open_cache(&self, workload_name: &str) -> Option<Arc<ClassCache>> {
        let path = self.class_cache.as_ref()?;
        let fingerprint = journal::run_fingerprint(workload_name, &self.config);
        Some(Arc::new(ClassCache::open(
            path,
            &fingerprint,
            self.cache_digest.as_deref().unwrap_or(""),
        )))
    }

    /// The shared run path. `inner` marks one per-plan run of a multi-plan
    /// [`Session::run_concurrent`] sweep: the journal and metrics artifacts
    /// belong to the sweep, not the plan, so an inner run skips both.
    fn run_impl<W>(
        &self,
        workload: W,
        mode: Mode,
        inner: bool,
        cache: Option<CacheHandle>,
    ) -> Result<RunOutcome, XfError>
    where
        W: Workload + Send + Sync + 'static,
    {
        let mut config = self.config.clone();
        if self.record_repro {
            config.record_trace = true;
        }
        let workload_name = workload.name().to_owned();

        // Journal: read the skip-set when resuming, then open for append.
        let fingerprint = journal::run_fingerprint(&workload_name, &config);
        let mut skip = None;
        let mut total_hint = config.max_failure_points;
        let writer = match self.journal_path.as_ref().filter(|_| !inner) {
            None => None,
            Some(path) => {
                if self.resume && path.exists() {
                    let contents = journal::read_journal(path)?;
                    if contents.fingerprint != fingerprint {
                        return Err(XfError::Journal(format!(
                            "journal {} belongs to a different run \
                             (fingerprint mismatch)",
                            path.display()
                        )));
                    }
                    if total_hint.is_none() {
                        total_hint = contents.completed_total;
                    }
                    if !contents.fps.is_empty() {
                        skip = Some(Arc::new(contents.fps));
                    }
                    Some(JournalWriter::append(path)?)
                } else {
                    Some(JournalWriter::create(path, &fingerprint)?)
                }
            }
        };
        let ctl = RunCtl {
            skip,
            journal: writer.map(|w| {
                Arc::new(Mutex::new(JournalCell {
                    writer: Some(w),
                    error: None,
                }))
            }),
            obs: ObsHandle::new(),
            cache: cache.clone(),
        };

        // Progress ticker: an observer thread over the shared counters. It
        // waits on a channel whose sender is dropped when the run ends, so
        // the end interrupts the wait and the final tick follows at once.
        let (stop, stopped) = mpsc::channel::<()>();
        let ticker = self.progress.clone().map(|cb| {
            let obs = ctl.obs().clone();
            let clock = RunClock::start();
            let interval = self.progress_interval;
            std::thread::spawn(move || {
                let tick = || {
                    cb(&Progress {
                        counts: obs.snapshot(),
                        total_hint,
                        elapsed: clock.elapsed(),
                    });
                };
                tick();
                // Nothing is ever sent: the wait ends by timeout (a periodic
                // tick) or by disconnection (the run is over).
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    tick();
                }
                tick();
            })
        });

        let detector = XfDetector::new(config.clone());
        let result = match mode {
            Mode::Batch => detector.run_with_ctl(workload, ctl.clone()),
            Mode::Parallel => detector.run_parallel_with_ctl(workload, self.workers, ctl.clone()),
            Mode::Stream => crate::stream::run_with_ctl(
                &config,
                workload,
                self.stream_capacity.unwrap_or(DEFAULT_STREAM_CAPACITY),
                ctl.clone(),
            ),
        };

        drop(stop);
        if let Some(t) = ticker {
            let _ = t.join();
        }
        let mut outcome = result.map_err(XfError::from)?;

        // The engines only bump the live counter on a warm hit; the
        // authoritative cache statistics are stamped here from the handle.
        if let Some(c) = &cache {
            outcome.stats.cache_hits = c.hits();
            outcome.stats.cache_misses = c.misses();
            outcome.stats.cache_classes_loaded = c.loaded();
            outcome.stats.cache_bytes = c.bytes_read();
        }

        // A run capped by max_failure_points never saw the full
        // failure-point space, so its count is not the run total — omit
        // the END record rather than mislead a resume's progress ETA.
        ctl.finish((config.max_failure_points.is_none()).then_some(outcome.stats.failure_points))?;

        if let Some(path) = self.metrics_out.as_ref().filter(|_| !inner) {
            let metrics = RunMetrics::new(
                &workload_name,
                mode.name(),
                outcome.report.len() as u64,
                outcome.report.has_correctness_bugs(),
                &outcome.stats,
            );
            write_json(path, &metrics)?;
        }
        Ok(outcome)
    }
}

/// Stamps the concurrency counters on a finished (possibly merged) outcome.
fn finish_concurrent_stats(outcome: &mut RunOutcome, schedules: u64) {
    outcome.stats.schedules_explored = schedules;
    outcome.stats.cross_thread_findings = outcome
        .report
        .findings()
        .iter()
        .filter(|f| {
            matches!(
                f.kind,
                BugKind::CrossThreadRace | BugKind::CrossThreadSemantic
            )
        })
        .count() as u64;
}

/// Accumulates one per-plan run's counters into the sweep totals. Counters
/// sum, high-water marks take the max, and the pruning ratio is re-derived
/// from the summed split.
fn add_stats(acc: &mut RunStats, o: &RunStats) {
    acc.ordering_points += o.ordering_points;
    acc.failure_points += o.failure_points;
    acc.skipped_empty += o.skipped_empty;
    acc.post_runs += o.post_runs;
    acc.images_deduped += o.images_deduped;
    acc.journal_skipped += o.journal_skipped;
    acc.cache_hits += o.cache_hits;
    acc.cache_misses += o.cache_misses;
    // Sweep plans share one store, so loaded/bytes are per-store facts,
    // not per-plan increments.
    acc.cache_classes_loaded = acc.cache_classes_loaded.max(o.cache_classes_loaded);
    acc.cache_bytes = acc.cache_bytes.max(o.cache_bytes);
    acc.budget_exceeded += o.budget_exceeded;
    acc.snapshot_bytes_copied += o.snapshot_bytes_copied;
    acc.pre_entries += o.pre_entries;
    acc.post_entries += o.post_entries;
    acc.shadow_bytes_cloned += o.shadow_bytes_cloned;
    acc.shadow_resident_bytes += o.shadow_resident_bytes;
    acc.checks_parallelized += o.checks_parallelized;
    acc.checks_elided += o.checks_elided;
    acc.stream_batches += o.stream_batches;
    acc.stream_max_depth = acc.stream_max_depth.max(o.stream_max_depth);
    acc.stream_stall_time += o.stream_stall_time;
    acc.ring_spins += o.ring_spins;
    acc.ring_parks += o.ring_parks;
    acc.total_time += o.total_time;
    acc.post_exec_time += o.post_exec_time;
    acc.detect_time += o.detect_time;
    acc.check_time += o.check_time;
    acc.fingerprint_time += o.fingerprint_time;
    let classes = acc.classes_total + o.classes_total;
    let pruned = acc.fps_pruned + o.fps_pruned;
    acc.finish_pruning(classes, pruned);
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), XfError> {
    let json = serde_json::to_string(value)
        .map_err(|e| XfError::Journal(format!("metrics serialization failed: {e}")))?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmCtx;
    use std::sync::atomic::{AtomicU64, Ordering};

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
            for i in 0..8 {
                ctx.write_u64(a + i * 128, i)?; // never flushed
                ctx.write_u64(a + i * 128 + 64, i)?;
                ctx.persist_barrier(a + i * 128 + 64, 8)?;
            }
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            let a = ctx.pool().base();
            for i in 0..8 {
                let _ = ctx.read_u64(a + i * 128)?;
            }
            Ok(())
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xfrun-test-{}-{name}", std::process::id()));
        p
    }

    fn report_json(o: &RunOutcome) -> String {
        serde_json::to_string(&o.report).unwrap()
    }

    #[test]
    fn session_batch_matches_plain_detector() {
        let plain = XfDetector::with_defaults().run(Racy).unwrap();
        let session = Session::builder().build().unwrap();
        let s = session.run(Racy, Mode::Batch).unwrap();
        assert_eq!(report_json(&plain), report_json(&s));
    }

    #[test]
    fn session_parallel_matches_batch() {
        let session = Session::builder().workers(2).build().unwrap();
        let b = session.run(Racy, Mode::Batch).unwrap();
        let p = session.run(Racy, Mode::Parallel).unwrap();
        assert_eq!(report_json(&b), report_json(&p));
    }

    #[test]
    fn session_stream_matches_batch() {
        let session = Session::builder().build().unwrap();
        let b = session.run(Racy, Mode::Batch).unwrap();
        let s = session.run(Racy, Mode::Stream).unwrap();
        assert_eq!(report_json(&b), report_json(&s));
        assert!(s.stats.stream_batches > 0, "{:?}", s.stats);
    }

    #[test]
    fn kill_and_resume_merge_to_byte_identical_report() {
        let path = tmp("resume.xfj");
        std::fs::remove_file(&path).ok();

        let full = Session::builder().build().unwrap();
        let reference = full.run(Racy, Mode::Batch).unwrap();
        assert!(reference.stats.failure_points > 3);

        // "Kill" after 3 failure points: a capped run writing the journal.
        let killed = Session::builder()
            .config(
                XfConfig::builder()
                    .max_failure_points(Some(3))
                    .build()
                    .unwrap(),
            )
            .journal(&path)
            .build()
            .unwrap();
        killed.run(Racy, Mode::Batch).unwrap();

        // Resume under the full configuration.
        let resumed = Session::builder().resume(&path).build().unwrap();
        let outcome = resumed.run(Racy, Mode::Batch).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(outcome.stats.journal_skipped, 3, "{:?}", outcome.stats);
        assert_eq!(
            report_json(&reference),
            report_json(&outcome),
            "resume must merge to a byte-identical report"
        );
    }

    #[test]
    fn resume_rejects_a_foreign_fingerprint() {
        let path = tmp("foreign.xfj");
        std::fs::remove_file(&path).ok();
        let first = Session::builder().journal(&path).build().unwrap();
        first.run(Racy, Mode::Batch).unwrap();

        // Different report-affecting configuration → rejected.
        let other = Session::builder()
            .config(XfConfig::builder().first_read_only(false).build().unwrap())
            .resume(&path)
            .build()
            .unwrap();
        let err = other.run(Racy, Mode::Batch).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, XfError::Journal(_)), "{err:?}");
    }

    #[test]
    fn resume_of_a_missing_journal_starts_fresh() {
        let path = tmp("fresh.xfj");
        std::fs::remove_file(&path).ok();
        let session = Session::builder().resume(&path).build().unwrap();
        let outcome = session.run(Racy, Mode::Batch).unwrap();
        assert_eq!(outcome.stats.journal_skipped, 0);
        assert!(path.exists(), "a fresh journal must have been written");
        let again = Session::builder().resume(&path).build().unwrap();
        let second = again.run(Racy, Mode::Batch).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            second.stats.journal_skipped, second.stats.failure_points,
            "a completed journal elides everything"
        );
        assert_eq!(report_json(&outcome), report_json(&second));
    }

    #[test]
    fn metrics_json_is_written() {
        let path = tmp("metrics.json");
        std::fs::remove_file(&path).ok();
        let session = Session::builder().metrics_out(&path).build().unwrap();
        session.run(Racy, Mode::Batch).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(raw.contains("\"schema_version\":1"), "{raw}");
        assert!(raw.contains("\"workload\":\"racy\""), "{raw}");
        assert!(raw.contains("\"mode\":\"batch\""), "{raw}");
        assert!(raw.contains("\"stage_ms\""), "{raw}");
        assert!(raw.contains("\"failure_points\""), "{raw}");
    }

    #[test]
    fn progress_callback_fires_at_least_once() {
        let ticks = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&ticks);
        let session = Session::builder()
            .on_progress(Duration::from_millis(1), move |p| {
                let _ = p.counts.dedup_hit_rate();
                seen.fetch_add(1, Ordering::Relaxed);
            })
            .build()
            .unwrap();
        session.run(Racy, Mode::Batch).unwrap();
        assert!(ticks.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn progress_ticker_stops_with_the_run_and_ticks_the_final_counters() {
        let ticks = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&ticks);
        let session = Session::builder()
            .on_progress(Duration::from_secs(30), move |p| {
                seen.lock().unwrap().push(p.counts.failure_points_done);
            })
            .build()
            .unwrap();
        let start = std::time::Instant::now();
        let outcome = session.run(Racy, Mode::Batch).unwrap();
        // Loose on purpose: this catches a ticker that sleeps out its
        // interval, not scheduling jitter.
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "run held for {:?} by the progress ticker",
            start.elapsed()
        );
        let ticks = ticks.lock().unwrap();
        assert!(ticks.len() >= 2, "first and final tick, got {ticks:?}");
        assert_eq!(ticks.last().copied(), Some(outcome.stats.failure_points));
    }

    #[test]
    fn the_final_progress_tick_equals_the_metrics_counts() {
        for mode in [Mode::Batch, Mode::Stream, Mode::Parallel] {
            let cache = tmp(&format!("counts-{}.xfc", mode.name()));
            let metrics = tmp(&format!("counts-{}.json", mode.name()));
            std::fs::remove_file(&cache).ok();
            for pass in ["cold", "warm"] {
                let last = Arc::new(Mutex::new(None));
                let seen = Arc::clone(&last);
                let session = Session::builder()
                    .workers(2)
                    .pruning(Pruning::Equivalence)
                    .class_cache(&cache)
                    .metrics_out(&metrics)
                    .on_progress(Duration::from_secs(30), move |p| {
                        *seen.lock().unwrap() = Some(p.counts);
                    })
                    .build()
                    .unwrap();
                let outcome = session.run(Racy, mode).unwrap();
                assert_eq!(
                    outcome.stats.cache_hits > 0,
                    pass == "warm",
                    "{mode:?} {pass}"
                );
                let last = last.lock().unwrap().expect("a final tick");
                let raw = std::fs::read_to_string(&metrics).unwrap();
                let counts = format!("\"counts\":{}", serde_json::to_string(&last).unwrap());
                assert!(raw.contains(&counts), "{mode:?} {pass}: {counts} in {raw}");
            }
            std::fs::remove_file(&cache).ok();
            std::fs::remove_file(&metrics).ok();
        }
    }

    #[test]
    fn record_repro_forces_recording() {
        let session = Session::builder().record_repro(true).build().unwrap();
        let outcome = session.run(Racy, Mode::Batch).unwrap();
        assert!(outcome.recorded.is_some());
    }

    /// Two roles: an unfenced writer and a fencer. Whether the write
    /// persists depends on whose fence runs after the flush — schedule
    /// dependent, which is what `run_concurrent` sweeps.
    struct RacyRoles;

    impl ConcurrentWorkload for RacyRoles {
        fn name(&self) -> &str {
            "racy-roles"
        }
        fn pool_size(&self) -> u64 {
            64 * 1024
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            Ok(())
        }
        fn roles(&self, base: u64) -> Vec<Box<dyn xfsched::ThreadProgram>> {
            let a = base + 128;
            vec![
                Box::new(xfsched::OpSequence::new(vec![
                    Box::new(move |c: &mut PmCtx| {
                        c.write_u64(a, 7)?;
                        Ok(())
                    }),
                    Box::new(move |c: &mut PmCtx| {
                        c.clwb(a)?;
                        Ok(())
                    }),
                ])),
                Box::new(xfsched::OpSequence::new(vec![Box::new(
                    move |c: &mut PmCtx| {
                        c.sfence();
                        Ok(())
                    },
                )])),
            ]
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            let _ = ctx.read_u64(ctx.pool().base() + 128)?;
            Ok(())
        }
    }

    #[test]
    fn run_concurrent_single_plan_stamps_the_recording() {
        let session = Session::builder()
            .threads(2)
            .record_repro(true)
            .build()
            .unwrap();
        let outcome = session.run_concurrent(RacyRoles, Mode::Batch).unwrap();
        assert_eq!(outcome.stats.schedules_explored, 1);
        let rec = outcome.recorded.expect("trace recorded");
        assert_eq!(rec.threads, 2);
        assert_eq!(rec.schedule, "t2:rr");
    }

    #[test]
    fn run_concurrent_exhaustive_merges_and_counts_cross_thread_findings() {
        let spec: crate::ScheduleSpec = "exhaustive:3".parse().unwrap();
        let session = Session::builder()
            .threads(2)
            .schedule(spec)
            .build()
            .unwrap();
        let outcome = session.run_concurrent(RacyRoles, Mode::Batch).unwrap();
        assert_eq!(outcome.stats.schedules_explored, 8);
        assert!(outcome.recorded.is_none(), "no single plan to record");
        // The [0,0,1] prefix orders write, clwb, foreign fence — the
        // cross-thread race must survive into the merged report.
        assert!(
            outcome.stats.cross_thread_findings >= 1,
            "{}",
            outcome.report
        );
        assert!(outcome
            .report
            .findings()
            .iter()
            .any(|f| f.kind == crate::BugKind::CrossThreadRace));
    }

    #[test]
    fn run_concurrent_is_deterministic_across_repeats() {
        let spec: crate::ScheduleSpec = "seed:42".parse().unwrap();
        let mk = || {
            Session::builder()
                .threads(2)
                .schedule(spec)
                .build()
                .unwrap()
                .run_concurrent(RacyRoles, Mode::Batch)
                .unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(report_json(&a), report_json(&b));
        assert_eq!(a.stats.schedules_explored, 1);
    }

    fn cached_session(path: &Path) -> Session {
        Session::builder()
            .pruning(Pruning::Equivalence)
            .class_cache(path)
            .build()
            .unwrap()
    }

    #[test]
    fn class_cache_requires_equivalence_pruning() {
        assert!(matches!(
            Session::builder().class_cache(tmp("nope.xfc")).build(),
            Err(ConfigError::CacheNeedsEquivalence)
        ));
    }

    #[test]
    fn second_run_is_served_warm_with_byte_identical_report() {
        let path = tmp("cache-batch.xfc");
        std::fs::remove_file(&path).ok();

        let reference = Session::builder()
            .pruning(Pruning::Equivalence)
            .build()
            .unwrap()
            .run(Racy, Mode::Batch)
            .unwrap();

        let first = cached_session(&path).run(Racy, Mode::Batch).unwrap();
        assert_eq!(first.stats.cache_hits, 0, "{:?}", first.stats);
        assert!(first.stats.cache_misses > 0);
        assert!(first.stats.post_runs > 0);

        let second = cached_session(&path).run(Racy, Mode::Batch).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(second.stats.post_runs, 0, "{:?}", second.stats);
        assert_eq!(second.stats.cache_hits, second.stats.failure_points);
        assert_eq!(second.stats.cache_misses, 0);
        assert!(second.stats.cache_classes_loaded > 0);
        assert!(second.stats.cache_bytes > 0);
        // The ISSUE's acceptance bar: ≥ 5× fewer post-failure executions.
        assert!(first.stats.post_runs >= 5 * second.stats.post_runs.max(1) - 4);

        assert_eq!(report_json(&reference), report_json(&first));
        assert_eq!(report_json(&first), report_json(&second));
    }

    #[test]
    fn warm_cache_crosses_execution_modes() {
        let path = tmp("cache-modes.xfc");
        std::fs::remove_file(&path).ok();
        let first = cached_session(&path).run(Racy, Mode::Batch).unwrap();
        // A batch-written cache serves a parallel run (and vice versa): the
        // header fingerprint excludes the execution mode on purpose.
        let warm = Session::builder()
            .pruning(Pruning::Equivalence)
            .class_cache(&path)
            .workers(2)
            .build()
            .unwrap()
            .run(Racy, Mode::Parallel)
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(warm.stats.post_runs, 0, "{:?}", warm.stats);
        assert_eq!(warm.stats.cache_hits, warm.stats.failure_points);
        assert_eq!(report_json(&first), report_json(&warm));
    }

    #[test]
    fn config_change_invalidates_the_cache() {
        let path = tmp("cache-invalidate.xfc");
        std::fs::remove_file(&path).ok();
        cached_session(&path).run(Racy, Mode::Batch).unwrap();
        // A report-affecting config change (first_read_only) must start
        // cold, not serve the stale classes.
        let other = Session::builder()
            .config(
                XfConfig::builder()
                    .first_read_only(false)
                    .pruning(Pruning::Equivalence)
                    .build()
                    .unwrap(),
            )
            .class_cache(&path)
            .build()
            .unwrap()
            .run(Racy, Mode::Batch)
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(other.stats.cache_hits, 0, "{:?}", other.stats);
        assert_eq!(other.stats.cache_classes_loaded, 0);
        assert!(other.stats.post_runs > 0);
    }

    #[test]
    fn digest_change_invalidates_the_cache() {
        let path = tmp("cache-digest.xfc");
        std::fs::remove_file(&path).ok();
        let mk = |digest: &str| {
            Session::builder()
                .pruning(Pruning::Equivalence)
                .class_cache(&path)
                .cache_digest(digest)
                .build()
                .unwrap()
        };
        mk("v1").run(Racy, Mode::Batch).unwrap();
        let same = mk("v1").run(Racy, Mode::Batch).unwrap();
        assert_eq!(same.stats.post_runs, 0);
        let changed = mk("v2").run(Racy, Mode::Batch).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(changed.stats.cache_hits, 0, "{:?}", changed.stats);
        assert!(changed.stats.post_runs > 0);
    }

    #[test]
    fn warm_cache_covers_schedule_sweeps() {
        let path = tmp("cache-sweep.xfc");
        std::fs::remove_file(&path).ok();
        let spec: crate::ScheduleSpec = "exhaustive:2".parse().unwrap();
        let mk = || {
            Session::builder()
                .threads(2)
                .schedule(spec)
                .pruning(Pruning::Equivalence)
                .class_cache(&path)
                .build()
                .unwrap()
        };
        let reference = Session::builder()
            .threads(2)
            .schedule(spec)
            .pruning(Pruning::Equivalence)
            .build()
            .unwrap()
            .run_concurrent(RacyRoles, Mode::Batch)
            .unwrap();
        let first = mk().run_concurrent(RacyRoles, Mode::Batch).unwrap();
        let second = mk().run_concurrent(RacyRoles, Mode::Batch).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(first.stats.post_runs > 0);
        assert_eq!(second.stats.post_runs, 0, "{:?}", second.stats);
        assert!(second.stats.cache_hits > 0);
        assert_eq!(report_json(&reference), report_json(&first));
        assert_eq!(report_json(&first), report_json(&second));
    }

    #[test]
    fn warm_hits_do_not_consume_entry_budgets() {
        // Satellite regression: a warm replay of a budget-killed class must
        // re-emit the BudgetExceeded finding (byte-identical report) while
        // `budget_exceeded` counts executed representatives only — a cache
        // hit never consumes an entry budget.
        let path = tmp("cache-budget.xfc");
        std::fs::remove_file(&path).ok();
        let mk = || {
            Session::builder()
                .pruning(Pruning::Equivalence)
                .class_cache(&path)
                .budget(Budget::default().with_max_trace_entries(4))
                .build()
                .unwrap()
        };
        let first = mk().run(Racy, Mode::Batch).unwrap();
        assert!(first.stats.budget_exceeded > 0, "{:?}", first.stats);

        for mode in [Mode::Batch, Mode::Parallel] {
            let warm = mk().run(Racy, mode).unwrap();
            assert_eq!(warm.stats.post_runs, 0, "{mode:?}: {:?}", warm.stats);
            assert_eq!(
                warm.stats.budget_exceeded, 0,
                "{mode:?}: cache hits must not count as budget kills"
            );
            assert_eq!(report_json(&first), report_json(&warm), "{mode:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_rejects_zero_threads_and_oversized_schedules() {
        assert!(matches!(
            Session::builder().threads(0).build(),
            Err(ConfigError::ZeroThreads)
        ));
        let spec: crate::ScheduleSpec = "exhaustive:16".parse().unwrap();
        assert!(matches!(
            Session::builder().threads(4).schedule(spec).build(),
            Err(ConfigError::ScheduleTooLarge)
        ));
    }
}
