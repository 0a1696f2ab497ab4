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
//! - **Post-trace store** (`.xfj`/`.xfc`, see the `store` submodule
//!   docs): each checked failure point's post-failure trace is appended to
//!   an append-only store keyed by failure point; a killed run resumed
//!   against it, or a repeat run of the same program, replays the stored
//!   traces instead of executing and merges to a byte-identical report.
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

mod obs;
mod store;

use std::io::Write;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use crate::concurrent::{ConcurrentWorkload, Scheduled};
use crate::detect::{Origin, Traced};
use crate::engine::{RunOutcome, Workload, XfConfig, XfDetector};
use crate::error::{ConfigError, XfError};
use crate::report::{BugKind, FailurePoint};
use crate::stats::RunStats;

pub use obs::{ObsCounts, ObsHandle, Progress, RunMetrics, StageMillis};

use obs::RunClock;
use store::{Opener, Store};

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

/// The run fingerprint: the workload plus every configuration axis that
/// affects the final report. The post-trace store binds its file to it: a
/// resumed run whose fingerprint differs is rejected instead of replaying
/// another run's traces, and a class cache whose header differs starts
/// cold.
///
/// Deliberately excluded: `max_failure_points` (so a truncated run resumes
/// under the full configuration), `record_trace` and the execution mode
/// (all report-neutral: a store written by a batch run serves parallel
/// and stream runs). The pruning policy is included, because a stored
/// record may name the trace an in-run prune replay borrowed.
///
/// The `catch_post_panics=true` term names a retired switch: post-failure
/// panics are now always findings. It stays, frozen, so stores and server
/// cache files written before the switch went keep their fingerprint.
#[must_use]
pub fn run_fingerprint(workload: &str, config: &XfConfig) -> String {
    format!(
        "workload={workload};skip_empty={};first_read_only={};inject_at_completion={};\
         fire_on_every_write={};catch_post_panics=true;crash_policy={:?};rng_seed={:#x};\
         dedup_images={};post_budget={:?};threads={};schedule={};domain={};pruning={:?}",
        config.skip_empty_failure_points,
        config.first_read_only,
        config.inject_at_completion,
        config.fire_on_every_write,
        config.crash_policy,
        config.rng_seed,
        config.dedup_images,
        config.post_budget,
        config.threads,
        config.schedule,
        config.domain,
        config.pruning,
    )
}

/// The orchestration control handle threaded through an engine run.
///
/// Carries the post-trace store (with the run's plan namespace in it) and
/// the live observability counters. The planner asks it for a stored
/// trace before anything else, and the checker appends every committed
/// failure point to it; an inert handle (the default) has no store, which
/// is how the plain `XfDetector` entry points run.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    store: Option<(Arc<Store>, u64)>,
    obs: ObsHandle,
}

impl RunCtl {
    /// A handle with no store: every method is a no-op except the
    /// observability counters.
    #[must_use]
    pub fn inert() -> Self {
        RunCtl::default()
    }

    /// The live counters.
    #[must_use]
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Whether a post-trace store is armed on this run.
    pub(crate) fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// The stored trace of failure point `id`, if an earlier run checked it.
    pub(crate) fn stored(&self, id: u64) -> Option<&Traced> {
        let (store, ns) = self.store.as_ref()?;
        store.get(*ns, id)
    }

    /// Appends committed failure point `fp`, whose trace came from
    /// `origin`, to the store (no-op without one). Write failures are
    /// latched and surfaced when the run finishes; the engine run itself
    /// is never interrupted by a store problem.
    pub(crate) fn append(&self, fp: FailurePoint, origin: Origin, traced: &Traced) {
        if let Some((store, ns)) = &self.store {
            store.append(*ns, fp.id, origin, traced);
        }
    }
}

type ProgressFn = Arc<dyn Fn(&Progress) + Send + Sync>;

/// Builder for [`Session`]; see [`Session::builder`].
#[derive(Default)]
pub struct SessionBuilder {
    config: XfConfig,
    workers: usize,
    stream_capacity: Option<usize>,
    store: Option<(PathBuf, Opener)>,
    digest: String,
    metrics_out: Option<PathBuf>,
    record_repro: bool,
    progress: Option<ProgressFn>,
    progress_interval: Duration,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

impl SessionBuilder {
    /// Uses `config` for the detection pass (defaults to
    /// [`XfConfig::default`]); [`SessionBuilder::build`] checks it with
    /// [`XfConfig::validate`].
    #[must_use]
    pub fn config(mut self, config: XfConfig) -> Self {
        self.config = config;
        self
    }

    /// Worker threads for [`Mode::Parallel`]. `0` (the default) means all
    /// available parallelism; the builder clamps it at build time.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Trace-FIFO capacity (in batches) for [`Mode::Stream`].
    #[must_use]
    pub fn stream_capacity(mut self, capacity: usize) -> Self {
        self.stream_capacity = Some(capacity);
        self
    }

    /// Writes a fresh post-trace store to `path` (any existing file is
    /// replaced): every checked failure point's post-failure trace is
    /// appended as the run goes. See [`SessionBuilder::resume`] to continue
    /// one. A session has one store: the last of `journal`, `resume` and
    /// [`class_cache`](SessionBuilder::class_cache) called opens it.
    #[must_use]
    pub fn journal<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.store = Some((path.into(), Opener::Journal));
        self
    }

    /// Resumes from the post-trace store at `path`: failure points it
    /// records replay their stored traces instead of executing (counted in
    /// [`RunStats::cache_hits`](crate::RunStats::cache_hits)), and the
    /// others are appended to the same file. A missing file starts a fresh
    /// store; a torn header, or one written by a different workload,
    /// report-affecting configuration or
    /// [`cache_digest`](SessionBuilder::cache_digest), is an
    /// [`XfError::Journal`].
    #[must_use]
    pub fn resume<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.store = Some((path.into(), Opener::Resume));
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

    /// Arms the post-trace store at `path` as a cross-run cache: failure
    /// points that previous runs of the same workload, configuration and
    /// [`cache_digest`](SessionBuilder::cache_digest) checked replay their
    /// stored traces instead of executing, and this run appends the
    /// others. A missing, torn or stale file starts cold. Works under every
    /// [`Pruning`] policy; see
    /// [`RunStats::cache_hits`](crate::RunStats::cache_hits) for the
    /// accounting.
    #[must_use]
    pub fn class_cache<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.store = Some((path.into(), Opener::Cache));
        self
    }

    /// A caller-supplied digest of the *program* under analysis (operation
    /// counts and injected bugs for named workloads, a content hash for
    /// uploaded artifacts), written into the store header next to the run
    /// fingerprint: any change invalidates the store even when the
    /// configuration is unchanged. Defaults to the empty string.
    #[must_use]
    pub fn cache_digest<S: Into<String>>(mut self, digest: S) -> Self {
        self.digest = digest.into();
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
    /// capacity.
    pub fn build(self) -> Result<Session, ConfigError> {
        self.config.validate()?;
        if self.stream_capacity == Some(0) {
            return Err(ConfigError::ZeroStreamCapacity);
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
            store: self.store,
            digest: self.digest,
            metrics_out: self.metrics_out,
            record_repro: self.record_repro,
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
/// One session can run multiple workloads back to back, but a store binds
/// to a single (workload, configuration, digest) triple: resuming one
/// path across different workloads fails the header check.
pub struct Session {
    config: XfConfig,
    workers: usize,
    stream_capacity: Option<usize>,
    store: Option<(PathBuf, Opener)>,
    digest: String,
    metrics_out: Option<PathBuf>,
    record_repro: bool,
    progress: Option<ProgressFn>,
    progress_interval: Duration,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("store", &self.store)
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
    /// Any [`XfError`]: engine failures, store I/O or header mismatches.
    pub fn run<W>(&self, workload: W, mode: Mode) -> Result<RunOutcome, XfError>
    where
        W: Workload + Send + Sync + 'static,
    {
        let name = workload.name().to_owned();
        let store = self.open_store(&name)?;
        let outcome = self.run_impl(workload, mode, store.map(|s| (s, 0)))?;
        self.write_metrics(&name, mode, &outcome)?;
        Ok(outcome)
    }

    /// Runs a [`ConcurrentWorkload`] across every schedule plan the
    /// session's [`XfConfig::schedule`] expands to for
    /// [`XfConfig::threads`] logical threads, merging the per-plan reports.
    ///
    /// Each plan is explored in expansion order: the per-plan runs share
    /// the session's store, each under its expansion index as the plan
    /// namespace (plan expansion is deterministic, so plan *i* of a resumed
    /// or repeated sweep reads exactly plan *i*'s records), and their
    /// reports merge through finding deduplication. With a single-plan
    /// spec ([`ScheduleSpec::RoundRobin`]) this is [`Session::run`] on the
    /// pinned [`Scheduled`] workload, and a recorded trace is stamped with
    /// the thread count and the serialized plan so the interleaving
    /// travels with the repro artifact; a multi-plan sweep (`seed:N`,
    /// `exhaustive:K`) has no single interleaving to attach a recording
    /// to, so its `recorded` is `None`. The metrics file, if any, is
    /// written once, after the sweep's counters are final.
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
        let plans = self.config.schedule.expand(threads);
        let total = plans.len() as u64;
        let schedule = (total == 1).then(|| plans[0].to_string());
        let shared = Arc::new(workload);
        let store = self.open_store(shared.name())?;
        let mut merged: Option<RunOutcome> = None;
        for (idx, plan) in plans.into_iter().enumerate() {
            let outcome = self.run_impl(
                Scheduled::from_shared(Arc::clone(&shared), plan),
                mode,
                store.as_ref().map(|s| (Arc::clone(s), idx as u64)),
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
        match schedule {
            Some(schedule) => {
                if let Some(rec) = outcome.recorded.as_mut() {
                    rec.threads = threads;
                    rec.schedule = schedule;
                }
            }
            None => outcome.recorded = None,
        }
        finish_concurrent_stats(&mut outcome, total);
        self.write_metrics(shared.name(), mode, &outcome)?;
        Ok(outcome)
    }

    /// Opens the session's post-trace store for `workload_name`, when one
    /// is armed. Its header binds the run fingerprint (the workload plus
    /// every report-affecting configuration axis) and the program digest.
    fn open_store(&self, workload_name: &str) -> Result<Option<Arc<Store>>, XfError> {
        let Some((path, opener)) = &self.store else {
            return Ok(None);
        };
        let fingerprint = run_fingerprint(workload_name, &self.config);
        let store = Store::open(path, *opener, &fingerprint, &self.digest)?;
        Ok(Some(Arc::new(store)))
    }

    /// The shared run path, on `store` under its plan namespace. The
    /// caller writes the metrics: those of a [`Session::run_concurrent`]
    /// sweep belong to the sweep, not to one plan.
    fn run_impl<W>(
        &self,
        workload: W,
        mode: Mode,
        store: Option<(Arc<Store>, u64)>,
    ) -> Result<RunOutcome, XfError>
    where
        W: Workload + Send + Sync + 'static,
    {
        let mut config = self.config.clone();
        if self.record_repro {
            config.record_trace = true;
        }
        let total_hint = config.max_failure_points;
        let ctl = RunCtl {
            store: store.clone(),
            obs: ObsHandle::new(),
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
            Mode::Batch => detector.run_with_ctl(workload, ctl),
            Mode::Parallel => detector.run_parallel_with_ctl(workload, self.workers, ctl),
            Mode::Stream => crate::stream::run_with_ctl(
                &config,
                workload,
                self.stream_capacity.unwrap_or(DEFAULT_STREAM_CAPACITY),
                ctl,
            ),
        };

        drop(stop);
        if let Some(t) = ticker {
            let _ = t.join();
        }
        let mut outcome = result.map_err(XfError::from)?;

        if let Some((store, _)) = &store {
            store.flush()?;
            outcome.stats.cache_classes_loaded = store.loaded();
            outcome.stats.cache_bytes = store.bytes_read();
        }

        Ok(outcome)
    }

    /// Writes `outcome`'s [`RunMetrics`] to the session's metrics path,
    /// when one is set.
    fn write_metrics(
        &self,
        workload: &str,
        mode: Mode,
        outcome: &RunOutcome,
    ) -> Result<(), XfError> {
        let Some(path) = &self.metrics_out else {
            return Ok(());
        };
        let metrics = RunMetrics::new(
            workload,
            mode.name(),
            outcome.report.len() as u64,
            outcome.report.has_correctness_bugs(),
            &outcome.stats,
        );
        let json = serde_json::to_string(&metrics).map_err(serialization_failed)?;
        let mut f = std::fs::File::create(path)?;
        f.write_all(json.as_bytes())?;
        f.write_all(b"\n")?;
        Ok(())
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

/// A metrics document that failed to serialize: an I/O failure of the
/// metrics write, like any other.
fn serialization_failed(e: serde_json::Error) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("metrics serialization failed: {e}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::Pruning;
    use pmem::{Budget, PmCtx};
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

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
            .config(XfConfig {
                max_failure_points: Some(3),
                ..XfConfig::default()
            })
            .journal(&path)
            .build()
            .unwrap();
        killed.run(Racy, Mode::Batch).unwrap();

        // Resume under the full configuration.
        let resumed = Session::builder().resume(&path).build().unwrap();
        let outcome = resumed.run(Racy, Mode::Batch).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(outcome.stats.cache_hits, 3, "{:?}", outcome.stats);
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
            .config(XfConfig {
                first_read_only: false,
                ..XfConfig::default()
            })
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
        assert_eq!(outcome.stats.cache_hits, 0);
        assert!(path.exists(), "a fresh journal must have been written");
        let again = Session::builder().resume(&path).build().unwrap();
        let second = again.run(Racy, Mode::Batch).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            (second.stats.cache_hits, second.stats.post_runs),
            (second.stats.failure_points, 0),
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

    /// Two roles under `rr` over two threads: thread 0 stores and flushes,
    /// thread 1 reads elsewhere and then fences, so the flush is ordered
    /// only by a foreign fence.
    struct ForeignFence;
    impl crate::ConcurrentWorkload for ForeignFence {
        fn name(&self) -> &str {
            "foreign-fence"
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
                Box::new(xfsched::OpSequence::new(vec![
                    Box::new(move |c: &mut PmCtx| {
                        c.read_u64(base + 256)?;
                        Ok(())
                    }),
                    Box::new(|c: &mut PmCtx| {
                        c.sfence();
                        Ok(())
                    }),
                ])),
            ]
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            let _ = ctx.read_u64(ctx.pool().base() + 128)?;
            Ok(())
        }
    }

    #[test]
    fn one_plan_concurrent_metrics_carry_the_final_stats() {
        let path = tmp("one-plan-metrics.json");
        std::fs::remove_file(&path).ok();
        let outcome = Session::builder()
            .config(XfConfig {
                threads: 2,
                ..XfConfig::default()
            })
            .metrics_out(&path)
            .build()
            .unwrap()
            .run_concurrent(ForeignFence, Mode::Batch)
            .unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(outcome.stats.schedules_explored, 1);
        assert!(
            outcome.stats.cross_thread_findings >= 1,
            "{}",
            outcome.report
        );
        assert!(raw.contains("\"schedules_explored\":1,"), "{raw}");
        let crossing = format!(
            "\"cross_thread_findings\":{},",
            outcome.stats.cross_thread_findings
        );
        assert!(raw.contains(&crossing), "{raw}");
    }

    #[test]
    fn metrics_serialization_failures_are_io_errors() {
        let cause = serde_json::Error::from(serde::Error::custom("unrepresentable"));
        let err = XfError::from(serialization_failed(cause));
        assert!(matches!(err, XfError::Io(_)), "{err:?}");
        assert_eq!(err.code(), 103);
        assert!(
            err.to_string().contains("metrics serialization failed"),
            "{err}"
        );
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
                    .config(XfConfig {
                        pruning: Pruning::Equivalence,
                        ..XfConfig::default()
                    })
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
            .config(XfConfig {
                threads: 2,
                ..XfConfig::default()
            })
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
            .config(XfConfig {
                threads: 2,
                schedule: spec,
                ..XfConfig::default()
            })
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
                .config(XfConfig {
                    threads: 2,
                    schedule: spec,
                    ..XfConfig::default()
                })
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
            .config(XfConfig {
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
            .class_cache(path)
            .build()
            .unwrap()
    }

    #[test]
    fn the_store_serves_unpruned_runs_and_the_fingerprint_binds_pruning() {
        let path = tmp("cache-unpruned.xfc");
        std::fs::remove_file(&path).ok();
        let mk = |pruning: Pruning| {
            Session::builder()
                .config(XfConfig {
                    pruning,
                    ..XfConfig::default()
                })
                .class_cache(&path)
                .build()
                .unwrap()
        };
        let cold = mk(Pruning::Off).run(Racy, Mode::Batch).unwrap();
        let warm = mk(Pruning::Off).run(Racy, Mode::Batch).unwrap();
        assert_eq!(warm.stats.post_runs, 0, "{:?}", warm.stats);
        assert_eq!(warm.stats.cache_hits, warm.stats.failure_points);
        assert_eq!(report_json(&cold), report_json(&warm));
        // A pruned run must not read an unpruned run's records.
        let pruned = mk(Pruning::Equivalence).run(Racy, Mode::Batch).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(pruned.stats.cache_hits, 0, "{:?}", pruned.stats);
        assert_eq!(report_json(&cold), report_json(&pruned));
    }

    #[test]
    fn second_run_is_served_warm_with_byte_identical_report() {
        let path = tmp("cache-batch.xfc");
        std::fs::remove_file(&path).ok();

        let reference = Session::builder()
            .config(XfConfig {
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
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
            .config(XfConfig {
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
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
            .config(XfConfig {
                first_read_only: false,
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
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
                .config(XfConfig {
                    pruning: Pruning::Equivalence,
                    ..XfConfig::default()
                })
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
                .config(XfConfig {
                    threads: 2,
                    schedule: spec,
                    pruning: Pruning::Equivalence,
                    ..XfConfig::default()
                })
                .class_cache(&path)
                .build()
                .unwrap()
        };
        let reference = Session::builder()
            .config(XfConfig {
                threads: 2,
                schedule: spec,
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
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
                .config(XfConfig {
                    pruning: Pruning::Equivalence,
                    post_budget: Some(Budget::default().with_max_trace_entries(4)),
                    ..XfConfig::default()
                })
                .class_cache(&path)
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
            Session::builder()
                .config(XfConfig {
                    threads: 0,
                    ..XfConfig::default()
                })
                .build(),
            Err(ConfigError::ZeroThreads)
        ));
        let spec: crate::ScheduleSpec = "exhaustive:16".parse().unwrap();
        assert!(matches!(
            Session::builder()
                .config(XfConfig {
                    threads: 4,
                    schedule: spec,
                    ..XfConfig::default()
                })
                .build(),
            Err(ConfigError::ScheduleTooLarge)
        ));
    }
}
