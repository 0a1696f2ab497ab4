//! Structured run observability: live counters and exported metrics.
//!
//! The engines update an [`ObsHandle`] — a handful of shared atomic
//! counters — as failure points complete. The handle is cheap enough to
//! bump from the hot path, safe to read from another thread, and feeds
//! both the live progress callback ([`crate::SessionBuilder::on_progress`])
//! and the machine-readable [`RunMetrics`] JSON written at the end of a
//! run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::stats::RunStats;

#[derive(Debug, Default)]
struct ObsInner {
    failure_points_done: AtomicU64,
    post_runs: AtomicU64,
    images_deduped: AtomicU64,
    fps_pruned: AtomicU64,
    journal_skipped: AtomicU64,
    cache_hits: AtomicU64,
    budget_exceeded: AtomicU64,
}

/// Shared live counters of an in-flight detection run.
///
/// Cloning shares the underlying counters; every engine thread bumps the
/// same cells, and the progress ticker reads a coherent-enough
/// [`ObsCounts`] snapshot without stopping anyone.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Arc<ObsInner>,
}

impl ObsHandle {
    /// Creates a fresh handle with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A failure point finished (executed, deduplicated, or skipped).
    pub fn fp_done(&self) {
        self.inner
            .failure_points_done
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A post-failure execution actually ran.
    pub fn post_run(&self) {
        self.inner.post_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// A failure point was elided by crash-image deduplication.
    pub fn dedup_hit(&self) {
        self.inner.images_deduped.fetch_add(1, Ordering::Relaxed);
    }

    /// A failure point was elided by equivalence-class pruning (the
    /// representative's post-failure trace was replayed instead).
    pub fn prune_hit(&self) {
        self.inner.fps_pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// A failure point was elided by the resumed run journal.
    pub fn journal_skip(&self) {
        self.inner.journal_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// A failure point was served from the cross-run class cache.
    pub fn cache_hit(&self) {
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A post-failure execution was killed by the budget watchdog.
    pub fn budget_kill(&self) {
        self.inner.budget_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// A post-failure execution finished with `outcome`.
    pub(crate) fn executed(&self, outcome: &crate::PostOutcome) {
        self.post_run();
        if outcome.is_budget_kill() {
            self.budget_kill();
        }
        self.fp_done();
    }

    /// Reads the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> ObsCounts {
        ObsCounts {
            failure_points_done: self.inner.failure_points_done.load(Ordering::Relaxed),
            post_runs: self.inner.post_runs.load(Ordering::Relaxed),
            images_deduped: self.inner.images_deduped.load(Ordering::Relaxed),
            fps_pruned: self.inner.fps_pruned.load(Ordering::Relaxed),
            journal_skipped: self.inner.journal_skipped.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed),
            budget_exceeded: self.inner.budget_exceeded.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of the run counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ObsCounts {
    /// Failure points finished so far (executed + deduplicated + skipped).
    pub failure_points_done: u64,
    /// Post-failure executions actually performed.
    pub post_runs: u64,
    /// Failure points elided by crash-image deduplication.
    pub images_deduped: u64,
    /// Failure points elided by equivalence-class pruning.
    pub fps_pruned: u64,
    /// Failure points elided by the resumed run journal.
    pub journal_skipped: u64,
    /// Failure points served from the cross-run class cache.
    pub cache_hits: u64,
    /// Post-failure executions killed by the budget watchdog.
    pub budget_exceeded: u64,
}

impl ObsCounts {
    /// Fraction of finished failure points that were served from the dedup
    /// cache, in `[0, 1]`.
    #[must_use]
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.failure_points_done == 0 {
            return 0.0;
        }
        self.images_deduped as f64 / self.failure_points_done as f64
    }
}

/// A live progress report, delivered to the
/// [`SessionBuilder::on_progress`](crate::SessionBuilder::on_progress)
/// callback while a run is in flight.
#[derive(Debug, Clone)]
pub struct Progress {
    /// Current counter values.
    pub counts: ObsCounts,
    /// Expected failure-point total, when one is known: the configured
    /// `max_failure_points` cap, or the total recorded by the journal of
    /// the run being resumed.
    pub total_hint: Option<u64>,
    /// Wall-clock time since the run started.
    pub elapsed: Duration,
}

impl Progress {
    /// Estimated time to completion, extrapolated linearly from the pace
    /// so far. `None` without a total hint or before any progress.
    #[must_use]
    pub fn eta(&self) -> Option<Duration> {
        let total = self.total_hint?;
        let done = self.counts.failure_points_done;
        if done == 0 || total <= done {
            return None;
        }
        let per_fp = self.elapsed.as_secs_f64() / done as f64;
        Some(Duration::from_secs_f64(per_fp * (total - done) as f64))
    }
}

/// Wall-clock stage durations in milliseconds — the flattened, tool-friendly
/// view of the [`RunStats`] timers.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StageMillis {
    /// Total run wall-clock time.
    pub total: u64,
    /// Pre-failure execution (tracing frontend).
    pub pre_exec: u64,
    /// Summed post-failure executions.
    pub post_exec: u64,
    /// Backend trace replay / serial merge.
    pub detect: u64,
    /// Post-failure checking wherever it ran (workers or merge).
    pub check: u64,
    /// Streaming-frontend stall on the bounded trace FIFO.
    pub stream_stall: u64,
}

/// Machine-readable metrics of one detection run, exported as
/// `run_metrics.json` by [`Session`](crate::Session) when
/// [`SessionBuilder::metrics_out`](crate::SessionBuilder::metrics_out) is
/// set. The schema is additive: consumers must tolerate new fields.
#[derive(Debug, Clone, Serialize)]
pub struct RunMetrics {
    /// Schema version of this document.
    pub schema_version: u32,
    /// Workload name.
    pub workload: String,
    /// Execution mode (`"batch"`, `"parallel"`, `"stream"`).
    pub mode: String,
    /// Number of findings in the final report.
    pub findings: u64,
    /// Whether the report contains correctness bugs (races, semantic bugs
    /// or execution failures).
    pub has_correctness_bugs: bool,
    /// Stage durations, in milliseconds.
    pub stage_ms: StageMillis,
    /// Final counter values, worked out from `stats` (they equal the live
    /// counters' last reading).
    pub counts: ObsCounts,
    /// The full engine statistics, verbatim.
    pub stats: RunStats,
}

impl RunMetrics {
    /// Assembles metrics from a finished run.
    #[must_use]
    pub fn new(
        workload: &str,
        mode: &str,
        report_findings: u64,
        has_correctness_bugs: bool,
        stats: &RunStats,
    ) -> Self {
        let ms = |d: Duration| u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
        RunMetrics {
            schema_version: 1,
            workload: workload.to_owned(),
            mode: mode.to_owned(),
            findings: report_findings,
            has_correctness_bugs,
            stage_ms: StageMillis {
                total: ms(stats.total_time),
                pre_exec: ms(stats.pre_exec_time()),
                post_exec: ms(stats.post_exec_time),
                detect: ms(stats.detect_time),
                check: ms(stats.check_time),
                stream_stall: ms(stats.stream_stall_time),
            },
            counts: ObsCounts {
                failure_points_done: stats.failure_points,
                post_runs: stats.post_runs,
                images_deduped: stats.images_deduped,
                fps_pruned: stats.fps_pruned,
                journal_skipped: stats.journal_skipped,
                cache_hits: stats.cache_hits,
                budget_exceeded: stats.budget_exceeded,
            },
            stats: stats.clone(),
        }
    }
}

/// A run-relative clock for progress reports: engines don't carry the
/// start time, the session does.
#[derive(Debug, Clone)]
pub(crate) struct RunClock {
    started: Instant,
}

impl RunClock {
    pub(crate) fn start() -> Self {
        RunClock {
            started: Instant::now(),
        }
    }

    pub(crate) fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let obs = ObsHandle::new();
        obs.fp_done();
        obs.fp_done();
        obs.post_run();
        obs.dedup_hit();
        obs.prune_hit();
        obs.journal_skip();
        obs.cache_hit();
        obs.budget_kill();
        let c = obs.snapshot();
        assert_eq!(c.failure_points_done, 2);
        assert_eq!(c.post_runs, 1);
        assert_eq!(c.images_deduped, 1);
        assert_eq!(c.fps_pruned, 1);
        assert_eq!(c.journal_skipped, 1);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.budget_exceeded, 1);
        assert!((c.dedup_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn clones_share_counters() {
        let obs = ObsHandle::new();
        let clone = obs.clone();
        clone.fp_done();
        assert_eq!(obs.snapshot().failure_points_done, 1);
    }

    #[test]
    fn eta_extrapolates_linearly() {
        let p = Progress {
            counts: ObsCounts {
                failure_points_done: 10,
                ..ObsCounts::default()
            },
            total_hint: Some(30),
            elapsed: Duration::from_secs(5),
        };
        let eta = p.eta().unwrap();
        assert!((eta.as_secs_f64() - 10.0).abs() < 1e-6, "{eta:?}");
        assert_eq!(
            Progress {
                total_hint: None,
                ..p.clone()
            }
            .eta(),
            None
        );
    }

    #[test]
    fn metrics_serialize_with_schema_version() {
        let m = RunMetrics::new("w", "batch", 3, true, &RunStats::default());
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"schema_version\":1"), "{json}");
        assert!(json.contains("\"stage_ms\""), "{json}");
        assert!(json.contains("\"journal_skipped\""), "{json}");
    }
}
