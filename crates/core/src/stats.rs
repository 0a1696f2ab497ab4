//! Run statistics: the raw material for Figures 12 and 13.

use std::time::Duration;

use serde::Serialize;

/// Counters and timers collected during one detection run.
///
/// The wall-clock split mirrors Figure 12a: `post_exec_time` is the summed
/// duration of all post-failure executions, `detect_time` the summed trace
/// replay/checking time, and [`RunStats::pre_exec_time`] the remainder of
/// the total (the pre-failure execution including tracing, and the
/// pruning fingerprint, which [`RunStats::fingerprint_time`] breaks out).
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunStats {
    /// Ordering points observed in the pre-failure stage.
    pub ordering_points: u64,
    /// Failure points actually injected. Each one either executes its own
    /// post-failure run or is elided; see [`RunStats::accounting_holds`].
    pub failure_points: u64,
    /// Ordering points elided because no PM activity preceded them (§5.4
    /// optimization 2).
    pub skipped_empty: u64,
    /// Post-failure executions actually performed. Every other failure
    /// point was elided by image deduplication, pruning, the resume journal
    /// or the cross-run class cache ([`RunStats::accounting_holds`]).
    pub post_runs: u64,
    /// Failure points whose crash image was byte-identical to one already
    /// explored: the post-failure execution was skipped and the cached
    /// trace replayed at the new failure point instead.
    pub images_deduped: u64,
    /// Failure points skipped because a resumed run journal already
    /// recorded their completion (their journaled findings were merged
    /// verbatim instead of re-exploring).
    pub journal_skipped: u64,
    /// Failure points served from the cross-run class cache
    /// ([`SessionBuilder::class_cache`]): a previous run of the same
    /// program and configuration already executed a representative of the
    /// failure point's equivalence class, and its persisted trace was
    /// replayed against this failure point's own shadow checkpoint instead
    /// of executing anything.
    ///
    /// [`SessionBuilder::class_cache`]: crate::SessionBuilder::class_cache
    pub cache_hits: u64,
    /// Cross-run cache lookups that found no warm class (the failure point
    /// proceeded through the normal execute/dedup/prune path). Zero when
    /// no cache is armed.
    pub cache_misses: u64,
    /// Equivalence classes loaded warm from the cache file at open (zero
    /// on a cold start or header mismatch).
    pub cache_classes_loaded: u64,
    /// Bytes of cache file consumed at open.
    pub cache_bytes: u64,
    /// Distinct persistence-state equivalence classes observed when pruning
    /// is enabled ([`Pruning`]); zero with pruning off.
    ///
    /// [`Pruning`]: crate::Pruning
    pub classes_total: u64,
    /// Failure points whose post-failure execution was skipped because an
    /// earlier member of their equivalence class already executed (the
    /// representative's trace was replayed against this failure point's own
    /// shadow checkpoint instead).
    pub fps_pruned: u64,
    /// Failure points per executed post-failure run,
    /// `failure_points / post_runs` — the execution-reduction factor the
    /// pruning layer (plus image deduplication) achieved. `1.0` when
    /// nothing was pruned or nothing ran.
    pub pruning_ratio: f64,
    /// Post-failure executions killed by the execution budget watchdog
    /// (each also surfaces as a [`BugKind::BudgetExceeded`] finding).
    ///
    /// [`BugKind::BudgetExceeded`]: crate::BugKind::BudgetExceeded
    pub budget_exceeded: u64,
    /// Bytes copied for snapshot bookkeeping across the run: crash-image
    /// capture, post-failure pool forking, and copy-on-write line faults.
    /// The seed engine copied `3 × pool_size` per failure point; the COW
    /// engine copies proportionally to the lines actually written.
    pub snapshot_bytes_copied: u64,
    /// Pre-failure trace entries replayed into the shadow PM.
    pub pre_entries: u64,
    /// Post-failure trace entries replayed across all failure points.
    pub post_entries: u64,
    /// Shadow-PM bytes deep-copied by copy-on-write faults: pre-failure
    /// replay mutating a line slab still shared with a live failure-point
    /// checkpoint. The seed shadow cloned its whole per-byte map at every
    /// failure point; the line-slab shadow only faults touched lines, so
    /// this grows sub-linearly in failure-point count.
    pub shadow_bytes_cloned: u64,
    /// Approximate resident size of the shadow PM at the end of the run —
    /// the per-failure-point cost a deep-copying checkpoint would pay.
    pub shadow_resident_bytes: u64,
    /// Failure points whose post-failure replay + checking ran inside a
    /// worker thread instead of the workload thread (zero for sequential and
    /// streaming runs).
    pub checks_parallelized: u64,
    /// Failure points whose post-failure replay the checking filter
    /// skipped: no byte the trace reads could yield a finding against the
    /// failure point's shadow state, so only the outcome finding was
    /// reported. Summed over every thread that checks (the workload
    /// thread, the stream checker thread and parallel workers); at most
    /// `failure_points`.
    pub checks_elided: u64,
    /// Batches handed from the streaming frontend to the detection backend
    /// through the bounded trace FIFO (zero outside
    /// [`crate::run_pipelined`]).
    pub stream_batches: u64,
    /// High-water occupancy of the trace FIFO, in batches, at most its
    /// capacity. The checker counts a batch after taking it, so the
    /// reading can run ahead of the true occupancy.
    pub stream_max_depth: u64,
    /// Time the streaming frontend spent blocked on a full trace FIFO —
    /// the backpressure the paper's 2 GB shared-memory FIFO exerts on the
    /// traced program when detection falls behind (§5.1).
    pub stream_stall_time: Duration,
    /// `try_recv` iterations the stream driver's checker spun on an empty
    /// trace FIFO before blocking.
    pub ring_spins: u64,
    /// Times a side of the trace FIFO blocked: the frontend on a full
    /// FIFO, or the checker on an empty one after its spin budget ran out.
    pub ring_parks: u64,
    /// Concrete schedule plans explored by a concurrent run
    /// ([`Session::run_concurrent`]): 1 for `rr`/`seed:N`, `threads^K` for
    /// `exhaustive:K`, and 0 for plain single-workload runs.
    ///
    /// [`Session::run_concurrent`]: crate::Session::run_concurrent
    pub schedules_explored: u64,
    /// Findings whose kind is cross-thread
    /// ([`BugKind::CrossThreadRace`]/[`BugKind::CrossThreadSemantic`]) in
    /// the final merged report — the bugs only a multi-threaded schedule
    /// can expose.
    ///
    /// [`BugKind::CrossThreadRace`]: crate::BugKind::CrossThreadRace
    /// [`BugKind::CrossThreadSemantic`]: crate::BugKind::CrossThreadSemantic
    pub cross_thread_findings: u64,
    /// Total wall-clock time of the detection run.
    pub total_time: Duration,
    /// Summed wall-clock time of post-failure executions, including the
    /// crash-image capture (as in Figure 12a) but not the fingerprint.
    pub post_exec_time: Duration,
    /// Summed wall-clock time of backend trace replay and checking. For
    /// parallel runs this is the checking left on the workload thread, not
    /// the workers' checking time (which `check_time` adds).
    pub detect_time: Duration,
    /// Summed wall-clock time of post-failure trace checking across all
    /// failure points, wherever it ran (worker threads or the merge
    /// stage). For sequential runs this equals `detect_time`'s checking
    /// component; comparing it against `detect_time` shows how much
    /// checking left the critical path.
    pub check_time: Duration,
    /// Summed wall-clock time of the persistence fingerprints that key the
    /// pruning classes (zero with pruning off). It includes re-deriving the
    /// records of the lines mutated since the previous query, which the
    /// shadow defers from the replay to the query, as well as the fold. It
    /// is part of [`RunStats::pre_exec_time`]'s remainder, not of
    /// `post_exec_time`. Not serialized: the `RunMetrics` schema predates
    /// it.
    #[serde(skip)]
    pub fingerprint_time: Duration,
}

impl RunStats {
    /// Wall-clock time attributable to the pre-failure execution: the total
    /// minus post-failure execution and detection.
    #[must_use]
    pub fn pre_exec_time(&self) -> Duration {
        self.total_time
            .saturating_sub(self.post_exec_time)
            .saturating_sub(self.detect_time)
    }

    /// Fraction of the total time spent in post-failure executions plus
    /// detection, in `[0, 1]` (Figure 12a shows this dominating).
    #[must_use]
    pub fn post_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        (self.post_exec_time + self.detect_time).as_secs_f64() / self.total_time.as_secs_f64()
    }

    /// The failure-point accounting identity: every failure point either
    /// executed or was elided by exactly one mechanism,
    /// `post_runs + images_deduped + fps_pruned + journal_skipped +
    /// cache_hits == failure_points`.
    #[must_use]
    pub fn accounting_holds(&self) -> bool {
        self.post_runs
            + self.images_deduped
            + self.fps_pruned
            + self.journal_skipped
            + self.cache_hits
            == self.failure_points
    }

    /// Fills the pruning counters and derives [`RunStats::pruning_ratio`]
    /// from the final `failure_points`/`post_runs` split. Engines call this
    /// once at the end of a run.
    pub fn finish_pruning(&mut self, classes_total: u64, fps_pruned: u64) {
        self.classes_total = classes_total;
        self.fps_pruned = fps_pruned;
        self.pruning_ratio = if self.post_runs == 0 {
            1.0
        } else {
            self.failure_points as f64 / self.post_runs as f64
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_exec_time_is_the_remainder() {
        let s = RunStats {
            total_time: Duration::from_millis(100),
            post_exec_time: Duration::from_millis(60),
            detect_time: Duration::from_millis(15),
            ..RunStats::default()
        };
        assert_eq!(s.pre_exec_time(), Duration::from_millis(25));
        assert!((s.post_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn saturates_rather_than_panicking() {
        let s = RunStats {
            total_time: Duration::from_millis(10),
            post_exec_time: Duration::from_millis(60),
            ..RunStats::default()
        };
        assert_eq!(s.pre_exec_time(), Duration::ZERO);
    }

    #[test]
    fn zero_total_has_zero_post_fraction() {
        let s = RunStats::default();
        assert_eq!(s.post_fraction(), 0.0);
    }

    #[test]
    fn serializes_to_json() {
        let s = RunStats::default();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("failure_points"), "{json}");
        assert!(json.contains("images_deduped"), "{json}");
        assert!(json.contains("snapshot_bytes_copied"), "{json}");
        assert!(json.contains("shadow_bytes_cloned"), "{json}");
        assert!(json.contains("checks_parallelized"), "{json}");
        assert!(json.contains("checks_elided"), "{json}");
        assert!(json.contains("check_time"), "{json}");
        assert!(json.contains("stream_batches"), "{json}");
        assert!(json.contains("stream_stall_time"), "{json}");
        assert!(json.contains("classes_total"), "{json}");
        assert!(json.contains("fps_pruned"), "{json}");
        assert!(json.contains("pruning_ratio"), "{json}");
        assert!(json.contains("ring_spins"), "{json}");
        assert!(json.contains("ring_parks"), "{json}");
        assert!(json.contains("schedules_explored"), "{json}");
        assert!(json.contains("cross_thread_findings"), "{json}");
        assert!(json.contains("cache_hits"), "{json}");
        assert!(json.contains("cache_misses"), "{json}");
        assert!(json.contains("cache_classes_loaded"), "{json}");
        assert!(json.contains("cache_bytes"), "{json}");
    }

    #[test]
    fn accounting_counts_every_elision_once() {
        let s = RunStats {
            failure_points: 10,
            post_runs: 3,
            images_deduped: 1,
            fps_pruned: 2,
            journal_skipped: 1,
            cache_hits: 3,
            ..RunStats::default()
        };
        assert!(s.accounting_holds());
        let short = RunStats { cache_hits: 2, ..s };
        assert!(!short.accounting_holds());
    }

    #[test]
    fn finish_pruning_derives_the_ratio() {
        let mut s = RunStats {
            failure_points: 100,
            post_runs: 20,
            ..RunStats::default()
        };
        s.finish_pruning(20, 80);
        assert_eq!(s.classes_total, 20);
        assert_eq!(s.fps_pruned, 80);
        assert!((s.pruning_ratio - 5.0).abs() < 1e-9);

        let mut idle = RunStats::default();
        idle.finish_pruning(0, 0);
        assert_eq!(idle.pruning_ratio, 1.0, "no runs → neutral ratio");
    }
}
