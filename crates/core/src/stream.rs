//! The stream driver, the paper's deployment shape (§5.1, Figure 8): the
//! frontend — workload execution, failure injection, post-failure runs —
//! and the checker — shadow-PM replay and cross-failure checking — run on
//! two threads joined by a bounded FIFO ([`crate::spsc`]: std's
//! `sync_channel` with a spinning consumer). Detection overlaps program
//! execution; when the checker falls behind, the FIFO fills and the
//! frontend blocks (backpressure), like the paper's 2 GB shared-memory
//! queue.
//!
//! The frontend and the checker are [`crate::detect`]'s; this module adds
//! the ring, the thread and the ring statistics. Messages arrive in
//! program order and one thread owns the shadow PM and the report, so
//! [`run_pipelined`]'s serialized [`DetectionReport`]s are byte-identical
//! to [`crate::XfDetector::run`]'s (enforced by the equivalence tests).

use std::sync::mpsc;
use std::thread::JoinHandle;

use pmem::CowImage;
use xftrace::TraceEntry;

use crate::detect::{self, Checked, Checker, Execution, Msg, Sink, Traced};
use crate::engine::{EngineError, RunOutcome, Workload, XfConfig};
use crate::plan::planner_shadow;
use crate::report::{DetectionReport, FailurePoint};
use crate::shadow::ShadowPm;
use crate::spsc::{channel, RingStats, Sender};
use crate::stats::RunStats;
use crate::xfrun::RunCtl;

/// Tuning knobs of the streaming pipeline.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// FIFO capacity in *batches* (one batch per failure-point interval),
    /// the analogue of the paper's FIFO size. Small values exercise
    /// backpressure; large values decouple the stages further.
    pub capacity: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            capacity: crate::DEFAULT_STREAM_CAPACITY,
        }
    }
}

/// Most applied pre-failure buffers on their way back from the checker
/// thread to the frontend. The frontend takes one per failure-point
/// interval and the checker returns one per applied interval, so a few
/// cover the FIFO's jitter; a full return path frees the buffer on the
/// checker thread instead, which bounds the memory the buffers pin.
const SPARES: usize = 4;

/// The frontend's end of the FIFO: the sink the stream driver hands the
/// detection loop. `finish` joins the checker. A frontend that unwinds
/// drops the sender first, so the checker drains the FIFO and ends on its
/// own.
struct Ring {
    tx: Sender<Msg>,
    /// The return path of the checker's applied pre-failure buffers (see
    /// [`Sink::spare`]). Neither side blocks on it.
    spares: mpsc::Receiver<Vec<TraceEntry>>,
    /// With pruning on, the planner fingerprints this replica of the
    /// checker's shadow, fed each pre batch before it ships. Its findings
    /// are discarded: the checker owns the report.
    replica: ShadowPm,
    pruning: bool,
    checker: JoinHandle<(Checked, RingStats)>,
}

impl Sink for Ring {
    type Rep = Execution;

    fn send(&mut self, msg: Msg) {
        if let (true, Msg::Pre(pre)) = (self.pruning, &msg) {
            let mut discarded = DetectionReport::new();
            for e in pre {
                self.replica.apply_pre(e, &mut discarded);
            }
        }
        // A send only fails when the checker died mid-run; `finish`
        // surfaces its panic, so the error is swallowed here.
        let _ = self.tx.send(msg);
    }

    fn spare(&mut self) -> Vec<TraceEntry> {
        self.spares.try_recv().unwrap_or_default()
    }

    fn fp_shadow(&mut self) -> &mut ShadowPm {
        &mut self.replica
    }

    fn execute(
        &mut self,
        fp: FailurePoint,
        _: &CowImage,
        run: impl FnOnce() -> Traced,
    ) -> Execution {
        detect::execute_inline(self, fp, run)
    }

    fn replay(&mut self, fp: FailurePoint, rep: Execution) {
        detect::replay_inline(self, fp, rep);
    }

    fn finish(self, mut stats: RunStats) -> RunOutcome {
        // Dropping the sender ends the stream: the checker drains the FIFO
        // and returns.
        drop(self.tx);
        let (checked, ring) = self.checker.join().expect("detection checker panicked");
        stats.stream_batches = ring.sends;
        stats.stream_max_depth = ring.max_depth;
        stats.stream_stall_time = ring.producer_stall;
        stats.ring_spins = ring.spins;
        stats.ring_parks = ring.parks;
        checked.stamp(stats)
    }
}

/// Runs the full detection procedure with frontend and checker as
/// concurrent pipeline stages over a bounded trace FIFO.
///
/// Report-equivalent to [`crate::XfDetector::run`] with the same `config`
/// — the serialized [`DetectionReport`]s are byte-identical — but trace
/// replay and checking overlap workload execution, and
/// [`RunStats::stream_batches`] / [`RunStats::stream_max_depth`] /
/// [`RunStats::stream_stall_time`] expose the FIFO's behavior.
///
/// # Errors
///
/// Returns [`EngineError`] if the pool cannot be created or the setup or
/// pre-failure stages fail, exactly like the sequential engine.
///
/// # Panics
///
/// Propagates a panic of the checker thread (which only panics on internal
/// invariant violations, never on workload behavior).
pub fn run_pipelined<W: Workload + 'static>(
    config: &XfConfig,
    workload: W,
    opts: &StreamOptions,
) -> Result<RunOutcome, EngineError> {
    run_with_ctl(config, workload, opts.capacity, RunCtl::inert())
}

/// [`run_pipelined`] with an orchestration handle threaded through both
/// stages: the frontend serves the post-trace store and drives the live
/// counters, the checker appends committed failure points to the store. [`crate::Session`] drives this for
/// [`crate::Mode::Stream`].
pub(crate) fn run_with_ctl<W: Workload + 'static>(
    config: &XfConfig,
    workload: W,
    capacity: usize,
    ctl: RunCtl,
) -> Result<RunOutcome, EngineError> {
    detect::run(config, workload, ctl.clone(), |_| {
        let (tx, rx) = channel(capacity);
        let (spare_tx, spares) = mpsc::sync_channel(SPARES);
        let checker_config = config.clone();
        // The checker's shadow and report are allocated and freed on its
        // thread, never on the frontend's heap: freeing them on the
        // frontend thread measurably slowed the set-up of later runs.
        let checker = std::thread::spawn(move || {
            let shadow = ShadowPm::with_domain(checker_config.domain);
            let mut checker = Checker::new(&checker_config, shadow, ctl);
            // Drain in batches: when the checker lags, one wait hands over
            // a whole run of messages.
            const DRAIN_BATCH: usize = 32;
            let mut batch = Vec::with_capacity(DRAIN_BATCH);
            while rx.recv_batch(&mut batch, DRAIN_BATCH) {
                for msg in batch.drain(..) {
                    checker.send(msg);
                    // Hand an applied pre-failure buffer back to the thread
                    // that allocated it, rather than free it here.
                    let spare = checker.spare();
                    if spare.capacity() > 0 {
                        let _ = spare_tx.try_send(spare);
                    }
                }
            }
            (checker.close(), rx.stats())
        });
        Ring {
            tx,
            spares,
            replica: planner_shadow(config),
            pruning: config.pruning.is_enabled(),
            checker,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BugKind, DynError, XfDetector};
    use pmem::PmCtx;

    /// The engine test's valid-flag workload: data at `base`, commit flag
    /// at `base + 64`; the buggy variant skips the data persist barrier.
    struct Flag {
        persist: bool,
    }

    impl Workload for Flag {
        fn name(&self) -> &str {
            "flag"
        }
        fn pool_size(&self) -> u64 {
            4096
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let a = ctx.pool().base();
            ctx.register_commit_var(a + 64, 8);
            ctx.write_u64(a, 1)?;
            if self.persist {
                ctx.persist_barrier(a, 8)?;
            }
            ctx.write_u64(a + 64, 1)?;
            ctx.persist_barrier(a + 64, 8)?;
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let a = ctx.pool().base();
            if ctx.read_u64(a + 64)? == 1 {
                let _ = ctx.read_u64(a)?;
            }
            Ok(())
        }
    }

    fn report_json(o: &RunOutcome) -> String {
        serde_json::to_string(&o.report).unwrap()
    }

    #[test]
    fn pipelined_report_is_byte_identical_to_sequential() {
        for persist in [false, true] {
            let cfg = XfConfig::default();
            let seq = XfDetector::new(cfg.clone()).run(Flag { persist }).unwrap();
            let pipe = run_pipelined(&cfg, Flag { persist }, &StreamOptions::default()).unwrap();
            assert_eq!(report_json(&seq), report_json(&pipe), "persist={persist}");
            assert_eq!(seq.stats.failure_points, pipe.stats.failure_points);
            assert_eq!(seq.stats.pre_entries, pipe.stats.pre_entries);
            assert_eq!(seq.stats.post_entries, pipe.stats.post_entries);
            assert!(pipe.stats.stream_batches > 0);
        }
    }

    #[test]
    fn capacity_one_exercises_backpressure_without_changing_the_report() {
        let cfg = XfConfig::default();
        let wide = run_pipelined(&cfg, Flag { persist: false }, &StreamOptions::default()).unwrap();
        let narrow = run_pipelined(
            &cfg,
            Flag { persist: false },
            &StreamOptions { capacity: 1 },
        )
        .unwrap();
        assert_eq!(report_json(&wide), report_json(&narrow));
        assert!(narrow.stats.stream_max_depth <= 1);
    }

    #[test]
    fn recorded_run_matches_the_sequential_recording() {
        let cfg = XfConfig {
            record_trace: true,
            ..XfConfig::default()
        };
        let seq = XfDetector::new(cfg.clone())
            .run(Flag { persist: false })
            .unwrap();
        let pipe = run_pipelined(&cfg, Flag { persist: false }, &StreamOptions::default()).unwrap();
        let json = |r: &RunOutcome| serde_json::to_string(r.recorded.as_ref().unwrap()).unwrap();
        assert_eq!(json(&seq), json(&pipe));
    }

    /// Failure-point intervals that alternate between longer than a
    /// reusable buffer may be and a single store, each store to an
    /// address of its own: reused buffers must carry no entry of an
    /// earlier interval into a later one.
    struct Alternating;

    /// Stores in a long interval.
    const LONG: u64 = crate::detect::SPARE_ENTRIES as u64 + 44;
    const ROUNDS: u64 = 6;

    impl Alternating {
        fn slot(ctx: &mut PmCtx, i: u64) -> u64 {
            ctx.pool().base() + 8 * i
        }
    }

    impl Workload for Alternating {
        fn name(&self) -> &str {
            "alternating"
        }
        fn pool_size(&self) -> u64 {
            8 * LONG * ROUNDS + 4096
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let mut next = 0;
            for round in 0..ROUNDS {
                let stores = if round % 2 == 0 { LONG } else { 1 };
                for _ in 0..stores {
                    let a = Self::slot(ctx, next);
                    ctx.write_u64(a, next + 1)?;
                    next += 1;
                }
                // Persists the interval's first store only: the rest are
                // races a recovery read can find.
                let a = Self::slot(ctx, next - stores);
                ctx.persist_barrier(a, 8)?;
            }
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            for i in [1, LONG - 1, LONG + 1, 2 * LONG] {
                let a = Self::slot(ctx, i);
                let _ = ctx.read_u64(a)?;
            }
            Ok(())
        }
    }

    #[test]
    fn reused_pre_buffers_never_carry_a_stale_entry() {
        use crate::Pruning;
        let mut reports = Vec::new();
        for pruning in [Pruning::Off, Pruning::Equivalence] {
            let modes = |record_trace| {
                let cfg = XfConfig {
                    record_trace,
                    pruning,
                    ..XfConfig::default()
                };
                let detector = XfDetector::new(cfg.clone());
                [
                    detector.run(Alternating).unwrap(),
                    run_pipelined(&cfg, Alternating, &StreamOptions::default()).unwrap(),
                    detector.run_parallel(Alternating, 2).unwrap(),
                ]
            };
            let runs = modes(true);
            let recorded = |o: &RunOutcome| serde_json::to_string(o.recorded.as_ref().unwrap());
            for run in &runs[1..] {
                assert_eq!(
                    recorded(&runs[0]).unwrap(),
                    recorded(run).unwrap(),
                    "{pruning:?}"
                );
            }
            // Without a recording the checker keeps buffers it did not
            // drain: every mode must still ship exactly the recorded
            // entries and report the same.
            let traced = runs[0].recorded.as_ref().unwrap().pre.len() as u64;
            for run in runs.iter().chain(&modes(false)) {
                assert_eq!(run.stats.pre_entries, traced, "{pruning:?}");
                assert_eq!(report_json(&runs[0]), report_json(run), "{pruning:?}");
            }
            // Every store is recorded once, in program order.
            let stores: Vec<u64> = runs[0]
                .recorded
                .as_ref()
                .unwrap()
                .pre
                .iter()
                .filter_map(|e| match e.op {
                    xftrace::Op::Write { addr, .. } => Some(addr),
                    _ => None,
                })
                .collect();
            let expected = (ROUNDS / 2) * (LONG + 1);
            assert_eq!(stores.len() as u64, expected, "{pruning:?}");
            assert!(stores.windows(2).all(|w| w[0] + 8 == w[1]), "{pruning:?}");
            assert!(!runs[0].report.findings().is_empty());
            reports.push(report_json(&runs[0]));
        }
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn post_failure_outcome_findings_survive_the_pipeline() {
        struct Panicking;
        impl Workload for Panicking {
            fn name(&self) -> &str {
                "panicking"
            }
            fn pool_size(&self) -> u64 {
                4096
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
                let a = ctx.pool().base();
                ctx.write_u64(a, 1)?;
                ctx.persist_barrier(a, 8)?;
                Ok(())
            }
            fn post_failure(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                panic!("segfault analogue");
            }
        }
        // Every driver quarantines a panicking recovery as a finding, so
        // all three produce the same report.
        let cfg = XfConfig::default();
        let seq = XfDetector::new(cfg.clone()).run(Panicking).unwrap();
        let pipe = run_pipelined(&cfg, Panicking, &StreamOptions::default()).unwrap();
        let par = XfDetector::new(cfg).run_parallel(Panicking, 2).unwrap();
        assert_eq!(report_json(&seq), report_json(&pipe));
        assert_eq!(report_json(&seq), report_json(&par));
        assert!(pipe
            .report
            .findings()
            .iter()
            .any(|f| f.kind == BugKind::PostFailurePanic));
    }

    #[test]
    fn stream_sessions_match_the_direct_pipeline() {
        use crate::Mode;
        let session = crate::Session::builder().build().unwrap();
        let via_session = session.run(Flag { persist: false }, Mode::Stream).unwrap();
        let direct = run_pipelined(
            &XfConfig::default(),
            Flag { persist: false },
            &StreamOptions::default(),
        )
        .unwrap();
        assert_eq!(report_json(&via_session), report_json(&direct));
    }

    #[test]
    fn stream_kill_and_resume_merge_to_byte_identical_report() {
        use crate::Mode;
        let mut path = std::env::temp_dir();
        path.push(format!("stream-resume-{}.xfj", std::process::id()));
        std::fs::remove_file(&path).ok();

        let reference = crate::Session::builder()
            .build()
            .unwrap()
            .run(Flag { persist: false }, Mode::Stream)
            .unwrap();
        assert!(reference.stats.failure_points > 1);

        let killed = crate::Session::builder()
            .config(XfConfig {
                max_failure_points: Some(1),
                ..XfConfig::default()
            })
            .journal(&path)
            .build()
            .unwrap();
        killed.run(Flag { persist: false }, Mode::Stream).unwrap();

        let resumed = crate::Session::builder().resume(&path).build().unwrap();
        let outcome = resumed.run(Flag { persist: false }, Mode::Stream).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(outcome.stats.cache_hits, 1, "{:?}", outcome.stats);
        assert_eq!(report_json(&reference), report_json(&outcome));
    }

    #[test]
    fn stream_mode_serves_the_class_cache() {
        use crate::{Mode, Pruning};
        let mut path = std::env::temp_dir();
        path.push(format!("stream-cache-{}.xfc", std::process::id()));
        std::fs::remove_file(&path).ok();

        let batch = crate::Session::builder()
            .config(XfConfig {
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
            .build()
            .unwrap()
            .run(Flag { persist: false }, Mode::Batch)
            .unwrap();
        let cached = || {
            crate::Session::builder()
                .config(XfConfig {
                    pruning: Pruning::Equivalence,
                    ..XfConfig::default()
                })
                .class_cache(&path)
                .build()
                .unwrap()
                .run(Flag { persist: false }, Mode::Stream)
                .unwrap()
        };
        let cold = cached();
        let warm = cached();
        std::fs::remove_file(&path).ok();

        assert_eq!(report_json(&cold), report_json(&batch));
        assert_eq!(report_json(&warm), report_json(&batch));
        assert_eq!(cold.stats.cache_hits, 0, "{:?}", cold.stats);
        assert!(cold.stats.post_runs > 0, "{:?}", cold.stats);
        assert!(warm.stats.cache_hits > 0, "{:?}", warm.stats);
        assert_eq!(warm.stats.post_runs, 0, "{:?}", warm.stats);
    }

    #[test]
    fn stream_budget_kill_matches_the_sequential_engine() {
        use pmem::Budget;
        struct Spinner;
        impl Workload for Spinner {
            fn name(&self) -> &str {
                "spinner"
            }
            fn pool_size(&self) -> u64 {
                4096
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
                let a = ctx.pool().base();
                ctx.write_u64(a, 1)?;
                ctx.persist_barrier(a, 8)?;
                Ok(())
            }
            fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
                let a = ctx.pool().base();
                while ctx.read_u64(a)? != u64::MAX {}
                unreachable!("the budget interrupts the recovery loop");
            }
        }
        let cfg = XfConfig {
            post_budget: Some(Budget::default().with_max_trace_entries(500)),
            ..XfConfig::default()
        };
        let seq = XfDetector::new(cfg.clone()).run(Spinner).unwrap();
        let pipe = run_pipelined(&cfg, Spinner, &StreamOptions::default()).unwrap();
        assert_eq!(report_json(&seq), report_json(&pipe));
        assert!(pipe.stats.budget_exceeded > 0);
        assert!(pipe
            .report
            .findings()
            .iter()
            .any(|f| f.kind == BugKind::BudgetExceeded));
    }

    #[test]
    fn pre_failure_errors_abort_like_the_sequential_engine() {
        struct Broken;
        impl Workload for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn pool_size(&self) -> u64 {
                4096
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
            fn pre_failure(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Err("pre blew up".into())
            }
            fn post_failure(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
        }
        let err = run_pipelined(&XfConfig::default(), Broken, &StreamOptions::default());
        assert!(matches!(err, Err(EngineError::PreFailure(_))));
    }
}
