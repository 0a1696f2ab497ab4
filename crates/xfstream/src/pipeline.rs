//! The pipelined detection engine: frontend and backend as concurrent
//! stages coupled by the bounded trace FIFO.
//!
//! This is the reproduction of the paper's deployment shape (§5.1,
//! Figure 8): the *frontend* — workload execution, failure injection,
//! post-failure runs — produces trace batches, and the *backend* — shadow-PM
//! replay and cross-failure checking — consumes them from a bounded FIFO on
//! its own thread. Detection overlaps program execution; when the backend
//! falls behind, the FIFO fills and the frontend blocks (backpressure),
//! exactly like the paper's 2 GB shared-memory queue.
//!
//! The per-failure-point decision is the shared [`Planner`]'s, made on the
//! frontend. [`run_pipelined`] is report-equivalent to
//! [`xfdetector::XfDetector::run`]: batches arrive in program order and a
//! single backend thread owns the shadow PM and the report, so the findings
//! are pushed in exactly the batch driver's order — the serialized
//! [`DetectionReport`]s are byte-identical (enforced by the equivalence
//! tests).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::{EngineHook, OrderingPointInfo, PmCtx, PmPool};
use xfdetector::offline::{RecordedFailurePoint, RecordedRun};
use xfdetector::plan::{check, Plan, Planner};
use xfdetector::{
    DetectionReport, EngineError, FailurePoint, PostOutcome, RunCtl, RunOutcome, RunStats,
    ShadowPm, Workload, XfConfig,
};
use xftrace::{SourceLoc, TraceEntry};

use crate::spsc::{channel, Receiver, RingStats, Sender};

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
            capacity: xfdetector::DEFAULT_STREAM_CAPACITY,
        }
    }
}

/// One message through the trace FIFO, in program order.
enum Msg {
    /// Pre-failure entries produced since the previous message.
    Pre(Vec<TraceEntry>),
    /// A failure point: its identity, the post-failure trace it produced
    /// and how the post-failure execution ended. The trace is `Arc`-shared
    /// with the planner's representatives, so shipping a replay is a
    /// refcount bump instead of a clone of the whole entry vector.
    FailurePoint {
        fp: FailurePoint,
        post: Arc<[TraceEntry]>,
        outcome: PostOutcome,
    },
    /// A failure point elided on resume: the backend merges the journal's
    /// report delta verbatim instead of re-running anything.
    Journaled(FailurePoint),
}

/// The frontend half: runs on the workload thread as the ordering-point
/// hook, executing what the planner decides but handing every trace batch
/// to the backend instead of replaying it inline.
struct StreamFrontend<W> {
    tx: Sender<Msg>,
    planner: RefCell<Planner<(Arc<[TraceEntry]>, PostOutcome)>>,
    /// The authoritative shadow lives on the backend thread, so with
    /// pruning on the frontend keeps its own fingerprint replica, replaying
    /// each pre batch into it before shipping.
    fp_shadow: RefCell<ShadowPm>,
    /// Sink for the replica's pre-replay findings: the backend owns the
    /// real report; the replica's copy is discarded.
    fp_scratch: RefCell<DetectionReport>,
    config: XfConfig,
    workload: W,
}

impl<W: Workload> StreamFrontend<W> {
    /// Ships a message to the backend. A send only fails when the backend
    /// died mid-run; the join below surfaces its panic, so the error is
    /// swallowed here.
    fn ship(&self, msg: Msg) {
        let _ = self.tx.send(msg);
    }

    /// Hands the pre-failure entries produced since the last failure point
    /// to the backend (one batch per interval, as §5.4's incremental
    /// tracing batches them).
    fn ship_pre(&self, pre: Vec<TraceEntry>, stats: &mut RunStats) {
        stats.pre_entries += pre.len() as u64;
        if self.config.pruning.is_enabled() {
            let mut shadow = self.fp_shadow.borrow_mut();
            let mut scratch = self.fp_scratch.borrow_mut();
            for e in &pre {
                shadow.apply_pre(e, &mut scratch);
            }
        }
        if !pre.is_empty() {
            self.ship(Msg::Pre(pre));
        }
    }
}

impl<W: Workload> EngineHook for StreamFrontend<W> {
    fn on_ordering_point(&self, ctx: &mut PmCtx, loc: SourceLoc, info: OrderingPointInfo) {
        let mut planner = self.planner.borrow_mut();
        let Some(fp) = planner.gate(loc, info) else {
            return;
        };
        self.ship_pre(ctx.trace().drain(), planner.stats());

        // As in the batch driver: the capture counts as post-failure time,
        // the fingerprint does not.
        let fingerprinted = planner.stats().fingerprint_time;
        let t_post = Instant::now();
        let plan = planner.plan(ctx.pool(), fp.id, &mut self.fp_shadow.borrow_mut());
        let t_post = t_post + (planner.stats().fingerprint_time - fingerprinted);
        let (post, outcome) = match plan {
            Plan::Journaled => return self.ship(Msg::Journaled(fp)),
            Plan::Warm(_) => unreachable!("sessions reject the class cache in stream mode"),
            Plan::Replay(rep) => rep,
            Plan::Execute(exec) => {
                let mut post_ctx = ctx.fork_post_cow(&exec.image);
                let outcome = PostOutcome::execute(
                    &mut post_ctx,
                    self.config.post_budget.as_ref(),
                    self.config.catch_post_panics,
                    |c| self.workload.post_failure(c),
                );
                let post: Arc<[TraceEntry]> = post_ctx.trace().drain().into();
                planner.stats().snapshot_bytes_copied += post_ctx.pool().snapshot_bytes_copied();
                planner.executed(&outcome);
                planner.represent(exec, || (Arc::clone(&post), outcome.clone()));
                (post, outcome)
            }
        };
        let stats = planner.stats();
        stats.post_entries += post.len() as u64;
        stats.post_exec_time += t_post.elapsed();
        self.ship(Msg::FailurePoint { fp, post, outcome });
    }
}

/// What the backend thread hands back after draining the FIFO.
struct BackendResult {
    report: DetectionReport,
    recorded: Option<RecordedRun>,
    detect_time: Duration,
    shadow_bytes_cloned: u64,
    shadow_resident_bytes: u64,
    ring: RingStats,
}

/// The backend half: owns the shadow PM and the report, drains the FIFO
/// until the frontend hangs up. Single-threaded ownership of both is what
/// makes the report byte-identical to the batch driver's. It also owns the
/// journal side of the [`RunCtl`]: only the backend knows each failure
/// point's report delta.
fn backend_loop(
    rx: Receiver<Msg>,
    first_read_only: bool,
    record: bool,
    domain: pmem::PersistDomain,
    ctl: RunCtl,
) -> BackendResult {
    let mut shadow = ShadowPm::with_domain(domain);
    let mut report = DetectionReport::new();
    let mut recorded = record.then(|| RecordedRun {
        domain,
        ..RecordedRun::default()
    });
    let mut detect_time = Duration::ZERO;

    // Drain in batches: one wakeup (and one head-cursor release) can hand
    // over a whole run of messages when the backend lags, instead of one
    // synchronization round-trip per message.
    const DRAIN_BATCH: usize = 32;
    let mut batch_buf = Vec::with_capacity(DRAIN_BATCH);
    while rx.recv_batch(&mut batch_buf, DRAIN_BATCH) {
        for msg in batch_buf.drain(..) {
            match msg {
                Msg::Pre(batch) => {
                    for e in &batch {
                        shadow.apply_pre(e, &mut report);
                    }
                    if let Some(rec) = recorded.as_mut() {
                        rec.pre.extend(batch.into_iter().map(Into::into));
                    }
                }
                Msg::Journaled(fp) => {
                    if let Some(rec) = recorded.as_mut() {
                        rec.failure_points.push(RecordedFailurePoint::new(
                            rec.pre.len(),
                            fp.loc,
                            &[],
                        ));
                    }
                    for f in ctl.journaled(fp.id).iter().flat_map(|j| &j.findings) {
                        report.push(f.clone());
                    }
                }
                Msg::FailurePoint { fp, post, outcome } => {
                    if let Some(rec) = recorded.as_mut() {
                        rec.failure_points.push(RecordedFailurePoint::new(
                            rec.pre.len(),
                            fp.loc,
                            &post,
                        ));
                    }
                    let delta_start = report.findings().len();
                    let t_detect = Instant::now();
                    check(&shadow, first_read_only, fp, &post, &outcome, &mut report);
                    detect_time += t_detect.elapsed();
                    ctl.append_fp(fp.id, fp.loc, &report.findings()[delta_start..]);
                }
            }
        }
    }

    BackendResult {
        report,
        recorded,
        detect_time,
        shadow_bytes_cloned: shadow.bytes_cloned(),
        shadow_resident_bytes: shadow.resident_bytes(),
        ring: rx.stats(),
    }
}

/// Runs the full detection procedure with frontend and backend as
/// concurrent pipeline stages over a bounded trace FIFO.
///
/// Report-equivalent to [`xfdetector::XfDetector::run`] with the same
/// `config` — the serialized [`DetectionReport`]s are byte-identical — but
/// trace replay and checking overlap workload execution, and
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
/// Propagates a panic of the backend thread (which only panics on internal
/// invariant violations, never on workload behavior).
pub fn run_pipelined<W: Workload + 'static>(
    config: &XfConfig,
    workload: W,
    opts: &StreamOptions,
) -> Result<RunOutcome, EngineError> {
    run_pipelined_with_ctl(config, workload, opts, RunCtl::inert())
}

/// [`run_pipelined`] with an orchestration handle threaded through both
/// stages: the frontend honors the resume skip-set and drives the live
/// counters, the backend appends completed failure points to the journal.
/// This is the entry point `xfstream`'s [`StreamEngine`] implementation
/// uses; [`run_pipelined`] itself passes an inert handle.
///
/// [`StreamEngine`]: xfdetector::StreamEngine
///
/// # Errors
///
/// As [`run_pipelined`].
pub fn run_pipelined_with_ctl<W: Workload + 'static>(
    config: &XfConfig,
    workload: W,
    opts: &StreamOptions,
    ctl: RunCtl,
) -> Result<RunOutcome, EngineError> {
    let pool = PmPool::new(workload.pool_size()).map_err(EngineError::Pm)?;
    let mut ctx = PmCtx::new(pool);

    let t_start = Instant::now();
    workload
        .setup(&mut ctx)
        .map_err(|e| EngineError::Setup(e.to_string()))?;

    let first_read_only = config.first_read_only;
    let record_trace = config.record_trace;
    let domain = config.domain;
    let (pre_result, mut stats, backend) = std::thread::scope(|s| {
        let (tx, rx) = channel(opts.capacity);
        let backend_ctl = ctl.clone();
        let handle =
            s.spawn(move || backend_loop(rx, first_read_only, record_trace, domain, backend_ctl));

        let mut fp_shadow = ShadowPm::with_domain(config.domain);
        if config.pruning.is_enabled() {
            fp_shadow.enable_fingerprinting();
        }
        let frontend = Rc::new(StreamFrontend {
            tx,
            planner: RefCell::new(Planner::new(config, ctl)),
            fp_shadow: RefCell::new(fp_shadow),
            fp_scratch: RefCell::new(DetectionReport::new()),
            config: config.clone(),
            workload,
        });

        ctx.set_hook(Rc::clone(&frontend) as Rc<dyn EngineHook>);
        if config.fire_on_every_write {
            ctx.set_failure_point_on_writes(true);
        }
        let pre_result = frontend.workload.pre_failure(&mut ctx);
        if pre_result.is_ok() && config.inject_at_completion && !ctx.is_detection_complete() {
            ctx.add_failure_point_at(SourceLoc::synthetic("<completion>"));
        }
        ctx.clear_hook();

        // Ship any trailing pre-failure entries so tail-end performance
        // bugs are still reported (mirrors the batch driver).
        if pre_result.is_ok() {
            frontend.ship_pre(ctx.trace().drain(), frontend.planner.borrow_mut().stats());
        }

        // Dropping the frontend drops the Sender: the backend drains the
        // FIFO, observes end-of-stream and returns.
        let frontend = Rc::try_unwrap(frontend).ok().expect("the hook was cleared");
        let stats = frontend.planner.into_inner().finish();
        drop(frontend.tx);
        let backend = handle.join().expect("detection backend panicked");
        (pre_result, stats, backend)
    });
    pre_result.map_err(|e| EngineError::PreFailure(e.to_string()))?;

    stats.snapshot_bytes_copied += ctx.pool().snapshot_bytes_copied();
    stats.shadow_bytes_cloned = backend.shadow_bytes_cloned;
    stats.shadow_resident_bytes = backend.shadow_resident_bytes;
    stats.detect_time = backend.detect_time;
    stats.check_time = backend.detect_time;
    stats.stream_batches = backend.ring.sends;
    stats.stream_max_depth = backend.ring.max_depth;
    stats.stream_stall_time = backend.ring.producer_stall;
    stats.ring_spins = backend.ring.spins;
    stats.ring_parks = backend.ring.parks;
    stats.total_time = t_start.elapsed();

    Ok(RunOutcome {
        report: backend.report,
        stats,
        recorded: backend.recorded,
    })
}

/// The [`StreamEngine`] implementation backing [`Mode::Stream`] sessions:
/// dispatches to [`run_pipelined_with_ctl`]. Inject it with
/// [`SessionBuilder::stream_engine`] or use [`crate::session`], which
/// returns a builder with it pre-wired.
///
/// [`Mode::Stream`]: xfdetector::Mode::Stream
/// [`SessionBuilder::stream_engine`]: xfdetector::SessionBuilder::stream_engine
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelinedEngine;

impl xfdetector::StreamEngine for PipelinedEngine {
    fn run_stream(
        &self,
        config: &XfConfig,
        workload: Box<dyn Workload + Send + Sync>,
        capacity: usize,
        ctl: RunCtl,
    ) -> Result<RunOutcome, xfdetector::XfError> {
        run_pipelined_with_ctl(config, workload, &StreamOptions { capacity }, ctl)
            .map_err(xfdetector::XfError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfdetector::{BugKind, DynError, XfDetector};

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
        let cfg = XfConfig::default();
        let seq = XfDetector::new(cfg.clone()).run(Panicking).unwrap();
        let pipe = run_pipelined(&cfg, Panicking, &StreamOptions::default()).unwrap();
        assert_eq!(report_json(&seq), report_json(&pipe));
        assert!(pipe
            .report
            .findings()
            .iter()
            .any(|f| f.kind == BugKind::PostFailurePanic));
    }

    #[test]
    fn stream_sessions_run_through_the_engine_seam() {
        use xfdetector::Mode;
        let session = crate::session().build().unwrap();
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
        use xfdetector::Mode;
        let mut path = std::env::temp_dir();
        path.push(format!("xfstream-resume-{}.xfj", std::process::id()));
        std::fs::remove_file(&path).ok();

        let reference = crate::session()
            .build()
            .unwrap()
            .run(Flag { persist: false }, Mode::Stream)
            .unwrap();
        assert!(reference.stats.failure_points > 1);

        let killed = crate::session()
            .config(XfConfig {
                max_failure_points: Some(1),
                ..XfConfig::default()
            })
            .journal(&path)
            .build()
            .unwrap();
        killed.run(Flag { persist: false }, Mode::Stream).unwrap();

        let resumed = crate::session().resume(&path).build().unwrap();
        let outcome = resumed.run(Flag { persist: false }, Mode::Stream).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(outcome.stats.journal_skipped, 1, "{:?}", outcome.stats);
        assert_eq!(report_json(&reference), report_json(&outcome));
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
        let seq = xfdetector::XfDetector::new(cfg.clone())
            .run(Spinner)
            .unwrap();
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
