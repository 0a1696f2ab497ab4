//! The detection loop every driver shares: a tracing frontend and a
//! checking backend joined by a message stream (§5.1, Figure 8).
//!
//! The frontend is the ordering-point hook [`run`] installs: it ships the
//! new pre-failure entries, plans the failure point, then serves it from
//! the post-trace store, replays or executes it, and hands every result to
//! a [`Sink`]. The [`Checker`] owns the shadow PM, the report, the
//! recording, the store appends and the checking time. It splits each
//! [`Msg`] into *finding* (against the shadow as of the message) and
//! *committing* (to the report, in program order), so the report does not
//! depend on where or when the finding ran (§5.5).
//!
//! There are three sinks. The batch driver uses the checker itself. The
//! stream driver ([`crate::run_pipelined`]) sends the messages over a ring
//! to a checker thread. The parallel driver ([`crate::XfDetector::run_parallel`])
//! queues each failure point that must execute to a worker pool (§6.2.1)
//! and commits the workers' findings in order. Only [`Sink::execute`]
//! tells them apart: the batch and stream sinks run the post-failure stage
//! inline, the pool ships it.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::{CowImage, EngineHook, OrderingPointInfo, PmCtx};
use xftrace::{SourceLoc, TraceEntry};

use crate::engine::{EngineError, RunOutcome, Workload, XfConfig};
use crate::offline::{RecordedFailurePoint, RecordedRun};
use crate::plan::{check, pre_failure, setup, Plan, Planner, PostOutcome, PostTrace};
use crate::report::{DetectionReport, FailurePoint};
use crate::shadow::ShadowPm;
use crate::stats::RunStats;
use crate::xfrun::RunCtl;

/// A post-failure trace (shared with the planner and the post-trace store,
/// so a replay ships a refcount) and how its execution ended.
pub type Traced = (Arc<PostTrace>, PostOutcome);

/// What an inline sink keeps of an execution: the executing failure
/// point's id and its trace.
pub type Execution = (u64, Traced);

/// Where a failure point's post-failure trace came from. It decides what
/// the post-trace store records for the failure point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// The post-failure stage ran at this failure point.
    Executed,
    /// The trace executed at the failure point with this id stands in (a
    /// pruned class member or a deduplicated crash image).
    Replayed(u64),
    /// The post-trace store served the trace of an earlier run.
    Stored,
}

/// One message from the frontend to the checker, in program order.
#[derive(Debug)]
pub enum Msg {
    /// Pre-failure entries produced since the previous message.
    Pre(Vec<TraceEntry>),
    /// A failure point, its post-failure trace and its outcome.
    FailurePoint {
        /// The failure point.
        fp: FailurePoint,
        /// The post-failure trace and how its execution ended.
        traced: Traced,
        /// Where the trace came from.
        origin: Origin,
    },
}

/// Most entries a pre-failure buffer may hold room for and still be
/// reused by [`Sink::spare`]. One failure-point interval of the shipped
/// programs traces well under this, so their buffers never regrow; a
/// longer interval's buffer is freed instead of pinning its size.
pub(crate) const SPARE_ENTRIES: usize = 256;

/// Where the frontend hands its work: the [`Checker`] itself, a ring to a
/// checker on another thread, or the parallel driver's worker pool.
pub trait Sink {
    /// What the planner keeps of an executed failure point, for the later
    /// failure points that replay its trace.
    type Rep: Clone;

    /// Hands `msg` to the checker.
    fn send(&mut self, msg: Msg);

    /// The buffer of an applied [`Msg::Pre`] for the trace to record the
    /// next interval into (see `TraceBuf::drain_into`, which clears it),
    /// or an unallocated one when none is back yet.
    fn spare(&mut self) -> Vec<TraceEntry>;

    /// The shadow the planner fingerprints. It must hold every pre-failure
    /// entry sent so far.
    fn fp_shadow(&mut self) -> &mut ShadowPm;

    /// Failure point `fp` must execute on the crash `image`. An inline
    /// sink calls `run`, which executes it on the workload thread, and
    /// checks the result; the pool queues a job instead.
    fn execute(
        &mut self,
        fp: FailurePoint,
        image: &CowImage,
        run: impl FnOnce() -> Traced,
    ) -> Self::Rep;

    /// Failure point `fp` replays the trace of the execution `rep`.
    fn replay(&mut self, fp: FailurePoint, rep: Self::Rep);

    /// Whether a post-failure run the frontend does not share a context
    /// with has requested `completeDetection` (Table 2). Inline sinks run
    /// the post-failure stage on a fork of the frontend's context, which
    /// shares its flag, so only the pool overrides this.
    fn detection_complete(&self) -> bool {
        false
    }

    /// Ends the stream once every message is checked: the outcome, with
    /// the checker's counters added to the frontend's `stats`.
    fn finish(self, stats: RunStats) -> RunOutcome;
}

/// [`Sink::execute`] for the sinks that execute inline: run, then check
/// the result as an execution at `fp`.
pub(crate) fn execute_inline<S: Sink>(
    sink: &mut S,
    fp: FailurePoint,
    run: impl FnOnce() -> Traced,
) -> Execution {
    let traced = run();
    let origin = Origin::Executed;
    sink.send(Msg::FailurePoint {
        fp,
        traced: traced.clone(),
        origin,
    });
    (fp.id, traced)
}

/// [`Sink::replay`] for the sinks that execute inline.
pub(crate) fn replay_inline<S: Sink>(sink: &mut S, fp: FailurePoint, (src, traced): Execution) {
    let origin = Origin::Replayed(src);
    sink.send(Msg::FailurePoint { fp, traced, origin });
}

/// The checking backend (Figure 8b): replays pre-failure entries into the
/// shadow PM and checks each post-failure trace against it.
#[derive(Debug)]
pub struct Checker {
    shadow: ShadowPm,
    report: DetectionReport,
    recorded: Option<RecordedRun>,
    /// The buffer of the last committed [`Msg::Pre`], if it holds room for
    /// at most [`SPARE_ENTRIES`]. It keeps its entries until the trace
    /// drains into it, which clears it first.
    spare: Vec<TraceEntry>,
    first_read_only: bool,
    ctl: RunCtl,
    detect_time: Duration,
    post_entries: u64,
    checks_elided: u64,
}

impl Checker {
    /// A checker for a run under `config` on `shadow`. It appends each
    /// committed failure point to `ctl`'s post-trace store, in program
    /// order.
    #[must_use]
    pub fn new(config: &XfConfig, shadow: ShadowPm, ctl: RunCtl) -> Self {
        Checker {
            shadow,
            report: DetectionReport::new(),
            recorded: config.record_trace.then(|| RecordedRun {
                domain: config.domain,
                ..RecordedRun::default()
            }),
            spare: Vec::new(),
            first_read_only: config.first_read_only,
            ctl,
            detect_time: Duration::ZERO,
            post_entries: 0,
            checks_elided: 0,
        }
    }

    /// The findings of `msg` against the shadow as of the message: a
    /// pre-failure message advances the shadow, a failure point is checked
    /// against it.
    pub fn find(&mut self, msg: &Msg) -> DetectionReport {
        let mut found = DetectionReport::new();
        match msg {
            Msg::Pre(pre) => {
                for e in pre {
                    self.shadow.apply_pre(e, &mut found);
                }
            }
            Msg::FailurePoint { fp, traced, .. } => {
                return self.check(None, *fp, &traced.0, &traced.1)
            }
        }
        found
    }

    /// The findings of failure point `fp` against `shadow`, or against the
    /// checker's own shadow when `None`.
    pub fn check(
        &mut self,
        shadow: Option<&ShadowPm>,
        fp: FailurePoint,
        post: &PostTrace,
        outcome: &PostOutcome,
    ) -> DetectionReport {
        let t_detect = Instant::now();
        let mut found = DetectionReport::new();
        let shadow = shadow.unwrap_or(&self.shadow);
        let elided = check(shadow, self.first_read_only, fp, post, outcome, &mut found);
        self.checks_elided += u64::from(elided);
        self.detect_time += t_detect.elapsed();
        found
    }

    /// Commits `msg` and its findings `found` to the report, in program
    /// order, and records it and appends it to the post-trace store.
    pub fn commit(&mut self, msg: Msg, found: DetectionReport) {
        for f in found.into_findings() {
            self.report.push(f);
        }
        match msg {
            Msg::Pre(mut pre) => {
                if let Some(rec) = self.recorded.as_mut() {
                    rec.pre.extend(pre.drain(..).map(Into::into));
                }
                if pre.capacity() <= SPARE_ENTRIES {
                    self.spare = pre;
                }
            }
            Msg::FailurePoint { fp, traced, origin } => {
                let post = traced.0.entries();
                if let Some(rec) = self.recorded.as_mut() {
                    rec.failure_points
                        .push(RecordedFailurePoint::new(rec.pre.len(), fp.loc, post));
                }
                self.post_entries += post.len() as u64;
                self.ctl.append(fp, origin, &traced);
            }
        }
    }

    /// Ends the checker. Its shadow is freed on the calling thread, so a
    /// checker on a thread of its own should be closed there.
    #[must_use]
    pub fn close(self) -> Checked {
        Checked {
            shadow_bytes_cloned: self.shadow.bytes_cloned(),
            shadow_resident_bytes: self.shadow.resident_bytes(),
            detect_time: self.detect_time,
            post_entries: self.post_entries,
            checks_elided: self.checks_elided,
            report: self.report,
            recorded: self.recorded,
        }
    }
}

impl Sink for Checker {
    type Rep = Execution;

    fn send(&mut self, msg: Msg) {
        let found = self.find(&msg);
        self.commit(msg, found);
    }

    fn spare(&mut self) -> Vec<TraceEntry> {
        std::mem::take(&mut self.spare)
    }

    fn fp_shadow(&mut self) -> &mut ShadowPm {
        &mut self.shadow
    }

    fn execute(
        &mut self,
        fp: FailurePoint,
        _: &CowImage,
        run: impl FnOnce() -> Traced,
    ) -> Execution {
        execute_inline(self, fp, run)
    }

    fn replay(&mut self, fp: FailurePoint, rep: Execution) {
        replay_inline(self, fp, rep);
    }

    fn finish(self, stats: RunStats) -> RunOutcome {
        self.close().stamp(stats)
    }
}

/// A closed [`Checker`]: its report, its recording and its counters.
#[derive(Debug)]
pub struct Checked {
    report: DetectionReport,
    recorded: Option<RecordedRun>,
    shadow_bytes_cloned: u64,
    shadow_resident_bytes: u64,
    detect_time: Duration,
    post_entries: u64,
    checks_elided: u64,
}

impl Checked {
    /// The run's outcome: the report, the recording, and `stats` with the
    /// checker's counters written in.
    pub fn stamp(self, mut stats: RunStats) -> RunOutcome {
        stats.shadow_bytes_cloned = self.shadow_bytes_cloned;
        stats.shadow_resident_bytes = self.shadow_resident_bytes;
        stats.post_entries = self.post_entries;
        // A pool adds its workers' elisions.
        stats.checks_elided = self.checks_elided;
        // `detect_time` is the checker's own checking time; a pool adds
        // its workers' share to `check_time`.
        stats.detect_time = self.detect_time;
        stats.check_time = self.detect_time;
        RunOutcome {
            report: self.report,
            stats,
            recorded: self.recorded,
        }
    }
}

/// The frontend, installed as the ordering-point hook on the workload
/// thread.
struct Frontend<W, S: Sink> {
    planner: RefCell<Planner<S::Rep>>,
    sink: RefCell<S>,
    config: XfConfig,
    ctl: RunCtl,
    workload: Arc<W>,
}

/// Ships the pre-failure entries produced since the last failure point
/// (§5.4: incremental tracing). The trace records on into a spare buffer
/// of the sink's, so the frontend does not grow a new one per interval.
fn ship_pre<S: Sink>(sink: &mut S, ctx: &mut PmCtx, stats: &mut RunStats) {
    if ctx.trace().is_empty() {
        return;
    }
    let pre = ctx.trace().drain_into(sink.spare());
    stats.pre_entries += pre.len() as u64;
    sink.send(Msg::Pre(pre));
}

impl<W: Workload, S: Sink> EngineHook for Frontend<W, S> {
    fn on_ordering_point(&self, ctx: &mut PmCtx, loc: SourceLoc, info: OrderingPointInfo) {
        if self.sink.borrow().detection_complete() {
            // Raised on the frontend's own flag, it stops every later
            // failure point, the `<completion>` one included.
            ctx.complete_detection();
            return;
        }
        let mut planner = self.planner.borrow_mut();
        let Some(fp) = planner.gate(loc, info) else {
            return;
        };
        let mut sink = self.sink.borrow_mut();
        ship_pre(&mut *sink, ctx, planner.stats());

        // Suspend / snapshot the PM image / spawn the post-failure
        // execution (Figure 8a steps ②–⑤), unless the planner elides it.
        // The capture is part of the post-failure cost, as in the paper's
        // breakdown (Figure 12a); the fingerprint is not.
        let fingerprinted = planner.stats().fingerprint_time;
        let t_capture = Instant::now();
        let plan = planner.plan(ctx.pool(), fp.id, sink.fp_shadow());
        let stats = planner.stats();
        stats.post_exec_time += t_capture
            .elapsed()
            .saturating_sub(stats.fingerprint_time - fingerprinted);
        match plan {
            Plan::Warm(id) => {
                let traced = self.ctl.stored(id).expect("planned from the store").clone();
                if traced.0.completes() {
                    // The run that stored the trace stopped here.
                    ctx.complete_detection();
                }
                let origin = Origin::Stored;
                sink.send(Msg::FailurePoint { fp, traced, origin });
            }
            Plan::Replay(rep) => sink.replay(fp, rep),
            Plan::Execute(exec) => {
                let rep = sink.execute(fp, &exec.image, || {
                    let t_exec = Instant::now();
                    let mut post_ctx = ctx.fork_post_cow(&exec.image);
                    let outcome = PostOutcome::execute(
                        &mut post_ctx,
                        self.config.post_budget.as_ref(),
                        |c| self.workload.post_failure(c),
                    );
                    let entries = post_ctx.trace().drain();
                    let post = Arc::new(PostTrace::new(entries, post_ctx.is_detection_complete()));
                    planner.executed(&outcome);
                    let stats = planner.stats();
                    stats.snapshot_bytes_copied += post_ctx.pool().snapshot_bytes_copied();
                    stats.post_exec_time += t_exec.elapsed();
                    (post, outcome)
                });
                planner.represent(exec, || rep);
            }
        }
    }
}

/// Runs the full detection procedure against `workload`, handing every
/// failure point to the sink `open` returns once setup has succeeded.
/// `open` gets the shared workload, for sinks that execute it elsewhere.
///
/// # Errors
///
/// [`EngineError`] if the pool cannot be created or the setup or
/// pre-failure stage fails. A pre-failure failure finishes the sink first,
/// so a checker thread or worker pool has ended by the time the error
/// returns.
pub fn run<W, S>(
    config: &XfConfig,
    workload: W,
    ctl: RunCtl,
    open: impl FnOnce(&Arc<W>) -> S,
) -> Result<RunOutcome, EngineError>
where
    W: Workload + 'static,
    S: Sink + 'static,
{
    let (mut ctx, t_start) = setup(&workload)?;
    let workload = Arc::new(workload);
    let frontend = Rc::new(Frontend {
        planner: RefCell::new(Planner::new(config, ctl.clone())),
        sink: RefCell::new(open(&workload)),
        config: config.clone(),
        ctl,
        workload,
    });
    let pre_result = pre_failure(&mut ctx, config, frontend.clone(), &*frontend.workload);

    let frontend = Rc::try_unwrap(frontend).ok().expect("the hook was cleared");
    let mut planner = frontend.planner.into_inner();
    let mut sink = frontend.sink.into_inner();
    if pre_result.is_ok() {
        // Trailing pre-failure entries: tail-end performance bugs are
        // still reported.
        ship_pre(&mut sink, &mut ctx, planner.stats());
    }
    let mut stats = planner.finish();
    // The post-failure pools were accounted as they ran; the pre-failure
    // pool's copying (image capture + COW faults) is read off at the end.
    stats.snapshot_bytes_copied += ctx.pool().snapshot_bytes_copied();
    let mut outcome = sink.finish(stats);
    pre_result.map_err(|e| EngineError::PreFailure(e.to_string()))?;
    outcome.stats.total_time = t_start.elapsed();
    Ok(outcome)
}
