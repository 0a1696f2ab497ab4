//! The detection loop the batch and stream drivers share: a tracing
//! frontend and a checking backend joined by a message stream (§5.1,
//! Figure 8).
//!
//! The frontend is the ordering-point hook [`run`] installs: it ships the
//! new pre-failure entries, plans the failure point, then executes,
//! replays, warm-replays or journals it, and sends every result as a
//! [`Msg`] to a [`Sink`]. The [`Checker`] owns the shadow PM, the report,
//! the recording, the journal appends and the checking time, and consumes
//! the messages in program order, so the report does not depend on where
//! it runs (§5.5). The batch driver uses the checker itself as the sink
//! and fingerprints its shadow; the stream driver (`xfstream`) sends the
//! messages over a ring to a checker thread and fingerprints a replica.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::{EngineHook, OrderingPointInfo, PmCtx};
use xftrace::{SourceLoc, TraceEntry};

use crate::engine::{EngineError, RunOutcome, Workload, XfConfig};
use crate::offline::{RecordedFailurePoint, RecordedRun};
use crate::plan::{check, pre_failure, setup, Plan, Planner, PostOutcome};
use crate::report::{DetectionReport, FailurePoint};
use crate::shadow::ShadowPm;
use crate::stats::RunStats;
use crate::xfrun::RunCtl;

/// One message from the frontend to the checker, in program order.
#[derive(Debug)]
pub enum Msg {
    /// Pre-failure entries produced since the previous message.
    Pre(Vec<TraceEntry>),
    /// A failure point, its post-failure trace (shared with the planner and
    /// the class cache, so a replay ships a refcount) and its outcome.
    FailurePoint {
        /// The failure point.
        fp: FailurePoint,
        /// The post-failure trace.
        post: Arc<[TraceEntry]>,
        /// How the post-failure execution ended.
        outcome: PostOutcome,
    },
    /// A failure point a resumed journal already explored: the checker
    /// merges the journal's report delta verbatim.
    Journaled(FailurePoint),
}

/// Where the frontend sends its messages: the [`Checker`] itself, or a
/// channel to a checker on another thread.
pub trait Sink {
    /// Hands `msg` to the checker.
    fn send(&mut self, msg: Msg);

    /// The shadow the planner fingerprints. It must hold every pre-failure
    /// entry sent so far.
    fn fp_shadow(&mut self) -> &mut ShadowPm;

    /// Ends the stream once every message is checked; the checker's
    /// counters go into `stats`.
    fn finish(self, stats: &mut RunStats) -> (DetectionReport, Option<RecordedRun>);
}

/// The checking backend (Figure 8b): replays pre-failure entries into the
/// shadow PM and checks each post-failure trace against it.
#[derive(Debug)]
pub struct Checker {
    shadow: ShadowPm,
    report: DetectionReport,
    recorded: Option<RecordedRun>,
    first_read_only: bool,
    ctl: RunCtl,
    detect_time: Duration,
}

impl Checker {
    /// A checker for a run under `config` on `shadow`. It journals through
    /// `ctl`, since only the checker knows each failure point's report
    /// delta.
    #[must_use]
    pub fn new(config: &XfConfig, shadow: ShadowPm, ctl: RunCtl) -> Self {
        Checker {
            shadow,
            report: DetectionReport::new(),
            recorded: config.record_trace.then(|| RecordedRun {
                domain: config.domain,
                ..RecordedRun::default()
            }),
            first_read_only: config.first_read_only,
            ctl,
            detect_time: Duration::ZERO,
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
            report: self.report,
            recorded: self.recorded,
        }
    }

    fn record(&mut self, fp: FailurePoint, post: &[TraceEntry]) {
        if let Some(rec) = self.recorded.as_mut() {
            rec.failure_points
                .push(RecordedFailurePoint::new(rec.pre.len(), fp.loc, post));
        }
    }
}

impl Sink for Checker {
    fn send(&mut self, msg: Msg) {
        match msg {
            Msg::Pre(pre) => {
                for e in &pre {
                    self.shadow.apply_pre(e, &mut self.report);
                }
                if let Some(rec) = self.recorded.as_mut() {
                    rec.pre.extend(pre.into_iter().map(Into::into));
                }
            }
            Msg::Journaled(fp) => {
                // The pre-failure replay already regenerated everything
                // that precedes the journaled delta, so the report stays
                // byte-identical to an uninterrupted run.
                for f in self.ctl.journaled(fp.id).iter().flat_map(|j| &j.findings) {
                    self.report.push(f.clone());
                }
                self.record(fp, &[]);
            }
            Msg::FailurePoint { fp, post, outcome } => {
                self.record(fp, &post);
                let (shadow, report) = (&self.shadow, &mut self.report);
                let delta_start = report.findings().len();
                let t_detect = Instant::now();
                check(shadow, self.first_read_only, fp, &post, &outcome, report);
                self.detect_time += t_detect.elapsed();
                self.ctl
                    .append_fp(fp.id, fp.loc, &report.findings()[delta_start..]);
            }
        }
    }

    fn fp_shadow(&mut self) -> &mut ShadowPm {
        &mut self.shadow
    }

    fn finish(self, stats: &mut RunStats) -> (DetectionReport, Option<RecordedRun>) {
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
}

impl Checked {
    /// Writes the checker's counters into `stats`; returns the report and
    /// the recording.
    pub fn stamp(self, stats: &mut RunStats) -> (DetectionReport, Option<RecordedRun>) {
        stats.shadow_bytes_cloned = self.shadow_bytes_cloned;
        stats.shadow_resident_bytes = self.shadow_resident_bytes;
        // No worker checked anything: `detect_time` is exactly the
        // per-failure-point checking time.
        stats.detect_time = self.detect_time;
        stats.check_time = self.detect_time;
        (self.report, self.recorded)
    }
}

/// The frontend, installed as the ordering-point hook on the workload
/// thread.
struct Frontend<W, S> {
    planner: RefCell<Planner<(Arc<[TraceEntry]>, PostOutcome)>>,
    sink: RefCell<S>,
    config: XfConfig,
    ctl: RunCtl,
    workload: W,
}

/// Ships the pre-failure entries produced since the last failure point
/// (§5.4: incremental tracing).
fn ship_pre<S: Sink>(sink: &mut S, ctx: &mut PmCtx, stats: &mut RunStats) {
    let pre = ctx.trace().drain();
    stats.pre_entries += pre.len() as u64;
    if !pre.is_empty() {
        sink.send(Msg::Pre(pre));
    }
}

impl<W: Workload, S: Sink> EngineHook for Frontend<W, S> {
    fn on_ordering_point(&self, ctx: &mut PmCtx, loc: SourceLoc, info: OrderingPointInfo) {
        let mut planner = self.planner.borrow_mut();
        let Some(fp) = planner.gate(loc, info) else {
            return;
        };
        let mut sink = self.sink.borrow_mut();
        ship_pre(&mut *sink, ctx, planner.stats());

        // Suspend / snapshot the PM image / spawn the post-failure
        // execution (Figure 8a steps ②–⑤), unless the planner elides it.
        // The capture is part of the post-failure cost, as in the paper's
        // breakdown (Figure 12a); the fingerprint is not, so the span's
        // start moves past it.
        let fingerprinted = planner.stats().fingerprint_time;
        let t_post = Instant::now();
        let plan = planner.plan(ctx.pool(), fp.id, sink.fp_shadow());
        let t_post = t_post + (planner.stats().fingerprint_time - fingerprinted);
        let (post, outcome) = match plan {
            Plan::Journaled => return sink.send(Msg::Journaled(fp)),
            Plan::Warm(key) => {
                let class = self.ctl.cache_peek(key).expect("planned from the cache");
                (Arc::clone(&class.post), class.outcome.clone())
            }
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
        sink.send(Msg::FailurePoint { fp, post, outcome });
    }
}

/// Runs the full detection procedure against `workload`, sending every
/// message to the sink `open` returns once setup has succeeded.
///
/// # Errors
///
/// [`EngineError`] if the pool cannot be created or the setup or
/// pre-failure stage fails. A pre-failure failure finishes the sink first,
/// so a checker thread has ended by the time the error returns.
pub fn run<W, S>(
    config: &XfConfig,
    workload: W,
    ctl: RunCtl,
    open: impl FnOnce() -> S,
) -> Result<RunOutcome, EngineError>
where
    W: Workload + 'static,
    S: Sink + 'static,
{
    let (mut ctx, t_start) = setup(&workload)?;
    let frontend = Rc::new(Frontend {
        planner: RefCell::new(Planner::new(config, ctl.clone())),
        sink: RefCell::new(open()),
        config: config.clone(),
        ctl,
        workload,
    });
    let pre_result = pre_failure(&mut ctx, config, frontend.clone(), &frontend.workload);

    let frontend = Rc::try_unwrap(frontend).ok().expect("the hook was cleared");
    let mut planner = frontend.planner.into_inner();
    let mut sink = frontend.sink.into_inner();
    if pre_result.is_ok() {
        // Trailing pre-failure entries: tail-end performance bugs are
        // still reported.
        ship_pre(&mut sink, &mut ctx, planner.stats());
        for (key, (post, outcome)) in planner.exports() {
            frontend.ctl.cache_export(*key, post, outcome);
        }
    }
    let mut stats = planner.finish();
    // The hook accounted each post-failure pool; the pre-failure pool's
    // copying (image capture + COW faults) is read off at the end.
    stats.snapshot_bytes_copied += ctx.pool().snapshot_bytes_copied();
    let (report, recorded) = sink.finish(&mut stats);
    pre_result.map_err(|e| EngineError::PreFailure(e.to_string()))?;
    stats.total_time = t_start.elapsed();
    Ok(RunOutcome {
        report,
        stats,
        recorded,
    })
}
