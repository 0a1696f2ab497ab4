//! The failure-point planner: the per-failure-point decision every
//! detection driver shares.
//!
//! The paper's detection loop (§5.1, Figure 8; §5.4) runs one fixed
//! sequence at each ordering point of the pre-failure stage: skip points
//! with no PM activity, snapshot the crash image, run the post-failure stage
//! on it, then replay and check its trace against the shadow PM. On top of
//! that this reproduction has four ways to obtain a failure point's
//! post-failure trace without executing anything, tried in order:
//!
//! 1. a resumed run journal already recorded the failure point,
//! 2. the cross-run class cache holds its persistence-state class,
//! 3. an earlier member of its class executed this run (pruning),
//! 4. an earlier failure point's crash image was byte-identical (image
//!    dedup).
//!
//! [`Planner`] owns that chain and its accounting ([`RunStats`] counters
//! and the live observability counters). All three drivers run one loop
//! (`detect.rs`) and differ only in *where* an execution runs, so
//! the representative the planner keeps is the sink's: the shared trace
//! plus its outcome for the batch and stream sinks, which execute inline
//! (a replay never clones a trace), and the job id for the parallel
//! driver's worker pool. The loop sets up through `setup`, runs the
//! pre-failure stage through `pre_failure` and fingerprints a
//! [`planner_shadow`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pmem::{
    Budget, BudgetOverrun, CowImage, CrashPolicy, EngineHook, ImageHash, OrderingPointInfo, PmCtx,
    PmPool,
};
use xftrace::{SourceLoc, TraceEntry};

use crate::engine::{DynError, EngineError, Workload, XfConfig};
use crate::prune::PruneCache;
use crate::report::{BugKind, DetectionReport, FailurePoint, Finding};
use crate::shadow::{ReadIndex, ShadowPm};
use crate::stats::RunStats;
use crate::xfrun::RunCtl;

/// How a post-failure execution ended. The outcome is a *finding*, never an
/// engine error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PostOutcome {
    /// The post-failure stage returned normally.
    Completed,
    /// The post-failure stage returned an error.
    Failed(String),
    /// The post-failure stage panicked.
    Panicked(String),
    /// The budget watchdog killed the execution; the message is the
    /// deterministic [`BudgetOverrun`] rendering (it names the limit, never
    /// the observed count, so replays of the outcome stay byte-identical).
    BudgetExceeded(String),
}

impl PostOutcome {
    /// Runs the post-failure stage `post` on `ctx` under the quarantine
    /// every driver shares: the `budget` is armed first, and a budget
    /// overrun — delivered by unwinding out of the traced operation — is
    /// always caught. Workload panics become [`PostOutcome::Panicked`] when
    /// `catch_panics` is set and are re-raised otherwise.
    pub fn execute<F>(
        ctx: &mut PmCtx,
        budget: Option<&Budget>,
        catch_panics: bool,
        post: F,
    ) -> PostOutcome
    where
        F: FnOnce(&mut PmCtx) -> Result<(), DynError>,
    {
        if let Some(budget) = budget {
            ctx.arm_budget(budget.clone());
        }
        if !catch_panics && budget.is_none() {
            return post(ctx).into();
        }
        match catch_unwind(AssertUnwindSafe(|| post(ctx))) {
            Ok(r) => r.into(),
            Err(payload) => match payload.downcast::<BudgetOverrun>() {
                Ok(overrun) => PostOutcome::BudgetExceeded(overrun.to_string()),
                Err(payload) if catch_panics => PostOutcome::Panicked(panic_message(&*payload)),
                Err(payload) => std::panic::resume_unwind(payload),
            },
        }
    }

    /// Whether the budget watchdog killed the execution.
    #[must_use]
    pub fn is_budget_kill(&self) -> bool {
        matches!(self, PostOutcome::BudgetExceeded(_))
    }

    /// The finding this outcome contributes at failure point `fp`, if any.
    #[must_use]
    pub fn finding(&self, fp: FailurePoint) -> Option<Finding> {
        let (kind, msg) = match self {
            PostOutcome::Completed => return None,
            PostOutcome::Failed(m) => (BugKind::PostFailureError, m),
            PostOutcome::Panicked(m) => (BugKind::PostFailurePanic, m),
            PostOutcome::BudgetExceeded(m) => (BugKind::BudgetExceeded, m),
        };
        Some(Finding {
            kind,
            addr: 0,
            size: 0,
            reader: Some(fp.loc),
            writer: None,
            failure_point: Some(fp),
            message: Some(msg.clone()),
        })
    }
}

impl From<Result<(), DynError>> for PostOutcome {
    fn from(r: Result<(), DynError>) -> Self {
        match r {
            Ok(()) => PostOutcome::Completed,
            Err(e) => PostOutcome::Failed(e.to_string()),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Creates `workload`'s pool and runs its setup stage. The run's clock
/// starts just before setup.
pub(crate) fn setup<W: Workload + ?Sized>(workload: &W) -> Result<(PmCtx, Instant), EngineError> {
    let mut ctx = PmCtx::new(PmPool::new(workload.pool_size()).map_err(EngineError::Pm)?);
    let t_start = Instant::now();
    workload
        .setup(&mut ctx)
        .map_err(|e| EngineError::Setup(e.to_string()))?;
    Ok((ctx, t_start))
}

/// Runs `workload`'s pre-failure stage on `ctx` with `hook` called at every
/// ordering point, then injects the final `<completion>` failure point and
/// removes the hook.
pub(crate) fn pre_failure<W: Workload + ?Sized>(
    ctx: &mut PmCtx,
    config: &XfConfig,
    hook: Rc<dyn EngineHook>,
    workload: &W,
) -> Result<(), DynError> {
    ctx.set_hook(hook);
    if config.fire_on_every_write {
        ctx.set_failure_point_on_writes(true);
    }
    let result = workload.pre_failure(ctx);
    if result.is_ok() && config.inject_at_completion && !ctx.is_detection_complete() {
        // One final failure point after the last operation: covers bugs
        // like the Figure 2 "failure after update() completed" scenario.
        ctx.add_failure_point_at(SourceLoc::synthetic("<completion>"));
    }
    ctx.clear_hook();
    result
}

/// The shadow [`Planner::plan`] fingerprints: fingerprinting is on when
/// `config` prunes.
#[must_use]
pub fn planner_shadow(config: &XfConfig) -> ShadowPm {
    let mut shadow = ShadowPm::with_domain(config.domain);
    if config.pruning.is_enabled() {
        shadow.enable_fingerprinting();
    }
    shadow
}

/// A post-failure trace as the drivers share it: the entries, whether the
/// run requested `completeDetection` (Table 2), and the trace's
/// [`ReadIndex`], built by the first [`check`] on the checking thread and
/// dropped with the trace. Executions, pruned replays, deduped images,
/// pool jobs and class-cache hits all share it through one
/// [`Arc`](std::sync::Arc), so a trace is indexed at most once however
/// many failure points replay it.
#[derive(Debug)]
pub struct PostTrace {
    entries: Box<[TraceEntry]>,
    completes: bool,
    index: OnceLock<ReadIndex>,
}

impl PostTrace {
    /// A trace of `entries`; `completes` is whether the run requested
    /// `completeDetection`.
    #[must_use]
    pub fn new(entries: Vec<TraceEntry>, completes: bool) -> Self {
        PostTrace {
            // A copy of exactly the entries: shrinking the drained trace
            // buffer in place would keep its slack out of reach of the next
            // post-failure run's buffer (measurably higher peak RSS).
            entries: entries.as_slice().into(),
            completes,
            index: OnceLock::new(),
        }
    }

    /// The post-failure trace entries, in program order.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Whether the post-failure run requested `completeDetection`.
    #[must_use]
    pub fn completes(&self) -> bool {
        self.completes
    }

    /// The trace's read index, built on first use.
    fn read_index(&self) -> &ReadIndex {
        self.index.get_or_init(|| ReadIndex::new(&self.entries))
    }
}

/// Checks one failure point (Figure 8b step ⑧): replays its post-failure
/// trace against `shadow` — the shadow PM as of the failure point — and
/// appends the checking findings, then the outcome finding, to `report`.
///
/// The replay runs only where it can find something
/// ([`ShadowPm::may_find`] over the trace's read index); otherwise the
/// checkpoint and the replay are skipped and only the outcome finding is
/// appended. Returns whether the replay was skipped.
pub fn check(
    shadow: &ShadowPm,
    first_read_only: bool,
    fp: FailurePoint,
    post: &PostTrace,
    outcome: &PostOutcome,
    report: &mut DetectionReport,
) -> bool {
    let elided = !shadow.may_find(post.read_index());
    if !elided {
        let mut checker = shadow.begin_post(first_read_only);
        for e in post.entries() {
            checker.apply_post(e, fp, report);
        }
    }
    if let Some(f) = outcome.finding(fp) {
        report.push(f);
    }
    elided
}

/// What a driver does at one failure point, as decided by
/// [`Planner::plan`].
#[derive(Debug)]
pub enum Plan<H> {
    /// A resumed journal recorded the failure point: merge its report
    /// delta ([`RunCtl::journaled`]) verbatim and run nothing, then stop
    /// if its run requested `completeDetection`.
    Journaled,
    /// A previous run executed the failure point's class: replay the
    /// class cache's trace for this key against this failure point's own
    /// shadow state.
    Warm(u64),
    /// An earlier failure point's execution stands in for this one
    /// (pruned class member or identical crash image): replay its trace
    /// against this failure point's own shadow state.
    Replay(H),
    /// Run the post-failure stage on the captured crash image, then hand
    /// the result to [`Planner::represent`].
    Execute(Execute),
}

/// A failure point that must execute: its crash image plus the keys the
/// result will be cached under.
#[derive(Debug)]
pub struct Execute {
    /// The copy-on-write crash image to run the post-failure stage on.
    pub image: CowImage,
    class: Option<u64>,
    hash: Option<ImageHash>,
}

/// The failure-point planner; see the [module docs](self).
#[derive(Debug)]
pub struct Planner<H> {
    skip_empty: bool,
    threads: u32,
    max_failure_points: Option<u64>,
    dedup_images: bool,
    crash_policy: CrashPolicy,
    rng: StdRng,
    prune: PruneCache<H>,
    images: HashMap<ImageHash, (CowImage, H)>,
    exports: Vec<(u64, H)>,
    ctl: RunCtl,
    stats: RunStats,
}

impl<H: Clone> Planner<H> {
    /// A planner for one run under `config`, honoring `ctl`'s journal
    /// skip-set and class cache.
    #[must_use]
    pub fn new(config: &XfConfig, ctl: RunCtl) -> Self {
        Planner {
            skip_empty: config.skip_empty_failure_points,
            threads: config.threads,
            max_failure_points: config.max_failure_points,
            dedup_images: config.dedup_images,
            crash_policy: config.crash_policy,
            rng: StdRng::seed_from_u64(config.rng_seed),
            prune: PruneCache::new(config.pruning),
            images: HashMap::new(),
            exports: Vec::new(),
            ctl,
            stats: RunStats::default(),
        }
    }

    /// The ordering-point gate: returns the failure point to inject here,
    /// or `None` when the point is empty (§5.4 optimization 2) or the
    /// failure-point cap is reached.
    pub fn gate(&mut self, loc: SourceLoc, info: OrderingPointInfo) -> Option<FailurePoint> {
        self.stats.ordering_points += 1;
        // With multiple threads a fence is itself a state transition — it
        // drains only its own thread's write-backs and marks foreign pending
        // bytes cross-thread — so no multi-threaded failure point is
        // "empty" even without an intervening PM mutation.
        if !info.forced && self.skip_empty && !info.had_pm_mutation && self.threads <= 1 {
            self.stats.skipped_empty += 1;
            return None;
        }
        if self
            .max_failure_points
            .is_some_and(|max| self.stats.failure_points >= max)
        {
            return None;
        }
        let id = self.stats.failure_points;
        self.stats.failure_points += 1;
        Some(FailurePoint { id, loc })
    }

    /// Decides how failure point `id` obtains its post-failure trace.
    /// `shadow` must hold every pre-failure entry up to the failure point;
    /// it is fingerprinted once when pruning is on, timed into
    /// [`RunStats::fingerprint_time`]. `pool` is the live
    /// pre-failure pool the crash image is captured from, unless an
    /// earlier link of the chain elides the capture.
    pub fn plan(&mut self, pool: &PmPool, id: u64, shadow: &mut ShadowPm) -> Plan<H> {
        if self.ctl.journaled(id).is_some() {
            self.stats.journal_skipped += 1;
            self.ctl.obs().journal_skip();
            self.ctl.obs().fp_done();
            return Plan::Journaled;
        }
        let class = self.prune.is_enabled().then(|| {
            let t = Instant::now();
            let key = shadow.persistence_fingerprint();
            self.stats.fingerprint_time += t.elapsed();
            key
        });
        if let Some(key) = class {
            // A class a previous run executed is served from the persisted
            // store. It is deliberately not seeded into the in-run prune
            // cache, so the per-run cache_hits/fps_pruned split stays
            // meaningful.
            if self.ctl.cache_lookup(key).is_some() {
                self.ctl.obs().cache_hit();
                self.ctl.obs().fp_done();
                return Plan::Warm(key);
            }
            if let Some(rep) = self.prune.lookup(key, id) {
                let rep = rep.clone();
                self.ctl.obs().prune_hit();
                self.ctl.obs().fp_done();
                return Plan::Replay(rep);
            }
        }
        let image = self.crash_policy.cow_image(pool, &mut self.rng);
        let hash = self.dedup_images.then(|| image.content_hash());
        // The post-failure run is a pure function of the image, so an
        // identical image replays the earlier trace. The image is kept for
        // the exact comparison: a hash collision degrades to a miss, never
        // to a wrong reuse.
        let seen = hash
            .and_then(|h| self.images.get(&h))
            .filter(|(seen, _)| seen.same_content(&image))
            .map(|(_, rep)| rep.clone());
        if let Some(rep) = seen {
            // The image's executor is as good a class representative as an
            // executed member; first member in wins either way.
            if let Some(key) = class {
                self.adopt(key, &rep);
            }
            self.stats.images_deduped += 1;
            self.ctl.obs().dedup_hit();
            self.ctl.obs().fp_done();
            return Plan::Replay(rep);
        }
        self.stats.post_runs += 1;
        Plan::Execute(Execute { image, class, hash })
    }

    /// Records an executed failure point as the representative of its
    /// class and crash image. `rep` is only called when a later failure
    /// point can reuse the result.
    pub fn represent(&mut self, exec: Execute, rep: impl FnOnce() -> H) {
        if exec.class.is_none() && exec.hash.is_none() {
            return;
        }
        let rep = rep();
        if let Some(key) = exec.class {
            self.adopt(key, &rep);
        }
        if let Some(hash) = exec.hash {
            self.images.insert(hash, (exec.image, rep));
        }
    }

    /// Counts a finished execution. The budget-kill counter tallies
    /// executions only: replays of a killed run re-emit its finding but
    /// never count as kills.
    pub fn executed(&mut self, outcome: &PostOutcome) {
        if outcome.is_budget_kill() {
            self.stats.budget_exceeded += 1;
        }
        self.ctl.obs().executed(outcome);
    }

    /// The run statistics the planner keeps; drivers add their own
    /// counters and timers.
    pub fn stats(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// Ends the run: the statistics with the pruning counters filled in,
    /// and this run's class representatives for the cross-run cache, in
    /// failure-point order (empty without a cache).
    #[must_use]
    pub fn finish(mut self) -> (RunStats, Vec<(u64, H)>) {
        self.stats
            .finish_pruning(self.prune.classes_total(), self.prune.fps_pruned());
        (self.stats, self.exports)
    }

    fn adopt(&mut self, key: u64, rep: &H) {
        self.prune.insert(key, rep.clone());
        if self.ctl.cache_enabled() {
            self.exports.push((key, rep.clone()));
        }
    }
}
