//! An outside-in detection run: the engine's per-failure-point steps driven
//! from a benchmark-side `EngineHook`, each call into a layer's public
//! function wrapped in a span.
//!
//! The steps follow the sequential engine: replay the new pre-failure trace
//! into the shadow PM, fingerprint the persistence state (with pruning on
//! only, as the engine does), capture the crash image (skipped for a pruned
//! class member), run the post-failure stage on a copy-on-write fork unless
//! an identical image already ran, and check the post-failure trace against
//! the shadow.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use pmem::{BudgetOverrun, CowImage, EngineHook, ImageHash, OrderingPointInfo, PmCtx, PmPool};
use xfdetector::{BugKind, DetectionReport, DynError, FailurePoint, Finding, ShadowPm, XfConfig};
use xftrace::{SourceLoc, TraceEntry};

use crate::inputs::Program;
use crate::spans::span;

/// Counters of one outside-in run.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub failure_points: u64,
    pub classes: u64,
    pub captures: u64,
    pub post_runs: u64,
    pub post_entries: u64,
    pub bytes_copied: u64,
    pub budget_kills: u64,
}

/// The report and counters of one outside-in run.
pub struct Replica {
    pub report: DetectionReport,
    pub counts: Counts,
}

#[derive(Clone)]
enum Outcome {
    Completed,
    Failed(String),
    Panicked(String),
    BudgetExceeded(String),
}

/// A post-failure trace with the outcome of the run that produced it.
#[derive(Clone)]
struct Post {
    trace: Rc<Vec<TraceEntry>>,
    outcome: Outcome,
}

type PostFn = Box<dyn Fn(&mut PmCtx) -> Result<(), DynError>>;

struct Hook {
    cfg: XfConfig,
    post: PostFn,
    shadow: RefCell<ShadowPm>,
    report: RefCell<DetectionReport>,
    classes: RefCell<HashMap<u64, Post>>,
    images: RefCell<HashMap<ImageHash, (CowImage, Post)>>,
    counts: RefCell<Counts>,
}

impl Hook {
    fn execute(&self, ctx: &mut PmCtx) -> Outcome {
        if let Some(budget) = &self.cfg.post_budget {
            ctx.arm_budget(budget.clone());
        }
        match catch_unwind(AssertUnwindSafe(|| (self.post)(ctx))) {
            Ok(Ok(())) => Outcome::Completed,
            Ok(Err(e)) => Outcome::Failed(e.to_string()),
            Err(payload) => match payload.downcast::<BudgetOverrun>() {
                Ok(overrun) => Outcome::BudgetExceeded(overrun.to_string()),
                Err(payload) => Outcome::Panicked(
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned()),
                ),
            },
        }
    }

    /// Captures the crash image and obtains its post-failure trace, from an
    /// identical earlier image when there is one.
    fn capture_and_run(&self, ctx: &mut PmCtx) -> Post {
        let image = span("pmem.snapshot.capture", || ctx.pool().cow_full_image());
        self.counts.borrow_mut().captures += 1;
        let dedup = self.cfg.dedup_images.then(|| {
            let hash = image.content_hash();
            let hit = self
                .images
                .borrow()
                .get(&hash)
                .filter(|(img, _)| img.same_content(&image))
                .map(|(_, post)| post.clone());
            (hash, hit)
        });
        if let Some((_, Some(post))) = &dedup {
            return post.clone();
        }
        let post = span("workloads.post.exec", || {
            let mut post_ctx = ctx.fork_post_cow(&image);
            let outcome = self.execute(&mut post_ctx);
            let trace = post_ctx.trace().drain();
            self.counts.borrow_mut().bytes_copied += post_ctx.pool().snapshot_bytes_copied();
            Post {
                trace: Rc::new(trace),
                outcome,
            }
        });
        self.counts.borrow_mut().post_runs += 1;
        if let Some((hash, None)) = dedup {
            self.images.borrow_mut().insert(hash, (image, post.clone()));
        }
        post
    }

    fn replay_pre(&self, ctx: &PmCtx) {
        let pre = ctx.trace().drain();
        span("core.shadow.apply_pre", || {
            let mut shadow = self.shadow.borrow_mut();
            let mut report = self.report.borrow_mut();
            for e in &pre {
                shadow.apply_pre(e, &mut report);
            }
        });
    }
}

impl EngineHook for Hook {
    fn on_ordering_point(&self, ctx: &mut PmCtx, loc: SourceLoc, info: OrderingPointInfo) {
        if !info.forced
            && self.cfg.skip_empty_failure_points
            && !info.had_pm_mutation
            && self.cfg.threads <= 1
        {
            return;
        }
        span("core.engine.hook", || {
            self.replay_pre(ctx);
            let fp = {
                let mut c = self.counts.borrow_mut();
                c.failure_points += 1;
                FailurePoint {
                    id: c.failure_points - 1,
                    loc,
                }
            };
            let key = self.cfg.pruning.is_enabled().then(|| {
                span("core.shadow.fingerprint", || {
                    self.shadow.borrow_mut().persistence_fingerprint()
                })
            });
            let member = key.and_then(|k| self.classes.borrow().get(&k).cloned());
            let post = match member {
                Some(rep) => rep,
                None => {
                    let post = self.capture_and_run(ctx);
                    if let Some(k) = key {
                        self.counts.borrow_mut().classes += 1;
                        self.classes.borrow_mut().insert(k, post.clone());
                    }
                    post
                }
            };
            self.counts.borrow_mut().post_entries += post.trace.len() as u64;
            span("core.shadow.check", || {
                let shadow = self.shadow.borrow();
                let mut checker = shadow.begin_post(self.cfg.first_read_only);
                let mut report = self.report.borrow_mut();
                for e in post.trace.iter() {
                    checker.apply_post(e, fp, &mut report);
                }
            });
            let (kind, msg) = match post.outcome {
                Outcome::Completed => return,
                Outcome::Failed(m) => (BugKind::PostFailureError, m),
                Outcome::Panicked(m) => (BugKind::PostFailurePanic, m),
                Outcome::BudgetExceeded(m) => {
                    self.counts.borrow_mut().budget_kills += 1;
                    (BugKind::BudgetExceeded, m)
                }
            };
            self.report.borrow_mut().push(Finding {
                kind,
                addr: 0,
                size: 0,
                reader: Some(loc),
                writer: None,
                failure_point: Some(fp),
                message: Some(msg),
            });
        });
    }
}

/// Runs `program` outside-in under the root span `core.engine`.
pub fn run(program: &Program) -> Result<Replica, String> {
    let cfg = program.config();
    let workload = Rc::new(program.workload());
    span("core.engine", || {
        let pool = PmPool::new(workload.pool_size()).map_err(|e| e.to_string())?;
        let mut ctx = PmCtx::new(pool);
        let mut shadow = ShadowPm::with_domain(cfg.domain);
        if cfg.pruning.is_enabled() {
            shadow.enable_fingerprinting();
        }
        let post_workload = Rc::clone(&workload);
        let hook = Rc::new(Hook {
            cfg: cfg.clone(),
            post: Box::new(move |ctx| post_workload.post_failure(ctx)),
            shadow: RefCell::new(shadow),
            report: RefCell::new(DetectionReport::new()),
            classes: RefCell::new(HashMap::new()),
            images: RefCell::new(HashMap::new()),
            counts: RefCell::new(Counts::default()),
        });
        span("pmem.ctx.run", || -> Result<(), String> {
            workload.setup(&mut ctx).map_err(|e| e.to_string())?;
            ctx.set_hook(Rc::clone(&hook) as Rc<dyn EngineHook>);
            let pre = workload.pre_failure(&mut ctx);
            if pre.is_ok() && cfg.inject_at_completion && !ctx.is_detection_complete() {
                ctx.add_failure_point_at(SourceLoc::synthetic("<completion>"));
            }
            ctx.clear_hook();
            pre.map_err(|e| e.to_string())
        })?;
        hook.replay_pre(&ctx);
        let mut counts = hook.counts.borrow().clone();
        counts.bytes_copied += ctx.pool().snapshot_bytes_copied();
        let report = hook.report.borrow().clone();
        Ok(Replica { report, counts })
    })
}
