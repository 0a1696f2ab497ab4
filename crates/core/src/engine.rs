//! The detection engine's public face: the [`Workload`] model, the
//! configuration and the batch driver.
//!
//! [`XfDetector::run`] executes a [`Workload`] under test:
//!
//! 1. `setup` runs without failure injection (pool initialization, like the
//!    paper's pre-RoI initialization),
//! 2. `pre_failure` runs with the detection loop of [`crate::detect`]
//!    installed as the ordering-point hook: before every ordering point
//!    inside the region of interest it replays the new pre-failure trace
//!    into the [`crate::ShadowPm`], snapshots the PM image, runs
//!    `post_failure` on a forked context, and checks the post-failure trace
//!    against the shadow to detect cross-failure bugs,
//! 3. a final failure point at completion covers failures after the last
//!    operation finished.

use pmem::{Budget, CrashPolicy, PersistDomain, PmCtx, PmError};

use crate::detect::Checker;
use crate::error::ConfigError;
use crate::plan::planner_shadow;
use crate::prune::Pruning;
use crate::report::DetectionReport;
use crate::stats::RunStats;

/// Boxed error type returned by workload stages.
pub type DynError = Box<dyn std::error::Error>;

/// Upper bound on the number of concrete schedule plans one configuration
/// may expand to (each plan is a full failure-point sweep).
pub const MAX_SCHEDULE_PLANS: u64 = 4096;

/// A program under test.
///
/// The three stages mirror the paper's model: initialization (outside the
/// region of interest), the pre-failure execution that failure points are
/// injected into, and the post-failure recovery-and-resumption continuation
/// that runs once per failure point on a snapshot of the PM image.
pub trait Workload {
    /// Human-readable workload name (used in reports and benchmarks).
    fn name(&self) -> &str;

    /// Size of the PM pool to run on, in bytes.
    fn pool_size(&self) -> u64 {
        4 * 1024 * 1024
    }

    /// One-time initialization; runs with failure injection disabled.
    ///
    /// # Errors
    ///
    /// Any error aborts the detection run ([`EngineError::Setup`]).
    fn setup(&self, ctx: &mut PmCtx) -> Result<(), DynError>;

    /// The pre-failure execution stage (the workload's normal operation).
    ///
    /// # Errors
    ///
    /// Any error aborts the detection run ([`EngineError::PreFailure`]).
    fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError>;

    /// The post-failure stage: recovery plus resumption. Runs once per
    /// injected failure point, on a fork of the PM image.
    ///
    /// # Errors
    ///
    /// Errors do **not** abort the run — they are recorded as
    /// [`BugKind::PostFailureError`] findings, which is how bugs like the
    /// paper's Bug 4 (pool fails to open) surface.
    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError>;
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn pool_size(&self) -> u64 {
        (**self).pool_size()
    }
    fn setup(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        (**self).setup(ctx)
    }
    fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        (**self).pre_failure(ctx)
    }
    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        (**self).post_failure(ctx)
    }
}

/// Detector configuration.
///
/// The defaults enable both §5.4 optimizations and the completion failure
/// point; the ablation switches exist for the benchmarks in DESIGN.md §4.
#[derive(Debug, Clone)]
pub struct XfConfig {
    /// Elide failure points at ordering points with no PM activity since the
    /// previous one (§5.4 optimization 2).
    pub skip_empty_failure_points: bool,
    /// Check only the first post-failure read of each location (§5.4
    /// optimization 1).
    pub first_read_only: bool,
    /// Inject one final failure point after `pre_failure` returns, covering
    /// failures after the last operation completed.
    pub inject_at_completion: bool,
    /// Stop injecting failures after this many failure points.
    pub max_failure_points: Option<u64>,
    /// Ablation: consider a failure point before every PM store instead of
    /// only before ordering points (§4.2 argues this is wasted work).
    pub fire_on_every_write: bool,
    /// Catch panics in the post-failure stage and record them as findings
    /// (the paper's Figure 1 scenario ends in a segmentation fault; the
    /// analogue here is a panic).
    pub catch_post_panics: bool,
    /// How the post-failure PM image is materialized. The paper's mode is
    /// [`CrashPolicy::FullImage`]; the eviction policies are an extension
    /// for differential testing.
    pub crash_policy: CrashPolicy,
    /// Seed for the randomized crash policies.
    pub rng_seed: u64,
    /// Record the full pre-/post-failure traces into
    /// [`RunOutcome::recorded`] for offline analysis
    /// ([`crate::offline::analyze`], the §5.5 decoupled backend).
    pub record_trace: bool,
    /// Skip the post-failure *execution* when a failure point's crash
    /// image is byte-identical to one already explored, replaying the
    /// cached post-failure trace re-anchored to the new failure point.
    /// The report is unchanged (the post-failure run is a pure function of
    /// the image); only redundant work is elided, in the spirit of the
    /// §5.4 optimizations.
    pub dedup_images: bool,
    /// Execution budget armed on every post-failure context. A post-failure
    /// stage that hangs, spins, or mutates PM without bound is killed by
    /// the watchdog when it exhausts any axis, and the kill is recorded as
    /// a [`BugKind::BudgetExceeded`] finding instead of wedging the run.
    /// `None` (the default) runs unbudgeted, like the seed engine.
    ///
    /// When a budget is armed the engine always unwinds post-failure
    /// overruns safely, even with [`XfConfig::catch_post_panics`] off:
    /// the watchdog kill is a finding, never an engine crash.
    pub post_budget: Option<Budget>,
    /// Failure-point pruning policy: collapse failure points into
    /// persistence-state equivalence classes and run one representative
    /// post-failure execution per class, replaying its trace against every
    /// other member's own shadow checkpoint (see [`crate::Pruning`]). The
    /// merged report is byte-identical to exhaustive mode; only redundant
    /// executions and image captures are elided.
    pub pruning: Pruning,
    /// Number of logical threads a [`ConcurrentWorkload`] is interleaved
    /// over ([`Session::run_concurrent`]). 1 (the default) runs every role
    /// sequentially on thread 0 — the classic single-threaded detection.
    /// Plain [`Workload`]s ignore this axis.
    ///
    /// [`ConcurrentWorkload`]: crate::ConcurrentWorkload
    /// [`Session::run_concurrent`]: crate::Session::run_concurrent
    pub threads: u32,
    /// How concurrent pre-failure interleavings are chosen (`rr`, `seed:N`
    /// or `exhaustive:K`); each expanded [`xfsched::SchedulePlan`] gets its
    /// own full failure-point sweep and the per-plan reports merge through
    /// the deduplicating [`DetectionReport`]. Ignored when `threads` is 1.
    pub schedule: xfsched::ScheduleSpec,
    /// The platform persistence domain findings are classified under
    /// (ADR / eADR / CXL GPF). The traced execution is domain-independent;
    /// the domain changes which exposed reads the shadow reports and how
    /// failure points fingerprint into pruning classes. The default
    /// ([`PersistDomain::Adr`]) is the paper's model and reproduces the
    /// pre-domain reports byte-identically.
    pub domain: PersistDomain,
}

impl Default for XfConfig {
    fn default() -> Self {
        XfConfig {
            skip_empty_failure_points: true,
            first_read_only: true,
            inject_at_completion: true,
            max_failure_points: None,
            fire_on_every_write: false,
            catch_post_panics: true,
            crash_policy: CrashPolicy::FullImage,
            rng_seed: 0x5eed_cafe,
            record_trace: false,
            dedup_images: true,
            post_budget: None,
            pruning: Pruning::Off,
            threads: 1,
            schedule: xfsched::ScheduleSpec::RoundRobin,
            domain: PersistDomain::Adr,
        }
    }
}

impl XfConfig {
    /// Starts a builder seeded with the default configuration.
    ///
    /// The builder runs [`XfConfig::validate`] at [`XfConfigBuilder::build`]
    /// time. Prefer it over struct-literal construction, which is kept
    /// compiling for existing callers but checks nothing until a
    /// [`Session`](crate::Session) is built from it.
    #[must_use]
    pub fn builder() -> XfConfigBuilder {
        XfConfigBuilder {
            config: XfConfig::default(),
        }
    }

    /// Checks the invariants free-field construction cannot enforce.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EmptyBudget`] for a budget that limits no axis,
    /// [`ConfigError::ZeroThreads`], [`ConfigError::ScheduleTooLarge`] for
    /// a schedule expanding to more than [`MAX_SCHEDULE_PLANS`] plans,
    /// [`ConfigError::InvalidSamplingRate`], and [`ConfigError::Invalid`]
    /// for an out-of-range persistence domain.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.post_budget.as_ref().is_some_and(Budget::is_unlimited) {
            return Err(ConfigError::EmptyBudget);
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        // Each plan costs a full failure-point sweep: cap the expansion so
        // `exhaustive:K` typos fail fast instead of launching 4^20 runs.
        if self.schedule.plan_count(self.threads) > MAX_SCHEDULE_PLANS {
            return Err(ConfigError::ScheduleTooLarge);
        }
        self.pruning.validate()?;
        if self.domain.validate().is_err() {
            return Err(ConfigError::Invalid {
                what: "--domain",
                value: self.domain.to_string(),
                expected: pmem::DOMAIN_EXPECTED,
            });
        }
        Ok(())
    }
}

/// Builder for [`XfConfig`] with build-time invariant checks.
///
/// ```
/// use xfdetector::XfConfig;
///
/// let cfg = XfConfig::builder()
///     .max_failure_points(Some(16))
///     .first_read_only(false)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.max_failure_points, Some(16));
///
/// // Invalid values are rejected instead of silently ignored:
/// assert!(XfConfig::builder().threads(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct XfConfigBuilder {
    config: XfConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, value: $ty) -> Self {
                self.config.$name = value;
                self
            }
        )*
    };
}

impl XfConfigBuilder {
    builder_setters! {
        /// See [`XfConfig::skip_empty_failure_points`].
        skip_empty_failure_points: bool,
        /// See [`XfConfig::first_read_only`].
        first_read_only: bool,
        /// See [`XfConfig::inject_at_completion`].
        inject_at_completion: bool,
        /// See [`XfConfig::max_failure_points`].
        max_failure_points: Option<u64>,
        /// See [`XfConfig::fire_on_every_write`].
        fire_on_every_write: bool,
        /// See [`XfConfig::catch_post_panics`].
        catch_post_panics: bool,
        /// See [`XfConfig::crash_policy`].
        crash_policy: CrashPolicy,
        /// See [`XfConfig::rng_seed`].
        rng_seed: u64,
        /// See [`XfConfig::record_trace`].
        record_trace: bool,
        /// See [`XfConfig::dedup_images`].
        dedup_images: bool,
        /// See [`XfConfig::post_budget`].
        post_budget: Option<Budget>,
        /// See [`XfConfig::pruning`].
        pruning: Pruning,
        /// See [`XfConfig::threads`].
        threads: u32,
        /// See [`XfConfig::schedule`].
        schedule: xfsched::ScheduleSpec,
        /// See [`XfConfig::domain`].
        domain: PersistDomain,
    }

    /// Validates the configuration and returns it.
    ///
    /// # Errors
    ///
    /// Any [`XfConfig::validate`] error.
    pub fn build(self) -> Result<XfConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Errors that abort a detection run.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The PM pool could not be created.
    Pm(PmError),
    /// The workload's `setup` stage failed.
    Setup(String),
    /// The workload's `pre_failure` stage failed.
    PreFailure(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Pm(e) => write!(f, "pool creation failed: {e}"),
            EngineError::Setup(m) => write!(f, "workload setup failed: {m}"),
            EngineError::PreFailure(m) => write!(f, "pre-failure execution failed: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Pm(e) => Some(e),
            _ => None,
        }
    }
}

/// The result of a detection run: the deduplicated report plus run
/// statistics (failure points, trace sizes, wall-clock split — the inputs to
/// Figures 12 and 13).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// All detected findings.
    pub report: DetectionReport,
    /// Execution statistics.
    pub stats: RunStats,
    /// The recorded traces, when [`XfConfig::record_trace`] was enabled.
    pub recorded: Option<crate::offline::RecordedRun>,
}

/// The cross-failure bug detector.
///
/// # Example
///
/// ```
/// use pmem::PmCtx;
/// use xfdetector::{DynError, RunOutcome, Workload, XfDetector};
///
/// /// The Figure 2 example: an update protected by a valid flag.
/// struct ValidBit;
///
/// impl Workload for ValidBit {
///     fn name(&self) -> &str {
///         "valid-bit"
///     }
///     fn pool_size(&self) -> u64 {
///         4096
///     }
///     fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
///         Ok(())
///     }
///     fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
///         let base = ctx.pool().base();
///         let (backup, valid, data) = (base, base + 64, base + 128);
///         ctx.register_commit_var(valid, 8);
///         ctx.write_u64(backup, ctx.pool().read_u64(data)?)?;
///         ctx.persist_barrier(backup, 8)?;
///         ctx.write_u64(valid, 1)?;
///         ctx.persist_barrier(valid, 8)?;
///         ctx.write_u64(data, 42)?;
///         ctx.persist_barrier(data, 8)?;
///         ctx.write_u64(valid, 0)?;
///         ctx.persist_barrier(valid, 8)?;
///         Ok(())
///     }
///     fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
///         let base = ctx.pool().base();
///         if ctx.read_u64(base + 64)? == 1 {
///             let backup = ctx.read_u64(base)?;
///             ctx.write_u64(base + 128, backup)?;
///             ctx.persist_barrier(base + 128, 8)?;
///         }
///         Ok(())
///     }
/// }
///
/// # fn main() -> Result<(), xfdetector::EngineError> {
/// let outcome: RunOutcome = XfDetector::with_defaults().run(ValidBit)?;
/// assert!(!outcome.report.has_correctness_bugs());
/// assert!(outcome.stats.failure_points > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct XfDetector {
    config: XfConfig,
}

impl XfDetector {
    /// Creates a detector with the given configuration.
    #[must_use]
    pub fn new(config: XfConfig) -> Self {
        XfDetector { config }
    }

    /// Creates a detector with the default configuration.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &XfConfig {
        &self.config
    }

    /// Runs the full detection procedure against `workload`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the pool cannot be created or the setup or
    /// pre-failure stages fail. Post-failure failures are *findings*, not
    /// errors.
    pub fn run<W: Workload + 'static>(&self, workload: W) -> Result<RunOutcome, EngineError> {
        self.run_with_ctl(workload, crate::xfrun::RunCtl::inert())
    }

    /// [`XfDetector::run`] with an orchestration control handle attached:
    /// journal skip/append, the class cache and live counters. The
    /// [`crate::Session`] layer drives this. The checker runs inline, on the
    /// shadow the planner fingerprints.
    pub(crate) fn run_with_ctl<W: Workload + 'static>(
        &self,
        workload: W,
        ctl: crate::xfrun::RunCtl,
    ) -> Result<RunOutcome, EngineError> {
        let config = &self.config;
        crate::detect::run(config, workload, ctl.clone(), |_| {
            Checker::new(config, planner_shadow(config), ctl)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BugKind;

    /// Minimal low-level workload following the valid-flag discipline:
    /// data at `base`, commit flag at `base + 64`. The buggy variant skips
    /// the persist barrier between data and flag.
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
            ctx.write_u64(a + 64, 1)?; // commit: data is ready
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

    #[test]
    fn buggy_flag_reports_race() {
        let outcome = XfDetector::with_defaults()
            .run(Flag { persist: false })
            .unwrap();
        assert_eq!(outcome.report.race_count(), 1, "{}", outcome.report);
        assert!(outcome.stats.failure_points >= 1);
    }

    #[test]
    fn fixed_flag_is_clean() {
        let outcome = XfDetector::with_defaults()
            .run(Flag { persist: true })
            .unwrap();
        assert!(!outcome.report.has_correctness_bugs(), "{}", outcome.report);
    }

    #[test]
    fn completion_failure_point_covers_trailing_state() {
        // A workload whose only bug is visible after the last barrier.
        struct Tail;
        impl Workload for Tail {
            fn name(&self) -> &str {
                "tail"
            }
            fn pool_size(&self) -> u64 {
                4096
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
                let a = ctx.pool().base();
                ctx.write_u64(a, 7)?; // never persisted, no barrier after
                Ok(())
            }
            fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
                let _ = ctx.read_u64(ctx.pool().base())?;
                Ok(())
            }
        }
        let on = XfDetector::with_defaults().run(Tail).unwrap();
        assert_eq!(on.report.race_count(), 1, "{}", on.report);

        let cfg = XfConfig {
            inject_at_completion: false,
            ..XfConfig::default()
        };
        let off = XfDetector::new(cfg).run(Tail).unwrap();
        assert_eq!(
            off.report.race_count(),
            0,
            "no ordinary ordering point fires"
        );
    }

    #[test]
    fn post_failure_errors_become_findings() {
        struct Failing;
        impl Workload for Failing {
            fn name(&self) -> &str {
                "failing"
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
                Err("recovery could not open the pool".into())
            }
        }
        let outcome = XfDetector::with_defaults().run(Failing).unwrap();
        assert!(outcome.report.execution_failure_count() >= 1);
        let f = outcome
            .report
            .findings()
            .iter()
            .find(|f| f.kind == BugKind::PostFailureError)
            .unwrap();
        assert!(f.message.as_deref().unwrap().contains("could not open"));
    }

    #[test]
    fn post_failure_panics_become_findings() {
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
        let outcome = XfDetector::with_defaults().run(Panicking).unwrap();
        let f = outcome
            .report
            .findings()
            .iter()
            .find(|f| f.kind == BugKind::PostFailurePanic)
            .unwrap();
        assert_eq!(f.message.as_deref().unwrap(), "segfault analogue");
    }

    #[test]
    fn setup_errors_abort_the_run() {
        struct BadSetup;
        impl Workload for BadSetup {
            fn name(&self) -> &str {
                "bad-setup"
            }
            fn pool_size(&self) -> u64 {
                4096
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Err("nope".into())
            }
            fn pre_failure(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
            fn post_failure(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
        }
        assert!(matches!(
            XfDetector::with_defaults().run(BadSetup),
            Err(EngineError::Setup(_))
        ));
    }

    #[test]
    fn max_failure_points_caps_post_runs() {
        struct Many;
        impl Workload for Many {
            fn name(&self) -> &str {
                "many"
            }
            fn pool_size(&self) -> u64 {
                64 * 1024
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
                let a = ctx.pool().base();
                for i in 0..50 {
                    ctx.write_u64(a + i * 64, i)?;
                    ctx.persist_barrier(a + i * 64, 8)?;
                }
                Ok(())
            }
            fn post_failure(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
        }
        let cfg = XfConfig {
            max_failure_points: Some(5),
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg).run(Many).unwrap();
        assert_eq!(outcome.stats.failure_points, 5);
        assert_eq!(outcome.stats.post_runs, 5);
        assert!(outcome.stats.ordering_points > 5);
    }

    #[test]
    fn skip_empty_elides_quiet_ordering_points() {
        struct Quiet;
        impl Workload for Quiet {
            fn name(&self) -> &str {
                "quiet"
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
                ctx.sfence(); // no PM activity in between
                ctx.sfence();
                Ok(())
            }
            fn post_failure(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
        }
        let outcome = XfDetector::with_defaults().run(Quiet).unwrap();
        assert_eq!(outcome.stats.skipped_empty, 2);
        // 1 real + 1 completion.
        assert_eq!(outcome.stats.failure_points, 2);

        let cfg = XfConfig {
            skip_empty_failure_points: false,
            ..XfConfig::default()
        };
        let outcome2 = XfDetector::new(cfg).run(Quiet).unwrap();
        assert_eq!(outcome2.stats.skipped_empty, 0);
        assert_eq!(outcome2.stats.failure_points, 4);
    }

    #[test]
    fn fire_on_every_write_ablation_multiplies_failure_points() {
        struct W;
        impl Workload for W {
            fn name(&self) -> &str {
                "w"
            }
            fn pool_size(&self) -> u64 {
                64 * 1024
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
                let a = ctx.pool().base();
                for i in 0..10 {
                    ctx.write_u64(a + i * 8, i)?;
                }
                ctx.persist_barrier(a, 80)?;
                Ok(())
            }
            fn post_failure(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
        }
        let base = XfDetector::with_defaults().run(W).unwrap();
        let cfg = XfConfig {
            fire_on_every_write: true,
            ..XfConfig::default()
        };
        let ablated = XfDetector::new(cfg).run(W).unwrap();
        assert!(
            ablated.stats.failure_points > base.stats.failure_points,
            "{} !> {}",
            ablated.stats.failure_points,
            base.stats.failure_points
        );
    }

    #[test]
    fn stats_account_time_and_entries() {
        let outcome = XfDetector::with_defaults()
            .run(Flag { persist: true })
            .unwrap();
        let s = &outcome.stats;
        assert!(s.pre_entries > 0);
        assert!(s.post_entries > 0);
        assert!(s.total_time >= s.post_exec_time + s.detect_time);
        assert!(s.pre_exec_time() <= s.total_time);
    }

    #[test]
    fn fingerprint_time_is_split_from_post_exec_time() {
        for pruning in [Pruning::Off, Pruning::Equivalence] {
            let cfg = XfConfig {
                pruning,
                ..XfConfig::default()
            };
            let s = XfDetector::new(cfg)
                .run(Flag { persist: true })
                .unwrap()
                .stats;
            assert_eq!(s.fingerprint_time.is_zero(), pruning == Pruning::Off);
            assert!(s.post_exec_time + s.detect_time <= s.total_time);
        }
    }

    /// Repeatedly publishes the same value: every failure point after the
    /// first sees a byte-identical crash image, so dedup elides all but
    /// one post-failure execution.
    struct Republish;
    impl Workload for Republish {
        fn name(&self) -> &str {
            "republish"
        }
        fn pool_size(&self) -> u64 {
            4096
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let a = ctx.pool().base();
            for _ in 0..5 {
                ctx.write_u64(a, 7)?;
                ctx.persist_barrier(a, 8)?;
            }
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let _ = ctx.read_u64(ctx.pool().base())?;
            Ok(())
        }
    }

    #[test]
    fn dedup_elides_identical_images_without_changing_the_report() {
        let dedup_off = XfConfig {
            dedup_images: false,
            ..XfConfig::default()
        };
        let off = XfDetector::new(dedup_off).run(Republish).unwrap();
        let on = XfDetector::with_defaults().run(Republish).unwrap();

        assert_eq!(off.stats.images_deduped, 0);
        assert!(
            on.stats.images_deduped >= 1,
            "identical images must be recognized: {:?}",
            on.stats
        );
        assert_eq!(
            on.stats.post_runs + on.stats.images_deduped,
            on.stats.failure_points
        );
        assert_eq!(off.stats.failure_points, on.stats.failure_points);
        assert_eq!(off.stats.post_entries, on.stats.post_entries);
        assert_eq!(
            format!("{:?}", off.report.findings()),
            format!("{:?}", on.report.findings()),
            "dedup must never add or drop a finding"
        );
    }

    #[test]
    fn complete_detection_stops_injection() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use xftrace::SourceLoc;
        /// Post-failure runs, counted across the parallel workers.
        static POSTS: AtomicU64 = AtomicU64::new(0);
        /// Ten failure points, each leaving an unflushed line for the
        /// post-failure stage to race on from a read site of its own, and
        /// a redundant flush halfway: a pre-failure finding after the
        /// completing failure point.
        struct Stopper;
        const SITES: [&str; 11] = [
            "<read 0>",
            "<read 1>",
            "<read 2>",
            "<read 3>",
            "<read 4>",
            "<read 5>",
            "<read 6>",
            "<read 7>",
            "<read 8>",
            "<read 9>",
            "<read 10>",
        ];
        impl Workload for Stopper {
            fn name(&self) -> &str {
                "stopper"
            }
            fn pool_size(&self) -> u64 {
                64 * 1024
            }
            fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
                Ok(())
            }
            fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
                let a = ctx.pool().base();
                for i in 0..10 {
                    ctx.write_u64(a + 4096, i)?; // never flushed
                    ctx.write_u64(a + i * 64, i + 1)?;
                    ctx.persist_barrier(a + i * 64, 8)?;
                    if i == 5 {
                        ctx.persist_barrier(a + i * 64, 8)?;
                    }
                }
                Ok(())
            }
            fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
                POSTS.fetch_add(1, Ordering::Relaxed);
                let a = ctx.pool().base();
                let mut persisted = 0;
                while persisted < 10 && ctx.read_u64(a + persisted * 64)? != 0 {
                    persisted += 1;
                }
                let site = SourceLoc::synthetic(SITES[persisted as usize]);
                ctx.read_u64_at(a + 4096, site)?;
                ctx.complete_detection(); // the first post run ends testing
                Ok(())
            }
        }
        let detector = XfDetector::with_defaults();
        let json = |o: &RunOutcome| serde_json::to_string(&o.report).unwrap();
        POSTS.store(0, Ordering::Relaxed);
        let batch = detector.run(Stopper).unwrap();
        assert_eq!(batch.stats.failure_points, 1);
        assert_eq!(batch.stats.post_runs, 1);
        assert_eq!(POSTS.load(Ordering::Relaxed), 1);
        assert!(batch.report.race_count() >= 1, "{:?}", batch.report);
        assert!(batch.report.len() > batch.report.race_count());

        POSTS.store(0, Ordering::Relaxed);
        let stream = crate::run_pipelined(detector.config(), Stopper, &Default::default()).unwrap();
        assert_eq!(stream.stats.failure_points, 1);
        assert_eq!(stream.stats.post_runs, 1);
        assert_eq!(POSTS.load(Ordering::Relaxed), 1);
        assert_eq!(json(&stream), json(&batch));

        for workers in [1, 2] {
            POSTS.store(0, Ordering::Relaxed);
            let par = detector.run_parallel(Stopper, workers).unwrap();
            assert_eq!(json(&par), json(&batch), "{workers} workers");
            assert!(par.stats.accounting_holds(), "{:?}", par.stats);
            // Eleven ordering points plus `<completion>` unstopped; the
            // frontend stops once a result reports the completion.
            assert!(par.stats.failure_points < 12, "{:?}", par.stats);
            assert_eq!(POSTS.load(Ordering::Relaxed), par.stats.post_runs);
            assert_eq!(par.stats.post_entries, batch.stats.post_entries);
        }
    }

    /// A recovery loop that polls PM forever: the trace-entry budget is the
    /// only thing standing between this and a wedged run.
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
            // Waits for a sentinel the pre-failure stage never writes.
            while ctx.read_u64(a)? != u64::MAX {}
            Ok(())
        }
    }

    #[test]
    fn budget_kills_hanging_post_failure_and_reports_it() {
        let cfg = XfConfig::builder()
            .post_budget(Some(Budget::default().with_max_trace_entries(10_000)))
            .build()
            .unwrap();
        let outcome = XfDetector::new(cfg).run(Spinner).unwrap();
        assert!(outcome.stats.budget_exceeded >= 1, "{:?}", outcome.stats);
        let f = outcome
            .report
            .findings()
            .iter()
            .find(|f| f.kind == BugKind::BudgetExceeded)
            .expect("watchdog kill must surface as a finding");
        assert_eq!(
            f.message.as_deref().unwrap(),
            "post-failure trace-entry budget exceeded (10000 entries)"
        );
    }

    #[test]
    fn budget_kill_is_a_finding_even_without_catch_post_panics() {
        let cfg = XfConfig::builder()
            .catch_post_panics(false)
            .post_budget(Some(Budget::default().with_max_trace_entries(1_000)))
            .build()
            .unwrap();
        let outcome = XfDetector::new(cfg).run(Spinner).unwrap();
        assert!(outcome
            .report
            .findings()
            .iter()
            .any(|f| f.kind == BugKind::BudgetExceeded));
    }

    #[test]
    fn budget_does_not_disturb_well_behaved_workloads() {
        let unbudgeted = XfDetector::with_defaults()
            .run(Flag { persist: false })
            .unwrap();
        let cfg = XfConfig::builder()
            .post_budget(Some(Budget::default().with_max_trace_entries(1_000_000)))
            .build()
            .unwrap();
        let budgeted = XfDetector::new(cfg).run(Flag { persist: false }).unwrap();
        assert_eq!(
            serde_json::to_string(&unbudgeted.report).unwrap(),
            serde_json::to_string(&budgeted.report).unwrap(),
            "an ample budget must leave the report untouched"
        );
    }

    #[test]
    fn builder_rejects_invalid_values() {
        assert!(matches!(
            XfConfig::builder()
                .post_budget(Some(Budget::default()))
                .build(),
            Err(ConfigError::EmptyBudget)
        ));
        assert!(matches!(
            XfConfig::builder().threads(0).build(),
            Err(ConfigError::ZeroThreads)
        ));
        // Dedup needs no other switch: COW capture is the only snapshot form.
        let cfg = XfConfig::builder().dedup_images(false).build().unwrap();
        assert!(!cfg.dedup_images);
    }
}
