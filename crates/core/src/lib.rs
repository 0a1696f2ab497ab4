//! # XFDetector — cross-failure bug detection for persistent-memory programs
//!
//! A from-scratch Rust reproduction of *Cross-Failure Bug Detection in
//! Persistent Memory Programs* (Liu et al., ASPLOS 2020).
//!
//! A crash-consistent PM program must make the execution **before** a
//! failure (pre-failure stage) and the recovery/resumption **after** it
//! (post-failure stage) work together. The paper identifies two classes of
//! *cross-failure bugs* at this boundary:
//!
//! - **Cross-failure races** (§3.1): the post-failure stage reads data that
//!   the pre-failure stage was not guaranteed to have persisted,
//! - **Cross-failure semantic bugs** (§3.2): the post-failure stage reads
//!   persisted data that is semantically inconsistent under the program's
//!   crash-consistency mechanism (stale or uncommitted versions).
//!
//! This crate implements the detector:
//!
//! - [`ShadowPm`] replays PM-operation traces and tracks, per location, the
//!   persistence FSM of Figure 9, write timestamps and the consistency
//!   bookkeeping of Figure 10 (commit variables, transaction protection),
//! - [`XfDetector`] drives a [`Workload`]: it injects a failure point before
//!   every ordering point of the pre-failure stage (§4.2), snapshots the PM
//!   image, runs the post-failure stage on the snapshot and checks every
//!   post-failure read against the shadow state. The per-failure-point
//!   decision — elide or execute — is the [`Planner`]'s, and the batch,
//!   parallel and streaming drivers share one frontend and one checker
//!   (`detect.rs`); they differ only in where a post-failure execution runs
//!   (inline, on a worker pool, or beside a checker thread behind the
//!   [`spsc`] trace FIFO),
//! - [`DetectionReport`] collects deduplicated [`Finding`]s with the source
//!   locations of the racing reader and the last writer.
//!
//! The program-facing control interface of Table 2 (regions of interest,
//! skip regions, extra failure points, commit-variable annotation) lives on
//! [`pmem::PmCtx`], which this crate hooks into.
//!
//! # Quickstart
//!
//! See the [`XfDetector`] example for a complete run against the paper's
//! Figure 2 workload, and the `examples/` directory of the repository for
//! larger scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod detect;
mod engine;
mod error;
pub mod jobspec;
pub mod offline;
mod parallel;
pub mod plan;
mod prune;
mod report;
mod shadow;
pub mod spsc;
mod stats;
mod stream;
mod xfrun;

pub use concurrent::{ConcurrentWorkload, Scheduled};
pub use engine::{
    DynError, EngineError, RunOutcome, Workload, XfConfig, XfDetector, MAX_SCHEDULE_PLANS,
};
pub use error::{ConfigError, XfError};
pub use jobspec::JobSpec;
pub use plan::{Planner, PostOutcome, PostTrace};
pub use prune::{PruneCache, Pruning};
pub use report::{BugCategory, BugKind, DetectionReport, FailurePoint, Finding};
pub use shadow::{PersistState, PostChecker, ReadIndex, ShadowPm};
pub use stats::RunStats;
pub use stream::{run_pipelined, StreamOptions};
pub use xfrun::{
    run_fingerprint, Mode, ObsCounts, ObsHandle, Progress, RunCtl, RunMetrics, Session,
    SessionBuilder, StageMillis, DEFAULT_STREAM_CAPACITY,
};
pub use xfsched::{OpSequence, SchedulePlan, ScheduleSpec, StepFn, ThreadProgram};

/// One-stop imports for the session-based API.
///
/// ```
/// use xfdetector::prelude::*;
/// ```
pub mod prelude {
    pub use crate::{
        BugCategory, BugKind, ConcurrentWorkload, DetectionReport, DynError, Finding, JobSpec,
        Mode, Progress, Pruning, RunOutcome, ScheduleSpec, Session, SessionBuilder, Workload,
        XfConfig, XfError,
    };
    pub use pmem::{Budget, PmCtx};
}
