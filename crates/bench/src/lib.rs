//! Shared harness for the benchmark binaries and Criterion benches that
//! regenerate the paper's tables and figures (see DESIGN.md §3 for the
//! per-experiment index).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use pmem::{PmCtx, PmPool};
use xfd_workloads::bugs::{BugSet, WorkloadKind};
use xfd_workloads::{build, build_concurrent};
use xfdetector::{
    Mode, RunOutcome, SchedulePlan, ScheduleSpec, Scheduled, Session, Workload, XfConfig,
    XfDetector,
};

/// Runs full detection on `kind` with `ops` pre-failure operations.
///
/// # Panics
///
/// Panics if the detection run itself fails (setup/pre-failure errors),
/// which for the shipped workloads indicates a harness bug.
#[must_use]
pub fn run_detection(kind: WorkloadKind, ops: u64) -> RunOutcome {
    XfDetector::with_defaults()
        .run(build(kind, ops, BugSet::none()))
        .expect("detection run failed")
}

/// Runs full detection with an explicit configuration.
///
/// # Panics
///
/// Panics if the detection run itself fails.
#[must_use]
pub fn run_detection_with(kind: WorkloadKind, ops: u64, cfg: XfConfig) -> RunOutcome {
    XfDetector::new(cfg)
        .run(build(kind, ops, BugSet::none()))
        .expect("detection run failed")
}

/// Runs multi-threaded detection on a concurrent workload
/// (`treiber_stack` or `ms_queue`) across every plan `schedule` expands to
/// for `threads` logical threads, bug-free variant of `kind`.
///
/// # Panics
///
/// Panics if `kind` is not a concurrent workload or the run fails.
#[must_use]
pub fn run_concurrent_detection(
    kind: WorkloadKind,
    ops: u64,
    threads: u32,
    schedule: ScheduleSpec,
) -> RunOutcome {
    let w = build_concurrent(kind, ops, BugSet::none())
        .unwrap_or_else(|| panic!("{kind} is not a concurrent workload"));
    Session::builder()
        .threads(threads)
        .schedule(schedule)
        .build()
        .expect("session")
        .run_concurrent(w, Mode::Batch)
        .expect("detection run failed")
}

/// Runs detection with post-failure execution and checking spread over
/// `workers` threads, bug-free variant of `kind`.
///
/// # Panics
///
/// Panics if the detection run itself fails.
#[must_use]
pub fn run_parallel_detection(
    kind: WorkloadKind,
    ops: u64,
    cfg: XfConfig,
    workers: usize,
) -> RunOutcome {
    // `build` returns a boxed (non-`Send`) workload; parallel runs need the
    // concrete `Send + Sync` types.
    let det = XfDetector::new(cfg);
    match kind {
        WorkloadKind::Btree => det.run_parallel(xfd_workloads::btree::Btree::new(ops), workers),
        WorkloadKind::Ctree => det.run_parallel(xfd_workloads::ctree::Ctree::new(ops), workers),
        WorkloadKind::Rbtree => det.run_parallel(xfd_workloads::rbtree::Rbtree::new(ops), workers),
        WorkloadKind::HashmapTx => {
            det.run_parallel(xfd_workloads::hashmap_tx::HashmapTx::new(ops), workers)
        }
        WorkloadKind::HashmapAtomic => det.run_parallel(
            xfd_workloads::hashmap_atomic::HashmapAtomic::new(ops),
            workers,
        ),
        WorkloadKind::Redis => det.run_parallel(xfd_workloads::redis::Redis::new(ops), workers),
        WorkloadKind::Memcached => {
            det.run_parallel(xfd_workloads::memcached::Memcached::new(ops), workers)
        }
        // The concurrent workloads run their one-thread degeneration here,
        // exactly as `build` does for the sequential entry points.
        WorkloadKind::TreiberStack => det.run_parallel(
            Scheduled::new(
                xfd_workloads::treiber::TreiberStack::new(ops),
                SchedulePlan::round_robin(1),
            ),
            workers,
        ),
        WorkloadKind::MsQueue => det.run_parallel(
            Scheduled::new(
                xfd_workloads::msqueue::MsQueue::new(ops),
                SchedulePlan::round_robin(1),
            ),
            workers,
        ),
    }
    .expect("detection run failed")
}

/// Runs detection through the streaming frontend/backend pipeline
/// (`xfdetector::run_pipelined`) with the default FIFO options, bug-free
/// variant of `kind`.
///
/// # Panics
///
/// Panics if the detection run itself fails.
#[must_use]
pub fn run_streaming_detection(kind: WorkloadKind, ops: u64, cfg: XfConfig) -> RunOutcome {
    let opts = xfdetector::StreamOptions::default();
    match kind {
        WorkloadKind::Btree => {
            xfdetector::run_pipelined(&cfg, xfd_workloads::btree::Btree::new(ops), &opts)
        }
        WorkloadKind::Ctree => {
            xfdetector::run_pipelined(&cfg, xfd_workloads::ctree::Ctree::new(ops), &opts)
        }
        WorkloadKind::Rbtree => {
            xfdetector::run_pipelined(&cfg, xfd_workloads::rbtree::Rbtree::new(ops), &opts)
        }
        WorkloadKind::HashmapTx => {
            xfdetector::run_pipelined(&cfg, xfd_workloads::hashmap_tx::HashmapTx::new(ops), &opts)
        }
        WorkloadKind::HashmapAtomic => xfdetector::run_pipelined(
            &cfg,
            xfd_workloads::hashmap_atomic::HashmapAtomic::new(ops),
            &opts,
        ),
        WorkloadKind::Redis => {
            xfdetector::run_pipelined(&cfg, xfd_workloads::redis::Redis::new(ops), &opts)
        }
        WorkloadKind::Memcached => {
            xfdetector::run_pipelined(&cfg, xfd_workloads::memcached::Memcached::new(ops), &opts)
        }
        WorkloadKind::TreiberStack => xfdetector::run_pipelined(
            &cfg,
            Scheduled::new(
                xfd_workloads::treiber::TreiberStack::new(ops),
                SchedulePlan::round_robin(1),
            ),
            &opts,
        ),
        WorkloadKind::MsQueue => xfdetector::run_pipelined(
            &cfg,
            Scheduled::new(
                xfd_workloads::msqueue::MsQueue::new(ops),
                SchedulePlan::round_robin(1),
            ),
            &opts,
        ),
    }
    .expect("detection run failed")
}

/// Size of one recorded detection trace in its two serialized forms — the
/// raw material for the `trace[KiB]` benchmark columns.
#[derive(Debug, Clone, Copy)]
pub struct TraceSizes {
    /// Total recorded entries (pre-failure plus all post-failure traces).
    pub entries: u64,
    /// Bytes of the compact `.xft` binary encoding.
    pub xft_bytes: u64,
    /// Bytes of the `serde_json` fallback encoding.
    pub json_bytes: u64,
}

impl TraceSizes {
    /// JSON-over-`.xft` compression ratio.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.json_bytes as f64 / self.xft_bytes.max(1) as f64
    }
}

/// Records the bug-free `kind` trace at `ops` operations and measures both
/// encodings.
///
/// # Panics
///
/// Panics if the detection run or the encoding fails.
#[must_use]
pub fn trace_sizes(kind: WorkloadKind, ops: u64) -> TraceSizes {
    let cfg = XfConfig {
        record_trace: true,
        ..XfConfig::default()
    };
    let run = run_detection_with(kind, ops, cfg)
        .recorded
        .expect("trace recorded");
    let xft = xfstream::encode_recorded_run(&run).expect("xft encoding");
    let json = serde_json::to_string(&run).expect("json encoding");
    TraceSizes {
        entries: run.entry_count() as u64,
        xft_bytes: xft.len() as u64,
        json_bytes: json.len() as u64,
    }
}

/// Baseline execution modes of Figure 12b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Uninstrumented program: tracing disabled (the "Original" bars).
    Original,
    /// Trace-only: every PM operation is recorded but nothing is detected
    /// (the "Pure Pin" bars).
    TraceOnly,
}

/// Runs `kind` once (setup + pre-failure + one post-failure pass) without
/// the detector, under the given baseline mode, returning the wall-clock
/// time.
///
/// # Panics
///
/// Panics if the workload itself fails.
#[must_use]
pub fn run_baseline(kind: WorkloadKind, ops: u64, mode: Baseline) -> Duration {
    let w = build(kind, ops, BugSet::none());
    let mut ctx = PmCtx::new(PmPool::new(w.pool_size()).expect("pool"));
    if mode == Baseline::Original {
        ctx.set_tracing(false);
    }
    let start = Instant::now();
    w.setup(&mut ctx).expect("setup");
    w.pre_failure(&mut ctx).expect("pre-failure");
    // One recovery pass, as the real program would perform after a crash.
    let image = ctx.pool().full_image();
    let mut post = ctx.fork_post(&image);
    if mode == Baseline::Original {
        post.set_tracing(false);
    }
    w.post_failure(&mut post).expect("post-failure");
    let elapsed = start.elapsed();
    // Drop the accumulated traces outside the timed region.
    let _ = ctx.trace().drain();
    let _ = post.trace().drain();
    elapsed
}

/// Formats a duration in seconds with three decimals.
#[must_use]
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Geometric mean of a slice of ratios.
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn geo_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let log_sum: f64 = xs.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_and_baselines_run() {
        let outcome = run_detection(WorkloadKind::Ctree, 2);
        assert!(outcome.stats.failure_points > 0);
        let par = run_parallel_detection(WorkloadKind::Ctree, 2, XfConfig::default(), 2);
        assert_eq!(
            serde_json::to_string(&par.report).unwrap(),
            serde_json::to_string(&outcome.report).unwrap()
        );
        let orig = run_baseline(WorkloadKind::Ctree, 2, Baseline::Original);
        let trace = run_baseline(WorkloadKind::Ctree, 2, Baseline::TraceOnly);
        assert!(orig > Duration::ZERO);
        assert!(trace > Duration::ZERO);
    }

    #[test]
    fn geo_mean_of_constant_is_constant() {
        assert!((geo_mean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geo_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
