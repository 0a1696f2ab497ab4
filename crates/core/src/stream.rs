//! The stream driver, the paper's deployment shape (§5.1, Figure 8): the
//! frontend — workload execution, failure injection, post-failure runs —
//! and the checker — shadow-PM replay and cross-failure checking — run on
//! two threads joined by a bounded FIFO ([`crate::spsc`], std's
//! `sync_channel`). The frontend ships its messages in windows, one
//! channel send per window. Detection overlaps program execution; when the
//! checker falls behind, the FIFO fills and the frontend blocks
//! (backpressure), like the paper's 2 GB shared-memory queue.
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

use crate::detect::{self, Checked, Checker, Execution, Msg, Sink, Traced, SPARE_ENTRIES};
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
    /// FIFO capacity in *messages* (a failure-point interval ships up to
    /// two: its pre-failure entries and the failure point), the analogue
    /// of the paper's FIFO size. Small values exercise backpressure;
    /// large values decouple the stages further.
    pub capacity: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            capacity: crate::DEFAULT_STREAM_CAPACITY,
        }
    }
}

/// Messages per window, the unit the FIFO carries. Each channel send moves
/// the channel's shared state between the two threads' cores, and the
/// frontend, which pays for it, is a pruned run's critical path: one send
/// per message kept the stream driver slower than batch. On `xfbench
/// --workload pruned-stream` windows of 32, 64 and 128 messages read
/// median verdicts of 1.76, 1.71 and 1.72 ms (EXPERIMENTS.md, "Windowed
/// trace FIFO"). A capacity below this shrinks the window to the
/// capacity.
const WINDOW: usize = 64;

/// Applied windows on their way back from the checker thread to the
/// frontend, which fills them again. Two cover the FIFO's jitter; a full
/// return path frees the window on the checker thread instead, which
/// bounds the memory the windows pin.
const RETURNED_WINDOWS: usize = 2;

/// One channel send: up to a window's messages, in program order. The
/// entries of its `Pre` messages share one buffer, so the frontend's trace
/// buffer never leaves its thread and a window is two allocations.
#[derive(Debug)]
struct Window {
    /// The pre-failure entries of the window's intervals, back to back.
    pre: Vec<TraceEntry>,
    /// The messages, each `Pre` message as its entry count in `pre`.
    msgs: Vec<Part>,
}

/// A message as a window holds it.
#[derive(Debug)]
enum Part {
    /// A `Pre` message: this many entries of the window's `pre`.
    Pre(usize),
    /// Any other message.
    Msg(Msg),
}

impl Window {
    fn new(window: usize) -> Self {
        Window {
            pre: Vec::new(),
            msgs: Vec::with_capacity(window),
        }
    }

    /// Applies the window's messages to `checker`, in order, and leaves
    /// the window empty.
    fn apply_to(&mut self, checker: &mut Checker) {
        let mut at = 0;
        for part in self.msgs.drain(..) {
            match part {
                Part::Pre(n) => {
                    checker.send_pre(&self.pre[at..at + n]);
                    at += n;
                }
                Part::Msg(msg) => checker.send(msg),
            }
        }
        self.pre.clear();
    }
}

/// The frontend's end of the FIFO: the sink the stream driver hands the
/// detection loop. It collects messages into a window and ships each full
/// window; `finish` ships the last one and joins the checker. A frontend
/// that unwinds drops its pending window with the sender, so the checker
/// drains the FIFO and ends on its own.
struct Ring {
    tx: Sender<Window>,
    /// The window being filled.
    pending: Window,
    /// Messages per window: [`WINDOW`], or the capacity if it is smaller.
    window: usize,
    /// Applied windows back from the checker, to fill again. Neither side
    /// blocks on the return path.
    returned: mpsc::Receiver<Window>,
    /// The trace buffer of the last shipped interval (see
    /// [`Sink::spare`]), if it holds room for at most [`SPARE_ENTRIES`].
    spare: Vec<TraceEntry>,
    /// With pruning on, the planner fingerprints this replica of the
    /// checker's shadow, fed each pre batch before it ships. Its findings
    /// are discarded: the checker owns the report.
    replica: ShadowPm,
    pruning: bool,
    checker: JoinHandle<(Checked, RingStats)>,
}

impl Ring {
    /// Sends the pending window. A send only fails when the checker died
    /// mid-run; `finish` surfaces its panic, so the error is swallowed.
    fn ship(&mut self) {
        let next = self
            .returned
            .try_recv()
            .unwrap_or_else(|_| Window::new(self.window));
        let window = std::mem::replace(&mut self.pending, next);
        let _ = self.tx.send(window);
    }
}

impl Sink for Ring {
    type Rep = Execution;

    fn send(&mut self, msg: Msg) {
        match msg {
            Msg::Pre(pre) => {
                if self.pruning {
                    let mut discarded = DetectionReport::new();
                    for e in &pre {
                        self.replica.apply_pre(e, &mut discarded);
                    }
                }
                self.pending.pre.extend_from_slice(&pre);
                self.pending.msgs.push(Part::Pre(pre.len()));
                if pre.capacity() <= SPARE_ENTRIES {
                    self.spare = pre;
                }
            }
            msg => self.pending.msgs.push(Part::Msg(msg)),
        }
        if self.pending.msgs.len() == self.window {
            self.ship();
        }
    }

    fn spare(&mut self) -> Vec<TraceEntry> {
        std::mem::take(&mut self.spare)
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

    fn finish(mut self, mut stats: RunStats) -> RunOutcome {
        if !self.pending.msgs.is_empty() {
            self.ship();
        }
        // Dropping the sender ends the stream: the checker drains the FIFO
        // and returns.
        drop(self.tx);
        let (checked, ring) = self.checker.join().expect("detection checker panicked");
        stats.stream_batches = ring.sends;
        // The channel holds at most `capacity / window` windows, so this
        // is at most the capacity.
        stats.stream_max_depth = ring.max_depth * self.window as u64;
        stats.stream_stall_time = ring.producer_stall;
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
/// Panics if `opts.capacity` is zero. Propagates a panic of the checker
/// thread (which only panics on internal invariant violations, never on
/// workload behavior).
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
    assert!(capacity > 0, "stream capacity must be non-zero");
    let window = WINDOW.min(capacity);
    detect::run(config, workload, ctl.clone(), |_| {
        // At most `capacity` messages wait in full windows.
        let (tx, rx) = channel::<Window>(capacity / window);
        let (returns, returned) = mpsc::sync_channel(RETURNED_WINDOWS);
        let checker_config = config.clone();
        // The checker's shadow and report are allocated and freed on its
        // thread, never on the frontend's heap: freeing them on the
        // frontend thread measurably slowed the set-up of later runs.
        let checker = std::thread::spawn(move || {
            let shadow = ShadowPm::with_domain(checker_config.domain);
            let mut checker = Checker::new(&checker_config, shadow, ctl);
            while let Some(mut applied) = rx.recv() {
                applied.apply_to(&mut checker);
                // Hand the window back to the thread that allocated it,
                // rather than free it here, unless its entries outgrew
                // the reuse bound.
                if applied.pre.capacity() <= SPARE_ENTRIES * window {
                    let _ = returns.try_send(applied);
                }
            }
            (checker.close(), rx.stats())
        });
        Ring {
            tx,
            pending: Window::new(window),
            window,
            returned,
            spare: Vec::new(),
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

    /// `INTERVALS` failure points, several windows' worth of messages.
    /// Interval `i` stores a data word and a flag word on lines of their
    /// own and persists the flag, and the data only for even `i`. The
    /// recovery reads interval 0 and, at `complete_at`, requests
    /// `completeDetection` once that interval's flag is persisted. The
    /// pre-failure stage fails at `fail_at`.
    #[derive(Clone, Copy)]
    struct Intervals {
        fail_at: Option<u64>,
        complete_at: Option<u64>,
    }

    const INTERVALS: u64 = 100;

    impl Intervals {
        const PLAIN: Intervals = Intervals {
            fail_at: None,
            complete_at: None,
        };

        fn line(ctx: &mut PmCtx, i: u64) -> u64 {
            ctx.pool().base() + 64 * i
        }
    }

    impl Workload for Intervals {
        fn name(&self) -> &str {
            "intervals"
        }
        fn pool_size(&self) -> u64 {
            64 * 2 * INTERVALS + 4096
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            for i in 0..INTERVALS {
                if self.fail_at == Some(i) {
                    return Err("pre blew up mid-window".into());
                }
                let (data, flag) = (Self::line(ctx, 2 * i), Self::line(ctx, 2 * i + 1));
                ctx.write_u64(data, i + 1)?;
                if i % 2 == 0 {
                    ctx.persist_barrier(data, 8)?;
                }
                ctx.write_u64(flag, 1)?;
                ctx.persist_barrier(flag, 8)?;
            }
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let (data, flag) = (Self::line(ctx, 0), Self::line(ctx, 1));
            if ctx.read_u64(flag)? == 1 {
                let _ = ctx.read_u64(data)?;
            }
            if let Some(k) = self.complete_at {
                let flag = Self::line(ctx, 2 * k + 1);
                if ctx.read_u64(flag)? == 1 {
                    ctx.complete_detection();
                }
            }
            Ok(())
        }
    }

    /// Capacities at the window's edges: one message per send, a window
    /// shrunk to the capacity, exactly one window in the FIFO, one window
    /// with a message's slack, and the default.
    const EDGES: [usize; 5] = [
        1,
        WINDOW - 1,
        WINDOW,
        WINDOW + 1,
        crate::DEFAULT_STREAM_CAPACITY,
    ];

    /// Stream runs of `w` at every [`EDGES`] capacity, with pruning off
    /// and on, report and record byte for byte what the batch driver does.
    fn assert_windows_match_batch(w: Intervals) {
        use crate::Pruning;
        let recorded =
            |o: &RunOutcome| serde_json::to_string(o.recorded.as_ref().unwrap()).unwrap();
        for pruning in [Pruning::Off, Pruning::Equivalence] {
            let cfg = XfConfig {
                record_trace: true,
                pruning,
                ..XfConfig::default()
            };
            let batch = XfDetector::new(cfg.clone()).run(w).unwrap();
            assert!(!batch.report.findings().is_empty());
            for capacity in EDGES {
                let stream = run_pipelined(&cfg, w, &StreamOptions { capacity }).unwrap();
                let label = format!("{pruning:?} capacity={capacity}");
                assert_eq!(report_json(&batch), report_json(&stream), "{label}");
                assert_eq!(recorded(&batch), recorded(&stream), "{label}");
                let s = &stream.stats;
                assert!(s.stream_max_depth as usize <= capacity, "{label}: {s:?}");
                assert_eq!(s.failure_points, batch.stats.failure_points, "{label}");
            }
        }
    }

    #[test]
    fn window_edges_match_batch_byte_for_byte() {
        assert_windows_match_batch(Intervals::PLAIN);
        let o = run_pipelined(
            &XfConfig::default(),
            Intervals::PLAIN,
            &StreamOptions::default(),
        )
        .unwrap();
        assert!(o.stats.failure_points > WINDOW as u64, "{:?}", o.stats);
        // Two messages per failure point, one send per full window.
        assert!(o.stats.stream_batches > 2, "{:?}", o.stats);
        assert!(o.stats.stream_batches <= 2 * o.stats.failure_points / WINDOW as u64 + 1);
    }

    #[test]
    fn complete_detection_mid_window_matches_batch() {
        let w = Intervals {
            complete_at: Some(70),
            ..Intervals::PLAIN
        };
        assert_windows_match_batch(w);
        let full = XfDetector::new(XfConfig::default())
            .run(Intervals::PLAIN)
            .unwrap();
        let stopped = run_pipelined(&XfConfig::default(), w, &StreamOptions::default()).unwrap();
        let fps = stopped.stats.failure_points;
        assert!(fps < full.stats.failure_points, "{:?}", stopped.stats);
        assert!(2 * fps % WINDOW as u64 != 0, "stops mid-window: {fps}");
    }

    #[test]
    fn a_pre_failure_error_mid_window_returns_once_the_checker_drained() {
        use crate::{Mode, XfError};
        let w = Intervals {
            fail_at: Some(70),
            ..Intervals::PLAIN
        };
        for capacity in EDGES {
            let err = run_pipelined(&XfConfig::default(), w, &StreamOptions { capacity });
            assert!(matches!(err, Err(EngineError::PreFailure(_))), "{capacity}");
        }
        // Every failure point executes with pruning off, and its store
        // record is written when the checker commits it: a stream run
        // whose error returned before the checker drained the pending
        // window would leave a shorter file than the batch run's.
        let journal = |mode: Mode, capacity: usize| {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "stream-window-error-{}-{}-{capacity}.xfj",
                std::process::id(),
                mode.name()
            ));
            let session = crate::Session::builder()
                .stream_capacity(capacity)
                .journal(&path)
                .build()
                .unwrap();
            let err = session.run(w, mode);
            assert!(matches!(err, Err(XfError::PreFailure(_))), "{capacity}");
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        };
        let batch = journal(Mode::Batch, 1);
        for capacity in EDGES {
            assert_eq!(journal(Mode::Stream, capacity), batch, "{capacity}");
        }
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
