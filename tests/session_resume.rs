//! Fault-tolerant orchestration, end to end: a detection run killed partway
//! through and resumed from its post-trace store must merge to a report
//! byte-identical to an uninterrupted run — in every execution mode, on
//! multiple workloads, under random crash images and across schedule
//! sweeps — its recording must analyze to the same report, and a workload
//! that hangs its own recovery must terminate under a budget with the
//! overrun reported as a finding.

use xfd::pmem::CrashPolicy;
use xfd::prelude::*;
use xfd::workloads::build_concurrent;

/// Serialized form used for byte-identity comparisons (the same form the
/// CLI and the cross-mode equivalence suite compare).
fn report_json(outcome: &RunOutcome) -> String {
    serde_json::to_string(&outcome.report).expect("reports serialize")
}

fn journal_path(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "xfd-session-resume-{}-{tag}.xfj",
        std::process::id()
    ));
    path
}

/// Builds a session for `mode`: every mode goes through the stream-capable
/// builder so the one test body covers all three dispatch paths.
fn session() -> SessionBuilder {
    stream_session()
}

const KILL_AFTER: u64 = 3;

/// Kill-and-resume on `kind` in `mode`: run to completion for reference,
/// run again capped at [`KILL_AFTER`] failure points while journaling
/// (the "killed" run), then resume from the journal and demand a
/// byte-identical report.
fn assert_resume_equivalence(kind: WorkloadKind, mode: Mode) {
    let ops = validation_ops(kind);
    let build_workload = || build(kind, ops, BugSet::none());
    let path = journal_path(&format!("{kind}-{}", mode.name()));
    std::fs::remove_file(&path).ok();

    let reference = session()
        .build()
        .unwrap()
        .run(build_workload(), mode)
        .unwrap();
    assert!(
        reference.stats.failure_points > KILL_AFTER,
        "{kind}/{}: too few failure points ({}) to exercise a mid-run kill",
        mode.name(),
        reference.stats.failure_points
    );

    let killed = session()
        .config(XfConfig {
            max_failure_points: Some(KILL_AFTER),
            ..XfConfig::default()
        })
        .journal(&path)
        .build()
        .unwrap();
    killed.run(build_workload(), mode).unwrap();

    let resumed = session().resume(&path).build().unwrap();
    let outcome = resumed.run(build_workload(), mode).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(
        outcome.stats.cache_hits,
        KILL_AFTER,
        "{kind}/{}: resume must replay exactly the stored failure points",
        mode.name()
    );
    assert_eq!(
        report_json(&reference),
        report_json(&outcome),
        "{kind}/{}: resumed report must be byte-identical to an uninterrupted run",
        mode.name()
    );
}

#[test]
fn batch_resume_is_byte_identical_on_btree() {
    assert_resume_equivalence(WorkloadKind::Btree, Mode::Batch);
}

#[test]
fn batch_resume_is_byte_identical_on_hashmap_atomic() {
    assert_resume_equivalence(WorkloadKind::HashmapAtomic, Mode::Batch);
}

#[test]
fn parallel_resume_is_byte_identical_on_btree() {
    assert_resume_equivalence(WorkloadKind::Btree, Mode::Parallel);
}

#[test]
fn parallel_resume_is_byte_identical_on_hashmap_atomic() {
    assert_resume_equivalence(WorkloadKind::HashmapAtomic, Mode::Parallel);
}

#[test]
fn stream_resume_is_byte_identical_on_btree() {
    assert_resume_equivalence(WorkloadKind::Btree, Mode::Stream);
}

#[test]
fn stream_resume_is_byte_identical_on_hashmap_atomic() {
    assert_resume_equivalence(WorkloadKind::HashmapAtomic, Mode::Stream);
}

/// The registry's hanging bug ([`BugId::HaHangRecoveryLoop`]): recovery
/// spins forever on a PM read, so the run only terminates because the
/// budget watchdog kills each overrunning execution — and every kill must
/// surface as an execution-failure finding rather than wedging the run.
#[test]
fn hanging_recovery_terminates_under_budget_with_findings() {
    let bug = BugId::HaHangRecoveryLoop;
    let outcome = session()
        .config(validation_config(bug))
        .build()
        .unwrap()
        .run(build_with_bug(bug), Mode::Batch)
        .unwrap();
    assert!(
        outcome.stats.budget_exceeded >= 1,
        "expected budget kills, got {:?}",
        outcome.stats
    );
    assert!(
        outcome.report.execution_failure_count() >= 1,
        "budget kills must be reported as findings:\n{}",
        outcome.report
    );
    // Budget overruns classify as execution failures only — they never
    // contaminate the race/semantic/performance verdicts.
    assert_eq!(outcome.report.race_count(), 0);
    assert_eq!(outcome.report.semantic_count(), 0);
    assert_eq!(outcome.report.performance_count(), 0);
}

/// The same hang, killed by the deterministic trace-entry axis through the
/// explicit [`XfConfig::post_budget`] knob, across the parallel engine —
/// the quarantine path must report the identical findings as batch.
#[test]
fn budget_kills_are_identical_across_batch_and_parallel() {
    let bug = BugId::HaHangRecoveryLoop;
    let budget = Budget::default().with_max_trace_entries(20_000);
    let run = |mode: Mode| {
        session()
            .config(XfConfig {
                post_budget: Some(budget.clone()),
                ..XfConfig::default()
            })
            .build()
            .unwrap()
            .run(build_with_bug(bug), mode)
            .unwrap()
    };
    let batch = run(Mode::Batch);
    let parallel = run(Mode::Parallel);
    assert!(batch.stats.budget_exceeded >= 1);
    assert_eq!(report_json(&batch), report_json(&parallel));
}

/// Budget accounting under pruning: the watchdog tallies *representative*
/// executions only. A pruned class member replays its representative's
/// trace — re-emitting the overrun finding so the report stays complete —
/// but never inflates the kill counter, because nothing was executed (let
/// alone killed) on its behalf.
#[test]
fn budget_kills_count_representative_executions_only() {
    let bug = BugId::HaHangRecoveryLoop;
    let budget = Budget::default().with_max_trace_entries(20_000);
    let run = |pruning: Pruning, mode: Mode| {
        session()
            .config(XfConfig {
                post_budget: Some(budget.clone()),
                pruning,
                ..XfConfig::default()
            })
            .build()
            .unwrap()
            .run(build_with_bug(bug), mode)
            .unwrap()
    };

    let exhaustive = run(Pruning::Off, Mode::Batch);
    assert!(exhaustive.stats.budget_exceeded >= 1);

    for mode in [Mode::Batch, Mode::Parallel, Mode::Stream] {
        let pruned = run(Pruning::Equivalence, mode);
        // Kills can only come from executions that actually ran.
        assert!(
            pruned.stats.budget_exceeded <= pruned.stats.post_runs,
            "{}: more kills than representative executions: {:?}",
            mode.name(),
            pruned.stats
        );
        assert!(
            pruned.stats.budget_exceeded >= 1,
            "{}: the hang's representative must still be killed: {:?}",
            mode.name(),
            pruned.stats
        );
        // Replayed members re-emit the finding, so detection is intact.
        assert!(
            pruned.report.execution_failure_count() >= 1,
            "{}: pruned run lost the overrun finding:\n{}",
            mode.name(),
            pruned.report
        );
        // Determinism: the representative choice (first member in trace
        // order) and the kill tally reproduce run over run.
        let again = run(Pruning::Equivalence, mode);
        assert_eq!(report_json(&pruned), report_json(&again));
        assert_eq!(pruned.stats.budget_exceeded, again.stats.budget_exceeded);
    }
}

/// `workers == 0` clamps to one worker instead of deadlocking an empty
/// pool, and the clamped run still honors representative-only budget
/// accounting under pruning.
#[test]
fn zero_workers_clamps_to_one_under_pruning() {
    let bug = BugId::HaHangRecoveryLoop;
    let budget = Budget::default().with_max_trace_entries(20_000);
    let run = |workers: usize| {
        session()
            .config(XfConfig {
                post_budget: Some(budget.clone()),
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
            .workers(workers)
            .build()
            .unwrap()
            .run(build_with_bug(bug), Mode::Parallel)
            .unwrap()
    };
    let clamped = run(0);
    let one = run(1);
    assert_eq!(report_json(&clamped), report_json(&one));
    assert_eq!(clamped.stats.budget_exceeded, one.stats.budget_exceeded);
    assert!(clamped.stats.budget_exceeded <= clamped.stats.post_runs);
    assert!(clamped.stats.fps_pruned >= 1, "{:?}", clamped.stats);
}

/// Resume and pruning compose: a pruned run killed partway and resumed
/// from its store merges to the byte-identical report of an uninterrupted
/// pruned run. Stored failure points do not seed the prune cache, so a
/// class whose representative fell before the kill simply elects a new
/// one.
#[test]
fn pruned_runs_resume_byte_identically() {
    let kind = WorkloadKind::Btree;
    let ops = validation_ops(kind);
    let build_workload = || build(kind, ops, BugSet::none());
    for mode in [Mode::Batch, Mode::Parallel, Mode::Stream] {
        let path = journal_path(&format!("pruned-{}", mode.name()));
        std::fs::remove_file(&path).ok();

        let reference = session()
            .config(XfConfig {
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
            .build()
            .unwrap()
            .run(build_workload(), mode)
            .unwrap();
        assert!(reference.stats.fps_pruned >= 1, "{:?}", reference.stats);

        session()
            .config(XfConfig {
                max_failure_points: Some(KILL_AFTER),
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
            .journal(&path)
            .build()
            .unwrap()
            .run(build_workload(), mode)
            .unwrap();

        let outcome = session()
            .config(XfConfig {
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            })
            .resume(&path)
            .build()
            .unwrap()
            .run(build_workload(), mode)
            .unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(outcome.stats.cache_hits, KILL_AFTER);
        assert_eq!(
            outcome.stats.post_runs
                + outcome.stats.images_deduped
                + outcome.stats.fps_pruned
                + outcome.stats.cache_hits,
            outcome.stats.failure_points,
            "{}: accounting broke: {:?}",
            mode.name(),
            outcome.stats
        );
        assert_eq!(
            report_json(&reference),
            report_json(&outcome),
            "{}: resumed pruned report must match an uninterrupted pruned run",
            mode.name()
        );
    }
}

/// A budget-killed run is itself resumable: the stored overrun outcomes
/// replay verbatim and the merged report stays byte-identical.
#[test]
fn resume_preserves_budget_overrun_findings() {
    let bug = BugId::HaHangRecoveryLoop;
    let path = journal_path("budget-resume");
    std::fs::remove_file(&path).ok();
    let config = validation_config(bug);

    let reference = session()
        .config(config.clone())
        .build()
        .unwrap()
        .run(build_with_bug(bug), Mode::Batch)
        .unwrap();
    assert!(reference.stats.failure_points > KILL_AFTER);

    let mut capped = config.clone();
    capped.max_failure_points = Some(KILL_AFTER);
    session()
        .config(capped)
        .journal(&path)
        .build()
        .unwrap()
        .run(build_with_bug(bug), Mode::Batch)
        .unwrap();

    let outcome = session()
        .config(config)
        .resume(&path)
        .build()
        .unwrap()
        .run(build_with_bug(bug), Mode::Batch)
        .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(outcome.stats.cache_hits, KILL_AFTER);
    assert_eq!(report_json(&reference), report_json(&outcome));
    assert!(outcome.report.execution_failure_count() >= 1);
}

/// Six slots persisted one by one after an unpersisted word. Recovery
/// reads the word (a race at every failure point) and requests
/// `completeDetection` (Table 2) once three slots are written, so an
/// uninterrupted run stops at its third failure point.
#[derive(Clone, Copy)]
struct StopsAtThirdSlot;

impl Workload for StopsAtThirdSlot {
    fn name(&self) -> &str {
        "session-resume-completing"
    }
    fn pool_size(&self) -> u64 {
        4096
    }
    fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
        Ok(())
    }
    fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let a = ctx.pool().base();
        ctx.write_u64(a + 1024, 1)?;
        for i in 0..6 {
            ctx.write_u64(a + i * 64, i + 1)?;
            ctx.persist_barrier(a + i * 64, 8)?;
        }
        Ok(())
    }
    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let a = ctx.pool().base();
        let _ = ctx.read_u64(a + 1024)?;
        let mut written = 0;
        for i in 0..6 {
            written += u64::from(ctx.read_u64(a + i * 64)? != 0);
        }
        if written >= 3 {
            ctx.complete_detection();
        }
        Ok(())
    }
}

/// Resuming the store of a run that `completeDetection` stopped stops at
/// the same failure point: the same report byte for byte, the same
/// failure points, all of them stored, and no post-failure run.
#[test]
fn resuming_a_completed_run_stops_where_it_completed() {
    let reference = session()
        .build()
        .unwrap()
        .run(StopsAtThirdSlot, Mode::Batch)
        .unwrap();
    let fps = reference.stats.failure_points;
    assert_eq!(fps, 3, "{:?}", reference.stats);
    assert!(reference.report.race_count() >= 1, "{}", reference.report);
    for mode in [Mode::Batch, Mode::Stream, Mode::Parallel] {
        let path = journal_path(&format!("completing-{}", mode.name()));
        std::fs::remove_file(&path).ok();
        let journaled = session()
            .journal(&path)
            .build()
            .unwrap()
            .run(StopsAtThirdSlot, mode)
            .unwrap();
        assert_eq!(report_json(&journaled), report_json(&reference));
        let resumed = session()
            .resume(&path)
            .build()
            .unwrap()
            .run(StopsAtThirdSlot, mode)
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            report_json(&resumed),
            report_json(&reference),
            "{}: a resumed completed run must reproduce its report",
            mode.name()
        );
        let s = &resumed.stats;
        assert_eq!(
            (s.failure_points, s.cache_hits, s.post_runs),
            (fps, fps, 0),
            "{}: {s:?}",
            mode.name()
        );
    }
}

/// Kill-and-resume under [`CrashPolicy::RandomEviction`]: each capture
/// draws from a generator of its own, so the captures a resumed run
/// replays from the store do not shift the crash states of the ones it
/// executes. Every registry bug of the four workloads whose reports
/// depend on the drawn evictions, in every mode.
#[test]
fn random_eviction_resume_is_byte_identical_in_every_mode() {
    let kinds = [
        WorkloadKind::Btree,
        WorkloadKind::Ctree,
        WorkloadKind::Rbtree,
        WorkloadKind::HashmapTx,
    ];
    let random = |bug: BugId| XfConfig {
        crash_policy: CrashPolicy::RandomEviction { survive_prob: 0.5 },
        ..validation_config(bug)
    };
    for &bug in BugId::all()
        .iter()
        .filter(|b| kinds.contains(&b.workload()))
    {
        for mode in [Mode::Batch, Mode::Stream, Mode::Parallel] {
            let path = journal_path(&format!("random-{bug:?}-{}", mode.name()));
            std::fs::remove_file(&path).ok();
            let run = |config: XfConfig, store: &dyn Fn(SessionBuilder) -> SessionBuilder| {
                store(session().config(config).workers(2))
                    .build()
                    .unwrap()
                    .run(build_with_bug(bug), mode)
                    .unwrap()
            };
            let reference = run(random(bug), &|b| b);
            if reference.stats.failure_points <= KILL_AFTER {
                continue;
            }
            let capped = XfConfig {
                max_failure_points: Some(KILL_AFTER),
                ..random(bug)
            };
            run(capped, &|b| b.journal(&path));
            let resumed = run(random(bug), &|b| b.resume(&path));
            std::fs::remove_file(&path).ok();
            assert_eq!(resumed.stats.cache_hits, KILL_AFTER, "{bug:?}/{mode:?}");
            assert_eq!(
                report_json(&reference),
                report_json(&resumed),
                "{bug:?}/{mode:?}: a resumed random-eviction run diverged"
            );
        }
    }
}

/// The recording of a resumed run carries the stored traces it replayed,
/// so analyzing it offline gives the live report's trace-derived findings
/// exactly as an uninterrupted run's recording does.
#[test]
fn a_resumed_recording_analyzes_to_the_reference_report() {
    use xfd::xfdetector::offline::analyze;
    let trace_derived = |report: &DetectionReport| {
        let findings: Vec<_> = report
            .findings()
            .iter()
            .filter(|f| f.kind.category() != BugCategory::ExecutionFailure)
            .collect();
        format!("{findings:?}")
    };
    for bug in [
        BugId::BtNoAddRootPtr,
        BugId::BtOutsideTx,
        BugId::BtNoAddHeight,
    ] {
        let path = journal_path(&format!("recorded-{bug:?}"));
        std::fs::remove_file(&path).ok();
        let run = |max: Option<u64>, store: &dyn Fn(SessionBuilder) -> SessionBuilder| {
            let config = XfConfig {
                max_failure_points: max,
                ..validation_config(bug)
            };
            store(session().config(config).record_repro(true))
                .build()
                .unwrap()
                .run(build_with_bug(bug), Mode::Batch)
                .unwrap()
        };
        let reference = run(None, &|b| b);
        run(Some(KILL_AFTER), &|b| b.journal(&path));
        let resumed = run(None, &|b| b.resume(&path));
        std::fs::remove_file(&path).ok();
        assert_eq!(resumed.stats.cache_hits, KILL_AFTER, "{bug:?}");
        let recorded = resumed.recorded.expect("the resumed run records");
        let offline = analyze(&recorded, true);
        assert_eq!(
            trace_derived(&reference.report),
            format!("{:?}", offline.findings().iter().collect::<Vec<_>>()),
            "{bug:?}: the resumed recording lost findings"
        );
    }
}

/// A multi-plan schedule sweep writes its store, one plan namespace per
/// schedule plan, and a sweep killed after a few failure points of every
/// plan resumes to the byte-identical report of an uninterrupted sweep.
#[test]
fn schedule_sweeps_resume_byte_identically() {
    let spec: ScheduleSpec = "exhaustive:2".parse().unwrap();
    let kind = WorkloadKind::TreiberStack;
    for mode in [Mode::Batch, Mode::Stream, Mode::Parallel] {
        let path = journal_path(&format!("sweep-{}", mode.name()));
        std::fs::remove_file(&path).ok();
        let run = |max: Option<u64>, store: &dyn Fn(SessionBuilder) -> SessionBuilder| {
            let config = XfConfig {
                threads: 2,
                schedule: spec,
                max_failure_points: max,
                ..XfConfig::default()
            };
            store(session().config(config).workers(2))
                .build()
                .unwrap()
                .run_concurrent(
                    build_concurrent(kind, validation_ops(kind), BugSet::none()).unwrap(),
                    mode,
                )
                .unwrap()
        };
        let reference = run(None, &|b| b);
        assert!(reference.stats.schedules_explored > 1);
        run(Some(KILL_AFTER), &|b| b.journal(&path));
        assert!(path.exists(), "{mode:?}: the sweep wrote no store");
        let resumed = run(None, &|b| b.resume(&path));
        std::fs::remove_file(&path).ok();
        assert_eq!(
            resumed.stats.cache_hits,
            KILL_AFTER * reference.stats.schedules_explored,
            "{mode:?}: {:?}",
            resumed.stats
        );
        assert!(resumed.stats.accounting_holds(), "{:?}", resumed.stats);
        assert_eq!(
            report_json(&reference),
            report_json(&resumed),
            "{mode:?}: a resumed sweep diverged"
        );
    }
}
