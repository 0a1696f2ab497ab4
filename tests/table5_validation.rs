//! End-to-end validation of the synthetic-bug suite (paper Table 5): every
//! registered bug, injected into its workload, must be detected in its
//! expected category — and every workload must be clean without injections.

use xfd::pmem::PersistDomain;
use xfd::workloads::bugs::{BugId, BugSet, BugSuite, WorkloadKind};
use xfd::workloads::{build, build_concurrent, build_with_bug, validation_config, validation_ops};
use xfd::xfdetector::{
    BugCategory, BugKind, Mode, Pruning, RunOutcome, Session, XfConfig, XfDetector,
};

/// Runs a Concurrent-suite bug through the multi-threaded session path
/// (two threads, the configured pruning) — the sequential `build` path
/// would degenerate it to one thread, where the cross-thread bugs are
/// invisible by design.
fn run_concurrent_bug(bug: BugId, pruning: Pruning) -> RunOutcome {
    let kind = bug.workload();
    let w = build_concurrent(kind, validation_ops(kind), BugSet::single(bug))
        .expect("Concurrent-suite bugs live in concurrent workloads");
    let mut cfg = validation_config(bug);
    cfg.pruning = pruning;
    Session::builder()
        .config(XfConfig { threads: 2, ..cfg })
        .build()
        .unwrap()
        .run_concurrent(w, Mode::Batch)
        .unwrap()
}

/// Without injected bugs, no workload produces any finding (no false
/// positives — the premise of the whole validation).
#[test]
fn all_workloads_are_clean_without_injected_bugs() {
    for kind in xfd::workloads::all_workloads() {
        let w = build(kind, validation_ops(kind), BugSet::none());
        let outcome = XfDetector::with_defaults().run(w).unwrap();
        assert!(
            !outcome.report.has_correctness_bugs(),
            "{kind} reported spurious findings:\n{}",
            outcome.report
        );
        assert_eq!(
            outcome.report.performance_count(),
            0,
            "{kind} reported spurious performance bugs:\n{}",
            outcome.report
        );
    }
}

/// Every bug in the registry is detected, in the expected category.
/// Hanging bugs (expected `ExecutionFailure`) run under the validation
/// budget and must surface as budget-exceeded findings. Bugs the registry
/// marks as invisible under the default ADR domain (the CXL-reorder-only
/// entries of the domain-sensitive suite) must instead stay *clean* here —
/// their detection lives in `tests/domain_matrix.rs`.
#[test]
fn every_synthetic_bug_is_detected_in_its_category() {
    let mut validated = 0;
    for &bug in BugId::all() {
        let outcome = if bug.suite() == BugSuite::Concurrent {
            run_concurrent_bug(bug, Pruning::Off)
        } else {
            XfDetector::new(validation_config(bug))
                .run(build_with_bug(bug))
                .unwrap()
        };
        if !bug.expected_under(PersistDomain::Adr) {
            assert!(
                !outcome.report.has_correctness_bugs(),
                "{bug} needs a reorder window and must be clean under ADR:\n{}",
                outcome.report
            );
            validated += 1;
            continue;
        }
        let detected = match bug.expected_category() {
            BugCategory::Race => outcome.report.race_count() >= 1,
            BugCategory::Semantic => outcome.report.semantic_count() >= 1,
            BugCategory::Performance => outcome.report.performance_count() >= 1,
            BugCategory::ExecutionFailure => {
                outcome.stats.budget_exceeded >= 1 && outcome.report.execution_failure_count() >= 1
            }
            _ => unreachable!("no registered bug expects {:?}", bug.expected_category()),
        };
        assert!(
            detected,
            "{bug} not detected as {:?}:\n{}",
            bug.expected_category(),
            outcome.report
        );
        validated += 1;
    }
    assert_eq!(validated, BugId::all().len());
}

/// The pruning soundness contract: equivalence pruning never loses a
/// detection. The full registry re-runs under [`Pruning::Equivalence`] —
/// one representative post-failure execution per persistence-state class,
/// with its report delta replayed to every pruned member — and every bug
/// must still surface in its expected category. (On bug-injected variants
/// the *report bytes* may legitimately differ from exhaustive runs where
/// recovery control flow depends on crash-image content; what must never
/// change is whether the bug is found.)
#[test]
fn every_synthetic_bug_is_still_detected_under_pruning() {
    let mut missed = Vec::new();
    for &bug in BugId::all() {
        let outcome = if bug.suite() == BugSuite::Concurrent {
            run_concurrent_bug(bug, Pruning::Equivalence)
        } else {
            let mut cfg = validation_config(bug);
            cfg.pruning = Pruning::Equivalence;
            XfDetector::new(cfg).run(build_with_bug(bug)).unwrap()
        };
        if !bug.expected_under(PersistDomain::Adr) {
            // ADR-invisible by design; pruning must not invent a finding.
            if outcome.report.has_correctness_bugs() {
                missed.push(bug);
            }
            continue;
        }
        let detected = match bug.expected_category() {
            BugCategory::Race => outcome.report.race_count() >= 1,
            BugCategory::Semantic => outcome.report.semantic_count() >= 1,
            BugCategory::Performance => outcome.report.performance_count() >= 1,
            BugCategory::ExecutionFailure => {
                outcome.stats.budget_exceeded >= 1 && outcome.report.execution_failure_count() >= 1
            }
            _ => unreachable!("no registered bug expects {:?}", bug.expected_category()),
        };
        if !detected {
            missed.push(bug);
        }
    }
    assert!(missed.is_empty(), "pruning lost detections: {missed:?}");
}

/// Clean workloads stay clean under pruning, too — replaying a
/// representative's delta must not invent findings.
#[test]
fn all_workloads_stay_clean_under_pruning() {
    for kind in xfd::workloads::all_workloads() {
        let w = build(kind, validation_ops(kind), BugSet::none());
        let cfg = xfd::xfdetector::XfConfig {
            pruning: Pruning::Equivalence,
            ..xfd::xfdetector::XfConfig::default()
        };
        let outcome = XfDetector::new(cfg).run(w).unwrap();
        assert!(
            !outcome.report.has_correctness_bugs() && outcome.report.performance_count() == 0,
            "{kind} reported spurious findings under pruning:\n{}",
            outcome.report
        );
        assert!(
            outcome.stats.fps_pruned > 0,
            "{kind} at validation scale must collapse at least one class: {:?}",
            outcome.stats
        );
    }
}

/// The registry counts match Table 5 of the paper (also asserted in the
/// workloads crate; re-checked here as the integration-level contract).
#[test]
fn registry_matches_table5_counts() {
    let count = |wl: WorkloadKind, suite: BugSuite, cat: BugCategory| {
        BugId::all()
            .iter()
            .filter(|b| b.workload() == wl && b.suite() == suite && b.expected_category() == cat)
            .count()
    };
    use BugCategory::{Performance, Race, Semantic};
    use BugSuite::{Additional, PmTest};

    // (workload, pmtest R, pmtest P, additional R, additional S)
    let rows = [
        (WorkloadKind::Btree, 8, 2, 4, 0),
        (WorkloadKind::Ctree, 5, 1, 1, 0),
        (WorkloadKind::Rbtree, 7, 1, 1, 0),
        (WorkloadKind::HashmapTx, 6, 1, 3, 0),
        (WorkloadKind::HashmapAtomic, 8, 2, 3, 4),
    ];
    for (wl, r, p, ar, as_) in rows {
        assert_eq!(count(wl, PmTest, Race), r, "{wl} PMTest R");
        assert_eq!(count(wl, PmTest, Performance), p, "{wl} PMTest P");
        assert_eq!(count(wl, Additional, Race), ar, "{wl} additional R");
        assert_eq!(count(wl, Additional, Semantic), as_, "{wl} additional S");
    }
}

/// Reports carry reader and writer source locations pointing into the
/// workload code (the paper's file:line reporting, §5.4).
#[test]
fn findings_carry_workload_source_locations() {
    let outcome = XfDetector::with_defaults()
        .run(build_with_bug(BugId::BtNoAddCount))
        .unwrap();
    let race = outcome
        .report
        .findings()
        .iter()
        .find(|f| f.kind.category() == BugCategory::Race)
        .expect("race finding present");
    let reader = race.reader.expect("reader location");
    let writer = race.writer.expect("writer location");
    assert!(reader.file.contains("btree.rs"), "reader at {reader}");
    assert!(writer.file.contains("btree.rs"), "writer at {writer}");
    assert!(race.failure_point.is_some());
}

/// The concurrent workloads are clean without injected bugs at every
/// thread count — correct lock-free protocols stay crash-consistent under
/// all round-robin interleavings.
#[test]
fn concurrent_workloads_are_clean_without_injected_bugs() {
    for kind in xfd::workloads::concurrent_workloads() {
        for threads in [1, 2, 4] {
            let w = build_concurrent(kind, validation_ops(kind), BugSet::none()).unwrap();
            let outcome = Session::builder()
                .config(XfConfig {
                    threads,
                    ..XfConfig::default()
                })
                .build()
                .unwrap()
                .run_concurrent(w, Mode::Batch)
                .unwrap();
            assert!(
                !outcome.report.has_correctness_bugs(),
                "{kind} with {threads} thread(s) reported spurious findings:\n{}",
                outcome.report
            );
        }
    }
}

/// The acceptance contract of the concurrent subsystem: each lock-free
/// workload carries a bug that is invisible to single-threaded detection
/// and surfaces as a cross-thread finding with `threads >= 2`.
#[test]
fn cross_thread_bugs_require_multiple_threads() {
    let cases = [
        (BugId::TsPublishOnHelper, BugKind::CrossThreadRace),
        (BugId::MsTailPublishOnDequeuer, BugKind::CrossThreadSemantic),
    ];
    for (bug, expected_kind) in cases {
        let kind = bug.workload();
        let run = |threads| {
            let w = build_concurrent(kind, validation_ops(kind), BugSet::single(bug)).unwrap();
            Session::builder()
                .config(XfConfig {
                    threads,
                    ..XfConfig::default()
                })
                .build()
                .unwrap()
                .run_concurrent(w, Mode::Batch)
                .unwrap()
        };

        let single = run(1);
        assert!(
            !single.report.has_correctness_bugs(),
            "{bug} must be invisible single-threaded:\n{}",
            single.report
        );
        assert_eq!(single.stats.cross_thread_findings, 0);

        let multi = run(2);
        assert!(
            multi
                .report
                .findings()
                .iter()
                .any(|f| f.kind == expected_kind),
            "{bug} with 2 threads must report {expected_kind:?}:\n{}",
            multi.report
        );
        assert!(multi.stats.cross_thread_findings >= 1);
    }
}
