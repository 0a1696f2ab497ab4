//! The differential domain matrix (the tentpole's acceptance sweep): every
//! registered bug, injected into its workload, run under all three
//! persistence domains — ADR, eADR, and CXL GPF with a bounded device-side
//! reorder window — must be detected (or stay clean) exactly as the
//! registry's [`BugId::expected_under`] predicts.
//!
//! The interesting rows are the domain-sensitive suite:
//!
//! - two flush omissions that race under ADR/CXL and *vanish* under eADR,
//!   where the caches sit inside the persistence domain;
//! - one ADR-correct valid-flag idiom that races *only* inside the CXL
//!   reorder window, because the device may commit the flag while dropping
//!   the just-fenced snapshot it guards.
//!
//! The new suite is additionally swept across all three engines and both
//! pruning settings: the domain is part of the analysis semantics, so no
//! transport or pruning choice may change a verdict.

use xfd::pmem::PersistDomain;
use xfd::workloads::bugs::{BugId, BugSet, BugSuite, WorkloadKind};
use xfd::workloads::{build, build_concurrent, build_with_bug, validation_config, validation_ops};
use xfd::xfdetector::{BugCategory, Mode, Pruning, RunOutcome, XfConfig, XfDetector};

const DOMAINS: [PersistDomain; 3] = [
    PersistDomain::Adr,
    PersistDomain::Eadr,
    PersistDomain::CxlGpf { reorder_window: 4 },
];

/// Whether `outcome` shows the bug in its expected category (same criterion
/// as the Table 5 validation). Under a CXL reorder window the read path's
/// buffered-byte race check precedes the Equation-3 staleness check, so the
/// registry-flagged semantic bugs surface as reorder-window races instead —
/// [`BugId::cxl_masks_semantic_as_race`] names exactly those.
fn detected(bug: BugId, domain: PersistDomain, outcome: &RunOutcome) -> bool {
    if matches!(domain, PersistDomain::CxlGpf { .. }) && bug.cxl_masks_semantic_as_race() {
        return outcome.report.race_count() >= 1;
    }
    match bug.expected_category() {
        BugCategory::Race => outcome.report.race_count() >= 1,
        BugCategory::Semantic => outcome.report.semantic_count() >= 1,
        BugCategory::Performance => outcome.report.performance_count() >= 1,
        BugCategory::ExecutionFailure => {
            outcome.stats.budget_exceeded >= 1 && outcome.report.execution_failure_count() >= 1
        }
        _ => unreachable!("no registered bug expects {:?}", bug.expected_category()),
    }
}

fn run_under(bug: BugId, domain: PersistDomain, pruning: Pruning, mode: Mode) -> RunOutcome {
    let mut cfg = validation_config(bug);
    cfg.domain = domain;
    cfg.pruning = pruning;
    if bug.suite() == BugSuite::Concurrent {
        let kind = bug.workload();
        let w = build_concurrent(kind, validation_ops(kind), BugSet::single(bug))
            .expect("Concurrent-suite bugs live in concurrent workloads");
        xfd::xfdetector::Session::builder()
            .config(XfConfig { threads: 2, ..cfg })
            .build()
            .unwrap()
            .run_concurrent(w, mode)
            .unwrap()
    } else {
        xfd::xfdetector::Session::builder()
            .config(cfg)
            .build()
            .unwrap()
            .run(build_with_bug(bug), mode)
            .unwrap()
    }
}

/// The full registry × domain matrix on the batch engine: detection flips
/// exactly where the registry says it does, nowhere else.
#[test]
fn every_bug_matches_the_registry_prediction_in_every_domain() {
    let mut mismatches = Vec::new();
    let mut cells = 0;
    for &bug in BugId::all() {
        for domain in DOMAINS {
            let outcome = run_under(bug, domain, Pruning::Off, Mode::Batch);
            let got = detected(bug, domain, &outcome);
            if got != bug.expected_under(domain) {
                mismatches.push(format!(
                    "{bug:?} under {domain}: detected={got}, registry predicts {}\n{}",
                    bug.expected_under(domain),
                    outcome.report
                ));
            }
            cells += 1;
        }
    }
    assert_eq!(cells, BugId::all().len() * DOMAINS.len());
    assert!(
        mismatches.is_empty(),
        "{} domain-matrix mismatches:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The domain-sensitive suite flips identically on every engine and under
/// pruning: the domain changes what the analysis concludes, never how a
/// particular transport or pruning mode reaches it. Where the registry
/// predicts "clean", the run must be *entirely* free of correctness
/// findings — not merely missing the expected category.
#[test]
fn domain_sensitive_bugs_flip_on_every_engine_with_and_without_pruning() {
    for &bug in BugId::all()
        .iter()
        .filter(|b| b.suite() == BugSuite::DomainSensitive)
    {
        for domain in DOMAINS {
            let expected = bug.expected_under(domain);
            for mode in [Mode::Batch, Mode::Parallel, Mode::Stream] {
                for pruning in [Pruning::Off, Pruning::Equivalence] {
                    let outcome = run_under(bug, domain, pruning, mode);
                    assert_eq!(
                        detected(bug, domain, &outcome),
                        expected,
                        "{bug:?} under {domain} ({mode:?}, {pruning:?}): registry predicts \
                         detected={expected}:\n{}",
                        outcome.report
                    );
                    if !expected {
                        assert!(
                            !outcome.report.has_correctness_bugs(),
                            "{bug:?} under {domain} ({mode:?}, {pruning:?}) must be clean:\n{}",
                            outcome.report
                        );
                    }
                }
            }
        }
    }
}

/// Bug-free workloads stay clean under eADR (a strictly more forgiving
/// domain than ADR, which the seed already validates) — and the reorder
/// window is *not* free: the ADR-correct atomic-publish idiom itself sits
/// inside it, so the unhardened baseline races under CXL GPF. That race
/// carries the reorder-window message, distinguishing it from a lost-write
/// race.
#[test]
fn clean_baselines_hold_under_eadr_and_the_reorder_window_is_real() {
    for kind in xfd::workloads::all_workloads() {
        let cfg = XfConfig {
            domain: PersistDomain::Eadr,
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg)
            .run(build(kind, validation_ops(kind), BugSet::none()))
            .unwrap();
        assert!(
            !outcome.report.has_correctness_bugs(),
            "{kind} must stay clean under eADR:\n{}",
            outcome.report
        );
    }

    let cfg = XfConfig {
        domain: PersistDomain::CxlGpf { reorder_window: 4 },
        ..XfConfig::default()
    };
    let kind = WorkloadKind::HashmapAtomic;
    let outcome = XfDetector::new(cfg)
        .run(build(kind, validation_ops(kind), BugSet::none()))
        .unwrap();
    assert!(
        outcome.report.race_count() >= 1,
        "the unhardened publish idiom must sit inside the reorder window:\n{}",
        outcome.report
    );
    assert!(
        outcome.report.findings().iter().any(|f| f
            .message
            .as_deref()
            .is_some_and(|m| m.contains("reorder window"))),
        "the baseline's CXL race must be reported as a reorder-window loss:\n{}",
        outcome.report
    );
}

/// eADR is monotonic against ADR at finding granularity: on the same bug
/// and workload, every finding an eADR run reports is also reported by the
/// ADR run — residual energy only ever removes failure modes.
#[test]
fn eadr_findings_are_a_subset_of_adr_findings() {
    for &bug in BugId::all()
        .iter()
        .filter(|b| b.suite() == BugSuite::DomainSensitive)
    {
        let adr = run_under(bug, PersistDomain::Adr, Pruning::Off, Mode::Batch);
        let eadr = run_under(bug, PersistDomain::Eadr, Pruning::Off, Mode::Batch);
        let adr_json: Vec<String> = adr
            .report
            .findings()
            .iter()
            .map(|f| serde_json::to_string(f).unwrap())
            .collect();
        for f in eadr.report.findings() {
            let j = serde_json::to_string(f).unwrap();
            assert!(
                adr_json.contains(&j),
                "{bug:?}: eADR reported a finding ADR does not: {j}"
            );
        }
    }
}
