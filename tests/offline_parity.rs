//! Offline/online parity (§5.5): replaying a recorded run through the
//! decoupled backend — from the in-memory [`RecordedRun`], and from its
//! compact `.xft` encoding — must reproduce the online engine's
//! trace-derived findings, across every workload and the detection-axis
//! configurations.
//!
//! Post-failure execution *outcomes* (errors/panics) are not part of the
//! trace, so `ExecutionFailure`-category findings are online-only; every
//! other finding must match exactly, in order.

use xfd::workloads::bugs::{BugId, BugSet, WorkloadKind};
use xfd::workloads::{build, validation_ops};
use xfd::xfdetector::offline::{analyze, pruning_census, replay, PruningCensus, RecordedRun};
use xfd::xfdetector::{BugCategory, DetectionReport, Finding, XfConfig, XfDetector};
use xfd::xfstream::{analyze_xft, encode_recorded_run, read_recorded_run, XftMmapReader};

/// The online findings a trace replay can reproduce: everything except the
/// post-failure execution outcomes.
fn trace_derived(report: &DetectionReport) -> Vec<&Finding> {
    report
        .findings()
        .iter()
        .filter(|f| f.kind.category() != BugCategory::ExecutionFailure)
        .collect()
}

fn record(
    kind: WorkloadKind,
    ops: u64,
    bugs: BugSet,
    cfg: &XfConfig,
) -> (DetectionReport, RecordedRun) {
    let cfg = XfConfig {
        record_trace: true,
        ..cfg.clone()
    };
    let outcome = XfDetector::new(cfg)
        .run(build(kind, ops, bugs))
        .expect("detection runs");
    (outcome.report, outcome.recorded.expect("trace recorded"))
}

fn assert_parity(kind: WorkloadKind, ops: u64, bugs: BugSet, cfg: &XfConfig, label: &str) {
    let (online, recorded) = record(kind, ops, bugs.clone(), cfg);
    let offline = analyze(&recorded, cfg.first_read_only);
    assert_eq!(
        format!("{:?}", trace_derived(&online)),
        format!("{:?}", offline.findings().iter().collect::<Vec<_>>()),
        "offline analysis diverged from the online engine ({label})"
    );

    // The `.xft` round trip must not change a single finding either: the
    // streaming analyzer consumes the encoded bytes directly.
    let bytes = encode_recorded_run(&recorded).expect("encoding succeeds");
    let from_xft = analyze_xft(&bytes[..], cfg.first_read_only).expect("decoding succeeds");
    assert_eq!(
        serde_json::to_string(&offline).unwrap(),
        serde_json::to_string(&from_xft).unwrap(),
        "analyze_xft diverged from offline::analyze ({label})"
    );

    // And the decoded run is the recorded run, losslessly.
    let back = read_recorded_run(&bytes[..]).expect("decoding succeeds");
    assert_eq!(
        serde_json::to_string(&recorded).unwrap(),
        serde_json::to_string(&back).unwrap(),
        ".xft round trip lost information ({label})"
    );

    // `xfd analyze --pruning` makes one pass: it fingerprints each failure
    // point as it decodes, then checks it. Its census is the decoded run's
    // and its report the plain analysis's.
    let reader = XftMmapReader::from_bytes(&bytes[..]).expect("header decodes");
    let domain = reader.header().domain;
    let (report, keys) =
        replay(reader.events(), domain, cfg.first_read_only, true).expect("decoding succeeds");
    assert_eq!(
        keys.as_deref().map(PruningCensus::of),
        Some(pruning_census(&back)),
        "one-pass census ({label})"
    );
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&from_xft).unwrap(),
        "a fingerprinted pass changed the report ({label})"
    );
}

#[test]
fn every_workload_analyzes_offline_identically() {
    for kind in WorkloadKind::ALL {
        for first_read_only in [true, false] {
            for skip_empty in [true, false] {
                let cfg = XfConfig {
                    first_read_only,
                    skip_empty_failure_points: skip_empty,
                    ..XfConfig::default()
                };
                assert_parity(
                    kind,
                    3,
                    BugSet::none(),
                    &cfg,
                    &format!("{kind}, first_read_only={first_read_only}, skip_empty={skip_empty}"),
                );
            }
        }
    }
}

#[test]
fn buggy_runs_analyze_offline_identically() {
    // One representative injected bug per category: the recorded trace must
    // carry enough to re-derive the findings offline.
    for bug in [
        BugId::BtNoAddRootPtr,        // race
        BugId::HaSemCountSameEpoch,   // semantic
        BugId::BtDupAdd,              // performance
        BugId::HaCreateNoPersistSeed, // the paper's Bug 1
    ] {
        let kind = bug.workload();
        let ops = validation_ops(kind);
        let cfg = XfConfig::default();
        let (online, recorded) = record(kind, ops, BugSet::single(bug), &cfg);
        assert!(
            !online.is_empty(),
            "injected bug {bug:?} must produce findings"
        );
        assert_parity(kind, ops, BugSet::single(bug), &cfg, &format!("{bug:?}"));
        let offline = analyze(&recorded, true);
        assert_eq!(
            trace_derived(&online).len(),
            offline.findings().len(),
            "{bug:?}"
        );
    }
}
