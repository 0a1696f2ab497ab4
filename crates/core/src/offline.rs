//! Offline analysis: the decoupled backend of §5.5.
//!
//! The paper stresses that XFDetector's backend is independent of its Pin
//! frontend and "can be attached to other tracing frameworks". This module
//! makes that concrete: a detection run can record its traces into a
//! serializable [`RecordedRun`] (enable [`crate::XfConfig::record_trace`]),
//! which any process can later [`analyze`] — replaying the identical shadow
//! PM computation without re-executing the program.

use std::collections::HashMap;

use pmem::PersistDomain;
use serde::{Deserialize, Serialize};
use xftrace::{OwnedTraceEntry, SourceLoc, TraceEntry};

use crate::report::{DetectionReport, FailurePoint};
use crate::shadow::ShadowPm;

/// One recorded failure point: where in the pre-failure trace it fired and
/// the post-failure trace it produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecordedFailurePoint {
    /// Number of pre-failure entries replayed before this failure point.
    pub pre_len: usize,
    /// Source file of the ordering point.
    pub file: String,
    /// Source line of the ordering point.
    pub line: u32,
    /// The post-failure trace of this failure point.
    pub post: Vec<OwnedTraceEntry>,
}

impl RecordedFailurePoint {
    /// Records the failure point at `loc`, fired after `pre_len`
    /// pre-failure entries, with its post-failure trace.
    #[must_use]
    pub fn new(pre_len: usize, loc: SourceLoc, post: &[TraceEntry]) -> Self {
        RecordedFailurePoint {
            pre_len,
            file: loc.file.to_owned(),
            line: loc.line,
            post: post.iter().copied().map(Into::into).collect(),
        }
    }
}

/// A complete recorded detection run: the pre-failure trace plus every
/// failure point's post-failure trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecordedRun {
    /// The pre-failure trace, in execution order.
    pub pre: Vec<OwnedTraceEntry>,
    /// The failure points, ordered by `pre_len`.
    pub failure_points: Vec<RecordedFailurePoint>,
    /// Logical thread count of the recorded pre-failure stage. 0 or 1 both
    /// mean single-threaded (0 is what pre-concurrency recordings and
    /// plain-workload runs leave here).
    pub threads: u32,
    /// The serialized schedule plan the pre-failure interleaving followed
    /// (`SchedulePlan` string form, e.g. `t2:0,1,1,0`), or empty for
    /// single-threaded runs. Carried so a `.xft`/JSON trace is replayable
    /// evidence: the exact interleaving that exposed a bug travels with it.
    pub schedule: String,
    /// The persistence domain the run was recorded under, so a replay
    /// reproduces the same findings by default. Pre-domain recordings
    /// (and `.xft` v1 files) deserialize as [`PersistDomain::Adr`].
    #[serde(default)]
    pub domain: PersistDomain,
}

impl RecordedRun {
    /// Total number of recorded trace entries.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.pre.len()
            + self
                .failure_points
                .iter()
                .map(|f| f.post.len())
                .sum::<usize>()
    }
}

/// Replays a recorded run through the shadow PM, producing the same
/// trace-derived findings as the online engine.
///
/// Post-failure execution *outcomes* (errors/panics) are not part of the
/// trace, so [`crate::BugKind::PostFailureError`]/`PostFailurePanic`
/// findings only appear in the online report.
#[must_use]
pub fn analyze(run: &RecordedRun, first_read_only: bool) -> DetectionReport {
    analyze_in(run, first_read_only, run.domain)
}

/// As [`analyze`], but classifying findings under an explicit persistence
/// `domain` instead of the one stamped into the recording — the same trace
/// analyzed under ADR, eADR and CXL without re-recording anything.
#[must_use]
pub fn analyze_in(
    run: &RecordedRun,
    first_read_only: bool,
    domain: PersistDomain,
) -> DetectionReport {
    let mut report = DetectionReport::new();
    let mut shadow = ShadowPm::with_domain(domain);
    let mut cursor = 0usize;

    for (id, rfp) in run.failure_points.iter().enumerate() {
        let upto = rfp.pre_len.min(run.pre.len());
        while cursor < upto {
            shadow.apply_pre(&run.pre[cursor].to_entry(), &mut report);
            cursor += 1;
        }
        let fp = FailurePoint {
            id: id as u64,
            loc: SourceLoc {
                file: xftrace::intern_file(&rfp.file),
                line: rfp.line,
            },
        };
        let mut checker = shadow.begin_post(first_read_only);
        for e in &rfp.post {
            checker.apply_post(&e.to_entry(), fp, &mut report);
        }
    }
    while cursor < run.pre.len() {
        shadow.apply_pre(&run.pre[cursor].to_entry(), &mut report);
        cursor += 1;
    }
    report
}

/// Equivalence-class structure of a recorded run: how the failure points
/// collapse under the persistence fingerprint
/// ([`ShadowPm::persistence_fingerprint`]). This is what
/// [`crate::Pruning::Equivalence`] would exploit on a live run — `xfd
/// analyze --pruning` prints it so a recorded trace can be sized up
/// without re-executing anything.
#[derive(Debug, Clone, Serialize)]
pub struct PruningCensus {
    /// Recorded failure points inspected.
    pub failure_points: u64,
    /// Distinct persistence-state equivalence classes among them.
    pub classes: u64,
    /// Members of the most populous class.
    pub largest_class: u64,
}

impl PruningCensus {
    /// Failure points per class — the post-failure execution reduction a
    /// pruned live run of the same trace would see.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.classes == 0 {
            return 1.0;
        }
        self.failure_points as f64 / self.classes as f64
    }
}

/// The persistence fingerprint ([`ShadowPm::persistence_fingerprint`]) of
/// every recorded failure point, in failure-point order: the class keys a
/// pruned live run of the same trace would compute.
#[must_use]
pub fn failure_point_fingerprints(run: &RecordedRun) -> Vec<u64> {
    let mut shadow = ShadowPm::with_domain(run.domain);
    shadow.enable_fingerprinting();
    let mut scratch = DetectionReport::new();
    let mut cursor = 0usize;
    let mut keys = Vec::with_capacity(run.failure_points.len());
    for rfp in &run.failure_points {
        let upto = rfp.pre_len.min(run.pre.len());
        while cursor < upto {
            shadow.apply_pre(&run.pre[cursor].to_entry(), &mut scratch);
            cursor += 1;
        }
        keys.push(shadow.persistence_fingerprint());
    }
    keys
}

/// Computes the [`PruningCensus`] of a recorded run by replaying its
/// pre-failure trace and fingerprinting the persistence state at each
/// recorded failure point.
#[must_use]
pub fn pruning_census(run: &RecordedRun) -> PruningCensus {
    let mut classes: HashMap<u64, u64> = HashMap::new();
    for key in failure_point_fingerprints(run) {
        *classes.entry(key).or_insert(0) += 1;
    }
    PruningCensus {
        failure_points: run.failure_points.len() as u64,
        classes: classes.len() as u64,
        largest_class: classes.values().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, XfConfig, XfDetector};
    use pmem::PmCtx;

    /// Unpersisted publish: one reliable race.
    struct Racy;

    impl Workload for Racy {
        fn name(&self) -> &str {
            "racy"
        }
        fn pool_size(&self) -> u64 {
            4096
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            let a = ctx.pool().base();
            ctx.write_u64(a, 1)?;
            ctx.write_u64(a + 64, 2)?;
            ctx.persist_barrier(a + 64, 8)?;
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), crate::DynError> {
            let _ = ctx.read_u64(ctx.pool().base())?;
            Ok(())
        }
    }

    fn recorded_run() -> (DetectionReport, RecordedRun) {
        let cfg = XfConfig {
            record_trace: true,
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg).run(Racy).unwrap();
        let recorded = outcome.recorded.expect("trace recorded");
        (outcome.report, recorded)
    }

    #[test]
    fn offline_analysis_matches_the_online_report() {
        let (online, recorded) = recorded_run();
        let offline = analyze(&recorded, true);
        let key = |r: &DetectionReport| {
            let mut v: Vec<_> = r
                .findings()
                .iter()
                .map(|f| {
                    (
                        f.kind,
                        f.reader.map(|l| (l.file.to_owned(), l.line)),
                        f.addr,
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&online), key(&offline));
        assert!(offline.race_count() >= 1);
    }

    #[test]
    fn recorded_run_round_trips_through_json() {
        let (_online, recorded) = recorded_run();
        assert!(recorded.entry_count() > 0);
        let json = serde_json::to_string(&recorded).unwrap();
        let back: RecordedRun = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entry_count(), recorded.entry_count());
        let offline = analyze(&back, true);
        assert!(offline.race_count() >= 1, "{offline}");
    }

    #[test]
    fn recording_is_off_by_default() {
        let outcome = XfDetector::with_defaults().run(Racy).unwrap();
        assert!(outcome.recorded.is_none());
    }

    #[test]
    fn empty_run_analyzes_cleanly() {
        let report = analyze(&RecordedRun::default(), true);
        assert!(report.is_empty());
    }

    #[test]
    fn pruning_census_matches_a_pruned_live_run() {
        use crate::Pruning;
        let cfg = XfConfig {
            record_trace: true,
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg).run(Racy).unwrap();
        let census = pruning_census(outcome.recorded.as_ref().unwrap());
        assert_eq!(census.failure_points, outcome.stats.failure_points);

        let pruned = XfDetector::new(XfConfig {
            pruning: Pruning::Equivalence,
            ..XfConfig::default()
        })
        .run(Racy)
        .unwrap();
        assert_eq!(census.classes, pruned.stats.classes_total);
        // Every class has exactly one representative; all other members
        // were pruned.
        assert_eq!(
            census.failure_points - census.classes,
            pruned.stats.fps_pruned
        );
        assert!(census.largest_class >= 1);
    }

    #[test]
    fn empty_census_is_degenerate() {
        let census = pruning_census(&RecordedRun::default());
        assert_eq!(census.failure_points, 0);
        assert_eq!(census.classes, 0);
        assert_eq!(census.largest_class, 0);
        assert!((census.ratio() - 1.0).abs() < f64::EPSILON);
    }
}
