//! Offline analysis: the decoupled backend of §5.5.
//!
//! The paper stresses that XFDetector's backend is independent of its Pin
//! frontend and "can be attached to other tracing frameworks". This module
//! makes that concrete: a detection run can record its traces into a
//! serializable [`RecordedRun`] (enable [`crate::XfConfig::record_trace`]),
//! which any process can later [`analyze`] without re-executing the
//! program: [`replay`] checks each recorded failure point with
//! [`plan::check`], as the live drivers do.

use std::collections::HashMap;
use std::convert::Infallible;

use pmem::PersistDomain;
use serde::{Deserialize, Serialize};
use xftrace::{OwnedTraceEntry, SourceLoc, TraceEntry};

use crate::plan::{self, PostOutcome, PostTrace};
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

    /// The run in execution order: per failure point, the pre-failure
    /// entries since the previous one, then the failure point; last, the
    /// rest of the trace. `pre_len` is clamped, since a JSON recording is
    /// outside input.
    pub fn segments(
        &self,
    ) -> impl Iterator<Item = (&[OwnedTraceEntry], Option<&RecordedFailurePoint>)> {
        let mut cursor = 0;
        let fps = self.failure_points.iter().map(Some).chain([None]);
        fps.map(move |fp| {
            let end = fp.map_or(self.pre.len(), |f| f.pre_len.clamp(cursor, self.pre.len()));
            let pre = &self.pre[cursor..end];
            cursor = end;
            (pre, fp)
        })
    }
}

/// One event of a recorded run, in execution order.
#[derive(Debug)]
pub enum Event {
    /// A pre-failure entry.
    Pre(TraceEntry),
    /// A failure point at the ordering point `loc`.
    FailurePoint {
        /// The ordering point.
        loc: SourceLoc,
        /// The failure point's post-failure trace.
        post: Vec<TraceEntry>,
    },
}

/// Replays `events` through a shadow PM under `domain`, checking each
/// failure point with [`plan::check`] as a completed post-failure run.
/// With `fingerprint`, each failure point's persistence fingerprint is
/// taken before its check, as [`crate::plan::Planner::plan`] does.
///
/// Post-failure execution *outcomes* (errors/panics) are not part of the
/// trace, so [`crate::BugKind::PostFailureError`]/`PostFailurePanic`
/// findings only appear in the online report.
///
/// # Errors
///
/// The first error in `events`; nothing is replayed past it.
pub fn replay<E>(
    events: impl IntoIterator<Item = Result<Event, E>>,
    domain: PersistDomain,
    first_read_only: bool,
    fingerprint: bool,
) -> Result<(DetectionReport, Option<Vec<u64>>), E> {
    let mut shadow = ShadowPm::with_domain(domain);
    let mut keys = fingerprint.then(|| {
        shadow.enable_fingerprinting();
        Vec::new()
    });
    let mut report = DetectionReport::new();
    // The members of a pruned class recorded their representative's
    // trace: sharing the latest trace of each length builds its read index
    // once, at one comparison per failure point.
    let mut traces: HashMap<usize, PostTrace> = HashMap::new();
    let mut id = 0;
    for event in events {
        match event? {
            Event::Pre(e) => shadow.apply_pre(&e, &mut report),
            Event::FailurePoint { loc, post } => {
                if let Some(keys) = keys.as_mut() {
                    keys.push(shadow.persistence_fingerprint());
                }
                let fp = FailurePoint { id, loc };
                id += 1;
                let len = post.len();
                if traces.get(&len).is_none_or(|t| t.entries() != post) {
                    traces.insert(len, PostTrace::new(post, false));
                }
                let (trace, done) = (&traces[&len], PostOutcome::Completed);
                plan::check(&shadow, first_read_only, fp, trace, &done, &mut report);
            }
        }
    }
    Ok((report, keys))
}

/// [`replay`] over a recorded run's [`RecordedRun::segments`].
fn replay_run(
    run: &RecordedRun,
    first_read_only: bool,
    domain: PersistDomain,
    fingerprint: bool,
) -> (DetectionReport, Option<Vec<u64>>) {
    let events = run.segments().flat_map(|(pre, fp)| {
        let pre = pre.iter().map(|e| Event::Pre(e.to_entry()));
        pre.chain(fp.map(|f| Event::FailurePoint {
            loc: SourceLoc {
                file: xftrace::intern_file(&f.file).expect("file-name table full"),
                line: f.line,
            },
            post: f.post.iter().map(OwnedTraceEntry::to_entry).collect(),
        }))
    });
    let events = events.map(Ok::<_, Infallible>);
    let Ok(replayed) = replay(events, domain, first_read_only, fingerprint);
    replayed
}

/// Replays a recorded run through the shadow PM, producing the same
/// trace-derived findings as the online engine; see [`replay`].
///
/// # Panics
///
/// If the run names a source file that the full file-name table does not
/// hold ([`xftrace::intern_file`]). A run decoded from `.xft` holds only
/// names its decode interned.
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
    replay_run(run, first_read_only, domain, false).0
}

/// Equivalence-class structure of a recorded run: how the failure points
/// collapse under the persistence fingerprint
/// ([`ShadowPm::persistence_fingerprint`]). This is what
/// [`crate::Pruning::Equivalence`] would exploit on a live run — `xfd
/// analyze --pruning` prints it so a recorded trace can be sized up
/// without re-executing anything.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PruningCensus {
    /// Recorded failure points inspected.
    pub failure_points: u64,
    /// Distinct persistence-state equivalence classes among them.
    pub classes: u64,
    /// Members of the most populous class.
    pub largest_class: u64,
}

impl PruningCensus {
    /// The census of failure points with the class keys `keys`.
    #[must_use]
    pub fn of(keys: &[u64]) -> Self {
        let mut classes: HashMap<u64, u64> = HashMap::new();
        for &key in keys {
            *classes.entry(key).or_insert(0) += 1;
        }
        PruningCensus {
            failure_points: keys.len() as u64,
            classes: classes.len() as u64,
            largest_class: classes.values().copied().max().unwrap_or(0),
        }
    }

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
    let (_, keys) = replay_run(run, true, run.domain, true);
    keys.expect("fingerprinted")
}

/// Computes the [`PruningCensus`] of a recorded run by replaying its
/// pre-failure trace and fingerprinting the persistence state at each
/// recorded failure point.
#[must_use]
pub fn pruning_census(run: &RecordedRun) -> PruningCensus {
    PruningCensus::of(&failure_point_fingerprints(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, XfConfig, XfDetector};
    use pmem::PmCtx;
    use xftrace::{Op, Stage};

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

    /// A run of `pre` pre-failure entries (each entry's line is its index)
    /// and one failure point per `pre_lens` element (line `100 + i`).
    fn run_with_pre_lens(pre: u32, pre_lens: &[usize]) -> RecordedRun {
        let entry = |line| OwnedTraceEntry {
            op: Op::Write { addr: 0, size: 8 },
            file: "w.rs".to_owned(),
            line,
            tid: 0,
            stage: Stage::Pre,
            internal: false,
            checked: true,
        };
        RecordedRun {
            pre: (0..pre).map(entry).collect(),
            failure_points: pre_lens
                .iter()
                .zip(100..)
                .map(|(&pre_len, line)| RecordedFailurePoint {
                    pre_len,
                    file: "w.rs".to_owned(),
                    line,
                    post: Vec::new(),
                })
                .collect(),
            ..RecordedRun::default()
        }
    }

    /// The walk as line numbers: pre entries by index, failure points as
    /// `100 + i`.
    fn walk(run: &RecordedRun) -> Vec<u32> {
        run.segments()
            .flat_map(|(pre, fp)| pre.iter().map(|e| e.line).chain(fp.map(|f| f.line)))
            .collect()
    }

    #[test]
    fn the_walk_interleaves_failure_points_by_pre_len() {
        let run = run_with_pre_lens(4, &[1, 3, 3]);
        assert_eq!(walk(&run), [0, 100, 1, 2, 101, 102, 3]);
        assert_eq!(walk(&RecordedRun::default()), [0u32; 0]);
    }

    #[test]
    fn the_walk_tolerates_decreasing_and_oversize_pre_len() {
        // A failure point whose `pre_len` falls below an earlier one fires
        // at once, and one past the trace fires after all of it.
        let run = run_with_pre_lens(4, &[2, 1, 9, 0]);
        assert_eq!(walk(&run), [0, 1, 100, 101, 2, 3, 102, 103]);
        let run = run_with_pre_lens(2, &[usize::MAX]);
        assert_eq!(walk(&run), [0, 1, 100]);
        // Every entry and failure point appears exactly once.
        let run = run_with_pre_lens(3, &[3, 0, 7, 1]);
        assert_eq!(walk(&run).len(), 3 + 4);
        assert!(analyze(&run, true).is_empty());
    }

    #[test]
    fn traces_of_one_length_are_shared_only_when_equal() {
        // An unpersisted store at 0, then two failure points whose
        // one-entry recoveries read an untouched word and the store.
        let mut run = run_with_pre_lens(1, &[1, 1]);
        for (f, addr) in run.failure_points.iter_mut().zip([64, 0]) {
            f.post = vec![OwnedTraceEntry {
                op: Op::Read { addr, size: 8 },
                stage: Stage::Post,
                ..run.pre[0].clone()
            }];
        }
        let report = analyze(&run, true);
        assert_eq!(report.race_count(), 1, "{report}");
        assert_eq!(report.findings()[0].failure_point.map(|fp| fp.id), Some(1));
    }

    #[test]
    fn a_fingerprinted_replay_reports_what_a_plain_one_does() {
        let (_online, recorded) = recorded_run();
        let (report, keys) = replay_run(&recorded, true, recorded.domain, true);
        assert_eq!(keys.map(|k| k.len()), Some(recorded.failure_points.len()));
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&analyze(&recorded, true)).unwrap()
        );
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
