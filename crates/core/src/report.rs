//! Bug findings and the detection report.

use std::collections::HashSet;
use std::fmt;

use serde::Serialize;
use xftrace::SourceLoc;

/// The kind of a detected problem.
///
/// The paper's taxonomy (§3, Figure 5): cross-failure **races** (reading data
/// not guaranteed persistent, including reads of never-initialized
/// allocations), cross-failure **semantic bugs** (reading persisted but
/// semantically inconsistent data), plus the **performance bugs** XFDetector
/// reports opportunistically while updating the shadow PM (§5.4), and
/// post-failure execution failures surfaced by failure injection (how Bug 4
/// manifests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum BugKind {
    /// The post-failure stage read data modified pre-failure that is not
    /// guaranteed to be persisted (§3.1, Equation 1).
    CrossFailureRace,
    /// The post-failure stage read an allocated-but-never-initialized PM
    /// location (the paper's Bug 2 pattern) — a cross-failure race on
    /// unwritten data.
    UninitializedRace,
    /// The post-failure stage read persisted data that violates the crash
    /// consistency mechanism's semantics (§3.2, Equation 3).
    CrossFailureSemantic,
    /// A cross-failure race whose exposure depends on cross-thread timing:
    /// the write-back was pending while a fence on a *different* thread
    /// retired, so whether the data survived the crash depends on which
    /// thread's ordering point the failure beat. Only reachable from
    /// multi-threaded pre-failure traces.
    CrossThreadRace,
    /// A cross-failure semantic bug where the commit variable was published
    /// by a different thread than the one that wrote the governed data —
    /// the commit raced the data writes across threads. Only reachable from
    /// multi-threaded pre-failure traces.
    CrossThreadSemantic,
    /// A redundant cache-line write-back (yellow edges of Figure 9).
    RedundantFlush,
    /// The same PM range was added to the same transaction more than once
    /// (duplicated `TX_ADD`, §5.4).
    DuplicateTxAdd,
    /// The post-failure stage returned an error (e.g. the pool failed to
    /// open after a mid-creation failure — Bug 4).
    PostFailureError,
    /// The post-failure stage panicked (the analogue of the segmentation
    /// fault in the paper's Figure 1 scenario).
    PostFailurePanic,
    /// The post-failure stage exhausted its execution
    /// [`Budget`](pmem::Budget) (hung, spun, or mutated PM without bound)
    /// and was killed by the watchdog instead of wedging the run.
    BudgetExceeded,
    /// Commit-variable annotations violate the disjointness requirement of
    /// Equation 2.
    AnnotationConflict,
}

impl BugKind {
    /// The paper's reporting category: `R` (race), `S` (semantic) or `P`
    /// (performance), as used in Table 5; execution failures and annotation
    /// problems fall outside those columns.
    #[must_use]
    pub fn category(&self) -> BugCategory {
        match self {
            BugKind::CrossFailureRace | BugKind::UninitializedRace | BugKind::CrossThreadRace => {
                BugCategory::Race
            }
            BugKind::CrossFailureSemantic | BugKind::CrossThreadSemantic => BugCategory::Semantic,
            BugKind::RedundantFlush | BugKind::DuplicateTxAdd => BugCategory::Performance,
            BugKind::PostFailureError | BugKind::PostFailurePanic | BugKind::BudgetExceeded => {
                BugCategory::ExecutionFailure
            }
            BugKind::AnnotationConflict => BugCategory::Annotation,
        }
    }
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BugKind::CrossFailureRace => "cross-failure race",
            BugKind::UninitializedRace => "cross-failure race (uninitialized read)",
            BugKind::CrossFailureSemantic => "cross-failure semantic bug",
            BugKind::CrossThreadRace => "cross-thread cross-failure race",
            BugKind::CrossThreadSemantic => "cross-thread cross-failure semantic bug",
            BugKind::RedundantFlush => "performance bug (redundant writeback)",
            BugKind::DuplicateTxAdd => "performance bug (duplicated TX_ADD)",
            BugKind::PostFailureError => "post-failure execution error",
            BugKind::PostFailurePanic => "post-failure execution panic",
            BugKind::BudgetExceeded => "post-failure execution budget exceeded",
            BugKind::AnnotationConflict => "commit-variable annotation conflict",
        };
        f.write_str(s)
    }
}

/// Coarse category used by Table 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BugCategory {
    /// `R` — cross-failure races.
    Race,
    /// `S` — cross-failure semantic bugs.
    Semantic,
    /// `P` — performance bugs.
    Performance,
    /// The post-failure stage itself failed.
    ExecutionFailure,
    /// Misuse of the annotation interface.
    Annotation,
}

/// The failure point a finding was detected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FailurePoint {
    /// Sequential id of the failure point within the run.
    pub id: u64,
    /// Source location of the ordering point the failure was injected
    /// before.
    pub loc: SourceLoc,
}

impl fmt::Display for FailurePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failure point #{} before {}", self.id, self.loc)
    }
}

/// One detected problem.
///
/// Like the paper's reports, a finding carries the source locations of the
/// post-failure reader and of the last pre-failure writer of the offending
/// location (§5.4: "XFDetector reports the file name and the line number of
/// the reader and the last writer").
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// What kind of problem was detected.
    pub kind: BugKind,
    /// Start of the offending PM range (0 when not applicable).
    pub addr: u64,
    /// Length of the offending access (0 when not applicable).
    pub size: u32,
    /// Where the post-failure read (or the redundant operation) happened.
    pub reader: Option<SourceLoc>,
    /// Where the last pre-failure write to the location happened.
    pub writer: Option<SourceLoc>,
    /// The failure point at which the problem was detected (`None` for
    /// pre-failure-only findings such as performance bugs).
    pub failure_point: Option<FailurePoint>,
    /// Free-form detail (error/panic message, annotation conflict detail).
    pub message: Option<String>,
}

impl Finding {
    /// Dedup key: the same reader/writer pair for the same kind of bug is
    /// reported once, no matter how many failure points expose it.
    fn dedup_key(&self) -> (BugKind, Option<SourceLoc>, Option<SourceLoc>) {
        (self.kind, self.reader, self.writer)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if self.size > 0 {
            write!(f, " at {:#x}+{}", self.addr, self.size)?;
        }
        if let Some(r) = self.reader {
            write!(f, "\n    reader: {r}")?;
        }
        if let Some(w) = self.writer {
            write!(f, "\n    last writer: {w}")?;
        }
        if let Some(fp) = self.failure_point {
            write!(f, "\n    at {fp}")?;
        }
        if let Some(ref m) = self.message {
            write!(f, "\n    detail: {m}")?;
        }
        Ok(())
    }
}

/// The accumulated, deduplicated result of a detection run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DetectionReport {
    findings: Vec<Finding>,
    #[serde(skip)]
    seen: HashSet<(BugKind, Option<SourceLoc>, Option<SourceLoc>)>,
}

impl DetectionReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `finding`, deduplicating by (kind, reader, writer). Returns
    /// whether the finding was new.
    pub fn push(&mut self, finding: Finding) -> bool {
        if self.seen.insert(finding.dedup_key()) {
            self.findings.push(finding);
            true
        } else {
            false
        }
    }

    /// All findings, in detection order.
    #[must_use]
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Consumes the report, yielding the findings in detection order. The
    /// checker commits each message's findings to the run's report this
    /// way.
    #[must_use]
    pub fn into_findings(self) -> Vec<Finding> {
        self.findings
    }

    /// Findings of a given category.
    pub fn of_category(&self, cat: BugCategory) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(move |f| f.kind.category() == cat)
    }

    /// Number of cross-failure races (the `R` column of Table 5).
    #[must_use]
    pub fn race_count(&self) -> usize {
        self.of_category(BugCategory::Race).count()
    }

    /// Number of cross-failure semantic bugs (`S`).
    #[must_use]
    pub fn semantic_count(&self) -> usize {
        self.of_category(BugCategory::Semantic).count()
    }

    /// Number of performance bugs (`P`).
    #[must_use]
    pub fn performance_count(&self) -> usize {
        self.of_category(BugCategory::Performance).count()
    }

    /// Number of post-failure execution failures.
    #[must_use]
    pub fn execution_failure_count(&self) -> usize {
        self.of_category(BugCategory::ExecutionFailure).count()
    }

    /// Whether any correctness problem (race, semantic bug or execution
    /// failure — everything except performance bugs) was found.
    #[must_use]
    pub fn has_correctness_bugs(&self) -> bool {
        self.findings.iter().any(|f| {
            matches!(
                f.kind.category(),
                BugCategory::Race | BugCategory::Semantic | BugCategory::ExecutionFailure
            )
        })
    }

    /// Whether the report is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.findings.len()
    }
}

impl fmt::Display for DetectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return writeln!(f, "no cross-failure bugs detected");
        }
        writeln!(
            f,
            "{} finding(s): {} race(s), {} semantic, {} performance, {} execution failure(s)",
            self.findings.len(),
            self.race_count(),
            self.semantic_count(),
            self.performance_count(),
            self.execution_failure_count(),
        )?;
        for (i, finding) in self.findings.iter().enumerate() {
            writeln!(f, "[{}] {finding}", i + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(line: u32) -> SourceLoc {
        SourceLoc { file: "w.rs", line }
    }

    fn race(reader: u32, writer: u32) -> Finding {
        Finding {
            kind: BugKind::CrossFailureRace,
            addr: 0x1000,
            size: 8,
            reader: Some(loc(reader)),
            writer: Some(loc(writer)),
            failure_point: Some(FailurePoint {
                id: 0,
                loc: loc(99),
            }),
            message: None,
        }
    }

    #[test]
    fn dedup_by_reader_writer_pair() {
        let mut r = DetectionReport::new();
        assert!(r.push(race(1, 2)));
        assert!(!r.push(race(1, 2)), "same pair dedups");
        assert!(r.push(race(1, 3)), "different writer is a new finding");
        assert!(r.push(race(4, 2)), "different reader is a new finding");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn same_pair_different_kind_is_distinct() {
        let mut r = DetectionReport::new();
        let mut f = race(1, 2);
        assert!(r.push(f.clone()));
        f.kind = BugKind::CrossFailureSemantic;
        assert!(r.push(f));
        assert_eq!(r.race_count(), 1);
        assert_eq!(r.semantic_count(), 1);
    }

    #[test]
    fn categories_partition_kinds() {
        assert_eq!(BugKind::CrossFailureRace.category(), BugCategory::Race);
        assert_eq!(BugKind::UninitializedRace.category(), BugCategory::Race);
        assert_eq!(
            BugKind::CrossFailureSemantic.category(),
            BugCategory::Semantic
        );
        assert_eq!(BugKind::CrossThreadRace.category(), BugCategory::Race);
        assert_eq!(
            BugKind::CrossThreadSemantic.category(),
            BugCategory::Semantic
        );
        assert_eq!(BugKind::RedundantFlush.category(), BugCategory::Performance);
        assert_eq!(BugKind::DuplicateTxAdd.category(), BugCategory::Performance);
        assert_eq!(
            BugKind::PostFailureError.category(),
            BugCategory::ExecutionFailure
        );
        assert_eq!(
            BugKind::AnnotationConflict.category(),
            BugCategory::Annotation
        );
    }

    #[test]
    fn correctness_excludes_performance() {
        let mut r = DetectionReport::new();
        r.push(Finding {
            kind: BugKind::RedundantFlush,
            addr: 0,
            size: 0,
            reader: Some(loc(5)),
            writer: None,
            failure_point: None,
            message: None,
        });
        assert!(!r.has_correctness_bugs());
        r.push(race(1, 2));
        assert!(r.has_correctness_bugs());
    }

    #[test]
    fn display_contains_reader_writer_and_counts() {
        let mut r = DetectionReport::new();
        r.push(race(10, 20));
        let s = r.to_string();
        assert!(s.contains("1 race(s)"), "{s}");
        assert!(s.contains("w.rs:10"), "{s}");
        assert!(s.contains("w.rs:20"), "{s}");
        assert!(s.contains("failure point #0"), "{s}");
    }

    #[test]
    fn empty_report_displays_cleanly() {
        let r = DetectionReport::new();
        assert!(r.to_string().contains("no cross-failure bugs"));
        assert!(r.is_empty());
        assert!(!r.has_correctness_bugs());
    }

    #[test]
    fn serializes_to_json() {
        let mut r = DetectionReport::new();
        r.push(race(1, 2));
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("CrossFailureRace"), "{json}");
        assert!(json.contains("\"findings\""), "{json}");
    }
}
