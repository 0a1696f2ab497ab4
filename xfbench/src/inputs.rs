//! Seeded inputs: the programs each workload detects on, how each is run,
//! and the verdict every run must reach.

use pmem::PersistDomain;
use xfd_workloads::bugs::{BugId, BugSuite, WorkloadKind};
use xfd_workloads::{build_concurrent, build_with_init, validation_config, validation_ops};
use xfdetector::{
    BugCategory, DetectionReport, JobSpec, Mode, Pruning, RunOutcome, SchedulePlan, Scheduled,
    Session, Workload, XfConfig, XfError,
};

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The verdict a run must reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// No correctness finding at all.
    Clean,
    /// The bug surfaces in its registered category under the run's domain.
    Detected(BugId),
}

/// One program under test and the configuration it is detected with.
#[derive(Debug, Clone)]
pub struct Program {
    pub kind: WorkloadKind,
    pub ops: u64,
    pub bug: Option<BugId>,
    pub domain: PersistDomain,
    /// Logical threads; above 1 the program runs through `run_concurrent`.
    pub threads: u32,
    pub pruning: Pruning,
    pub mode: Mode,
    pub expect: Expect,
}

/// The domains a domain-sensitive bug is drawn under.
const DOMAINS: [PersistDomain; 3] = [
    PersistDomain::Adr,
    PersistDomain::Eadr,
    PersistDomain::CxlGpf { reorder_window: 4 },
];

impl Program {
    fn new(kind: WorkloadKind, ops: u64, bug: Option<BugId>, domain: PersistDomain) -> Self {
        let expect = match bug {
            Some(b) if b.expected_under(domain) => Expect::Detected(b),
            _ => Expect::Clean,
        };
        Program {
            kind,
            ops,
            bug,
            domain,
            threads: if kind.is_concurrent() { 2 } else { 1 },
            pruning: Pruning::Off,
            mode: Mode::Batch,
            expect,
        }
    }

    pub fn label(&self) -> String {
        let bug = self
            .bug
            .map_or_else(|| "clean".to_owned(), |b| format!("{b:?}"));
        format!("{}@{}/{bug}/{}", self.kind.slug(), self.ops, self.domain)
    }

    /// The detection configuration: the registry's validation settings for
    /// the bug (a trace-entry budget for hanging recoveries), plus the
    /// program's domain, pruning and thread count.
    pub fn config(&self) -> XfConfig {
        let mut cfg = self.bug.map_or_else(XfConfig::default, validation_config);
        cfg.domain = self.domain;
        cfg.pruning = self.pruning;
        cfg.threads = self.threads;
        cfg
    }

    fn bugs(&self) -> xfd_workloads::bugs::BugSet {
        self.bug.into_iter().collect()
    }

    /// The program as a plain workload; concurrent programs are pinned to
    /// the round-robin plan `run_concurrent` expands to.
    pub fn workload(&self) -> Box<dyn Workload + Send + Sync> {
        if self.threads > 1 {
            let w = build_concurrent(self.kind, self.ops, self.bugs())
                .expect("multi-threaded programs are concurrent workloads");
            Box::new(Scheduled::new(w, SchedulePlan::round_robin(self.threads)))
        } else {
            build_with_init(self.kind, 0, self.ops, self.bugs())
        }
    }

    /// The detection session, with the streaming engine available.
    pub fn session(&self) -> Session {
        xfstream::session()
            .config(self.config())
            .build()
            .expect("benchmark configurations are valid")
    }

    /// Runs the detection through `session` in `mode`.
    pub fn run_in(&self, session: &Session, mode: Mode) -> Result<RunOutcome, XfError> {
        if self.threads > 1 {
            let w = build_concurrent(self.kind, self.ops, self.bugs())
                .expect("multi-threaded programs are concurrent workloads");
            session.run_concurrent(w, mode)
        } else {
            session.run(build_with_init(self.kind, 0, self.ops, self.bugs()), mode)
        }
    }

    /// The program as a server job: parallel mode with equivalence pruning.
    pub fn job_spec(&self) -> JobSpec {
        let cfg = self.config();
        JobSpec {
            workload: Some(self.kind.slug().to_owned()),
            ops: Some(self.ops),
            bugs: self.bug.iter().map(|b| format!("{b:?}")).collect(),
            domain: Some(self.domain.to_string()),
            threads: (self.threads > 1).then_some(self.threads),
            mode: Some("parallel".to_owned()),
            pruning: Some("equivalence".to_owned()),
            budget_entries: cfg.post_budget.and_then(|b| b.max_trace_entries),
            ..JobSpec::default()
        }
    }

    /// Whether `report` is the verdict this program must reach.
    /// `budget_kills` counts post-failure runs the budget watchdog killed.
    pub fn verdict_ok(&self, report: &DetectionReport, budget_kills: u64) -> bool {
        match self.expect {
            Expect::Clean => !report.has_correctness_bugs(),
            Expect::Detected(bug) => {
                // Under a CXL reorder window the buffered-byte race check
                // precedes the staleness check, so these semantic bugs
                // surface as races.
                if matches!(self.domain, PersistDomain::CxlGpf { .. })
                    && bug.cxl_masks_semantic_as_race()
                {
                    return report.race_count() >= 1;
                }
                match bug.expected_category() {
                    BugCategory::Race => report.race_count() >= 1,
                    BugCategory::Semantic => report.semantic_count() >= 1,
                    BugCategory::Performance => report.performance_count() >= 1,
                    BugCategory::ExecutionFailure => {
                        budget_kills >= 1 && report.execution_failure_count() >= 1
                    }
                    _ => false,
                }
            }
        }
    }
}

/// Verdicts checked against verdicts attempted, naming the first failures.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records a verdict; a failure is named by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        const NAMED: usize = 20;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < NAMED {
                self.failures.push(what());
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One pass of `registry`: every registered bug plus every bug-free program
/// at its validation size, batch engine, pruning off. Domain-sensitive bugs
/// run under a seeded domain; the seed also shuffles the pass order.
pub fn registry(rng: &mut Rng) -> Vec<Program> {
    let mut out: Vec<Program> = BugId::all()
        .iter()
        .map(|&bug| {
            let domain = if bug.suite() == BugSuite::DomainSensitive {
                DOMAINS[rng.below(DOMAINS.len() as u64) as usize]
            } else {
                PersistDomain::Adr
            };
            let kind = bug.workload();
            Program::new(kind, validation_ops(kind), Some(bug), domain)
        })
        .collect();
    out.extend(
        WorkloadKind::ALL
            .iter()
            .map(|&kind| Program::new(kind, validation_ops(kind), None, PersistDomain::Adr)),
    );
    rng.shuffle(&mut out);
    out
}

/// Base sizes of the `pruned-stream` programs: about a hundred operations,
/// scaled so each detection takes a comparable time and a pass takes about
/// a second. Every size stays below the 300 ops at which Hashmap-TX's undo
/// log overflows.
const STREAM_SIZES: [(WorkloadKind, u64); 7] = [
    (WorkloadKind::Btree, 128),
    (WorkloadKind::Ctree, 100),
    (WorkloadKind::Rbtree, 100),
    (WorkloadKind::HashmapTx, 100),
    (WorkloadKind::HashmapAtomic, 64),
    (WorkloadKind::Memcached, 80),
    (WorkloadKind::Redis, 128),
];

/// Whether a registry bug can join the `pruned-stream` draw: it is detected
/// at the stream sizes under ADR without a budget.
fn stream_bug(bug: BugId) -> bool {
    bug.suite() != BugSuite::DomainSensitive
        && bug.suite() != BugSuite::Concurrent
        && bug.expected_category() != BugCategory::ExecutionFailure
}

/// One pass of `pruned-stream`: the seven sequential programs bug-free,
/// plus one seeded registry bug for each program that has any, at seeded
/// sizes within 5 % of [`STREAM_SIZES`]; stream engine with equivalence
/// pruning.
pub fn pruned_stream(rng: &mut Rng) -> Vec<Program> {
    let mut out = Vec::new();
    for (kind, base) in STREAM_SIZES {
        let ops = base - base / 20 + rng.below(base / 10 + 1);
        out.push(Program::new(kind, ops, None, PersistDomain::Adr));
        let bugs: Vec<BugId> = BugId::all()
            .iter()
            .copied()
            .filter(|b| b.workload() == kind && stream_bug(*b))
            .collect();
        if !bugs.is_empty() {
            let bug = bugs[rng.below(bugs.len() as u64) as usize];
            out.push(Program::new(kind, ops, Some(bug), PersistDomain::Adr));
        }
    }
    for p in &mut out {
        p.pruning = Pruning::Equivalence;
        p.mode = Mode::Stream;
    }
    rng.shuffle(&mut out);
    out
}

/// The programs of the repository's documented server workload
/// (`EXPERIMENTS.md`, "Campaign server throughput"): B-Tree, Hashmap-TX and
/// C-Tree, bug-free, at [`SERVE_OPS`] ops.
pub const SERVE_KINDS: [WorkloadKind; 3] = [
    WorkloadKind::Btree,
    WorkloadKind::HashmapTx,
    WorkloadKind::Ctree,
];

/// The documented server job size.
pub const SERVE_OPS: u64 = 100;

/// A bug-free `serve` program: parallel mode with equivalence pruning, as
/// the documented server jobs run.
pub fn serve_program(kind: WorkloadKind, ops: u64, domain: PersistDomain) -> Program {
    let mut p = Program::new(kind, ops, None, domain);
    p.pruning = Pruning::Equivalence;
    p.mode = Mode::Parallel;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let labels = |seed| -> Vec<String> {
            pruned_stream(&mut Rng::new(seed))
                .iter()
                .map(Program::label)
                .collect()
        };
        assert_eq!(labels(1), labels(1));
        assert_ne!(labels(1), labels(2));
        assert_eq!(registry(&mut Rng::new(3)).len(), BugId::all().len() + 9);
    }

    #[test]
    fn a_wrong_expected_verdict_raises_failed_frac() {
        let bug = BugId::BtNoAddCount;
        let right = Program::new(WorkloadKind::Btree, 12, Some(bug), PersistDomain::Adr);
        let mut wrong = right.clone();
        wrong.expect = Expect::Clean;

        let mut tally = Tally::default();
        for p in [&right, &wrong] {
            let outcome = p.run_in(&p.session(), p.mode).expect("detection runs");
            tally.check(
                p.verdict_ok(&outcome.report, outcome.stats.budget_exceeded),
                || p.label(),
            );
        }
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_frac(), 0.5);
    }
}
