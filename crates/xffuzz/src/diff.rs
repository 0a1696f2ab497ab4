//! The differential driver: engines vs engines vs oracle, with shrinking.
//!
//! Each generated program runs through [`Session::run`] in all three
//! [`Mode`]s plus two trace replays — the production offline backend
//! ([`xfdetector::offline::analyze`]) and the independent per-byte oracle
//! ([`crate::oracle::oracle_report`]). Three comparisons must all hold:
//!
//! 1. **Engine equivalence** — Batch, Parallel and Stream reports are
//!    byte-identical under JSON serialization (the repo-wide discipline).
//! 2. **Oracle parity** — the offline backend and the naive oracle compute
//!    identical findings from the recorded trace. Both are pure trace
//!    interpreters with the same replay order, but share no detection
//!    code, so agreement here pins down the FSM semantics.
//! 3. **Online/offline parity** — the Batch report minus execution-outcome
//!    findings (which are not part of the trace) equals the offline
//!    replay, finding for finding.
//! 4. **Domain lockstep** (sequential programs) — the recorded trace is
//!    re-analyzed under every persistence domain (ADR, eADR, CXL GPF) and
//!    the production replay must match the oracle under each one, not just
//!    the campaign's own domain.
//!
//! On divergence the driver delta-debugs the op list down to a minimal
//! still-diverging program and writes a repro bundle (`program.fuzz`,
//! `minimized.fuzz`, `repro.xft`, `divergence.txt`) into the corpus
//! directory.

use std::path::PathBuf;

use pmem::PersistDomain;
use xfdetector::offline::{analyze, analyze_in, RecordedRun};
use xfdetector::{BugCategory, BugKind, DetectionReport, Finding, Mode, Pruning, Session, XfError};
use xftrace::fnv;

use crate::gen::{generate, generate_concurrent};
use crate::oracle::{oracle_report, oracle_report_in};
use crate::program::{ConcurrentFuzzProgram, FuzzOp, FuzzProgram};

/// The domains every sequential program's recorded trace is re-checked
/// under, regardless of the campaign's own [`DiffConfig::domain`].
pub const DOMAIN_SWEEP: [PersistDomain; 3] = [
    PersistDomain::Adr,
    PersistDomain::Eadr,
    PersistDomain::CxlGpf { reorder_window: 4 },
];

/// A deliberately injected engine defect, for validating that the harness
/// actually catches and shrinks divergences. Test/CI-only: a real campaign
/// runs with [`EngineFault::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineFault {
    /// No fault: the engines run as built.
    #[default]
    None,
    /// Drop every finding of the given kind from the Parallel engine's
    /// report before comparison, simulating a detection bug in one engine.
    DropKind(BugKind),
}

/// Campaign configuration (the `xfd fuzz` flag surface).
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Campaign seed; each iteration derives its own RNG stream from it.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub iters: u64,
    /// Maximum ops per generated program.
    pub max_ops: usize,
    /// Delta-debug diverging programs down to a minimal repro.
    pub shrink: bool,
    /// Where to write repro bundles for diverging programs.
    pub corpus_dir: Option<PathBuf>,
    /// Post-failure trace-entry budget (deterministic watchdog axis); a
    /// runaway post-failure stage becomes a `BudgetExceeded` finding
    /// instead of a hung campaign.
    pub budget_entries: Option<u64>,
    /// Failure-point pruning policy, applied to all three engines alike:
    /// the engine-equivalence comparison then checks that Batch, Parallel
    /// and Stream prune in lockstep (same classes, same representatives,
    /// byte-identical reports), and the parity checks ensure the recorded
    /// pruned run still replays to the online findings.
    pub pruning: Pruning,
    /// Persistence domain the engines run and classify under. The recorded
    /// trace is domain-independent, so sequential programs additionally get
    /// the [`DOMAIN_SWEEP`] lockstep replay whatever this is set to.
    pub domain: PersistDomain,
    /// Injected engine defect (tests/CI only).
    pub fault: EngineFault,
    /// Logical thread count. 1 (the default) runs the sequential campaign;
    /// above 1 the campaign generates [`ConcurrentFuzzProgram`]s and runs
    /// them through [`Session::run_concurrent`] on every engine (see
    /// [`run_concurrent_campaign`]).
    ///
    /// [`Session::run_concurrent`]: xfdetector::Session::run_concurrent
    pub threads: u32,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            seed: 1,
            iters: 100,
            max_ops: 32,
            shrink: true,
            corpus_dir: None,
            budget_entries: Some(100_000),
            pruning: Pruning::Off,
            domain: PersistDomain::Adr,
            fault: EngineFault::None,
            threads: 1,
        }
    }
}

/// The campaign-facing surface shared by the two fuzz-program shapes —
/// what the driver needs for digests, repro bundles and reporting without
/// caring which shape it is running.
pub trait FuzzSource {
    /// Stable program name (bundle directory, report headers).
    fn source_name(&self) -> &str;
    /// Total op count, across all threads for concurrent programs.
    fn op_count(&self) -> usize;
    /// The stable `.fuzz` text form (digest input, repro files).
    fn text(&self) -> String;
}

impl FuzzSource for FuzzProgram {
    fn source_name(&self) -> &str {
        &self.name
    }
    fn op_count(&self) -> usize {
        self.ops.len()
    }
    fn text(&self) -> String {
        self.to_text()
    }
}

impl FuzzSource for ConcurrentFuzzProgram {
    fn source_name(&self) -> &str {
        &self.name
    }
    fn op_count(&self) -> usize {
        self.op_count()
    }
    fn text(&self) -> String {
        self.to_text()
    }
}

/// Why a program diverged: which comparison failed and both sides of it.
#[derive(Debug, Clone)]
pub struct DivergenceInfo {
    /// Comparison that failed: `engine-equivalence`, `oracle-parity` or
    /// `online-offline-parity`.
    pub check: &'static str,
    /// Left-hand report, serialized.
    pub left: String,
    /// Right-hand report, serialized.
    pub right: String,
}

/// The result of checking one program.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Batch-mode report, JSON-serialized (the campaign digest input).
    pub batch_json: String,
    /// The recorded Batch run (for `.xft` repro export).
    pub recorded: RecordedRun,
    /// The first failed comparison, if any.
    pub divergence: Option<DivergenceInfo>,
}

/// A diverging program, optionally minimized. `P` is the program shape:
/// [`FuzzProgram`] for sequential campaigns, [`ConcurrentFuzzProgram`] for
/// multi-threaded ones.
#[derive(Debug)]
pub struct Divergence<P = FuzzProgram> {
    /// Iteration that produced the program.
    pub iter: u64,
    /// The failed comparison and both sides.
    pub info: DivergenceInfo,
    /// The generated program.
    pub program: P,
    /// The delta-debugged minimal program (when shrinking ran).
    pub minimized: Option<P>,
}

/// Campaign summary.
#[derive(Debug)]
pub struct CampaignOutcome<P = FuzzProgram> {
    /// Programs generated and checked.
    pub programs_checked: u64,
    /// Diverging programs, in iteration order.
    pub divergences: Vec<Divergence<P>>,
    /// FNV-1a digest over the campaign domain, then every program text and
    /// Batch report in iteration order. Bit-reproducibility contract: the
    /// same `(seed, iters, max_ops, domain)` yields the same digest on
    /// every run.
    pub digest: u64,
}

/// The online findings a trace replay can reproduce (execution outcomes —
/// post-failure errors, panics, budget kills — are not in the trace).
fn trace_derived(report: &DetectionReport) -> Vec<&Finding> {
    report
        .findings()
        .iter()
        .filter(|f| f.kind.category() != BugCategory::ExecutionFailure)
        .collect()
}

fn apply_fault(report: DetectionReport, fault: EngineFault) -> DetectionReport {
    match fault {
        EngineFault::None => report,
        EngineFault::DropKind(kind) => {
            let mut out = DetectionReport::new();
            for f in report.into_findings() {
                if f.kind != kind {
                    out.push(f);
                }
            }
            out
        }
    }
}

fn session(cfg: &DiffConfig, threads: u32) -> Result<Session, XfError> {
    let mut builder = Session::builder()
        .record_repro(true)
        .workers(2)
        .pruning(cfg.pruning)
        .domain(cfg.domain)
        .threads(threads);
    if let Some(entries) = cfg.budget_entries {
        builder = builder.budget(pmem::Budget::default().with_max_trace_entries(entries));
    }
    builder.build().map_err(XfError::from)
}

/// Runs one program through all engines and both trace replays, returning
/// the first comparison that fails (or none).
///
/// # Errors
///
/// Any [`XfError`] from the engines themselves — an engine *erroring* on a
/// generated program is an infrastructure failure, distinct from a report
/// divergence.
pub fn check_program(program: &FuzzProgram, cfg: &DiffConfig) -> Result<CheckOutcome, XfError> {
    let session = session(cfg, 1)?;
    let batch = session.run(program.clone(), Mode::Batch)?;
    let parallel = session.run(program.clone(), Mode::Parallel)?;
    let stream = session.run(program.clone(), Mode::Stream)?;

    let recorded = batch
        .recorded
        .clone()
        .expect("record_repro implies a recorded run");
    let first_read_only = session.config().first_read_only;

    let batch_json = serde_json::to_string(&batch.report).expect("report serializes");
    let parallel_report = apply_fault(parallel.report, cfg.fault);
    let parallel_json = serde_json::to_string(&parallel_report).expect("report serializes");
    let stream_json = serde_json::to_string(&stream.report).expect("report serializes");

    let divergence = if parallel_json != batch_json {
        Some(DivergenceInfo {
            check: "engine-equivalence",
            left: batch_json.clone(),
            right: parallel_json,
        })
    } else if stream_json != batch_json {
        Some(DivergenceInfo {
            check: "engine-equivalence",
            left: batch_json.clone(),
            right: stream_json,
        })
    } else {
        let offline = analyze(&recorded, first_read_only);
        let oracle = oracle_report(&recorded, first_read_only);
        let offline_json = serde_json::to_string(&offline).expect("report serializes");
        let oracle_json = serde_json::to_string(&oracle).expect("report serializes");
        if oracle_json != offline_json {
            Some(DivergenceInfo {
                check: "oracle-parity",
                left: offline_json,
                right: oracle_json,
            })
        } else {
            let online = format!("{:?}", trace_derived(&batch.report));
            let replayed = format!("{:?}", offline.findings().iter().collect::<Vec<_>>());
            if online != replayed {
                Some(DivergenceInfo {
                    check: "online-offline-parity",
                    left: online,
                    right: replayed,
                })
            } else {
                domain_lockstep(&recorded, first_read_only)
            }
        }
    };

    Ok(CheckOutcome {
        batch_json,
        recorded,
        divergence,
    })
}

/// The domain-lockstep comparison: replays the recorded trace through the
/// production offline backend and the independent oracle under every
/// [`DOMAIN_SWEEP`] domain, returning the first disagreement.
fn domain_lockstep(recorded: &RecordedRun, first_read_only: bool) -> Option<DivergenceInfo> {
    for domain in DOMAIN_SWEEP {
        let offline = analyze_in(recorded, first_read_only, domain);
        let oracle = oracle_report_in(recorded, first_read_only, domain);
        let offline_json = serde_json::to_string(&offline).expect("report serializes");
        let oracle_json = serde_json::to_string(&oracle).expect("report serializes");
        if oracle_json != offline_json {
            return Some(DivergenceInfo {
                check: "domain-lockstep",
                left: format!("{domain}: {offline_json}"),
                right: format!("{domain}: {oracle_json}"),
            });
        }
    }
    None
}

/// [`check_program`] for a concurrent program: every engine runs it
/// through [`Session::run_concurrent`](xfdetector::Session::run_concurrent)
/// under the session's round-robin schedule, and the engine-equivalence
/// and online/offline-parity comparisons must hold. The oracle-parity
/// check is skipped — the per-byte oracle models the paper's
/// single-threaded semantics and knows nothing of thread ids, while the
/// production offline backend replays the tid-stamped trace exactly.
///
/// # Errors
///
/// As [`check_program`].
pub fn check_concurrent_program(
    program: &ConcurrentFuzzProgram,
    cfg: &DiffConfig,
) -> Result<CheckOutcome, XfError> {
    let session = session(cfg, program.threads.len() as u32)?;
    let batch = session.run_concurrent(program.clone(), Mode::Batch)?;
    let parallel = session.run_concurrent(program.clone(), Mode::Parallel)?;
    let stream = session.run_concurrent(program.clone(), Mode::Stream)?;

    let recorded = batch
        .recorded
        .clone()
        .expect("record_repro implies a recorded run");
    let first_read_only = session.config().first_read_only;

    let batch_json = serde_json::to_string(&batch.report).expect("report serializes");
    let parallel_report = apply_fault(parallel.report, cfg.fault);
    let parallel_json = serde_json::to_string(&parallel_report).expect("report serializes");
    let stream_json = serde_json::to_string(&stream.report).expect("report serializes");

    let divergence = if parallel_json != batch_json {
        Some(DivergenceInfo {
            check: "engine-equivalence",
            left: batch_json.clone(),
            right: parallel_json,
        })
    } else if stream_json != batch_json {
        Some(DivergenceInfo {
            check: "engine-equivalence",
            left: batch_json.clone(),
            right: stream_json,
        })
    } else {
        let offline = analyze(&recorded, first_read_only);
        let online = format!("{:?}", trace_derived(&batch.report));
        let replayed = format!("{:?}", offline.findings().iter().collect::<Vec<_>>());
        (online != replayed).then_some(DivergenceInfo {
            check: "online-offline-parity",
            left: online,
            right: replayed,
        })
    };

    Ok(CheckOutcome {
        batch_json,
        recorded,
        divergence,
    })
}

/// Cap on shrink re-evaluations; each one is three engine runs plus two
/// trace replays, so an unlucky shrink stays bounded.
const MAX_SHRINK_EVALS: usize = 400;

/// Delta-debugs `program` down to a minimal op list that still fails the
/// same comparison. Classic ddmin over chunk removal: try dropping chunks
/// of halving size until no single op can be removed.
///
/// Soundness rests on the replayer's skip-invalid-ops rule: any
/// subsequence of a program's ops is itself a valid program, so candidate
/// removal never creates an unrunnable program.
///
/// # Errors
///
/// Propagates engine [`XfError`]s from candidate evaluations.
pub fn shrink_program(
    program: &FuzzProgram,
    cfg: &DiffConfig,
    check: &'static str,
) -> Result<FuzzProgram, XfError> {
    let mut ops = program.ops.clone();
    let mut evals = 0usize;
    let mut chunk = ops.len().div_ceil(2).max(1);

    loop {
        let mut removed = false;
        let mut i = 0;
        while i < ops.len() && evals < MAX_SHRINK_EVALS {
            let end = (i + chunk).min(ops.len());
            let mut cand_ops = Vec::with_capacity(ops.len() - (end - i));
            cand_ops.extend_from_slice(&ops[..i]);
            cand_ops.extend_from_slice(&ops[end..]);
            if cand_ops.is_empty() {
                i = end;
                continue;
            }
            let cand = FuzzProgram {
                name: program.name.clone(),
                ops: cand_ops,
            };
            evals += 1;
            let still_fails = check_program(&cand, cfg)?
                .divergence
                .is_some_and(|d| d.check == check);
            if still_fails {
                ops = cand.ops;
                removed = true;
            } else {
                i = end;
            }
        }
        if evals >= MAX_SHRINK_EVALS || (chunk == 1 && !removed) {
            break;
        }
        if chunk > 1 {
            chunk = (chunk / 2).max(1);
        }
    }

    Ok(FuzzProgram {
        name: format!("{}-min", program.name),
        ops,
    })
}

/// [`shrink_program`] over a concurrent program: the same ddmin, run on
/// the flattened `(thread, op)` list in thread-major order, so candidate
/// removal can drop ops from any thread while preserving each thread's
/// internal order. The concurrent-safe subset is unconditionally valid, so
/// every candidate is a runnable program.
///
/// # Errors
///
/// Propagates engine [`XfError`]s from candidate evaluations.
pub fn shrink_concurrent_program(
    program: &ConcurrentFuzzProgram,
    cfg: &DiffConfig,
    check: &'static str,
) -> Result<ConcurrentFuzzProgram, XfError> {
    let n_threads = program.threads.len();
    let rebuild = |flat: &[(usize, FuzzOp)]| {
        let mut threads = vec![Vec::new(); n_threads];
        for &(t, op) in flat {
            threads[t].push(op);
        }
        threads
    };
    let mut flat: Vec<(usize, FuzzOp)> = program
        .threads
        .iter()
        .enumerate()
        .flat_map(|(t, ops)| ops.iter().map(move |&op| (t, op)))
        .collect();
    let mut evals = 0usize;
    let mut chunk = flat.len().div_ceil(2).max(1);

    loop {
        let mut removed = false;
        let mut i = 0;
        while i < flat.len() && evals < MAX_SHRINK_EVALS {
            let end = (i + chunk).min(flat.len());
            let mut cand_flat = Vec::with_capacity(flat.len() - (end - i));
            cand_flat.extend_from_slice(&flat[..i]);
            cand_flat.extend_from_slice(&flat[end..]);
            if cand_flat.is_empty() {
                i = end;
                continue;
            }
            let cand = ConcurrentFuzzProgram {
                name: program.name.clone(),
                threads: rebuild(&cand_flat),
            };
            evals += 1;
            let still_fails = check_concurrent_program(&cand, cfg)?
                .divergence
                .is_some_and(|d| d.check == check);
            if still_fails {
                flat = cand_flat;
                removed = true;
            } else {
                i = end;
            }
        }
        if evals >= MAX_SHRINK_EVALS || (chunk == 1 && !removed) {
            break;
        }
        if chunk > 1 {
            chunk = (chunk / 2).max(1);
        }
    }

    Ok(ConcurrentFuzzProgram {
        name: format!("{}-min", program.name),
        threads: rebuild(&flat),
    })
}

fn write_repro<P: FuzzSource>(
    dir: &std::path::Path,
    div: &Divergence<P>,
    recorded: &RecordedRun,
    min_recorded: Option<&RecordedRun>,
) -> std::io::Result<()> {
    let bundle = dir.join(div.program.source_name());
    std::fs::create_dir_all(&bundle)?;
    std::fs::write(bundle.join("program.fuzz"), div.program.text())?;
    if let Some(min) = &div.minimized {
        std::fs::write(bundle.join("minimized.fuzz"), min.text())?;
    }
    let repro = min_recorded.unwrap_or(recorded);
    let bytes = xfstream::encode_recorded_run(repro)
        .map_err(|e| std::io::Error::other(format!("xft encoding failed: {e}")))?;
    std::fs::write(bundle.join("repro.xft"), bytes)?;
    std::fs::write(
        bundle.join("divergence.txt"),
        format!(
            "check: {}\niter: {}\n\n--- left ---\n{}\n\n--- right ---\n{}\n",
            div.info.check, div.iter, div.info.left, div.info.right
        ),
    )?;
    Ok(())
}

/// The shared campaign loop: `gen_one` produces the iteration's program,
/// `check` runs the differential comparisons, `shrink` minimizes a
/// diverging program. Digests fold each program's text and Batch report in
/// iteration order, identically for both shapes.
fn campaign_loop<P, F>(
    cfg: &DiffConfig,
    mut progress: F,
    gen_one: impl Fn(u64) -> P,
    check: impl Fn(&P, &DiffConfig) -> Result<CheckOutcome, XfError>,
    shrink: impl Fn(&P, &DiffConfig, &'static str) -> Result<P, XfError>,
) -> Result<CampaignOutcome<P>, XfError>
where
    P: FuzzSource,
    F: FnMut(u64, bool),
{
    // The domain is folded in unconditionally, so campaigns differing only
    // in domain never collide even when their reports happen to agree.
    let mut digest = fnv::fnv1a(cfg.domain.to_string().as_bytes());
    let mut divergences = Vec::new();

    for iter in 0..cfg.iters {
        let program = gen_one(iter);
        let outcome = check(&program, cfg)?;
        digest = fnv::fold(digest, program.text().as_bytes());
        digest = fnv::fold(digest, outcome.batch_json.as_bytes());

        let diverged = outcome.divergence.is_some();
        if let Some(info) = outcome.divergence {
            let minimized = if cfg.shrink {
                Some(shrink(&program, cfg, info.check)?)
            } else {
                None
            };
            let min_recorded = match &minimized {
                Some(min) => Some(check(min, cfg)?.recorded),
                None => None,
            };
            let div = Divergence {
                iter,
                info,
                program,
                minimized,
            };
            if let Some(dir) = &cfg.corpus_dir {
                write_repro(dir, &div, &outcome.recorded, min_recorded.as_ref())
                    .map_err(XfError::from)?;
            }
            divergences.push(div);
        }
        progress(iter, diverged);
    }

    Ok(CampaignOutcome {
        programs_checked: cfg.iters,
        divergences,
        digest,
    })
}

/// Runs a full campaign: generate, check, shrink, write repros.
///
/// # Errors
///
/// Engine [`XfError`]s and corpus-directory I/O failures.
pub fn run_campaign(cfg: &DiffConfig) -> Result<CampaignOutcome, XfError> {
    run_campaign_with(cfg, |_, _| {})
}

/// [`run_campaign`] with a per-iteration progress callback
/// `(iter, diverged)`.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_campaign_with<F>(cfg: &DiffConfig, progress: F) -> Result<CampaignOutcome, XfError>
where
    F: FnMut(u64, bool),
{
    campaign_loop(
        cfg,
        progress,
        |iter| generate(cfg.seed, iter, cfg.max_ops),
        check_program,
        shrink_program,
    )
}

/// Runs a full *concurrent* campaign over [`DiffConfig::threads`] logical
/// threads: each iteration generates a [`ConcurrentFuzzProgram`], runs it
/// through every engine multi-threaded, and cross-checks the reports.
/// Same digest discipline as [`run_campaign`]: the same `(seed, iters,
/// max_ops, threads)` yields the same digest on every run.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_concurrent_campaign(
    cfg: &DiffConfig,
) -> Result<CampaignOutcome<ConcurrentFuzzProgram>, XfError> {
    run_concurrent_campaign_with(cfg, |_, _| {})
}

/// [`run_concurrent_campaign`] with a per-iteration progress callback
/// `(iter, diverged)`.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_concurrent_campaign_with<F>(
    cfg: &DiffConfig,
    progress: F,
) -> Result<CampaignOutcome<ConcurrentFuzzProgram>, XfError>
where
    F: FnMut(u64, bool),
{
    campaign_loop(
        cfg,
        progress,
        |iter| generate_concurrent(cfg.seed, iter, cfg.max_ops, cfg.threads),
        check_concurrent_program,
        shrink_concurrent_program,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FuzzOp;

    fn quick(iters: u64) -> DiffConfig {
        DiffConfig {
            iters,
            max_ops: 16,
            shrink: false,
            ..DiffConfig::default()
        }
    }

    #[test]
    fn clean_campaign_has_no_divergences() {
        let out = run_campaign(&quick(8)).unwrap();
        assert_eq!(out.programs_checked, 8);
        assert!(
            out.divergences.is_empty(),
            "engines diverged: {:?}",
            out.divergences[0].info
        );
    }

    #[test]
    fn campaign_digest_is_bit_reproducible() {
        let a = run_campaign(&quick(6)).unwrap();
        let b = run_campaign(&quick(6)).unwrap();
        assert_eq!(a.digest, b.digest);
        let other = run_campaign(&DiffConfig {
            seed: 2,
            ..quick(6)
        })
        .unwrap();
        assert_ne!(a.digest, other.digest, "seed must steer the campaign");
    }

    #[test]
    fn injected_engine_fault_is_caught_and_shrunk() {
        // Drop every cross-failure race from the Parallel engine: any
        // program whose report contains a race now diverges. The shrinker
        // must reduce it to a handful of ops (the acceptance bound is 20).
        let cfg = DiffConfig {
            iters: 40,
            max_ops: 24,
            shrink: true,
            fault: EngineFault::DropKind(BugKind::CrossFailureRace),
            ..DiffConfig::default()
        };
        let out = run_campaign(&cfg).unwrap();
        assert!(
            !out.divergences.is_empty(),
            "an injected fault must surface within the campaign"
        );
        let div = &out.divergences[0];
        assert_eq!(div.info.check, "engine-equivalence");
        let min = div.minimized.as_ref().expect("shrink ran");
        assert!(
            min.ops.len() <= 20,
            "shrunk repro still has {} ops: {:?}",
            min.ops.len(),
            min.ops
        );
        // The minimized program must still fail the same check.
        let recheck = check_program(min, &cfg).unwrap();
        assert_eq!(
            recheck.divergence.map(|d| d.check),
            Some("engine-equivalence")
        );
    }

    #[test]
    fn repro_bundle_is_written_and_replayable() {
        let dir = std::env::temp_dir().join(format!("xffuzz-corpus-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = DiffConfig {
            iters: 40,
            max_ops: 16,
            shrink: true,
            corpus_dir: Some(dir.clone()),
            fault: EngineFault::DropKind(BugKind::CrossFailureRace),
            ..DiffConfig::default()
        };
        let out = run_campaign(&cfg).unwrap();
        let div = &out.divergences[0];
        let bundle = dir.join(&div.program.name);
        let text = std::fs::read_to_string(bundle.join("program.fuzz")).unwrap();
        assert_eq!(FuzzProgram::from_text(&text).unwrap(), div.program);
        let min_text = std::fs::read_to_string(bundle.join("minimized.fuzz")).unwrap();
        assert_eq!(
            &FuzzProgram::from_text(&min_text).unwrap().ops,
            &div.minimized.as_ref().unwrap().ops
        );
        let xft = std::fs::read(bundle.join("repro.xft")).unwrap();
        let run = xfstream::read_recorded_run(&xft[..]).unwrap();
        assert!(!run.pre.is_empty());
        assert!(std::fs::read_to_string(bundle.join("divergence.txt"))
            .unwrap()
            .contains("engine-equivalence"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruned_campaign_stays_in_lockstep() {
        // All three engines prune; they must agree on classes and
        // representatives or the engine-equivalence check fires.
        let cfg = DiffConfig {
            pruning: Pruning::Equivalence,
            ..quick(8)
        };
        let out = run_campaign(&cfg).unwrap();
        assert!(
            out.divergences.is_empty(),
            "engines diverged under pruning: {:?}",
            out.divergences[0].info
        );
        let again = run_campaign(&cfg).unwrap();
        assert_eq!(out.digest, again.digest, "pruned digest must reproduce");
    }

    #[test]
    fn campaigns_stay_clean_under_every_domain() {
        for domain in DOMAIN_SWEEP {
            let out = run_campaign(&DiffConfig { domain, ..quick(6) }).unwrap();
            assert!(
                out.divergences.is_empty(),
                "engines diverged under {domain}: {:?}",
                out.divergences[0].info
            );
        }
    }

    #[test]
    fn campaign_digest_folds_the_domain() {
        let adr = run_campaign(&quick(4)).unwrap();
        let eadr = run_campaign(&DiffConfig {
            domain: PersistDomain::Eadr,
            ..quick(4)
        })
        .unwrap();
        assert_ne!(
            adr.digest, eadr.digest,
            "the domain must steer the campaign digest"
        );
        let eadr_again = run_campaign(&DiffConfig {
            domain: PersistDomain::Eadr,
            ..quick(4)
        })
        .unwrap();
        assert_eq!(
            eadr.digest, eadr_again.digest,
            "per-domain digest reproduces"
        );
    }

    #[test]
    fn budget_kills_runaway_programs_identically() {
        // A tiny entry budget turns every post-failure stage into a
        // BudgetExceeded finding; the engines must still agree exactly.
        let cfg = DiffConfig {
            iters: 4,
            budget_entries: Some(3),
            shrink: false,
            ..DiffConfig::default()
        };
        let out = run_campaign(&cfg).unwrap();
        assert!(out.divergences.is_empty());
    }

    #[test]
    fn clean_concurrent_campaign_reproduces_its_digest() {
        let cfg = DiffConfig {
            threads: 2,
            ..quick(6)
        };
        let out = run_concurrent_campaign(&cfg).unwrap();
        assert_eq!(out.programs_checked, 6);
        assert!(
            out.divergences.is_empty(),
            "engines diverged on a concurrent program: {:?}",
            out.divergences[0].info
        );
        let again = run_concurrent_campaign(&cfg).unwrap();
        assert_eq!(out.digest, again.digest, "concurrent digest must reproduce");
        let more_threads = run_concurrent_campaign(&DiffConfig {
            threads: 3,
            ..quick(6)
        })
        .unwrap();
        assert_ne!(
            out.digest, more_threads.digest,
            "the thread count must steer the campaign"
        );
    }

    #[test]
    fn injected_fault_is_caught_and_shrunk_concurrently() {
        let cfg = DiffConfig {
            iters: 30,
            max_ops: 16,
            shrink: true,
            threads: 2,
            fault: EngineFault::DropKind(BugKind::CrossFailureRace),
            ..DiffConfig::default()
        };
        let out = run_concurrent_campaign(&cfg).unwrap();
        assert!(
            !out.divergences.is_empty(),
            "an injected fault must surface within the campaign"
        );
        let div = &out.divergences[0];
        assert_eq!(div.info.check, "engine-equivalence");
        let min = div.minimized.as_ref().expect("shrink ran");
        assert!(
            min.op_count() <= 20,
            "shrunk repro still has {} ops: {:?}",
            min.op_count(),
            min.threads
        );
        let recheck = check_concurrent_program(min, &cfg).unwrap();
        assert_eq!(
            recheck.divergence.map(|d| d.check),
            Some("engine-equivalence")
        );
    }

    #[test]
    fn concurrent_repro_bundle_round_trips() {
        let dir = std::env::temp_dir().join(format!("xffuzz-conc-corpus-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = DiffConfig {
            iters: 30,
            max_ops: 16,
            shrink: false,
            threads: 2,
            corpus_dir: Some(dir.clone()),
            fault: EngineFault::DropKind(BugKind::CrossFailureRace),
            ..DiffConfig::default()
        };
        let out = run_concurrent_campaign(&cfg).unwrap();
        let div = &out.divergences[0];
        let bundle = dir.join(&div.program.name);
        let text = std::fs::read_to_string(bundle.join("program.fuzz")).unwrap();
        assert_eq!(
            ConcurrentFuzzProgram::from_text(&text).unwrap(),
            div.program
        );
        // The recorded repro carries the concurrency stamp into `.xft` v2.
        let xft = std::fs::read(bundle.join("repro.xft")).unwrap();
        let run = xfstream::read_recorded_run(&xft[..]).unwrap();
        assert_eq!(run.threads, 2);
        assert_eq!(run.schedule, "t2:rr");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrink_preserves_a_minimal_handwritten_divergence() {
        // A two-op racy program plus noise: shrink must strip the noise.
        let mut ops = vec![FuzzOp::Write { off: 0, val: 1 }];
        for i in 0..10 {
            ops.push(FuzzOp::Write {
                off: 64 + i * 8,
                val: 7,
            });
            ops.push(FuzzOp::Flush {
                off: 64 + i * 8,
                kind: xftrace::FlushKind::Clwb,
            });
            ops.push(FuzzOp::Fence {
                kind: xftrace::FenceKind::Sfence,
            });
        }
        let program = FuzzProgram {
            name: "hand-racy".into(),
            ops,
        };
        let cfg = DiffConfig {
            fault: EngineFault::DropKind(BugKind::CrossFailureRace),
            ..DiffConfig::default()
        };
        let info = check_program(&program, &cfg)
            .unwrap()
            .divergence
            .expect("the unflushed word races");
        let min = shrink_program(&program, &cfg, info.check).unwrap();
        assert!(min.ops.len() <= 3, "{:?}", min.ops);
    }
}
