//! Job execution: one validated [`JobSpec`] (plus optional uploaded
//! artifact) runs to completion on an executor thread, streaming
//! [`JobEvent`]s back through the caller's emitter.
//!
//! Three job sources, mirroring the CLI subcommands:
//!
//! - a named workload (`xfd report` semantics): live detection through a
//!   [`Session`] built by [`JobSpec::apply`], so the journal, pruning and
//!   the cross-run class cache all participate,
//! - an uploaded or on-disk `.xft` trace (`xfd analyze` semantics): the
//!   offline backend replays it,
//! - an uploaded or on-disk `.fuzz` program (`xfd fuzz --replay`
//!   semantics): the program is the workload.
//!
//! The emitted `Report` frame carries the bare `serde_json` serialization
//! of the [`DetectionReport`] — byte-identical to `xfd report --report`
//! output for the same spec, which the stress test and the CI smoke gate
//! compare directly.

use std::io;
use std::str::FromStr;
use std::time::Duration;

use xfd_workloads::bugs::{BugId, BugSet, WorkloadKind};
use xfd_workloads::{build_concurrent, build_with_init, validation_ops};
use xfdetector::{
    BugKind, ConfigError, DetectionReport, JobSpec, Mode, RunMetrics, RunOutcome, XfError,
};
use xffuzz::program::CONC_TEXT_HEADER;
use xffuzz::{ConcurrentFuzzProgram, FuzzProgram};

use crate::proto::{ArtifactKind, JobEvent};

/// How executor threads hand events back to the connection layer.
pub trait Emitter: Send + Sync + Clone + 'static {
    /// Delivers one event to every watcher of the job.
    fn emit(&self, ev: JobEvent);
}

impl<F: Fn(JobEvent) + Send + Sync + Clone + 'static> Emitter for F {
    fn emit(&self, ev: JobEvent) {
        self(ev);
    }
}

/// Resolves the workload named by `spec`, or the spec-level rejection.
pub(crate) fn resolve_workload(spec: &JobSpec) -> Result<WorkloadKind, XfError> {
    let name = spec.workload.as_deref().ok_or(ConfigError::MissingSource)?;
    WorkloadKind::from_str(name).map_err(|_| {
        ConfigError::Unknown {
            what: "workload",
            value: name.to_owned(),
        }
        .into()
    })
}

/// Parses `spec.bugs` and checks each against the workload, exactly like
/// the CLI does — so a server rejection carries the same error the local
/// run would have produced.
pub(crate) fn resolve_bugs(spec: &JobSpec, kind: WorkloadKind) -> Result<BugSet, XfError> {
    let mut bugs = Vec::new();
    for name in &spec.bugs {
        let bug = BugId::all()
            .iter()
            .copied()
            .find(|b| format!("{b:?}").eq_ignore_ascii_case(name))
            .ok_or_else(|| ConfigError::Unknown {
                what: "bug",
                value: name.clone(),
            })?;
        if bug.workload() != kind {
            return Err(ConfigError::BugWorkloadMismatch {
                bug: format!("{bug:?}"),
                workload: kind.slug().to_owned(),
            }
            .into());
        }
        bugs.push(bug);
    }
    Ok(bugs.into_iter().collect())
}

/// The CLI-equivalent exit code of a finished report: 3 when the entry
/// budget fired (partial coverage), 0 otherwise. Findings themselves do
/// not fail a job — the client inspects the report.
fn report_exit(report: &DetectionReport) -> u8 {
    if report
        .findings()
        .iter()
        .any(|f| f.kind == BugKind::BudgetExceeded)
    {
        3
    } else {
        0
    }
}

fn json_err(e: serde_json::Error) -> XfError {
    XfError::Codec(e.to_string())
}

/// Wraps an i/o failure with the file it occurred on.
fn io_at(path: &str, e: io::Error) -> XfError {
    XfError::Io(io::Error::new(e.kind(), format!("{path}: {e}")))
}

/// Emits the `Report` + `Metrics` frames for a live run and returns the
/// job's exit code.
fn finish_live<E: Emitter>(
    label: &str,
    mode: Mode,
    outcome: &RunOutcome,
    emit: &E,
) -> Result<u8, XfError> {
    emit.emit(JobEvent::Report {
        json: serde_json::to_string(&outcome.report).map_err(json_err)?,
    });
    let metrics = RunMetrics::new(
        label,
        mode.name(),
        outcome.report.findings().len() as u64,
        outcome.report.has_correctness_bugs(),
        &outcome.stats,
    );
    emit.emit(JobEvent::Metrics {
        json: serde_json::to_string(&metrics).map_err(json_err)?,
    });
    Ok(report_exit(&outcome.report))
}

/// Runs one job to completion, emitting `Progress`/`Report`/`Metrics`
/// events, and returns its exit code. The uploaded artifact, if any, is
/// moved in and dropped when the job ends. Runtime errors propagate to the
/// executor, which converts them into `Error` + `Done` frames.
pub(crate) fn run_job<E: Emitter>(
    spec: &JobSpec,
    artifact: Option<(ArtifactKind, Vec<u8>)>,
    emit: &E,
) -> Result<u8, XfError> {
    match artifact {
        Some((ArtifactKind::Xft, bytes)) => return run_xft_bytes(spec, &bytes, emit),
        Some((ArtifactKind::Fuzz, bytes)) => {
            let text = String::from_utf8(bytes)
                .map_err(|e| XfError::Codec(format!("fuzz program is not UTF-8: {e}")))?;
            return run_fuzz_text(spec, &text, emit);
        }
        None => {}
    }
    if let Some(path) = &spec.trace {
        let bytes = std::fs::read(path).map_err(|e| io_at(path, e))?;
        return run_xft_bytes(spec, &bytes, emit);
    }
    if let Some(path) = &spec.program {
        let text = std::fs::read_to_string(path).map_err(|e| io_at(path, e))?;
        return run_fuzz_text(spec, &text, emit);
    }
    run_workload(spec, emit)
}

/// Offline replay of an `.xft` trace through the detection backend.
fn run_xft_bytes<E: Emitter>(spec: &JobSpec, bytes: &[u8], emit: &E) -> Result<u8, XfError> {
    let cfg = spec.config()?;
    let report = xfstream::analyze_xft(bytes, cfg.first_read_only)
        .map_err(|e| XfError::Codec(e.to_string()))?;
    emit.emit(JobEvent::Report {
        json: serde_json::to_string(&report).map_err(json_err)?,
    });
    Ok(report_exit(&report))
}

/// Live detection on an uploaded `.fuzz` repro program.
fn run_fuzz_text<E: Emitter>(spec: &JobSpec, text: &str, emit: &E) -> Result<u8, XfError> {
    if text.lines().next() == Some(CONC_TEXT_HEADER) {
        let program = ConcurrentFuzzProgram::from_text(text).map_err(XfError::Codec)?;
        // The program dictates its own thread count; the spec's `threads`
        // field only has to let the scheduler size its role table.
        let mut spec = spec.clone();
        spec.threads = Some(u32::try_from(program.threads.len()).unwrap_or(u32::MAX));
        let label = program.name.clone();
        let mode = spec.mode()?;
        let session = session_for(&spec, emit)?;
        let outcome = session.run_concurrent(program, mode)?;
        finish_live(&label, mode, &outcome, emit)
    } else {
        let program = FuzzProgram::from_text(text).map_err(XfError::Codec)?;
        let label = program.name.clone();
        let mode = spec.mode()?;
        let session = session_for(spec, emit)?;
        let outcome = session.run(program, mode)?;
        finish_live(&label, mode, &outcome, emit)
    }
}

/// Live detection on a named registry workload — `xfd report` semantics.
fn run_workload<E: Emitter>(spec: &JobSpec, emit: &E) -> Result<u8, XfError> {
    let kind = resolve_workload(spec)?;
    let bugs = resolve_bugs(spec, kind)?;
    let ops = spec.ops.unwrap_or_else(|| validation_ops(kind));
    let mode = spec.mode()?;
    let session = session_for(spec, emit)?;
    let outcome = if spec.concurrent() {
        let w = build_concurrent(kind, ops, bugs).ok_or(ConfigError::Invalid {
            what: "workload",
            value: kind.slug().to_owned(),
            expected: "a concurrent workload (treiber_stack or ms_queue) with threads/schedule",
        })?;
        session.run_concurrent(w, mode)?
    } else {
        session.run(
            build_with_init(kind, spec.init.unwrap_or(0), ops, bugs),
            mode,
        )?
    };
    finish_live(kind.slug(), mode, &outcome, emit)
}

/// Builds the session for a live job: the spec's full config (journal,
/// budget, class cache) plus a progress tap that forwards snapshots to
/// the job's watchers: one when the run starts, one every half second
/// while it runs, and a final one with the finished counters. The ticker
/// stops with the run, so a job shorter than half a second is not held
/// back to it.
fn session_for<E: Emitter>(spec: &JobSpec, emit: &E) -> Result<xfdetector::Session, XfError> {
    let emit = emit.clone();
    let builder = spec.apply(xfdetector::Session::builder())?.on_progress(
        Duration::from_millis(500),
        move |p| {
            let counts = serde_json::to_string(&p.counts).unwrap_or_else(|_| "{}".into());
            emit.emit(JobEvent::Progress {
                json: format!(
                    "{{\"elapsed_ms\":{},\"counts\":{counts}}}",
                    p.elapsed.as_millis()
                ),
            });
        },
    );
    Ok(builder.build()?)
}
