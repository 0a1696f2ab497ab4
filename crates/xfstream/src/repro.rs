//! Standalone `.xft` repro artifacts for failing failure points.
//!
//! When a post-failure execution dies (a quarantined panic) or is killed
//! by the execution budget, the finding alone tells you *that* it failed —
//! the repro artifact tells you *how to see it again*. Each artifact is a
//! self-contained recorded run truncated to one failure point: the
//! pre-failure trace up to the crash image plus that point's post-failure
//! trace, written in the compact `.xft` format so it can be replayed with
//! `xfd analyze` (or [`crate::analyze_xft`]) without the workload, the
//! original binary or the rest of the run.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use xfdetector::offline::RecordedRun;
use xfdetector::{BugKind, ConfigError, RunOutcome, XfError};

use crate::codec::write_recorded_run;

/// Writes one standalone `.xft` repro artifact per failure point that
/// produced a [`BugKind::PostFailurePanic`] or [`BugKind::BudgetExceeded`]
/// finding, named `repro-fp<id>.xft` under `dir` (created if missing).
///
/// Requires the outcome to carry a recorded run — enable
/// [`XfConfig::record_trace`] or `SessionBuilder::record_repro`, which
/// forces it. Returns the written paths in failure-point order; an outcome
/// with no failing failure points writes nothing and returns an empty
/// list.
///
/// [`XfConfig::record_trace`]: xfdetector::XfConfig
///
/// # Errors
///
/// [`XfError::Config`] when the outcome has failing findings but no
/// recorded run, [`XfError::Codec`] when the recording lacks a failing
/// failure point or encoding fails, and [`XfError::Io`] on filesystem
/// failures.
pub fn write_repro_artifacts(outcome: &RunOutcome, dir: &Path) -> Result<Vec<PathBuf>, XfError> {
    let failing: BTreeSet<u64> = outcome
        .report
        .findings()
        .iter()
        .filter(|f| matches!(f.kind, BugKind::PostFailurePanic | BugKind::BudgetExceeded))
        .filter_map(|f| f.failure_point.map(|fp| fp.id))
        .collect();
    if failing.is_empty() {
        return Ok(Vec::new());
    }
    let Some(recorded) = &outcome.recorded else {
        return Err(XfError::Config(ConfigError::Conflict(
            "repro export needs a recorded run: enable XfConfig::record_trace \
             or SessionBuilder::record_repro",
        )));
    };

    std::fs::create_dir_all(dir)?;
    let mut written = Vec::with_capacity(failing.len());
    for id in failing {
        // Every fired failure point pushes one recorded entry in id order
        // (stored ones record the trace they replayed), so the id indexes
        // the recording directly.
        let Some(fp) = recorded.failure_points.get(id as usize) else {
            return Err(XfError::Codec(format!(
                "recorded run has no failure point {id} (truncated recording?)"
            )));
        };
        let mut slice = RecordedRun::default();
        slice.pre.extend(recorded.pre[..fp.pre_len].iter().cloned());
        let mut one = fp.clone();
        one.pre_len = slice.pre.len();
        slice.failure_points.push(one);

        let path = dir.join(format!("repro-fp{id}.xft"));
        write_recorded_run(BufWriter::new(File::create(&path)?), &slice)?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmCtx;
    use xfdetector::{DynError, Workload, XfConfig, XfDetector};

    struct Panicking;
    impl Workload for Panicking {
        fn name(&self) -> &str {
            "panicking"
        }
        fn pool_size(&self) -> u64 {
            4096
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let a = ctx.pool().base();
            ctx.write_u64(a, 1)?;
            ctx.persist_barrier(a, 8)?;
            ctx.write_u64(a + 64, 2)?;
            ctx.persist_barrier(a + 64, 8)?;
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let _ = ctx.read_u64(ctx.pool().base())?;
            panic!("recovery crashed");
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xfrepro-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn failing_failure_points_export_replayable_artifacts() {
        let cfg = XfConfig {
            record_trace: true,
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg).run(Panicking).unwrap();
        assert!(outcome
            .report
            .findings()
            .iter()
            .any(|f| f.kind == BugKind::PostFailurePanic));

        let dir = tmpdir("ok");
        std::fs::remove_dir_all(&dir).ok();
        let paths = write_repro_artifacts(&outcome, &dir).unwrap();
        assert!(!paths.is_empty());
        for p in &paths {
            let bytes = std::fs::read(p).unwrap();
            let run = crate::read_recorded_run(&bytes).unwrap();
            assert_eq!(run.failure_points.len(), 1);
            assert!(run.failure_points[0].pre_len <= run.pre.len());
            // The truncated trace replays cleanly through the offline
            // backend (the panic outcome itself is not trace-derived).
            crate::analyze_xft(&bytes, true).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_clean_run_writes_nothing() {
        let outcome = XfDetector::with_defaults().run(CleanWorkload).unwrap();
        let dir = tmpdir("clean");
        std::fs::remove_dir_all(&dir).ok();
        let paths = write_repro_artifacts(&outcome, &dir).unwrap();
        assert!(paths.is_empty());
        assert!(!dir.exists(), "no artifacts → no directory");
    }

    #[test]
    fn missing_recording_is_a_configuration_error() {
        let outcome = XfDetector::with_defaults().run(Panicking).unwrap();
        let err = write_repro_artifacts(&outcome, &tmpdir("missing")).unwrap_err();
        assert!(
            matches!(err, XfError::Config(ConfigError::Conflict(_))),
            "{err:?}"
        );
        assert_eq!(err.code(), 13);
    }

    #[test]
    fn a_recording_without_the_failing_point_is_a_codec_error() {
        let cfg = XfConfig {
            record_trace: true,
            ..XfConfig::default()
        };
        let mut outcome = XfDetector::new(cfg).run(Panicking).unwrap();
        outcome
            .recorded
            .as_mut()
            .expect("recorded")
            .failure_points
            .clear();
        let dir = tmpdir("truncated");
        std::fs::remove_dir_all(&dir).ok();
        let err = write_repro_artifacts(&outcome, &dir).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(err, XfError::Codec(_)), "{err:?}");
        assert_eq!(err.code(), 106);
    }

    struct CleanWorkload;
    impl Workload for CleanWorkload {
        fn name(&self) -> &str {
            "clean"
        }
        fn pool_size(&self) -> u64 {
            4096
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let a = ctx.pool().base();
            ctx.write_u64(a, 1)?;
            ctx.persist_barrier(a, 8)?;
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let _ = ctx.read_u64(ctx.pool().base())?;
            Ok(())
        }
    }
}
