//! Torture tests for the post-trace store, through both of its openers. A
//! session pointed at a store truncated at *every* byte offset, with
//! *every* single bit flipped, written by two racing creators or appended
//! to by two sessions at once must end in one of three ways: a typed
//! [`XfError::Journal`] (a resume whose header is torn or foreign, and
//! only then), a cold start, or the byte-identical report of a run without
//! any store, served partly or fully warm. It must never panic and never
//! produce a different report. The class-cache sweeps run every mutated
//! file through the batch, stream and parallel drivers.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread;

use xfd::pmem::PmCtx;
use xfd::xfdetector::{
    DynError, Mode, Pruning, RunOutcome, Session, SessionBuilder, Workload, XfConfig, XfError,
};
use xfd::xftrace::SourceLoc;

/// A small workload whose cache stays small enough to flip every bit of:
/// a few persisted and unpersisted words, and a recovery that fails on
/// some crash states, so the cache holds both completed and failed
/// outcomes with messages.
#[derive(Clone, Copy)]
struct Torture;

impl Workload for Torture {
    fn name(&self) -> &str {
        "cache-torture"
    }
    fn pool_size(&self) -> u64 {
        64 * 1024
    }
    fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
        Ok(())
    }
    fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let a = ctx.pool().base();
        for i in 0..3 {
            ctx.write_u64(a + i * 128, i + 1)?; // never flushed: races
            ctx.write_u64(a + i * 128 + 64, i + 1)?;
            ctx.persist_barrier(a + i * 128 + 64, 8)?;
        }
        Ok(())
    }
    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let a = ctx.pool().base();
        let mut persisted = 0;
        for i in 0..3 {
            let _ = ctx.read_u64(a + i * 128)?;
            persisted += ctx.read_u64(a + i * 128 + 64)?;
        }
        if persisted == 1 {
            return Err(format!("recovery found a torn prefix ({persisted})").into());
        }
        Ok(())
    }
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("xfc-torture-{}-{name}", std::process::id()));
    p
}

fn report_json(o: &RunOutcome) -> String {
    serde_json::to_string(&o.report).unwrap()
}

fn run_in(cache: Option<(&Path, &str)>, mode: Mode) -> RunOutcome {
    let mut builder = Session::builder().pruning(Pruning::Equivalence);
    if let Some((path, digest)) = cache {
        builder = builder.class_cache(path).cache_digest(digest);
    }
    builder.build().unwrap().run(Torture, mode).unwrap()
}

fn run(cache: Option<(&Path, &str)>) -> RunOutcome {
    run_in(cache, Mode::Batch)
}

/// Every mode, in the order the sweeps run them.
const MODES: [Mode; 3] = [Mode::Batch, Mode::Stream, Mode::Parallel];

/// The uncached reference report and the bytes of a complete cache file,
/// built at a path of the caller's own (the tests run concurrently). A
/// cold stream or parallel run must write the same file as a cold batch
/// run.
fn reference_and_cache(name: &str) -> (String, Vec<u8>) {
    let reference = Session::builder()
        .pruning(Pruning::Equivalence)
        .build()
        .unwrap()
        .run(Torture, Mode::Batch)
        .unwrap();
    let path = tmp(&format!("{name}-source.xfc"));
    let mut files = Vec::new();
    for mode in MODES {
        std::fs::remove_file(&path).ok();
        let cold = run_in(Some((&path, "d")), mode);
        files.push(std::fs::read(&path).unwrap());
        assert_eq!(report_json(&cold), report_json(&reference), "{mode:?}");
        assert!(cold.stats.post_runs >= 2, "want several classes");
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(files[0], files[1], "stream wrote a different cache");
    assert_eq!(files[0], files[2], "parallel wrote a different cache");
    let bytes = files.swap_remove(0);
    assert!(
        reference
            .report
            .findings()
            .iter()
            .any(|f| f.message.is_some()),
        "want a failed outcome in the cache"
    );
    (report_json(&reference), bytes)
}

/// Runs with `bytes` as the cache file in every mode and checks each
/// outcome: either a cold start or warm hits, with the reference report
/// either way. Returns the records the runs loaded.
fn check(path: &Path, bytes: &[u8], reference: &str, what: &str) -> u64 {
    let warm = MODES.map(|mode| {
        // A cold run saves a fresh file, so each mode gets the bytes anew.
        std::fs::write(path, bytes).unwrap();
        let outcome = run_in(Some((path, "d")), mode);
        assert_eq!(
            report_json(&outcome),
            reference,
            "{what} changed the {mode:?} report"
        );
        let s = &outcome.stats;
        if s.cache_classes_loaded == 0 {
            assert_eq!(
                s.cache_hits, 0,
                "{what}: {mode:?} hits without loaded records"
            );
        }
        assert!(s.accounting_holds(), "{what}: {mode:?}: {s:?}");
        s.cache_classes_loaded
    });
    assert!(
        warm.iter().all(|&w| w == warm[0]),
        "{what}: the modes disagree on the file: {warm:?}"
    );
    warm[0]
}

#[test]
fn truncation_at_every_offset_starts_cold_or_serves_the_reference() {
    let (reference, cache) = reference_and_cache("cut");
    let path = tmp("cut.xfc");
    let loaded: Vec<u64> = (0..=cache.len())
        .map(|cut| {
            let what = format!("truncation at {cut}/{}", cache.len());
            check(&path, &cache[..cut], &reference, &what)
        })
        .collect();
    std::fs::remove_file(&path).ok();
    // A torn tail loses only the torn record: every record boundary past
    // the header loads one more record, and nothing loads out of order.
    assert!(loaded.windows(2).all(|w| w[0] <= w[1]), "{loaded:?}");
    assert_eq!(loaded[0], 0);
    assert!(
        loaded.iter().filter(|&&n| n > 0).count() > 1,
        "prefixes must serve warm: {loaded:?}"
    );
}

#[test]
fn every_single_bit_flip_starts_cold_or_serves_the_reference() {
    let (reference, cache) = reference_and_cache("flip");
    let path = tmp("flip.xfc");
    for at in 0..cache.len() {
        for bit in 0..8 {
            let mut mutated = cache.clone();
            mutated[at] ^= 1 << bit;
            check(
                &path,
                &mutated,
                &reference,
                &format!("bit {bit} of byte {at}"),
            );
        }
    }
    assert!(check(&path, &cache, &reference, "the intact file") > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn racing_savers_leave_one_complete_file() {
    let (reference, _) = reference_and_cache("race");
    let dir = tmp("race");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shared.xfc");
    for round in 0..8 {
        std::fs::remove_file(&path).ok();
        // Two cold runs under different program digests create one path
        // at once; whichever rename lands last owns the file, and the
        // other appends to an unlinked one.
        let savers: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|digest| {
                let path = path.clone();
                thread::spawn(move || report_json(&run(Some((&path, digest)))))
            })
            .collect();
        for saver in savers {
            assert_eq!(saver.join().unwrap(), reference, "round {round}");
        }
        // Each creator renames a complete file into place, so the file
        // belongs to exactly one of them. Each digest probes its own copy,
        // because a cold probe replaces the file it opened.
        let raced = std::fs::read(&path).unwrap();
        let warm: Vec<bool> = ["a", "b"]
            .into_iter()
            .map(|digest| {
                let probe = dir.join(format!("probe-{digest}"));
                std::fs::write(&probe, &raced).unwrap();
                let outcome = run(Some((&probe, digest)));
                std::fs::remove_file(&probe).ok();
                assert_eq!(report_json(&outcome), reference, "round {round}");
                outcome.stats.cache_classes_loaded > 0
            })
            .collect();
        assert_eq!(
            warm.iter().filter(|&&w| w).count(),
            1,
            "round {round}: the raced file must belong to exactly one saver"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(leftovers, ["shared.xfc"], "temporary files left behind");
    std::fs::remove_dir_all(&dir).ok();
}

/// [`Torture`]'s pre-failure stage with a recovery that requests
/// `completeDetection` (Table 2) every time: the first failure point ends
/// testing.
#[derive(Clone, Copy)]
struct Completing;

impl Workload for Completing {
    fn name(&self) -> &str {
        "cache-torture-completing"
    }
    fn pool_size(&self) -> u64 {
        Torture.pool_size()
    }
    fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
        Ok(())
    }
    fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        Torture.pre_failure(ctx)?;
        // A redundant flush after the cut: a pre-failure finding the
        // report keeps wherever the run stopped.
        let a = ctx.pool().base();
        ctx.persist_barrier(a + 64, 8)?;
        Ok(())
    }
    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        const SITES: [&str; 4] = [
            "<completing read 0>",
            "<completing read 1>",
            "<completing read 2>",
            "<completing read 3>",
        ];
        let a = ctx.pool().base();
        let mut persisted = 0;
        for i in 0..3 {
            persisted += u64::from(ctx.read_u64(a + i * 128 + 64)? != 0);
        }
        // A read site of its own per crash state: a failure point past the
        // cut would add a race finding.
        let last = a + persisted.saturating_sub(1) * 128;
        ctx.read_u64_at(last, SourceLoc::synthetic(SITES[persisted as usize]))?;
        ctx.complete_detection();
        Ok(())
    }
}

#[test]
fn a_warm_run_stops_where_the_cold_run_completed_detection() {
    let reference = Session::builder()
        .pruning(Pruning::Equivalence)
        .build()
        .unwrap()
        .run(Completing, Mode::Batch)
        .unwrap();
    assert_eq!(reference.stats.failure_points, 1);
    assert!(reference.report.race_count() >= 1, "{:?}", reference.report);
    assert!(reference.report.len() > reference.report.race_count());
    let reference = report_json(&reference);
    let path = tmp("completing.xfc");
    for mode in MODES {
        std::fs::remove_file(&path).ok();
        let cached = || {
            Session::builder()
                .pruning(Pruning::Equivalence)
                .class_cache(&path)
                .build()
                .unwrap()
                .run(Completing, mode)
                .unwrap()
        };
        let cold = cached();
        let warm = cached();
        assert_eq!(report_json(&cold), reference, "cold {mode:?}");
        assert_eq!(report_json(&warm), reference, "warm {mode:?}");
        let s = &warm.stats;
        assert_eq!(
            (s.failure_points, s.cache_hits, s.post_runs),
            (1, 1, 0),
            "{mode:?}: {s:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A session that resumes from the store at `path` without pruning.
fn resuming(path: &Path, max_failure_points: Option<u64>) -> SessionBuilder {
    let config = XfConfig {
        max_failure_points,
        ..XfConfig::default()
    };
    Session::builder().config(config).resume(path)
}

/// The unpruned reference report and the bytes of a complete store
/// written with [`SessionBuilder::journal`].
fn reference_and_journal(name: &str) -> (String, Vec<u8>) {
    let reference = Session::builder()
        .build()
        .unwrap()
        .run(Torture, Mode::Batch)
        .unwrap();
    assert!(reference.report.race_count() >= 1 && reference.stats.failure_points >= 4);
    let path = tmp(&format!("{name}-source.xfj"));
    Session::builder()
        .journal(&path)
        .build()
        .unwrap()
        .run(Torture, Mode::Batch)
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (report_json(&reference), bytes)
}

/// Resumes from `bytes`: `Err` only for a header the store rejects, and the
/// reference report otherwise.
fn resume_from(path: &Path, bytes: &[u8], reference: &str, what: &str) -> Result<u64, XfError> {
    std::fs::write(path, bytes).unwrap();
    match resuming(path, None)
        .build()
        .unwrap()
        .run(Torture, Mode::Batch)
    {
        Ok(outcome) => {
            assert_eq!(
                report_json(&outcome),
                reference,
                "{what} changed the report"
            );
            assert!(
                outcome.stats.accounting_holds(),
                "{what}: {:?}",
                outcome.stats
            );
            Ok(outcome.stats.cache_hits)
        }
        Err(e @ XfError::Journal(_)) => Err(e),
        Err(other) => panic!("{what} failed outside the store: {other}"),
    }
}

#[test]
fn truncation_at_every_offset_resumes_cleanly_or_rejects() {
    let (reference, journal) = reference_and_journal("resume-cut");
    let path = tmp("resume-cut.xfj");
    let results: Vec<_> = (0..=journal.len())
        .map(|cut| {
            let what = format!("truncation at {cut}/{}", journal.len());
            resume_from(&path, &journal[..cut], &reference, &what).ok()
        })
        .collect();
    std::fs::remove_file(&path).ok();
    // Only a torn header rejects: the rejections are a prefix of the cuts.
    let header = results.iter().take_while(|r| r.is_none()).count();
    assert!(header > 0, "a torn header must be rejected");
    assert!(results[header..].iter().all(Option::is_some), "{results:?}");
    let complete = results.last().copied().flatten();
    assert!(
        complete > Some(0),
        "the complete store serves every failure point"
    );
}

#[test]
fn flipped_journal_bytes_never_corrupt_the_merged_report() {
    let (reference, journal) = reference_and_journal("resume-flip");
    let path = tmp("resume-flip.xfj");
    let mut served = 0;
    for at in 0..journal.len() {
        for bit in 0..8 {
            let mut mutated = journal.clone();
            mutated[at] ^= 1 << bit;
            let what = format!("bit {bit} of byte {at}");
            // A flipped header rejects; a flipped record is dropped, with
            // the records after it, and re-executes.
            served += usize::from(resume_from(&path, &mutated, &reference, &what).is_ok());
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(served > 0, "flips past the header must resume");
}

#[test]
fn two_sessions_appending_to_one_file_lose_no_report() {
    let (reference, _) = reference_and_journal("append");
    let path = tmp("append.xfj");
    for round in 0..8 {
        // A killed run leaves the first two failure points in the store;
        // two resumes then append the rest to it at once.
        std::fs::remove_file(&path).ok();
        resuming(&path, Some(2))
            .build()
            .unwrap()
            .run(Torture, Mode::Batch)
            .unwrap();
        let start = Arc::new(Barrier::new(2));
        let appenders: Vec<_> = [Mode::Batch, Mode::Parallel]
            .into_iter()
            .map(|mode| {
                let (path, start) = (path.clone(), Arc::clone(&start));
                thread::spawn(move || {
                    start.wait();
                    let outcome = resuming(&path, None)
                        .workers(2)
                        .build()
                        .unwrap()
                        .run(Torture, mode)
                        .unwrap();
                    report_json(&outcome)
                })
            })
            .collect();
        for appender in appenders {
            assert_eq!(appender.join().unwrap(), reference, "round {round}");
        }
        // Whatever the interleaving, every record in the file is whole:
        // a later run serves at least the killed run's records and the
        // reference report.
        let warm = resuming(&path, None)
            .build()
            .unwrap()
            .run(Torture, Mode::Batch)
            .unwrap();
        assert_eq!(report_json(&warm), reference, "round {round}");
        assert!(
            warm.stats.cache_hits >= 2,
            "round {round}: {:?}",
            warm.stats
        );
    }
    std::fs::remove_file(&path).ok();
}
