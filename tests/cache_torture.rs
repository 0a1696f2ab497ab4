//! Torture tests for the cross-run class-cache file: a session pointed at
//! a cache truncated at *every* byte offset, with *every* single bit
//! flipped, or written by two racing savers must either start cold or
//! serve warm classes — and in both cases produce the byte-identical
//! report of a run without any cache. It must never panic and never
//! produce a different report. The truncation and bit-flip sweeps run
//! every mutated file through the batch, stream and parallel drivers.

use std::path::{Path, PathBuf};
use std::thread;

use xfd::pmem::PmCtx;
use xfd::xfdetector::{DynError, Mode, Pruning, RunOutcome, Session, Workload};
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
/// outcome: either a cold start or a warm hit, with the reference report
/// either way. Returns whether the runs were served warm.
fn check(path: &Path, bytes: &[u8], reference: &str, what: &str) -> bool {
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
        let warm = s.cache_classes_loaded > 0;
        if !warm {
            assert_eq!(
                s.cache_hits, 0,
                "{what}: {mode:?} hits without loaded classes"
            );
        }
        warm
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
    let mut warm = 0;
    for cut in 0..=cache.len() {
        let what = format!("truncation at {cut}/{}", cache.len());
        warm += usize::from(check(&path, &cache[..cut], &reference, &what));
    }
    std::fs::remove_file(&path).ok();
    // Only the untruncated file may load: the trailer covers every byte.
    assert_eq!(warm, 1, "exactly the complete file serves warm");
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
    assert!(check(&path, &cache, &reference, "the intact file"));
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
        // Two cold runs under different program digests save to one path
        // at once; whichever rename lands last owns the file.
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
        // The file is complete, never torn or interleaved, so it belongs
        // to exactly one saver. Each digest probes its own copy, because a
        // cold probe rewrites the file it opened.
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
