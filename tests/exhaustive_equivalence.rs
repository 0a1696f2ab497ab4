//! Validates the paper's central soundness argument (§3.1/§4.1): one
//! shadow-PM pass over the full image covers *all* eviction interleavings.
//!
//! At every ordering point we exhaustively materialize each crash state
//! (every subset of non-persisted cache lines, via
//! [`pmem::exhaustive_crash_images`]) and run the recovery on it:
//!
//! - if the detector reports **no** cross-failure bug, recovery must produce
//!   a correct result on *every* enumerated crash state,
//! - if the detector reports a race, there must exist at least one failure
//!   point at which two crash states make recovery *observably diverge* —
//!   the non-determinism the race warns about is real.

use std::cell::RefCell;
use std::rc::Rc;

use xfd::pmem::{
    exhaustive_cow_crash_images, exhaustive_crash_images, EngineHook, OrderingPointInfo, PmCtx,
    PmPool,
};
use xfd::xfdetector::{DynError, Pruning, RunOutcome, Workload, XfConfig, XfDetector};
use xfd::xftrace::SourceLoc;

const DATA: u64 = 0; // line 0
const VALID: u64 = 64; // line 1

/// The valid-flag publish protocol; `persist_data` toggles the bug.
#[derive(Clone, Copy)]
struct Publish {
    persist_data: bool,
}

impl Publish {
    fn run_pre(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let base = ctx.pool().base();
        ctx.register_commit_var(base + VALID, 8);
        ctx.write_u64(base + DATA, 42)?;
        if self.persist_data {
            ctx.persist_barrier(base + DATA, 8)?;
        }
        ctx.write_u64(base + VALID, 1)?;
        ctx.persist_barrier(base + VALID, 8)?;
        Ok(())
    }

    /// Recovery: returns what the program would observe.
    fn recover(ctx: &mut PmCtx) -> Result<Option<u64>, DynError> {
        let base = ctx.pool().base();
        if ctx.read_u64(base + VALID)? == 1 {
            Ok(Some(ctx.read_u64(base + DATA)?))
        } else {
            Ok(None)
        }
    }
}

impl Workload for Publish {
    fn name(&self) -> &str {
        "publish"
    }
    fn pool_size(&self) -> u64 {
        4096
    }
    fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
        Ok(())
    }
    fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        self.run_pre(ctx)
    }
    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let _ = Self::recover(ctx)?;
        Ok(())
    }
}

/// Collects, per ordering point, the set of distinct recovery observations
/// across every exhaustively enumerated crash state.
fn recovery_outcomes_per_failure_point(w: Publish) -> Vec<Vec<Option<u64>>> {
    struct Enumerate {
        outcomes: RefCell<Vec<Vec<Option<u64>>>>,
    }
    impl EngineHook for Enumerate {
        fn on_ordering_point(&self, ctx: &mut PmCtx, _l: SourceLoc, _i: OrderingPointInfo) {
            let images = exhaustive_crash_images(ctx.pool(), 16).expect("small protocol");
            let mut seen = Vec::new();
            for img in &images {
                let mut post = ctx.fork_post(img);
                let got = Publish::recover(&mut post).expect("recovery runs");
                if !seen.contains(&got) {
                    seen.push(got);
                }
            }
            self.outcomes.borrow_mut().push(seen);
        }
    }

    let hook = Rc::new(Enumerate {
        outcomes: RefCell::new(Vec::new()),
    });
    let mut ctx = PmCtx::new(PmPool::new(4096).unwrap());
    ctx.set_hook(hook.clone());
    w.run_pre(&mut ctx).unwrap();
    ctx.clear_hook();
    let outcomes = hook.outcomes.borrow().clone();
    outcomes
}

#[test]
fn clean_program_recovers_identically_from_every_crash_state() {
    let w = Publish { persist_data: true };
    let detector_verdict = XfDetector::with_defaults().run(w).unwrap();
    assert!(
        !detector_verdict.report.has_correctness_bugs(),
        "{}",
        detector_verdict.report
    );

    for (fp, outcomes) in recovery_outcomes_per_failure_point(w).iter().enumerate() {
        // Recovery may see "not published" or "published with 42", but the
        // published value must never be garbage and the outcome set must be
        // free of wrong observations.
        for o in outcomes {
            assert!(
                matches!(o, None | Some(42)),
                "failure point {fp}: crash state produced observation {o:?}"
            );
        }
    }
}

#[test]
fn racy_program_has_a_genuinely_divergent_crash_state() {
    let w = Publish {
        persist_data: false,
    };
    let detector_verdict = XfDetector::with_defaults().run(w).unwrap();
    assert!(
        detector_verdict.report.race_count() >= 1,
        "{}",
        detector_verdict.report
    );

    // The race is real: at some failure point, different eviction
    // interleavings make recovery observe different (and wrong) results —
    // here: valid == 1 persisted while data == 42 was lost.
    let all = recovery_outcomes_per_failure_point(w);
    let divergent = all.iter().any(|outcomes| {
        outcomes.contains(&Some(0)) // published flag, lost data
    });
    assert!(
        divergent,
        "the detector's race must correspond to a real divergent crash state: {all:?}"
    );
}

/// Serializes the report so runs can be compared byte-for-byte.
fn report_json(outcome: &RunOutcome) -> String {
    serde_json::to_string(&outcome.report).expect("reports serialize")
}

/// COW snapshots with image dedup off: every failure point executes its
/// own post-failure run, the reference the optimized configurations are
/// held to.
fn baseline_config() -> XfConfig {
    XfConfig {
        dedup_images: false,
        ..XfConfig::default()
    }
}

#[test]
fn every_engine_configuration_produces_the_identical_report() {
    // Acceptance criterion: sequential, parallel, and dedup-enabled runs
    // all yield byte-identical `DetectionReport`s — the dedup cache and
    // the worker pool are pure optimizations — and, when recording, the
    // byte-identical recorded run.
    let rec_json = |o: &RunOutcome| {
        o.recorded
            .as_ref()
            .map(|r| serde_json::to_string(r).unwrap())
    };
    for (persist_data, record_trace) in [(true, false), (false, false), (true, true), (false, true)]
    {
        let w = Publish { persist_data };
        let recording = |cfg: XfConfig| XfConfig {
            record_trace,
            ..cfg
        };
        let baseline = XfDetector::new(recording(baseline_config()))
            .run(w)
            .unwrap();
        let expected = report_json(&baseline);
        assert_eq!(baseline.stats.images_deduped, 0);
        assert_eq!(baseline.stats.post_runs, baseline.stats.failure_points);
        assert_eq!(baseline.recorded.is_some(), record_trace);

        let dedup = XfDetector::new(recording(XfConfig::default()))
            .run(w)
            .unwrap();
        assert_eq!(
            report_json(&dedup),
            expected,
            "image dedup changed the report (persist_data={persist_data})"
        );
        assert!(
            dedup.stats.images_deduped >= 1,
            "Publish repeats a crash image at the completion failure point, \
             so dedup must fire (persist_data={persist_data}): {:?}",
            dedup.stats
        );
        assert_accounting(&dedup, "sequential dedup");

        for workers in [1, 3] {
            for (cfg, batch) in [
                (baseline_config(), &baseline),
                (XfConfig::default(), &dedup),
            ] {
                let par = XfDetector::new(recording(cfg.clone()))
                    .run_parallel(w, workers)
                    .unwrap();
                let label = format!(
                    "parallel, persist_data={persist_data}, workers={workers}, dedup={}, \
                     record={record_trace}",
                    cfg.dedup_images
                );
                assert_eq!(report_json(&par), expected, "{label}");
                assert_eq!(rec_json(&par), rec_json(batch), "{label}");
                assert_accounting(&par, &label);
                assert_eq!(
                    par.stats.checks_parallelized, par.stats.post_runs,
                    "every executed post run must be checked by its worker"
                );
            }
        }
    }
}

#[test]
fn streaming_pipeline_matches_every_configuration_byte_for_byte() {
    // The pipelined engine (frontend and backend as concurrent stages over
    // the bounded trace FIFO) is a pure transport change: for every dedup
    // configuration, FIFO capacity and recording mode it must produce the
    // byte-identical report — and the byte-identical recorded run — of the
    // sequential engine.
    use xfd::xfdetector::{run_pipelined, StreamOptions};
    use xfd::xfstream::{analyze_xft, encode_recorded_run};

    for persist_data in [true, false] {
        let w = Publish { persist_data };
        for base in [baseline_config(), XfConfig::default()] {
            for record_trace in [false, true] {
                let cfg = XfConfig {
                    record_trace,
                    ..base.clone()
                };
                let seq = XfDetector::new(cfg.clone()).run(w).unwrap();
                for capacity in [1, 64] {
                    let pipe = run_pipelined(&cfg, w, &StreamOptions { capacity }).unwrap();
                    assert_eq!(
                        report_json(&pipe),
                        report_json(&seq),
                        "pipelined run diverged (persist_data={persist_data}, dedup={}, \
                         record={record_trace}, capacity={capacity})",
                        cfg.dedup_images
                    );
                    assert!(pipe.stats.stream_batches > 0);
                    assert!(pipe.stats.stream_max_depth as usize <= capacity);
                    assert_eq!(pipe.stats.failure_points, seq.stats.failure_points);
                    assert_eq!(pipe.stats.pre_entries, seq.stats.pre_entries);
                    assert_eq!(pipe.stats.post_entries, seq.stats.post_entries);
                    assert_accounting(&pipe, "streaming");

                    if record_trace {
                        let rec_json = |o: &RunOutcome| {
                            serde_json::to_string(o.recorded.as_ref().unwrap()).unwrap()
                        };
                        assert_eq!(rec_json(&pipe), rec_json(&seq));
                        // Publish's recovery never errors, so the offline
                        // replay of the recorded trace — via the compact
                        // .xft encoding — reproduces the full report,
                        // from memory and from a file alike.
                        let bytes = encode_recorded_run(pipe.recorded.as_ref().unwrap()).unwrap();
                        let offline = analyze_xft(&bytes[..], cfg.first_read_only).unwrap();
                        assert_eq!(
                            serde_json::to_string(&offline).unwrap(),
                            report_json(&seq),
                            "offline .xft replay diverged (persist_data={persist_data})"
                        );
                        let mut path = std::env::temp_dir();
                        path.push(format!(
                            "xfd-equiv-{}-{persist_data}-{}-{capacity}.xft",
                            std::process::id(),
                            cfg.dedup_images
                        ));
                        std::fs::write(&path, &bytes).unwrap();
                        let from_file =
                            analyze_xft(&std::fs::read(&path).unwrap(), cfg.first_read_only)
                                .unwrap();
                        std::fs::remove_file(&path).ok();
                        assert_eq!(
                            serde_json::to_string(&from_file).unwrap(),
                            report_json(&seq),
                            "file .xft replay diverged (persist_data={persist_data})"
                        );
                    } else {
                        assert!(pipe.recorded.is_none());
                    }
                }
            }
        }
    }
}

/// Every failure point must be accounted for exactly once: it either ran
/// (representative), reused a deduped image's trace, was pruned into an
/// equivalence class, was elided by the resume journal, or was served warm
/// from the cross-run class cache.
fn assert_accounting(outcome: &RunOutcome, label: &str) {
    let s = &outcome.stats;
    assert!(
        s.accounting_holds(),
        "failure-point accounting broke ({label}): {s:?}"
    );
    assert!(
        s.checks_elided <= s.failure_points,
        "more elided checks than failure points ({label}): {s:?}"
    );
    if s.fps_pruned > 0 {
        assert!(
            s.classes_total > 0 && s.pruning_ratio >= 1.0,
            "pruning fired without class bookkeeping ({label}): {s:?}"
        );
    }
}

#[test]
fn pruned_runs_match_exhaustive_byte_for_byte_across_every_engine() {
    // Persistence-state equivalence pruning is report-invariant. For every
    // engine, dedup setting and FIFO capacity, the pruned report must be
    // byte-identical to the exhaustive sequential run — pruning only
    // changes *how many* post-failure executions happen, never what the
    // detector concludes.
    use xfd::xfdetector::{run_pipelined, StreamOptions};

    let pruning = Pruning::Equivalence;
    for persist_data in [true, false] {
        let w = Publish { persist_data };
        let exhaustive = XfDetector::with_defaults().run(w).unwrap();
        let expected = report_json(&exhaustive);
        assert_eq!(exhaustive.stats.fps_pruned, 0);
        assert_eq!(exhaustive.stats.classes_total, 0);

        for base in [baseline_config(), XfConfig::default()] {
            let cfg = XfConfig {
                pruning,
                ..base.clone()
            };
            let label = |engine: &str| {
                format!(
                    "{engine}, persist_data={persist_data}, pruning={pruning:?}, dedup={}",
                    cfg.dedup_images
                )
            };

            let seq = XfDetector::new(cfg.clone()).run(w).unwrap();
            assert_eq!(report_json(&seq), expected, "{}", label("sequential"));
            assert_accounting(&seq, &label("sequential"));
            assert_eq!(seq.stats.failure_points, exhaustive.stats.failure_points);

            for workers in [1, 3] {
                let par = XfDetector::new(cfg.clone())
                    .run_parallel(w, workers)
                    .unwrap();
                let l = format!("{} workers={workers}", label("parallel"));
                assert_eq!(report_json(&par), expected, "{l}");
                assert_accounting(&par, &l);
                // Class structure is a function of the trace alone,
                // so every engine must agree on it.
                assert_eq!(par.stats.classes_total, seq.stats.classes_total, "{l}");
                assert_eq!(par.stats.fps_pruned, seq.stats.fps_pruned, "{l}");
            }

            for capacity in [1, 64] {
                let pipe = run_pipelined(&cfg, w, &StreamOptions { capacity }).unwrap();
                let l = format!("{} capacity={capacity}", label("streaming"));
                assert_eq!(report_json(&pipe), expected, "{l}");
                assert_accounting(&pipe, &l);
                assert_eq!(pipe.stats.classes_total, seq.stats.classes_total, "{l}");
                assert_eq!(pipe.stats.fps_pruned, seq.stats.fps_pruned, "{l}");
            }
        }
    }
}

#[test]
fn warm_cache_runs_account_for_every_failure_point() {
    // A warm run elides through the cross-run class cache, the one link of
    // the chain the in-run engines never exercise: batch and parallel warm
    // runs must reproduce the exhaustive report and keep the accounting
    // identity with `cache_hits` in it.
    use xfd::xfdetector::{Mode, Session};

    for persist_data in [true, false] {
        let w = Publish { persist_data };
        let expected = report_json(&XfDetector::with_defaults().run(w).unwrap());
        let mut path = std::env::temp_dir();
        path.push(format!(
            "xfd-equiv-cache-{}-{persist_data}.xfc",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let session = || {
            Session::builder()
                .config(XfConfig {
                    pruning: Pruning::Equivalence,
                    ..XfConfig::default()
                })
                .class_cache(&path)
                .workers(2)
                .build()
                .unwrap()
        };
        let cold = session().run(w, Mode::Batch).unwrap();
        assert_eq!(cold.stats.cache_hits, 0);
        assert_accounting(&cold, "cold batch");
        for mode in [Mode::Batch, Mode::Parallel] {
            let warm = session().run(w, mode).unwrap();
            let label = format!("warm {mode:?}, persist_data={persist_data}");
            assert_eq!(report_json(&warm), expected, "{label}");
            assert!(warm.stats.cache_hits > 0, "{label}: {:?}", warm.stats);
            assert_eq!(warm.stats.post_runs, 0, "{label}: {:?}", warm.stats);
            assert_accounting(&warm, &label);
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn equivalence_pruning_collapses_repeated_persistence_states() {
    // Publish never revisits a persistence state (every failure point has a
    // distinct fingerprint, so `classes_total == failure_points` and nothing
    // prunes). This workload does the opposite: each loop iteration returns
    // the pool to the same fully-persisted state, so all three post-barrier
    // failure points share one equivalence class and exactly one
    // representative executes.
    use xfd::xfdetector::{run_pipelined, StreamOptions};

    struct RepeatedFlush;
    impl Workload for RepeatedFlush {
        fn name(&self) -> &str {
            "repeated-flush"
        }
        fn pool_size(&self) -> u64 {
            4096
        }
        fn setup(&self, _ctx: &mut PmCtx) -> Result<(), DynError> {
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let base = ctx.pool().base();
            for i in 0..3u64 {
                ctx.write_u64(base + DATA, i)?;
                ctx.persist_barrier(base + DATA, 8)?;
            }
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
            let _ = ctx.read_u64(ctx.pool().base() + DATA)?;
            Ok(())
        }
    }

    let cfg = XfConfig {
        pruning: Pruning::Equivalence,
        ..XfConfig::default()
    };
    let exhaustive = XfDetector::with_defaults().run(RepeatedFlush).unwrap();
    let seq = XfDetector::new(cfg.clone()).run(RepeatedFlush).unwrap();
    assert_eq!(report_json(&seq), report_json(&exhaustive));
    assert!(
        seq.stats.fps_pruned >= 2,
        "three identical fully-persisted states must collapse: {:?}",
        seq.stats
    );
    assert!(seq.stats.classes_total < seq.stats.failure_points);
    assert!(seq.stats.pruning_ratio > 1.0);
    assert_accounting(&seq, "sequential repeated-flush");

    let par = XfDetector::new(cfg.clone())
        .run_parallel(RepeatedFlush, 2)
        .unwrap();
    assert_eq!(report_json(&par), report_json(&exhaustive));
    assert_eq!(par.stats.fps_pruned, seq.stats.fps_pruned);

    let pipe = run_pipelined(&cfg, RepeatedFlush, &StreamOptions::default()).unwrap();
    assert_eq!(report_json(&pipe), report_json(&exhaustive));
    assert_eq!(pipe.stats.fps_pruned, seq.stats.fps_pruned);
}

#[test]
fn cow_enumeration_recovers_identically_to_flat_enumeration() {
    // The COW form of the exhaustive enumeration drives recovery to the
    // same observations as the materializing form, crash state by crash
    // state.
    struct Compare;
    impl EngineHook for Compare {
        fn on_ordering_point(&self, ctx: &mut PmCtx, _l: SourceLoc, _i: OrderingPointInfo) {
            let flat = exhaustive_crash_images(ctx.pool(), 16).expect("small protocol");
            let cow = exhaustive_cow_crash_images(ctx.pool(), 16).expect("small protocol");
            assert_eq!(flat.len(), cow.len());
            for (img, cimg) in flat.iter().zip(&cow) {
                let mut a = ctx.fork_post(img);
                let mut b = ctx.fork_post_cow(cimg);
                assert_eq!(
                    Publish::recover(&mut a).expect("recovery runs"),
                    Publish::recover(&mut b).expect("recovery runs"),
                );
            }
        }
    }

    for persist_data in [true, false] {
        let mut ctx = PmCtx::new(PmPool::new(4096).unwrap());
        ctx.set_hook(Rc::new(Compare));
        Publish { persist_data }.run_pre(&mut ctx).unwrap();
        ctx.clear_hook();
    }
}

#[test]
fn concurrent_runs_are_engine_equivalent_for_every_thread_and_schedule() {
    // The concurrent analogue of the engine-equivalence tests above: for
    // both lock-free workloads, every (threads, schedule) cell must yield
    // the byte-identical merged report from all three engines — the
    // interleaving is pinned by the schedule plan, so the engine choice
    // remains a pure transport decision even multi-threaded.
    use xfd::workloads::bugs::BugSet;
    use xfd::workloads::{build_concurrent, concurrent_workloads};
    use xfd::xfdetector::{Mode, ScheduleSpec};

    for kind in concurrent_workloads() {
        for (threads, spec, plans) in [
            (1u32, ScheduleSpec::RoundRobin, 1u64),
            (2, ScheduleSpec::RoundRobin, 1),
            (4, ScheduleSpec::RoundRobin, 1),
            (2, ScheduleSpec::Seeded(7), 1),
            (2, ScheduleSpec::Exhaustive(2), 4),
        ] {
            let run = |mode: Mode| {
                xfd::xfdetector::Session::builder()
                    .config(XfConfig {
                        threads,
                        schedule: spec,
                        ..XfConfig::default()
                    })
                    .build()
                    .unwrap()
                    .run_concurrent(build_concurrent(kind, 2, BugSet::none()).unwrap(), mode)
                    .unwrap()
            };
            let batch = run(Mode::Batch);
            let expected = report_json(&batch);
            assert_eq!(
                batch.stats.schedules_explored, plans,
                "{kind}: {spec:?} over {threads} threads must expand to {plans} plan(s)"
            );
            assert_eq!(
                batch.stats.cross_thread_findings, 0,
                "the bug-free {kind} must stay clean: {}",
                batch.report
            );
            for mode in [Mode::Parallel, Mode::Stream] {
                let other = run(mode);
                assert_eq!(
                    report_json(&other),
                    expected,
                    "{kind}: {mode:?} diverged (threads={threads}, schedule={spec:?})"
                );
                assert_eq!(other.stats.schedules_explored, plans);
            }
        }
    }
}

#[test]
fn recorded_concurrent_runs_round_trip_through_xft_v2() {
    // A recorded multi-threaded run is stamped with the thread count and
    // the serialized schedule plan, takes the `.xft` v2 framing, and
    // survives the codec byte-for-byte — per-entry thread ids included,
    // so the exact interleaving travels with the repro artifact.
    use xfd::workloads::bugs::BugSet;
    use xfd::workloads::{build_concurrent, concurrent_workloads};
    use xfd::xfdetector::{Mode, XfConfig};
    use xfd::xfstream::{encode_recorded_run, read_recorded_run};

    for kind in concurrent_workloads() {
        let outcome = xfd::xfdetector::Session::builder()
            .config(XfConfig {
                record_trace: true,
                threads: 2,
                ..XfConfig::default()
            })
            .build()
            .unwrap()
            .run_concurrent(
                build_concurrent(kind, 2, BugSet::none()).unwrap(),
                Mode::Batch,
            )
            .unwrap();
        let rec = outcome.recorded.expect("single-plan runs record a trace");
        assert_eq!(rec.threads, 2, "{kind}: recorded thread count");
        assert_eq!(rec.schedule, "t2:rr", "{kind}: recorded schedule plan");
        assert!(
            rec.pre.iter().any(|e| e.tid == 1),
            "{kind}: the second thread's operations must be tid-tagged"
        );

        let bytes = encode_recorded_run(&rec).unwrap();
        assert_eq!(
            &bytes[..4],
            b"XFT2",
            "{kind}: stamped runs take the v2 framing"
        );
        let back = read_recorded_run(&bytes[..]).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&rec).unwrap(),
            "{kind}: .xft v2 round trip must be lossless"
        );
    }
}

#[test]
fn unstamped_runs_keep_the_v1_framing_and_decode_with_tid_zero() {
    // Backward compatibility: single-threaded recordings carry no thread
    // stamp, still encode under the original `XFT1` magic (older readers
    // keep working), and decode with every entry on thread 0.
    use xfd::xfdetector::XfConfig;
    use xfd::xfstream::{encode_recorded_run, read_recorded_run};

    let cfg = XfConfig {
        record_trace: true,
        ..XfConfig::default()
    };
    let rec = XfDetector::new(cfg)
        .run(Publish { persist_data: true })
        .unwrap()
        .recorded
        .expect("trace recorded");
    assert_eq!(rec.threads, 0, "plain workload runs are unstamped");
    assert!(rec.schedule.is_empty());

    let bytes = encode_recorded_run(&rec).unwrap();
    assert_eq!(&bytes[..4], b"XFT1", "unstamped runs must stay v1");
    let back = read_recorded_run(&bytes[..]).unwrap();
    assert_eq!(back.threads, 0);
    assert!(back.schedule.is_empty());
    assert!(
        back.pre.iter().all(|e| e.tid == 0)
            && back
                .failure_points
                .iter()
                .all(|fp| fp.post.iter().all(|e| e.tid == 0)),
        "v1 streams decode onto thread 0"
    );
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&rec).unwrap()
    );
}

#[test]
fn domain_matrix_is_engine_invariant_and_adr_matches_the_domainless_baseline() {
    // The domain axis composes with every engine and pruning choice: for a
    // fixed persistence domain the sequential, parallel, and streaming
    // engines produce byte-identical reports, pruned or not. And because
    // ADR *is* the default, an explicit `--domain adr` run must be
    // byte-identical to the seed's domain-less baseline — the new axis
    // costs existing users nothing.
    use xfd::pmem::PersistDomain;
    use xfd::xfdetector::{run_pipelined, StreamOptions};

    const DOMAINS: [PersistDomain; 3] = [
        PersistDomain::Adr,
        PersistDomain::Eadr,
        PersistDomain::CxlGpf { reorder_window: 4 },
    ];

    for persist_data in [true, false] {
        let w = Publish { persist_data };
        let baseline = XfDetector::new(XfConfig::default()).run(w).unwrap();

        for domain in DOMAINS {
            let seq = XfDetector::new(XfConfig {
                domain,
                ..XfConfig::default()
            })
            .run(w)
            .unwrap();
            let expected = report_json(&seq);

            if domain == PersistDomain::Adr {
                assert_eq!(
                    expected,
                    report_json(&baseline),
                    "explicit ADR diverged from the domain-less default \
                     (persist_data={persist_data})"
                );
            }

            for pruning in [Pruning::Off, Pruning::Equivalence] {
                let cfg = XfConfig {
                    domain,
                    pruning,
                    ..XfConfig::default()
                };
                let label = format!("persist_data={persist_data}, {domain}, {pruning:?}");
                let seq_p = XfDetector::new(cfg.clone()).run(w).unwrap();
                assert_eq!(report_json(&seq_p), expected, "sequential, {label}");
                let par = XfDetector::new(cfg.clone()).run_parallel(w, 3).unwrap();
                assert_eq!(report_json(&par), expected, "parallel, {label}");
                let pipe = run_pipelined(&cfg, w, &StreamOptions::default()).unwrap();
                assert_eq!(report_json(&pipe), expected, "streaming, {label}");
            }
        }
    }

    // The matrix is not degenerate — the domain really changes verdicts on
    // this tiny protocol, in both directions:
    // under eADR the dropped persist barrier stops mattering (caches are in
    // the persistence domain), while under a CXL reorder window even the
    // *correct* publish races — the flag's own fence is within the window.
    let eadr = XfDetector::new(XfConfig {
        domain: PersistDomain::Eadr,
        ..XfConfig::default()
    })
    .run(Publish {
        persist_data: false,
    })
    .unwrap();
    assert_eq!(
        eadr.report.race_count(),
        0,
        "eADR must clear the missing-flush race:\n{}",
        eadr.report
    );
    // What survives is the Equation-3 discipline finding: data and commit
    // flag were written in the same epoch (no fence between them), and
    // residual energy does not order store buffers — fences stay required
    // under eADR, only flushes become free.
    assert_eq!(
        eadr.report.semantic_count(),
        1,
        "the same-epoch commit write stays a semantic finding under eADR:\n{}",
        eadr.report
    );
    // Under CXL the consistency-first rule (§5.4) still holds: Publish's
    // commit variable governs the data byte and the Equation-3-consistent
    // read is exempt from the reorder window, so the correct protocol stays
    // clean — the window does not blanket-flag every persisted byte. (Its
    // bite on *ungoverned* publish idioms is asserted on the hashmap-atomic
    // baseline in tests/domain_matrix.rs.) The buggy variant still races:
    // CXL is never more forgiving than ADR.
    let cxl_cfg = XfConfig {
        domain: PersistDomain::CxlGpf { reorder_window: 4 },
        ..XfConfig::default()
    };
    let cxl_clean = XfDetector::new(cxl_cfg.clone())
        .run(Publish { persist_data: true })
        .unwrap();
    assert!(
        !cxl_clean.report.has_correctness_bugs(),
        "governed, consistent reads are exempt from the reorder window:\n{}",
        cxl_clean.report
    );
    let cxl_racy = XfDetector::new(cxl_cfg)
        .run(Publish {
            persist_data: false,
        })
        .unwrap();
    assert!(
        cxl_racy.report.race_count() >= 1,
        "the missing flush must still race under CXL:\n{}",
        cxl_racy.report
    );
}

#[test]
fn exhaustive_and_shadow_agree_on_both_variants() {
    // The summary property: detector verdict == "exists a crash state with
    // a wrong observation".
    for persist_data in [true, false] {
        let w = Publish { persist_data };
        let verdict = XfDetector::with_defaults()
            .run(w)
            .unwrap()
            .report
            .has_correctness_bugs();
        let wrong_state_exists = recovery_outcomes_per_failure_point(w)
            .iter()
            .flatten()
            .any(|o| !matches!(o, None | Some(42)));
        assert_eq!(
            verdict, wrong_state_exists,
            "shadow verdict and exhaustive ground truth disagree (persist_data={persist_data})"
        );
    }
}
