//! Torture tests for the cooperative interleaving scheduler.
//!
//! The unit tests in `xfsched` and `xfdetector::concurrent` cover the
//! happy paths; these hammer the schedule machinery with randomized
//! *burst* plans — runs of one thread at a time, the shape a real
//! scheduler's timeslices produce — and assert the invariants the
//! concurrent detection mode depends on: a pinned plan is deterministic,
//! its serialized string form (the one carried in `.xft` v2 headers)
//! replays to the byte-identical report, and all three engines agree
//! under every plan. Mirrors `crates/core/tests/ring_torture.rs`.

use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfd::workloads::bugs::{BugSet, WorkloadKind};
use xfd::workloads::{build_concurrent, concurrent_workloads};
use xfd::xfdetector::{RunOutcome, SchedulePlan, Scheduled, XfConfig, XfDetector};

fn report_json(o: &RunOutcome) -> String {
    serde_json::to_string(&o.report).expect("reports serialize")
}

/// One batch detection pass of `kind` (2 ops, bug-free) pinned to `plan`.
fn run_plan(kind: WorkloadKind, plan: &SchedulePlan) -> RunOutcome {
    let w = Scheduled::new(
        build_concurrent(kind, 2, BugSet::none()).expect("concurrent workload"),
        plan.clone(),
    );
    XfDetector::with_defaults().run(w).expect("detection run")
}

/// A random plan built from thread bursts: each burst grants one thread a
/// run of consecutive steps before the next random grant.
fn random_burst_plan(rng: &mut StdRng, threads: u32) -> SchedulePlan {
    let mut slots = Vec::new();
    for _ in 0..rng.gen_range_u64(1, 7) {
        let tid = rng.gen_range_u64(0, u64::from(threads)) as u32;
        let burst = rng.gen_range_u64(1, 6) as usize;
        slots.extend(std::iter::repeat_n(tid, burst));
    }
    SchedulePlan::with_slots(threads, slots)
}

/// Randomized determinism + replay torture: for every concurrent workload
/// and a stream of random burst plans over 2–4 threads, the same plan must
/// reproduce the byte-identical report, and so must the plan re-parsed
/// from its serialized `t<threads>:<slots>` form.
#[test]
fn torture_random_burst_plans_replay_identically_from_their_serialized_form() {
    let mut rng = StdRng::seed_from_u64(0x5c4e_d011);
    for kind in concurrent_workloads() {
        for round in 0..6usize {
            let threads = [2u32, 3, 4][round % 3];
            let plan = random_burst_plan(&mut rng, threads);
            let first = run_plan(kind, &plan);
            let expected = report_json(&first);
            assert!(first.stats.failure_points > 0, "{kind}: {plan} ran nothing");

            // Determinism: a pinned plan has exactly one pre-failure trace.
            assert_eq!(
                report_json(&run_plan(kind, &plan)),
                expected,
                "{kind}: plan {plan} is not deterministic"
            );

            // Replay from the serialized form: Display → FromStr must be
            // lossless, and the reparsed plan must reproduce the report.
            let serialized = plan.to_string();
            let reparsed = SchedulePlan::from_str(&serialized)
                .unwrap_or_else(|e| panic!("{kind}: {serialized:?} failed to parse: {e}"));
            assert_eq!(reparsed, plan, "{kind}: {serialized:?} round trip");
            assert_eq!(
                report_json(&run_plan(kind, &reparsed)),
                expected,
                "{kind}: replaying serialized schedule {serialized:?} diverged"
            );
        }
    }
}

/// Engine-agreement torture: random burst plans through the sequential,
/// parallel and streaming engines must stay byte-identical — the schedule
/// pins the interleaving, so the engine choice stays a transport decision.
#[test]
fn torture_every_engine_agrees_on_random_burst_plans() {
    let mut rng = StdRng::seed_from_u64(0xfeed_5eed);
    for kind in concurrent_workloads() {
        for _ in 0..3 {
            let plan = random_burst_plan(&mut rng, 2);
            let expected = report_json(&run_plan(kind, &plan));
            let scheduled = || {
                Scheduled::new(
                    build_concurrent(kind, 2, BugSet::none()).expect("concurrent workload"),
                    plan.clone(),
                )
            };

            let par = XfDetector::with_defaults()
                .run_parallel(scheduled(), 3)
                .expect("parallel run");
            assert_eq!(
                report_json(&par),
                expected,
                "{kind}: parallel engine diverged on plan {plan}"
            );

            let pipe = xfd::xfdetector::run_pipelined(
                &XfConfig::default(),
                scheduled(),
                &xfd::xfdetector::StreamOptions::default(),
            )
            .expect("pipelined run");
            assert_eq!(
                report_json(&pipe),
                expected,
                "{kind}: streaming engine diverged on plan {plan}"
            );
        }
    }
}

/// End-to-end replay: the schedule string stamped into a recorded run is
/// enough to reproduce the run — parse it back into a plan, re-run, and
/// both the report and the pre-failure trace must match entry for entry.
#[test]
fn recorded_schedule_stamp_replays_the_exact_interleaving() {
    use xfd::xfdetector::{Mode, ScheduleSpec, Session};

    let record_cfg = XfConfig {
        record_trace: true,
        ..XfConfig::default()
    };
    for kind in concurrent_workloads() {
        let outcome = Session::builder()
            .config(XfConfig {
                threads: 3,
                schedule: ScheduleSpec::Seeded(0xa11ce),
                ..record_cfg.clone()
            })
            .build()
            .expect("session")
            .run_concurrent(
                build_concurrent(kind, 2, BugSet::none()).expect("concurrent workload"),
                Mode::Batch,
            )
            .expect("recorded run");
        let rec = outcome
            .recorded
            .as_ref()
            .expect("seeded specs are single-plan, so the trace records");
        let plan = SchedulePlan::from_str(&rec.schedule)
            .unwrap_or_else(|e| panic!("{kind}: stamped schedule {:?}: {e}", rec.schedule));
        assert_eq!(plan.threads(), 3, "{kind}: stamp carries the thread count");

        let replay = XfDetector::new(record_cfg.clone())
            .run(Scheduled::new(
                build_concurrent(kind, 2, BugSet::none()).expect("concurrent workload"),
                plan,
            ))
            .expect("replay run");
        assert_eq!(
            report_json(&replay),
            report_json(&outcome),
            "{kind}: replaying the stamped schedule changed the verdict"
        );
        assert_eq!(
            serde_json::to_string(&replay.recorded.as_ref().unwrap().pre).unwrap(),
            serde_json::to_string(&rec.pre).unwrap(),
            "{kind}: the replay must reproduce the recorded pre-failure \
             interleaving entry for entry"
        );
    }
}
