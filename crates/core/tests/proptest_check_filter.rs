//! Property-based tests of the checking filter: a failure point's
//! post-failure replay is skipped when no byte its trace reads can yield a
//! finding ([`ShadowPm::may_find`] over the trace's [`ReadIndex`]).
//!
//! Two properties, on random shadows and random post-failure traces:
//!
//! - soundness: when the filter says no finding is possible, the full
//!   `PostChecker` replay finds nothing;
//! - equivalence: `plan::check` reports exactly what the plain replay plus
//!   the outcome finding reports.
//!
//! The pre-failure steps cover two threads, transactions, allocations,
//! commit variables with and without explicit ranges (including a sole
//! range-less variable that governs all of PM), and every persistence
//! domain, CXL reorder windows 1–8 included. The fingerprint index is left
//! fresh, dirty or stale, so the line prefilter runs in every state. The
//! post-failure traces mix multi-line reads, unchecked reads, writes and
//! allocations before and after the reads, under `first_read_only` on and
//! off.

use proptest::prelude::*;

use pmem::PersistDomain;
use xfdetector::plan::check;
use xfdetector::{DetectionReport, FailurePoint, PostOutcome, PostTrace, ReadIndex, ShadowPm};
use xftrace::{FenceKind, FlushKind, Op, SourceLoc, Stage, TraceEntry};

const BASE: u64 = 0x1000;
const LINES: u64 = 12;
const POOL: u64 = LINES * 64;
const VAR_SLOTS: u64 = 4;
const VAR_STRIDE: u64 = POOL / VAR_SLOTS;

#[derive(Debug, Clone)]
enum Pre {
    Write { off: u64, size: u8, tid: u32 },
    NtWrite { off: u64, size: u8, tid: u32 },
    Flush { off: u64, tid: u32 },
    Fence { tid: u32 },
    TxBegin,
    TxAdd { off: u64, size: u8 },
    TxCommit,
    Alloc { off: u64, size: u8, zeroed: bool },
    Free { off: u64, size: u8 },
    RegisterVar { slot: u64 },
    RegisterRange { slot: u64, off: u64, size: u8 },
}

#[derive(Debug, Clone)]
enum Post {
    Read { off: u64, size: u8, checked: bool },
    Write { off: u64, size: u8 },
    Alloc { off: u64, size: u8, zeroed: bool },
    Fence,
}

fn pre_strategy() -> impl Strategy<Value = Pre> {
    let off = 0..POOL;
    let size = 1..=24u8;
    let tid = 0..2u32;
    let slot = 0..VAR_SLOTS;
    prop_oneof![
        6 => ((off.clone(), size.clone()), tid.clone())
            .prop_map(|((off, size), tid)| Pre::Write { off, size, tid }),
        // Single bytes: a lone byte with finding potential among clean ones.
        2 => ((off.clone(), 1..=1u8), tid.clone())
            .prop_map(|((off, size), tid)| Pre::Write { off, size, tid }),
        1 => ((off.clone(), size.clone()), tid.clone())
            .prop_map(|((off, size), tid)| Pre::NtWrite { off, size, tid }),
        4 => (off.clone(), tid.clone()).prop_map(|(off, tid)| Pre::Flush { off, tid }),
        3 => tid.prop_map(|tid| Pre::Fence { tid }),
        1 => Just(Pre::TxBegin),
        1 => (off.clone(), size.clone()).prop_map(|(off, size)| Pre::TxAdd { off, size }),
        1 => Just(Pre::TxCommit),
        2 => (off.clone(), size.clone(), any::<bool>())
            .prop_map(|(off, size, zeroed)| Pre::Alloc { off, size, zeroed }),
        1 => (off.clone(), size).prop_map(|(off, size)| Pre::Free { off, size }),
        1 => slot.clone().prop_map(|slot| Pre::RegisterVar { slot }),
        1 => (slot, off, 1..=160u8)
            .prop_map(|(slot, off, size)| Pre::RegisterRange { slot, off, size }),
    ]
}

fn post_strategy() -> impl Strategy<Value = Post> {
    let off = 0..POOL;
    prop_oneof![
        // Up to 160 bytes: reads span up to four lines.
        4 => (off.clone(), 1..=160u8, prop_oneof![4 => Just(true), 1 => Just(false)])
            .prop_map(|(off, size, checked)| Post::Read { off, size, checked }),
        // Word reads, which single out the bytes at line edges.
        4 => (off.clone(), 1..=8u8).prop_map(|(off, size)| Post::Read {
            off,
            size,
            checked: true
        }),
        2 => (off.clone(), 1..=96u8).prop_map(|(off, size)| Post::Write { off, size }),
        1 => (off, 1..=96u8, any::<bool>())
            .prop_map(|(off, size, zeroed)| Post::Alloc { off, size, zeroed }),
        1 => Just(Post::Fence),
    ]
}

fn domain_strategy() -> impl Strategy<Value = PersistDomain> {
    prop_oneof![
        Just(PersistDomain::Adr),
        Just(PersistDomain::Eadr),
        (1..=8usize).prop_map(|reorder_window| PersistDomain::CxlGpf { reorder_window }),
    ]
}

fn loc(line: u32) -> SourceLoc {
    SourceLoc {
        file: "check-filter-prop.rs",
        line,
    }
}

fn pre_entry(step: &Pre, line: u32) -> TraceEntry {
    let (op, tid) = match *step {
        Pre::Write { off, size, tid } => (
            Op::Write {
                addr: BASE + off,
                size: u32::from(size),
            },
            tid,
        ),
        Pre::NtWrite { off, size, tid } => (
            Op::NtWrite {
                addr: BASE + off,
                size: u32::from(size),
            },
            tid,
        ),
        Pre::Flush { off, tid } => (
            Op::Flush {
                addr: BASE + off,
                kind: FlushKind::Clwb,
            },
            tid,
        ),
        Pre::Fence { tid } => (
            Op::Fence {
                kind: FenceKind::Sfence,
            },
            tid,
        ),
        Pre::TxBegin => (Op::TxBegin, 0),
        Pre::TxAdd { off, size } => (
            Op::TxAdd {
                addr: BASE + off,
                size: u32::from(size),
            },
            0,
        ),
        Pre::TxCommit => (Op::TxCommit, 0),
        Pre::Alloc { off, size, zeroed } => (
            Op::Alloc {
                addr: BASE + off,
                size: u32::from(size),
                zeroed,
            },
            0,
        ),
        Pre::Free { off, size } => (
            Op::Free {
                addr: BASE + off,
                size: u32::from(size),
            },
            0,
        ),
        Pre::RegisterVar { slot } => (
            Op::RegisterCommitVar {
                addr: BASE + slot * VAR_STRIDE,
                size: 8,
            },
            0,
        ),
        Pre::RegisterRange { slot, off, size } => (
            Op::RegisterCommitRange {
                var_addr: BASE + slot * VAR_STRIDE,
                addr: BASE + off,
                size: u32::from(size),
            },
            0,
        ),
    };
    TraceEntry::new(op, loc(line), Stage::Pre, false, true).with_tid(tid)
}

fn post_entry(step: &Post, line: u32) -> TraceEntry {
    let (op, checked) = match *step {
        Post::Read { off, size, checked } => (
            Op::Read {
                addr: BASE + off,
                size: u32::from(size),
            },
            checked,
        ),
        Post::Write { off, size } => (
            Op::Write {
                addr: BASE + off,
                size: u32::from(size),
            },
            true,
        ),
        Post::Alloc { off, size, zeroed } => (
            Op::Alloc {
                addr: BASE + off,
                size: u32::from(size),
                zeroed,
            },
            true,
        ),
        Post::Fence => (
            Op::Fence {
                kind: FenceKind::Sfence,
            },
            true,
        ),
    };
    TraceEntry::new(op, loc(10_000 + line), Stage::Post, false, checked)
}

/// How the pre-failure replay leaves the fingerprint index.
#[derive(Debug, Clone, Copy)]
enum Index {
    /// Fingerprinting off: the filter scans bytes only.
    Off,
    /// Queried after the last step: fresh, so it prefilters lines.
    Fresh,
    /// Queried midway: dirty or stale at the end, so it must not be used.
    Midway,
}

fn index_strategy() -> impl Strategy<Value = Index> {
    prop_oneof![Just(Index::Off), Just(Index::Fresh), Just(Index::Midway)]
}

/// Replays `steps` into a shadow under `domain`, preceded by a sole
/// range-less commit variable when `sole_var` is set.
fn shadow_of(steps: &[Pre], domain: PersistDomain, sole_var: bool, index: Index) -> ShadowPm {
    let mut shadow = ShadowPm::with_domain(domain);
    if !matches!(index, Index::Off) {
        shadow.enable_fingerprinting();
    }
    let mut report = DetectionReport::new();
    if sole_var {
        shadow.apply_pre(&pre_entry(&Pre::RegisterVar { slot: 0 }, 1), &mut report);
    }
    let steps: Vec<&Pre> = steps
        .iter()
        // A sole range-less variable stays the only one.
        .filter(|s| !sole_var || !matches!(s, Pre::RegisterVar { .. } | Pre::RegisterRange { .. }))
        .collect();
    for (i, step) in steps.iter().enumerate() {
        shadow.apply_pre(&pre_entry(step, i as u32 + 2), &mut report);
        if matches!(index, Index::Midway) && i == steps.len() / 2 {
            let _ = shadow.persistence_fingerprint();
        }
    }
    if matches!(index, Index::Fresh) {
        let _ = shadow.persistence_fingerprint();
    }
    shadow
}

/// The plain replay: every entry through a `PostChecker`.
fn replay(
    shadow: &ShadowPm,
    first_read_only: bool,
    fp: FailurePoint,
    post: &[TraceEntry],
) -> DetectionReport {
    let mut report = DetectionReport::new();
    let mut checker = shadow.begin_post(first_read_only);
    for e in post {
        checker.apply_post(e, fp, &mut report);
    }
    report
}

fn json(report: &DetectionReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_filter_is_sound_and_check_equals_the_plain_replay(
        steps in prop::collection::vec(pre_strategy(), 0..120),
        post in prop::collection::vec(post_strategy(), 0..40),
        config in (domain_strategy(), any::<bool>(), index_strategy()),
    ) {
        let (domain, sole_var, index) = config;
        let shadow = shadow_of(&steps, domain, sole_var, index);
        let post: Vec<TraceEntry> = post
            .iter()
            .enumerate()
            .map(|(i, s)| post_entry(s, i as u32))
            .collect();
        let fp = FailurePoint { id: 3, loc: loc(9_999) };
        let possible = shadow.may_find(&ReadIndex::new(&post));
        let trace = PostTrace::new(post.clone(), false);
        for first_read_only in [true, false] {
            let plain = replay(&shadow, first_read_only, fp, &post);
            if !possible {
                prop_assert!(
                    plain.findings().is_empty(),
                    "the filter ruled out a finding the replay reports \
                     (first_read_only {first_read_only}, {domain:?}, {index:?}): {}",
                    json(&plain)
                );
            }
            for outcome in [PostOutcome::Completed, PostOutcome::Failed("recovery failed".into())] {
                let mut expected = plain.clone();
                if let Some(f) = outcome.finding(fp) {
                    expected.push(f);
                }
                let mut got = DetectionReport::new();
                let elided = check(&shadow, first_read_only, fp, &trace, &outcome, &mut got);
                prop_assert_eq!(elided, !possible);
                prop_assert_eq!(json(&got), json(&expected));
            }
        }
    }
}

/// The generators reach both sides of the filter, and replays that find
/// something: a property that only ever saw elided (or only replayed)
/// checks would prove little.
#[test]
fn the_generated_cases_reach_both_verdicts() {
    use proptest::test_runner::TestRng;
    let (steps, post) = (
        prop::collection::vec(pre_strategy(), 0..120),
        prop::collection::vec(post_strategy(), 0..40),
    );
    let (mut elided, mut replayed, mut found) = (0, 0, 0);
    for case in 0..384 {
        let mut rng = TestRng::for_case("check-filter-coverage", case);
        let steps = steps.generate(&mut rng);
        let post: Vec<TraceEntry> = post
            .generate(&mut rng)
            .iter()
            .enumerate()
            .map(|(i, s)| post_entry(s, i as u32))
            .collect();
        let shadow = shadow_of(
            &steps,
            domain_strategy().generate(&mut rng),
            false,
            Index::Fresh,
        );
        let fp = FailurePoint { id: 0, loc: loc(1) };
        let mut report = DetectionReport::new();
        let trace = PostTrace::new(post, false);
        if check(
            &shadow,
            true,
            fp,
            &trace,
            &PostOutcome::Completed,
            &mut report,
        ) {
            elided += 1;
        } else {
            replayed += 1;
            found += usize::from(!report.findings().is_empty());
        }
    }
    assert!(
        elided > 20 && replayed > 20 && found > 20,
        "elided {elided}, replayed {replayed}, found {found}"
    );
}
