//! Microbenchmarks of the shadow-PM scan paths: word-wise bitmask walks
//! (`trailing_zeros` over the per-line `present`/`pending` u64 masks)
//! against the per-byte probing they replaced.
//!
//! The per-byte baseline is expressed through the public one-byte probe
//! (`ShadowPm::persist_state`), which is exactly what the old hot loops
//! did internally 64 times per line; the word-wise path is the production
//! `is_range_persisted` code. The fingerprint rows set the indexed query
//! (`persistence_fingerprint`, O(distinct records)) beside the full rescan
//! it is tested against (`fingerprint_from_scratch`, O(tracked bytes)).
//! The replay rows time one failure-point interval of the pre-failure
//! replay, with and without the fingerprint index and its query. The
//! `check_` rows time one failure point's check of a bug-free 170-entry
//! post-failure trace: the full `PostChecker` replay against the filtered
//! `plan::check`, whose read index is already built (as for every replay
//! after a trace's first), with the fingerprint index as a line prefilter
//! and with the byte scan alone.
//!
//! ```sh
//! cargo bench -p xfd-bench --bench shadow_scan
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use xfdetector::plan::check;
use xfdetector::{DetectionReport, FailurePoint, PersistState, PostOutcome, PostTrace, ShadowPm};
use xftrace::{FenceKind, FlushKind, Op, SourceLoc, Stage, TraceEntry};

const BASE: u64 = 0x1000;
const LINES: u64 = 1024;
const SPAN: u64 = LINES * 64;

fn entry(op: Op) -> TraceEntry {
    TraceEntry::new(op, SourceLoc::synthetic("<bench>"), Stage::Pre, false, true)
}

/// A shadow with `LINES` fully persisted cache lines: every byte written,
/// flushed and fenced, so range checks walk the longest possible path.
fn persisted_shadow() -> ShadowPm {
    let mut shadow = ShadowPm::new();
    let mut report = DetectionReport::new();
    for li in 0..LINES {
        let addr = BASE + li * 64;
        shadow.apply_pre(&entry(Op::Write { addr, size: 64 }), &mut report);
        shadow.apply_pre(
            &entry(Op::Flush {
                addr,
                kind: FlushKind::Clwb,
            }),
            &mut report,
        );
    }
    shadow.apply_pre(
        &entry(Op::Fence {
            kind: FenceKind::Sfence,
        }),
        &mut report,
    );
    shadow
}

/// A shadow with `LINES` written but never flushed cache lines: every line
/// is suspect, all with the same record.
fn suspect_shadow() -> ShadowPm {
    let mut shadow = ShadowPm::new();
    let mut report = DetectionReport::new();
    for li in 0..LINES {
        let addr = BASE + li * 64;
        shadow.apply_pre(&entry(Op::Write { addr, size: 64 }), &mut report);
    }
    shadow
}

/// The per-byte census the word-wise scan replaced: probe all 64 bytes of
/// every line individually.
fn per_byte_range_persisted(shadow: &ShadowPm, addr: u64, size: u64) -> bool {
    (addr..addr + size).all(|a| {
        matches!(
            shadow.persist_state(a),
            PersistState::Persisted | PersistState::Unmodified
        )
    })
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("shadow_scan");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let shadow = persisted_shadow();
    assert!(shadow.is_range_persisted(BASE, SPAN));
    assert!(per_byte_range_persisted(&shadow, BASE, SPAN));

    // The pair the CI gate compares: the same 64 KiB persisted-range
    // census, per-byte vs word-wise.
    group.bench_function("per_byte_census_64k", |b| {
        b.iter(|| std::hint::black_box(per_byte_range_persisted(&shadow, BASE, SPAN)));
    });
    group.bench_function("word_wise_census_64k", |b| {
        b.iter(|| std::hint::black_box(shadow.is_range_persisted(BASE, SPAN)));
    });

    // The pruning fingerprint's upkeep: dirty one line, which re-derives
    // that line's records, then query the index.
    group.bench_function("fingerprint_update_one_dirty_line", |b| {
        let mut shadow = persisted_shadow();
        shadow.enable_fingerprinting();
        let _ = shadow.persistence_fingerprint();
        let write = entry(Op::Write {
            addr: BASE,
            size: 8,
        });
        let mut report = DetectionReport::new();
        b.iter(|| {
            shadow.apply_pre(&write, &mut report);
            std::hint::black_box(shadow.persistence_fingerprint())
        });
    });
    // A query folds only the distinct records, however many lines are
    // suspect; the full rescan below walks every tracked byte.
    group.bench_function("fingerprint_query_1024_suspect_lines", |b| {
        let mut shadow = suspect_shadow();
        shadow.enable_fingerprinting();
        b.iter(|| std::hint::black_box(shadow.persistence_fingerprint()));
    });
    group.bench_function("fingerprint_from_scratch_1024_lines", |b| {
        let shadow = persisted_shadow();
        b.iter(|| std::hint::black_box(shadow.fingerprint_from_scratch()));
    });

    // One failure-point interval as the pruned engines replay it: 32
    // eight-byte stores over 4 lines, their flushes and a fence, then the
    // class-key query when the index is on.
    let interval = replay_interval();
    group.bench_function("replay_interval_fingerprinted", |b| {
        let mut shadow = persisted_shadow();
        shadow.enable_fingerprinting();
        let mut report = DetectionReport::new();
        b.iter(|| {
            for e in &interval {
                shadow.apply_pre(e, &mut report);
            }
            std::hint::black_box(shadow.persistence_fingerprint())
        });
    });
    group.bench_function("replay_interval_unindexed", |b| {
        let mut shadow = persisted_shadow();
        let mut report = DetectionReport::new();
        b.iter(|| {
            for e in &interval {
                shadow.apply_pre(e, &mut report);
            }
            std::hint::black_box(shadow.entries_replayed())
        });
    });

    // One failure point's check of a bug-free recovery trace.
    let post = PostTrace::new(recovery_trace(), false);
    let fp = FailurePoint {
        id: 0,
        loc: SourceLoc::synthetic("<bench fp>"),
    };
    let mut indexed = persisted_shadow();
    indexed.enable_fingerprinting();
    let _ = indexed.persistence_fingerprint();
    let plain = persisted_shadow();
    // The filtered check: the elision verdict and the findings.
    let filtered = |shadow: &ShadowPm| {
        let mut report = DetectionReport::new();
        let elided = check(
            shadow,
            true,
            fp,
            &post,
            &PostOutcome::Completed,
            &mut report,
        );
        (elided, report)
    };
    let (elided, report) = filtered(&plain);
    assert!(
        elided && report.is_empty(),
        "the recovery trace is bug-free"
    );
    group.bench_function("check_full_replay_170_entries", |b| {
        b.iter(|| {
            let mut report = DetectionReport::new();
            let mut checker = plain.begin_post(true);
            for e in post.entries() {
                checker.apply_post(e, fp, &mut report);
            }
            std::hint::black_box(report)
        });
    });
    group.bench_function("check_filtered_170_entries_fp_prefilter", |b| {
        b.iter(|| std::hint::black_box(filtered(&indexed)));
    });
    group.bench_function("check_filtered_170_entries_byte_scan", |b| {
        b.iter(|| std::hint::black_box(filtered(&plain)));
    });

    group.finish();
}

/// A recovery-shaped post-failure trace of 170 entries over 13 persisted
/// lines: eight-byte reads walking the lines again and again, with a
/// write-back of a header word every tenth entry.
fn recovery_trace() -> Vec<TraceEntry> {
    (0..170u64)
        .map(|i| {
            let addr = BASE + (i % 13) * 64 * 7 + (i % 8) * 8;
            let op = if i % 10 == 9 {
                Op::Write { addr, size: 8 }
            } else {
                Op::Read { addr, size: 8 }
            };
            TraceEntry::new(
                op,
                SourceLoc::synthetic("<recovery>"),
                Stage::Post,
                false,
                true,
            )
        })
        .collect()
}

/// 32 eight-byte stores filling 4 cache lines, one flush per line and a
/// closing fence.
fn replay_interval() -> Vec<TraceEntry> {
    let mut entries: Vec<TraceEntry> = (0..32)
        .map(|i| {
            entry(Op::Write {
                addr: BASE + i * 8,
                size: 8,
            })
        })
        .collect();
    entries.extend((0..4).map(|li| {
        entry(Op::Flush {
            addr: BASE + li * 64,
            kind: FlushKind::Clwb,
        })
    }));
    entries.push(entry(Op::Fence {
        kind: FenceKind::Sfence,
    }));
    entries
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
