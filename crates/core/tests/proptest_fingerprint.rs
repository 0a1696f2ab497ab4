//! Property-based tests of the persistence-state fingerprint that keys the
//! equivalence-class pruning layer: the incrementally indexed fingerprint
//! must equal a from-scratch hash of the shadow's suspect-line state after
//! *any* operation sequence, under every persistence domain, and the
//! fingerprint must abstract addresses (translating a whole program does
//! not change its class keys).
//!
//! The steps reach every path that patches the index: per-line mutations on
//! two threads, commit writes to variables with and without explicit
//! ranges, registrations, and CXL fences. Queries come after every step
//! and, separately, only every few dozen steps, so the deferred per-line
//! refresh is tested with many lines pending at once.

use proptest::prelude::*;

use pmem::PersistDomain;
use xfdetector::{DetectionReport, ShadowPm};
use xftrace::{FenceKind, FlushKind, Op, SourceLoc, Stage, TraceEntry};

const LINES: u64 = 16;
const POOL: u64 = LINES * 64;

/// Commit variables live at one of a few fixed slots, so commit ranges
/// find a registered variable and writes hit variables often enough to
/// move them.
const VAR_SLOTS: u64 = 4;
const VAR_STRIDE: u64 = POOL / VAR_SLOTS;

#[derive(Debug, Clone)]
enum Step {
    Write { off: u64, size: u8, tid: u32 },
    NtWrite { off: u64, size: u8, tid: u32 },
    Flush { off: u64, tid: u32 },
    Fence { tid: u32 },
    TxBegin,
    TxAdd { off: u64, size: u8 },
    TxCommit,
    Alloc { off: u64, size: u8, zeroed: bool },
    Free { off: u64, size: u8 },
    RegisterCommitVar { off: u64 },
    RegisterCommitRange { var: u64, off: u64, size: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let off = 0..(POOL / 8);
    let size = 1..=32u8;
    let tid = 0..2u32;
    let slot = 0..VAR_SLOTS;
    prop_oneof![
        5 => ((off.clone(), size.clone()), tid.clone())
            .prop_map(|((o, s), t)| Step::Write { off: o * 8, size: s, tid: t }),
        1 => ((off.clone(), size.clone()), tid.clone())
            .prop_map(|((o, s), t)| Step::NtWrite { off: o * 8, size: s, tid: t }),
        3 => (off.clone(), tid.clone()).prop_map(|(o, t)| Step::Flush { off: o * 8, tid: t }),
        3 => tid.prop_map(|t| Step::Fence { tid: t }),
        1 => Just(Step::TxBegin),
        1 => (off.clone(), size.clone()).prop_map(|(o, s)| Step::TxAdd { off: o * 8, size: s }),
        1 => Just(Step::TxCommit),
        1 => (off.clone(), size.clone(), any::<bool>())
            .prop_map(|(o, s, z)| Step::Alloc { off: o * 8, size: s, zeroed: z }),
        1 => (off.clone(), size).prop_map(|(o, s)| Step::Free { off: o * 8, size: s }),
        1 => off.clone().prop_map(|o| Step::RegisterCommitVar { off: o * 8 }),
        1 => slot.clone().prop_map(|v| Step::RegisterCommitVar { off: v * VAR_STRIDE }),
        2 => (slot, off, 1..=128u8)
            .prop_map(|(v, o, s)| Step::RegisterCommitRange { var: v, off: o * 8, size: s }),
    ]
}

fn domain_strategy() -> impl Strategy<Value = PersistDomain> {
    prop_oneof![
        Just(PersistDomain::Adr),
        Just(PersistDomain::Eadr),
        Just(PersistDomain::CxlGpf { reorder_window: 3 }),
    ]
}

impl Step {
    /// The issuing thread (0 for the steps that carry none).
    fn tid(&self) -> u32 {
        match *self {
            Step::Write { tid, .. }
            | Step::NtWrite { tid, .. }
            | Step::Flush { tid, .. }
            | Step::Fence { tid } => tid,
            _ => 0,
        }
    }
}

fn entry_for(step: &Step, base: u64, line: u32) -> TraceEntry {
    let loc = SourceLoc {
        file: "fingerprint-prop.rs",
        line,
    };
    let op = match *step {
        Step::Write { off, size, .. } => Op::Write {
            addr: base + off,
            size: u32::from(size),
        },
        Step::NtWrite { off, size, .. } => Op::NtWrite {
            addr: base + off,
            size: u32::from(size),
        },
        Step::Flush { off, .. } => Op::Flush {
            addr: base + off,
            kind: FlushKind::Clwb,
        },
        Step::Fence { .. } => Op::Fence {
            kind: FenceKind::Sfence,
        },
        Step::TxBegin => Op::TxBegin,
        Step::TxAdd { off, size } => Op::TxAdd {
            addr: base + off,
            size: u32::from(size),
        },
        Step::TxCommit => Op::TxCommit,
        Step::Alloc { off, size, zeroed } => Op::Alloc {
            addr: base + off,
            size: u32::from(size),
            zeroed,
        },
        Step::Free { off, size } => Op::Free {
            addr: base + off,
            size: u32::from(size),
        },
        Step::RegisterCommitVar { off } => Op::RegisterCommitVar {
            addr: base + off,
            size: 8,
        },
        Step::RegisterCommitRange { var, off, size } => Op::RegisterCommitRange {
            var_addr: base + var * VAR_STRIDE,
            addr: base + off,
            size: u32::from(size),
        },
    };
    TraceEntry::new(op, loc, Stage::Pre, false, true).with_tid(step.tid())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The tentpole invariant: after every single replayed entry, the
    /// incrementally maintained suspect-line index produces exactly the
    /// fingerprint a full scan of the shadow state produces.
    #[test]
    fn incremental_fingerprint_equals_from_scratch(
        steps in prop::collection::vec(step_strategy(), 0..200),
        domain in domain_strategy(),
    ) {
        let mut shadow = ShadowPm::with_domain(domain);
        shadow.enable_fingerprinting();
        let mut report = DetectionReport::new();
        for (i, step) in steps.iter().enumerate() {
            let e = entry_for(step, 0x1000, i as u32 + 1);
            shadow.apply_pre(&e, &mut report);
            prop_assert_eq!(
                shadow.persistence_fingerprint(),
                shadow.fingerprint_from_scratch(),
                "index diverged from ground truth after step {} ({:?}) under {:?}",
                i, step, domain
            );
        }
    }

    /// Sparse queries: a query re-derives every line mutated since the
    /// previous one, so many steps' lines are pending at once. The dense
    /// property above never has more than one step's lines pending.
    #[test]
    fn sparsely_queried_fingerprint_equals_from_scratch(
        steps in prop::collection::vec(step_strategy(), 0..400),
        interval in 1..=50usize,
        domain in domain_strategy(),
    ) {
        let mut shadow = ShadowPm::with_domain(domain);
        shadow.enable_fingerprinting();
        let mut report = DetectionReport::new();
        for (i, step) in steps.iter().enumerate() {
            let e = entry_for(step, 0x1000, i as u32 + 1);
            shadow.apply_pre(&e, &mut report);
            if (i + 1) % interval == 0 {
                prop_assert_eq!(
                    shadow.persistence_fingerprint(),
                    shadow.fingerprint_from_scratch(),
                    "index diverged from ground truth at step {} (every {}) under {:?}",
                    i, interval, domain
                );
            }
        }
        prop_assert_eq!(shadow.persistence_fingerprint(), shadow.fingerprint_from_scratch());
    }

    /// Address abstraction: running the identical program at a translated
    /// base address yields the identical fingerprint — the property that
    /// lets per-iteration pool allocations collapse into one class.
    #[test]
    fn fingerprint_is_translation_invariant(
        steps in prop::collection::vec(step_strategy(), 0..150),
        shift_lines in 1..64u64,
        domain in domain_strategy(),
    ) {
        let run = |base: u64| {
            let mut shadow = ShadowPm::with_domain(domain);
            shadow.enable_fingerprinting();
            let mut report = DetectionReport::new();
            for (i, step) in steps.iter().enumerate() {
                shadow.apply_pre(&entry_for(step, base, i as u32 + 1), &mut report);
            }
            shadow.persistence_fingerprint()
        };
        prop_assert_eq!(run(0x1000), run(0x1000 + shift_lines * 64));
    }

    /// Enabling the index on an already-populated shadow seeds it
    /// correctly: a late `enable_fingerprinting` matches a shadow that
    /// indexed from the start.
    #[test]
    fn late_enable_matches_indexed_from_start(
        steps in prop::collection::vec(step_strategy(), 0..150),
        domain in domain_strategy(),
    ) {
        let mut indexed = ShadowPm::with_domain(domain);
        indexed.enable_fingerprinting();
        let mut late = ShadowPm::with_domain(domain);
        let mut report = DetectionReport::new();
        for (i, step) in steps.iter().enumerate() {
            let e = entry_for(step, 0x1000, i as u32 + 1);
            indexed.apply_pre(&e, &mut report);
            late.apply_pre(&e, &mut report);
        }
        late.enable_fingerprinting();
        prop_assert_eq!(late.persistence_fingerprint(), indexed.persistence_fingerprint());
    }
}
